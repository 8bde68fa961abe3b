//! Byte layouts of the geometry crate's types.
//!
//! `cdb-geometry` depends on nothing, so it cannot implement
//! [`cdb_storage::Wire`], and the orphan rule keeps every other crate from
//! doing it in its place. These modules are the stand-ins: `put`/`get`
//! pairs named by the `field as module` form of `wire_struct!` /
//! `wire_enum!`.

use cdb_geometry::constraint::RelOp;
use cdb_geometry::halfplane::HalfPlane;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_storage::codec::{finite, get_option, put_option};
use cdb_storage::{CodecError, RecordReader, RecordWriter, Wire};

/// A generalized tuple: its heap encoding
/// ([`GeneralizedTuple::encode`]) as one length-prefixed field.
pub mod tuple {
    use super::*;

    /// Appends the tuple.
    pub fn put(t: &GeneralizedTuple, w: &mut RecordWriter) {
        w.put_bytes(&t.encode())
    }

    /// Reads a tuple; [`GeneralizedTuple::decode`] validates it.
    pub fn get(r: &mut RecordReader<'_>) -> Result<GeneralizedTuple, CodecError> {
        GeneralizedTuple::decode(r.get_bytes()?).ok_or(CodecError::Invalid("tuple bytes"))
    }
}

/// An optional [`tuple`](mod@tuple).
pub mod opt_tuple {
    use super::*;

    /// Appends the presence byte and the tuple.
    pub fn put(t: &Option<GeneralizedTuple>, w: &mut RecordWriter) {
        put_option(t.as_ref(), w, tuple::put)
    }

    /// Mirror of [`put`].
    pub fn get(r: &mut RecordReader<'_>) -> Result<Option<GeneralizedTuple>, CodecError> {
        get_option(r, tuple::get)
    }
}

/// A query half-plane: operator byte (`0` = ≤, `1` = ≥), intercept, slope
/// vector.
pub mod halfplane {
    use super::*;

    /// Appends the half-plane.
    pub fn put(h: &HalfPlane, w: &mut RecordWriter) {
        w.put_u8(match h.op {
            RelOp::Le => 0,
            RelOp::Ge => 1,
        });
        h.intercept.put(w);
        h.slope.put(w)
    }

    /// Reads a half-plane, refusing the non-finite coefficients
    /// [`HalfPlane::new`] would panic on.
    pub fn get(r: &mut RecordReader<'_>) -> Result<HalfPlane, CodecError> {
        let op = match r.get_u8()? {
            0 => RelOp::Le,
            1 => RelOp::Ge,
            _ => return Err(CodecError::Invalid("relop tag")),
        };
        let intercept = finite::get(r)?;
        Ok(HalfPlane::new(finite::get(r)?, intercept, op))
    }
}
