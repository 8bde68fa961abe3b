//! Error type of the engine facade.

/// Sentinel tuple id carried by [`CdbError::CorruptRecord`] when the
/// database *catalog* — not an individual stored tuple — fails validation
/// (bad magic, checksum mismatch, truncated blob, torn meta chain).
pub const CATALOG_RECORD: u32 = u32::MAX;

/// Sentinel tuple id carried by [`CdbError::CorruptRecord`] when a
/// write-ahead-log record fails validation during replay. Replay treats it
/// as the end of the usable log suffix, not as a fatal open error.
pub const WAL_RECORD: u32 = u32::MAX - 1;

/// Errors surfaced by the `cdb-core` public API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CdbError {
    /// The named relation does not exist.
    RelationNotFound(String),
    /// A relation with that name already exists.
    RelationExists(String),
    /// Tuple/query dimension differs from the relation's.
    DimensionMismatch {
        /// Dimension the relation was created with.
        expected: usize,
        /// Dimension of the offending tuple or query.
        got: usize,
    },
    /// The tuple's extension is empty; constraint relations store
    /// satisfiable generalized tuples only.
    UnsatisfiableTuple,
    /// The tuple id does not name a live tuple.
    NoSuchTuple(u32),
    /// The relation has no dual index, or its index does not support the
    /// requested operation.
    NoIndex(String),
    /// The query cannot be handled by the chosen strategy (e.g. a vertical
    /// query boundary, or a d-dimensional slope outside the bounding box of
    /// `S`).
    UnsupportedQuery(String),
    /// A stored heap record failed to decode back into a generalized tuple
    /// (truncated or overwritten bytes). Carries the offending tuple id,
    /// or [`CATALOG_RECORD`] when the database catalog itself is corrupt.
    CorruptRecord(u32),
    /// An operating-system I/O failure from the underlying file pager
    /// (open, read, write or sync). Carries the OS error message.
    Io(String),
    /// The relation's heap has corrupt pages; queries against it are
    /// refused until the data is restored from elsewhere. Sibling
    /// relations keep answering normally (graceful degradation).
    Quarantined(String),
    /// The database was opened read-only; mutations are refused.
    ReadOnly,
    /// A relation dimension no tuple could be stored in: zero, or past
    /// `max`, where a single constraint outgrows a heap page.
    DimensionOutOfRange {
        /// The dimension asked for.
        dim: usize,
        /// The largest dimension a heap page of this database admits.
        max: usize,
    },
    /// The tuple's stored form does not fit one heap page.
    TupleTooLarge {
        /// Encoded length of the tuple in bytes.
        len: usize,
        /// The longest record a heap page holds.
        max: usize,
    },
}

cdb_storage::wire_enum!(CdbError {
    0 => RelationNotFound(name),
    1 => RelationExists(name),
    2 => DimensionMismatch { expected, got },
    3 => UnsatisfiableTuple,
    4 => NoSuchTuple(id),
    5 => NoIndex(name),
    6 => UnsupportedQuery(why),
    7 => CorruptRecord(id),
    8 => Io(why),
    9 => Quarantined(name),
    10 => ReadOnly,
    11 => DimensionOutOfRange { dim, max },
    12 => TupleTooLarge { len, max },
});

impl std::fmt::Display for CdbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdbError::RelationNotFound(n) => write!(f, "relation '{n}' not found"),
            CdbError::RelationExists(n) => write!(f, "relation '{n}' already exists"),
            CdbError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: relation is {expected}-D, got {got}-D"
                )
            }
            CdbError::UnsatisfiableTuple => {
                write!(f, "tuple is unsatisfiable (empty extension)")
            }
            CdbError::NoSuchTuple(id) => write!(f, "no tuple with id {id}"),
            CdbError::NoIndex(n) => write!(f, "relation '{n}' has no dual index"),
            CdbError::UnsupportedQuery(m) => write!(f, "unsupported query: {m}"),
            CdbError::CorruptRecord(id) if *id == CATALOG_RECORD => {
                write!(f, "database catalog is corrupt (failed to decode)")
            }
            CdbError::CorruptRecord(id) if *id == WAL_RECORD => {
                write!(f, "write-ahead-log record is corrupt (failed to decode)")
            }
            CdbError::CorruptRecord(id) => {
                write!(f, "heap record of tuple {id} is corrupt (failed to decode)")
            }
            CdbError::Io(msg) => write!(f, "i/o error: {msg}"),
            CdbError::Quarantined(n) => {
                write!(f, "relation '{n}' is quarantined (corrupt heap pages)")
            }
            CdbError::ReadOnly => write!(f, "database is read-only"),
            CdbError::DimensionOutOfRange { dim, max } => write!(
                f,
                "dimension {dim} is out of range: a heap page stores tuples of 1 to {max} dimensions"
            ),
            CdbError::TupleTooLarge { len, max } => write!(
                f,
                "tuple takes {len} bytes stored, more than the {max} a heap page holds"
            ),
        }
    }
}

impl std::error::Error for CdbError {}

impl From<std::io::Error> for CdbError {
    /// Lifts a pager failure into the engine error space. Checksum
    /// mismatches surface as [`CdbError::Io`] too — per-relation corruption
    /// is classified once, at open time, into quarantine state; a checksum
    /// failure seen *during* a query means the device degraded underneath a
    /// live handle.
    fn from(e: std::io::Error) -> Self {
        CdbError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = CdbError::DimensionMismatch {
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("2-D"));
        assert!(e.to_string().contains("3-D"));
        assert!(CdbError::RelationNotFound("r".into())
            .to_string()
            .contains("'r'"));
    }
}
