//! Typed write-ahead-log mutation records.
//!
//! Every mutating entry point of [`crate::db::ConstraintDb`] — DDL,
//! inserts/deletes, index builds — logs one [`WalRecord`] carrying exactly
//! the parameters needed to re-run the call. Replaying the same record
//! sequence over the same checkpointed base state reproduces the same
//! engine state bit-for-bit: in particular, tuple ids are deterministic
//! because `insert` assigns `slots.len()` and the slot table only grows.
//!
//! The byte layout is the record's [`Wire`](cdb_storage::Wire) impl: a tag
//! byte, then the variant's fields, each laid out by its own type. The
//! framing, CRC and LSN stamping live one layer down in
//! [`cdb_storage::wal`] — this module only sees payload bytes. Decoding
//! never panics: the field types refuse everything their constructors
//! would `assert!` against (slope ordering, point count and cell work,
//! finite floats), surfaced as
//! [`CdbError::CorruptRecord`] with the [`WAL_RECORD`] sentinel, which
//! replay treats as the end of the usable log.

use cdb_geometry::tuple::GeneralizedTuple;
use cdb_storage::codec::{self, finite};

use crate::error::{CdbError, WAL_RECORD};
use crate::index::{IndexSpec, SlopeGeometry};
use crate::wire::tuple;

/// One logged mutation, carrying the parameters of the engine call that
/// produced it.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum WalRecord {
    /// `create_relation(name, dim)`.
    CreateRelation { name: String, dim: u32 },
    /// `drop_relation(name)`.
    DropRelation { name: String },
    /// `insert(relation, tuple)`.
    Insert {
        relation: String,
        tuple: GeneralizedTuple,
    },
    /// `delete(relation, id)`.
    Delete { relation: String, id: u32 },
    /// `build_index(relation, IndexSpec::Dual(geometry))`.
    BuildDual {
        relation: String,
        geometry: SlopeGeometry,
    },
    /// `build_index(relation, IndexSpec::RPlus { fill })`.
    BuildRPlus { relation: String, fill: f64 },
}

cdb_storage::wire_enum!(WalRecord {
    1 => CreateRelation { name, dim },
    2 => DropRelation { name },
    3 => Insert { relation, tuple as tuple },
    4 => Delete { relation, id },
    5 => BuildDual { relation, geometry },
    7 => BuildRPlus { relation, fill as finite },
});

impl WalRecord {
    /// The record of `build_index(relation, spec)`: one tag per index kind.
    pub(crate) fn build(relation: &str, spec: IndexSpec) -> WalRecord {
        let relation = relation.to_string();
        match spec {
            IndexSpec::Dual(geometry) => WalRecord::BuildDual { relation, geometry },
            IndexSpec::RPlus { fill } => WalRecord::BuildRPlus { relation, fill },
        }
    }

    /// Serializes the record for the log.
    pub(crate) fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Deserializes a logged record.
    ///
    /// # Errors
    /// [`CdbError::CorruptRecord`] (id [`WAL_RECORD`]) on an unknown tag,
    /// truncation, trailing garbage, or values a constructor would refuse.
    pub(crate) fn decode(bytes: &[u8]) -> Result<WalRecord, CdbError> {
        codec::decode(bytes).map_err(|_| CdbError::CorruptRecord(WAL_RECORD))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ddim::SlopePoints;
    use crate::slopes::SlopeSet;
    use cdb_geometry::{LinearConstraint, RelOp};
    use cdb_storage::conformance::conformance;
    use cdb_storage::{RecordWriter, Wire};

    fn box_tuple() -> GeneralizedTuple {
        GeneralizedTuple::new(vec![
            LinearConstraint::new(vec![1.0, 0.0], 0.0, RelOp::Ge),
            LinearConstraint::new(vec![1.0, 0.0], -2.0, RelOp::Le),
            LinearConstraint::new(vec![0.0, 1.0], 0.0, RelOp::Ge),
            LinearConstraint::new(vec![0.0, 1.0], -2.0, RelOp::Le),
        ])
    }

    /// The sample after `prev`, one arm per variant: a new variant does
    /// not compile until it is given a sample here.
    fn sample_after(prev: Option<&WalRecord>) -> Option<WalRecord> {
        let relation = || "r".to_string();
        Some(match prev {
            None => WalRecord::CreateRelation {
                name: relation(),
                dim: 2,
            },
            Some(WalRecord::CreateRelation { .. }) => WalRecord::DropRelation { name: relation() },
            Some(WalRecord::DropRelation { .. }) => WalRecord::Insert {
                relation: relation(),
                tuple: box_tuple(),
            },
            Some(WalRecord::Insert { .. }) => WalRecord::Delete {
                relation: relation(),
                id: 7,
            },
            Some(WalRecord::Delete { .. }) => WalRecord::BuildDual {
                relation: relation(),
                geometry: SlopeSet::new(vec![-2.0, -0.5, 0.75, 3.0]).into(),
            },
            Some(WalRecord::BuildDual { .. }) => WalRecord::BuildRPlus {
                relation: relation(),
                fill: 0.8,
            },
            Some(WalRecord::BuildRPlus { .. }) => return None,
        })
    }

    /// Every variant once, plus a `BuildDual` over a grid of slope points
    /// and one over a bare set after the slope-set one — the order of
    /// `golden/wal_records.hex`.
    fn samples() -> Vec<WalRecord> {
        let mut all: Vec<_> =
            std::iter::successors(sample_after(None), |prev| sample_after(Some(prev))).collect();
        let bare = SlopePoints::new(3, vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
        for (at, points) in [(5, SlopePoints::grid(3, 2, 1.0)), (6, bare)] {
            let relation = "r".into();
            let geometry = points.into();
            all.insert(at, WalRecord::BuildDual { relation, geometry });
        }
        all
    }

    #[test]
    fn wal_record_conformance() {
        conformance(&samples(), WalRecord::encode, WalRecord::decode);
    }

    #[test]
    fn golden_bytes_are_those_of_the_parent_format() {
        let golden: Vec<Vec<u8>> = include_str!("../golden/wal_records.hex")
            .lines()
            .map(crate::unhex)
            .collect();
        let samples = samples();
        assert_eq!(golden.len(), samples.len());
        for (rec, bytes) in samples.iter().zip(&golden) {
            assert_eq!(&rec.encode(), bytes, "{rec:?}");
            assert_eq!(&WalRecord::decode(bytes).unwrap(), rec);
        }
    }

    /// The records as written beside an older catalog stay frozen: the
    /// lines of the `golden/wal_records.hex` of their day, in the same
    /// order. A line whose tag is in `refused` is refused as damage now,
    /// and every other line reads as the current golden's line at the same
    /// position. Returns how many were refused.
    fn frozen_lines_read_but_for(frozen: &str, refused: &[u8]) -> usize {
        let current: Vec<_> = include_str!("../golden/wal_records.hex")
            .lines()
            .map(crate::unhex)
            .collect();
        let mut count = 0;
        for (i, old) in frozen.lines().map(crate::unhex).enumerate() {
            let got = WalRecord::decode(&old);
            if refused.contains(&old[0]) {
                assert!(
                    matches!(got, Err(CdbError::CorruptRecord(WAL_RECORD))),
                    "{got:?}"
                );
                count += 1;
            } else {
                assert_eq!(old, current[i]);
                assert!(got.is_ok());
            }
        }
        count
    }

    /// Beside catalog v4, the two `BuildDualD` lines ended in the grid
    /// presence byte (and a grid's axes); then come a `TightenIndex`
    /// (tag 8) and a `SetPartition` (tag 9). Its slope-set `BuildDual`
    /// (tag 5) has no geometry tag, as up to catalog v7.
    #[test]
    fn build_dual_d_records_of_catalog_v4_are_refused() {
        let frozen = include_str!("../golden/wal_records_v4.hex");
        assert_eq!(frozen_lines_read_but_for(frozen, &[5, 6, 8, 9]), 5);
    }

    /// Beside catalog v5, tag 9 installed a sharded engine's partition spec.
    #[test]
    fn set_partition_records_of_catalog_v5_are_refused() {
        let frozen = include_str!("../golden/wal_records_v5.hex");
        assert_eq!(frozen_lines_read_but_for(frozen, &[5, 6, 8, 9]), 5);
    }

    /// Beside catalog v6, tag 8 re-tightened a relation's handicaps: a log
    /// holding one is refused from that record on, like any damage.
    #[test]
    fn tighten_index_records_of_catalog_v6_are_refused() {
        let frozen = include_str!("../golden/wal_records_v6.hex");
        assert_eq!(frozen_lines_read_but_for(frozen, &[5, 6, 8]), 4);
    }

    /// Beside catalog v7, tag 6 built a d-dimensional index and tag 5 a
    /// 2-D one with no geometry tag: one `BuildDual` now carries either
    /// geometry behind its tag byte, and both old records are damage.
    #[test]
    fn build_records_of_catalog_v7_are_refused() {
        let frozen = include_str!("../golden/wal_records_v7.hex");
        assert_eq!(frozen_lines_read_but_for(frozen, &[5, 6]), 3);
    }

    #[test]
    fn decode_rejects_what_constructors_would_refuse() {
        let is_corrupt = |b: &[u8]| {
            matches!(
                WalRecord::decode(b),
                Err(CdbError::CorruptRecord(WAL_RECORD))
            )
        };
        assert!(is_corrupt(&[]));
        assert!(is_corrupt(&[0xFF]));
        assert!(is_corrupt(b"\x01truncated"));
        let record = |tag: u8, body: &dyn Fn(&mut RecordWriter)| {
            let mut w = RecordWriter::new();
            (tag, "r".to_string()).put(&mut w);
            body(&mut w);
            w.into_bytes()
        };
        // Non-ascending slopes would make SlopeSet::new reorder them.
        assert!(is_corrupt(&record(5, &|w| (0u8, vec![1.0, 0.5]).put(w))));
        // A geometry tag that names none.
        assert!(is_corrupt(&record(5, &|w| (2u8, vec![0.5, 1.0]).put(w))));
        // Too few points for the dimension.
        assert!(is_corrupt(&record(5, &|w| (1u8, 3u32, 2u32).put(w))));
        // More cell work than an index may ask for: d = 8.
        assert!(is_corrupt(&record(5, &|w| {
            (1u8, 8u32, 8u32).put(w);
            for _ in 0..8 {
                w.put_seq(&[0.5; 7]);
            }
        })));
        // A forged dimension must not size any allocation.
        assert!(is_corrupt(&record(5, &|w| (1u8, u32::MAX, u32::MAX).put(w))));
        // Tag 6 is retired: a well-formed body of its day is damage.
        let grid = || SlopePoints::grid(3, 2, 1.0);
        assert!(!is_corrupt(
            &record(5, &|w| SlopeGeometry::from(grid()).put(w))
        ));
        assert!(is_corrupt(&record(6, &|w| grid().put(w))));
        // Non-finite fill factor.
        assert!(is_corrupt(&record(7, &|w| f64::NAN.put(w))));
    }
}
