//! The harness's own record of what a written relation must contain:
//! every acknowledged insert minus every acknowledged delete.

use std::collections::{BTreeMap, VecDeque};

use cdb_core::{CdbError, ConstraintDb, SlopeSet};
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_workload::TupleGen;

use crate::inputs::{dual_keys, DualKeys};

/// Live tuples of one relation, oldest first.
pub struct Model {
    slopes: SlopeSet,
    live: VecDeque<(u32, GeneralizedTuple, DualKeys)>,
}

impl Model {
    /// A relation freshly loaded with `tuples` as ids `0..len`.
    pub fn loaded(tuples: &[GeneralizedTuple]) -> Model {
        let mut m = Model {
            slopes: crate::inputs::slope_set(),
            live: VecDeque::with_capacity(tuples.len() * 2),
        };
        for (i, t) in tuples.iter().enumerate() {
            m.inserted(i as u32, t.clone());
        }
        m
    }

    /// Records an acknowledged insert.
    pub fn inserted(&mut self, id: u32, tuple: GeneralizedTuple) {
        let keys = dual_keys(&tuple, &self.slopes);
        self.live.push_back((id, tuple, keys));
    }

    /// The id a delete-the-oldest mutation targets.
    pub fn oldest(&self) -> Option<u32> {
        self.live.front().map(|(id, _, _)| *id)
    }

    /// Records an acknowledged delete of the oldest tuple.
    pub fn deleted_oldest(&mut self) {
        self.live.pop_front();
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `(id, keys)` of every live tuple, for the key oracle.
    pub fn keyed(&self) -> impl Iterator<Item = (u32, &DualKeys)> {
        self.live.iter().map(|(id, _, k)| (*id, k))
    }

    /// How many tuples differ between the model and a scan of the
    /// relation: missing, unexpected, or stored with other constraints.
    pub fn discrepancies(&self, scanned: &[(u32, GeneralizedTuple)]) -> u64 {
        let stored: BTreeMap<u32, &GeneralizedTuple> =
            scanned.iter().map(|(id, t)| (*id, t)).collect();
        let missing_or_changed = self
            .live
            .iter()
            .filter(|(id, t, _)| stored.get(id) != Some(&t))
            .count();
        let unexpected = scanned.len().saturating_sub(
            self.live
                .iter()
                .filter(|(id, _, _)| stored.contains_key(id))
                .count(),
        );
        (missing_or_changed + unexpected) as u64
    }
}

/// One write operation.
#[derive(Clone, Debug)]
pub enum Mutation {
    Insert(GeneralizedTuple),
    Delete(u32),
}

impl Mutation {
    /// Applies the mutation to an embedded engine; an insert returns the
    /// id it was given.
    pub fn apply(self, db: &mut ConstraintDb, rel: &str) -> Result<Option<u32>, CdbError> {
        match self {
            Mutation::Insert(t) => db.insert(rel, t).map(Some),
            Mutation::Delete(id) => db.delete(rel, id).map(|_| None),
        }
    }
}

/// Which mutation comes next.
#[derive(Clone, Copy, Debug)]
pub enum Policy {
    /// Insert a fresh tuple, delete the oldest, …: the relation keeps its
    /// size.
    Alternate,
    /// Four inserts, then delete the oldest: the relation grows slowly.
    DeleteEveryFifth,
}

/// A closed-loop writer: decides the next mutation from the seeded tuple
/// stream and keeps the [`Model`] in step with what was acknowledged.
pub struct Writer {
    stream: TupleGen,
    policy: Policy,
    step: u64,
    pub model: Model,
}

impl Writer {
    pub fn new(stream: TupleGen, policy: Policy, model: Model) -> Writer {
        Writer {
            stream,
            policy,
            step: 0,
            model,
        }
    }

    /// A writer on a relation that was loaded with the first tuples of
    /// the seed's write stream: it continues the stream where the load
    /// stopped.
    pub fn after_loading(loaded: &[GeneralizedTuple], seed: u64, policy: Policy) -> Writer {
        let mut stream = crate::inputs::write_stream(seed);
        for _ in 0..loaded.len() {
            stream.bounded_tuple();
        }
        Writer::new(stream, policy, Model::loaded(loaded))
    }

    /// The next mutation to issue.
    pub fn next(&mut self) -> Mutation {
        let delete = match self.policy {
            Policy::Alternate => self.step % 2 == 1,
            Policy::DeleteEveryFifth => self.step % 5 == 4,
        };
        self.step += 1;
        match self.model.oldest() {
            Some(id) if delete => Mutation::Delete(id),
            _ => Mutation::Insert(self.stream.bounded_tuple()),
        }
    }

    /// Records that `m` was acknowledged (`id` is what an insert returned).
    pub fn acked(&mut self, m: Mutation, id: Option<u32>) {
        match m {
            Mutation::Insert(t) => self
                .model
                .inserted(id.expect("an acknowledged insert returns its id"), t),
            Mutation::Delete(_) => self.model.deleted_oldest(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::dataset;

    #[test]
    fn discrepancies_count_missing_changed_and_unexpected() {
        let tuples = dataset(6, 1);
        let mut model = Model::loaded(&tuples[..4]);
        let mut scanned: Vec<(u32, GeneralizedTuple)> = tuples[..4]
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, t)| (i as u32, t))
            .collect();
        assert_eq!(model.discrepancies(&scanned), 0);
        assert_eq!(model.oldest(), Some(0));
        model.deleted_oldest();
        assert_eq!(model.discrepancies(&scanned), 1, "id 0 is unexpected");
        scanned.remove(0);
        model.inserted(9, tuples[4].clone());
        assert_eq!(model.discrepancies(&scanned), 1, "id 9 is missing");
        scanned.push((9, tuples[5].clone()));
        assert_eq!(model.discrepancies(&scanned), 1, "id 9 holds another tuple");
        assert_eq!(model.len(), 4);
        assert_eq!(model.keyed().count(), 4);
    }

    #[test]
    fn writer_follows_its_policy_and_the_engine_agrees() {
        let tuples = crate::inputs::write_relation(5, 2);
        for (policy, grown) in [(Policy::Alternate, 0), (Policy::DeleteEveryFifth, 6)] {
            let mut w = Writer::after_loading(&tuples, 2, policy);
            let mut db = crate::bed::memory_bed(&tuples, &tuples).unwrap();
            for _ in 0..10 {
                let m = w.next();
                let id = m.clone().apply(&mut db, crate::bed::WRITE_REL).unwrap();
                if let Mutation::Insert(t) = &m {
                    assert!(
                        !tuples.contains(t),
                        "the stream continues, it does not restart"
                    );
                }
                w.acked(m, id);
            }
            assert_eq!(w.model.len(), 5 + grown);
            let scanned = db.scan_relation(crate::bed::WRITE_REL).unwrap();
            assert_eq!(w.model.discrepancies(&scanned), 0);
        }
    }
}
