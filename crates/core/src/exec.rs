//! Concurrent batch execution over a shared engine snapshot.
//!
//! The read path of the whole stack is `&self` over a
//! [`cdb_storage::PageReader`]: no access method mutates its structure, the
//! pager, or the tuple source during a query, and the planner's feedback
//! catalog is interior-mutable. A [`QueryExecutor`] exploits that by
//! fanning a batch of selections out over `std::thread::scope` workers
//! that all borrow the same [`ReadSurface`] — no cloning, no locking on
//! the read path itself. Every query goes through the cost-based planner
//! ([`crate::plan::Planner`]) exactly as a standalone
//! [`ReadSurface::query_with`] would, so per-query
//! [`crate::QueryStats`] carry the chosen method and its cost estimate,
//! and stay exact because each execution wraps the shared reader in its
//! own [`cdb_storage::TrackedReader`].
//!
//! The paper's experiments (Section 5) are sequential by construction —
//! page accesses are the metric, and those are identical here whether a
//! batch runs on one worker or eight. The executor changes only wall-clock
//! throughput, which `perf`'s `core.exec.batch_speedup_2t` measures.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::error::CdbError;
use crate::query::{QueryResult, Selection, Strategy};
use crate::read::{PageSource, ReadSurface};

/// Runs batches of selections across OS threads sharing one immutable
/// engine snapshot, each query individually planned.
///
/// ```
/// use cdb_core::exec::QueryExecutor;
/// use cdb_core::{ConstraintDb, DbConfig, Selection, SlopeSet, Strategy};
/// use cdb_geometry::parse::parse_tuple;
/// use cdb_geometry::HalfPlane;
///
/// let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
/// db.create_relation("r", 2).unwrap();
/// db.insert("r", parse_tuple("y >= 0 && y <= 1 && x >= 0 && x <= 1").unwrap()).unwrap();
/// db.insert("r", parse_tuple("y >= x && x >= 5").unwrap()).unwrap();
/// db.build_dual_index("r", SlopeSet::uniform_tan(3)).unwrap();
/// let batch = vec![
///     (Selection::exist(HalfPlane::above(0.25, 3.0)), Strategy::T2),
///     (Selection::all(HalfPlane::below(0.0, 2.0)), Strategy::Auto),
/// ];
/// let exec = QueryExecutor::new(&db, "r");
/// let results = exec.run(&batch, 2);
/// assert_eq!(results[0].as_ref().unwrap().ids(), &[1]);
/// assert_eq!(results[1].as_ref().unwrap().ids(), &[0]);
/// ```
pub struct QueryExecutor<'a, P> {
    db: &'a ReadSurface<P>,
    relation: &'a str,
}

impl<'a, P: PageSource> QueryExecutor<'a, P> {
    /// An executor over one relation of a read surface (the live
    /// [`crate::ConstraintDb`] dereferences to one; a pinned
    /// [`crate::Snapshot`] is one).
    pub fn new(db: &'a ReadSurface<P>, relation: &'a str) -> Self {
        QueryExecutor { db, relation }
    }

    /// Executes the batch on `threads` workers, returning per-query results
    /// positionally aligned with the input. `threads == 1` degenerates to
    /// sequential execution on the calling thread's scope.
    ///
    /// Workers claim queries from a shared cursor, so an expensive query
    /// never stalls the rest of the batch behind a fixed partition.
    pub fn run(
        &self,
        batch: &[(Selection, Strategy)],
        threads: usize,
    ) -> Vec<Result<QueryResult, CdbError>> {
        assert!(threads >= 1, "need at least one worker");
        let workers = threads.min(batch.len().max(1));
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<QueryResult, CdbError>>>> =
            batch.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= batch.len() {
                        break;
                    }
                    let (sel, strategy) = &batch[i];
                    let r = self.db.query_with(self.relation, sel.clone(), *strategy);
                    *slots[i].lock().expect("worker panicked") = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("worker panicked")
                    .expect("every query claimed exactly once")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{ConstraintDb, DbConfig};
    use crate::plan::MethodKind;
    use crate::SlopeSet;
    use cdb_geometry::tuple::GeneralizedTuple;
    use cdb_geometry::HalfPlane;
    use cdb_workload::{DatasetSpec, ObjectSize, QueryGen, QueryKind};

    fn testbed(n: usize, seed: u64) -> (ConstraintDb, Vec<GeneralizedTuple>) {
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("r", 2).unwrap();
        let tuples = DatasetSpec::paper_1999(n, ObjectSize::Small, seed).generate();
        for t in &tuples {
            db.insert("r", t.clone()).unwrap();
        }
        db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
        (db, tuples)
    }

    fn mixed_batch(tuples: &[GeneralizedTuple], n: usize) -> Vec<(Selection, Strategy)> {
        let mut qg = QueryGen::new(0xBA7C4);
        (0..n)
            .map(|i| {
                let kind = if i % 2 == 0 {
                    QueryKind::Exist
                } else {
                    QueryKind::All
                };
                let q = qg.calibrated(tuples, kind, 0.05 + 0.3 * (i % 3) as f64 / 2.0);
                let sel = match kind {
                    QueryKind::Exist => Selection::exist(q.halfplane),
                    QueryKind::All => Selection::all(q.halfplane),
                };
                let strategy = match i % 3 {
                    0 => Strategy::T1,
                    1 => Strategy::T2,
                    _ => Strategy::Auto,
                };
                (sel, strategy)
            })
            .collect()
    }

    #[test]
    fn batch_equals_sequential_at_every_thread_count() {
        let (db, tuples) = testbed(600, 41);
        let batch = mixed_batch(&tuples, 24);
        let exec = QueryExecutor::new(&db, "r");
        let sequential: Vec<Vec<u32>> = batch
            .iter()
            .map(|(sel, st)| db.query_with("r", sel.clone(), *st).unwrap().ids().to_vec())
            .collect();
        for threads in [1, 2, 4, 8] {
            let got = exec.run(&batch, threads);
            for (i, (g, want)) in got.iter().zip(&sequential).enumerate() {
                let g = g.as_ref().unwrap();
                assert_eq!(g.ids(), want.as_slice(), "query {i} at {threads} threads");
            }
        }
    }

    #[test]
    fn per_query_stats_are_isolated_under_concurrency() {
        let (db, tuples) = testbed(400, 43);
        // Forced strategies keep the plans deterministic regardless of what
        // the feedback catalog learns across executions.
        let batch: Vec<(Selection, Strategy)> = mixed_batch(&tuples, 16)
            .into_iter()
            .map(|(sel, _)| (sel, Strategy::T2))
            .collect();
        let exec = QueryExecutor::new(&db, "r");
        // Sequential stats are the per-query truth; concurrent windows must
        // match exactly (TrackedReader isolates them from the other workers).
        let sequential: Vec<u64> = batch
            .iter()
            .map(|(sel, st)| {
                db.query_with("r", sel.clone(), *st)
                    .unwrap()
                    .stats
                    .index_io
                    .reads
            })
            .collect();
        let got = exec.run(&batch, 8);
        for (i, (g, want)) in got.iter().zip(&sequential).enumerate() {
            let g = g.as_ref().unwrap();
            assert_eq!(g.stats.index_io.reads, *want, "index reads of query {i}");
            assert!(g.stats.index_io.reads > 0, "query {i} read no pages?");
            assert_eq!(g.stats.method, Some(MethodKind::T2), "planned method");
            assert!(g.stats.estimate.is_some(), "estimate recorded");
        }
    }

    #[test]
    fn errors_are_reported_in_place() {
        let (db, _tuples) = testbed(60, 47);
        let good = Selection::exist(HalfPlane::above(0.3, 0.0));
        let bad = Selection::exist(HalfPlane::above(0.123456, 0.0));
        let batch = vec![
            (good.clone(), Strategy::T2),
            (bad, Strategy::Restricted), // foreign slope: UnsupportedQuery
            (good, Strategy::T2),
        ];
        let exec = QueryExecutor::new(&db, "r");
        let got = exec.run(&batch, 2);
        assert!(got[0].is_ok());
        assert!(matches!(got[1], Err(CdbError::UnsupportedQuery(_))));
        assert!(got[2].is_ok());
        assert_eq!(
            got[0].as_ref().unwrap().ids(),
            got[2].as_ref().unwrap().ids()
        );
    }

    #[test]
    fn empty_batch_and_excess_threads() {
        let (db, _tuples) = testbed(30, 53);
        let exec = QueryExecutor::new(&db, "r");
        assert!(exec.run(&[], 4).is_empty());
        let one = vec![(Selection::exist(HalfPlane::above(0.5, 1.0)), Strategy::Auto)];
        let got = exec.run(&one, 64); // workers clamp to batch size
        assert_eq!(got.len(), 1);
        assert!(got[0].is_ok());
    }
}
