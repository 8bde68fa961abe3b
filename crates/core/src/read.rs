//! The read surface: every query, fetch, scan, EXPLAIN and SQL entry
//! point of the engine, written once over a catalog of relations, a
//! configuration and a page store.
//!
//! [`ReadSurface`] is what "the state of a database that can be read" is:
//! the live engine ([`crate::db::ConstraintDb`]) wraps one whose page store
//! is its writable pager and dereferences to it, so `db.query_with(..)`
//! is the method below; a [`Snapshot`] *is* one whose page store is a
//! frozen view of a published epoch. Both therefore answer with the same
//! code, from `&self`, concurrently.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cdb_geometry::halfplane::HalfPlane;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_storage::{PageReader, Pager, SnapshotReader};

use crate::db::DbConfig;
use crate::error::CdbError;
use crate::index::Exact;
use crate::physical::{drain, ExecCtx, IndexScanOp};
use crate::plan::{ExplainReport, QueryPlan};
use crate::query::{QueryResult, QueryStats, Selection, SelectionKind, Strategy};
use crate::relation::{Relation, RelationStats};
use crate::sql::{Projection, SqlMode, SqlOutcome, SqlRow};

/// A page store a read surface can query: hands out the read half of
/// whatever pager or frozen view it owns. `Sync` so one surface can serve
/// scoped reader threads.
pub trait PageSource: Sync {
    /// The `&self` read half.
    fn reader(&self) -> &dyn PageReader;
}

impl PageSource for Box<dyn Pager> {
    fn reader(&self) -> &dyn PageReader {
        &**self
    }
}

impl PageSource for Box<dyn SnapshotReader> {
    fn reader(&self) -> &dyn PageReader {
        &**self
    }
}

/// Relations, configuration and a page store: everything the read path
/// needs, and nothing of the write path. See the module docs.
pub struct ReadSurface<P> {
    pub(crate) pager: P,
    pub(crate) config: DbConfig,
    pub(crate) relations: HashMap<String, Relation>,
}

/// A pinned, immutable view of the database at one published epoch.
///
/// Created by [`crate::db::ConstraintDb::snapshot`]. Holds a frozen
/// page-table view from the pager (the pin keeps every page the epoch
/// references out of reuse until the snapshot drops) plus a clone of the
/// in-memory catalog, so the full read surface runs here with no
/// coordination with the writer: the writer mutates the *next* epoch on
/// copied pages and never touches these.
///
/// `Send + Sync`: one snapshot can serve any number of reader threads.
pub type Snapshot = ReadSurface<Box<dyn SnapshotReader>>;

impl<P: PageSource> ReadSurface<P> {
    /// The named relation.
    pub fn relation(&self, name: &str) -> Result<&Relation, CdbError> {
        self.relations
            .get(name)
            .ok_or_else(|| CdbError::RelationNotFound(name.into()))
    }

    /// Names of all relations, sorted.
    pub fn relation_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.relations.keys().cloned().collect();
        v.sort();
        v
    }

    /// The read half of the page store (shareable across query threads).
    pub fn reader(&self) -> &dyn PageReader {
        self.pager.reader()
    }

    /// Fetches one tuple by id.
    pub fn fetch_tuple(&self, name: &str, id: u32) -> Result<GeneralizedTuple, CdbError> {
        let rel = self.relation(name)?;
        rel.ensure_usable()?;
        rel.fetch(self.reader(), id)
    }

    /// All live `(id, tuple)` pairs of a relation.
    pub fn scan_relation(&self, name: &str) -> Result<Vec<(u32, GeneralizedTuple)>, CdbError> {
        let rel = self.relation(name)?;
        rel.ensure_usable()?;
        rel.scan(self.reader())
    }

    /// Plans and executes one selection — refined by `exact` — as a
    /// one-node operator pipeline: the planner chooses (or validates the
    /// forced) access method, the method runs, the search that ran is
    /// stamped into the result's stats, and the scan's one batch of
    /// ascending ids becomes the result by move.
    fn planned(
        &self,
        name: &str,
        sel: Selection,
        exact: Exact,
        strategy: Strategy,
    ) -> Result<(QueryPlan, QueryResult), CdbError> {
        let rel = self.relation(name)?;
        let mut op = IndexScanOp::new(rel, self.reader(), sel, exact, strategy, false)?;
        let ids = drain(&mut op)?.ids;
        let (plan, stats, timings) = op.into_plan_stats();
        let mut result = QueryResult::new(ids, stats);
        result.timings = timings;
        Ok((plan, result))
    }

    /// Executes a selection on the access method the planner chooses.
    pub fn query(&self, name: &str, sel: Selection) -> Result<QueryResult, CdbError> {
        self.query_with(name, sel, Strategy::Auto)
    }

    /// Executes a selection with an explicit strategy; `Strategy::Auto`
    /// runs the paper's rule in every dimension — the restricted search at
    /// a member of `S`, T2 at any other slope it routes, and the sequential
    /// scan where the dual index routes nothing (an index-less relation is
    /// queryable). Queries run from `&self` over the read half of the
    /// page store, so any number can execute concurrently (see
    /// [`query_batch`](Self::query_batch)).
    pub fn query_with(
        &self,
        name: &str,
        sel: Selection,
        strategy: Strategy,
    ) -> Result<QueryResult, CdbError> {
        self.planned(name, sel, Exact::Selection, strategy)
            .map(|(_, r)| r)
    }

    /// Plans a selection without executing it: which access method the
    /// planner would choose, its case, and why the methods tried before it
    /// could not serve the selection.
    pub fn plan_query(&self, name: &str, sel: &Selection) -> Result<QueryPlan, CdbError> {
        let op = IndexScanOp::new(
            self.relation(name)?,
            self.reader(),
            sel.clone(),
            Exact::Selection,
            Strategy::Auto,
            false,
        )?;
        Ok(op.into_plan_stats().0)
    }

    /// EXPLAIN ANALYZE: plans, executes the chosen method, and returns the
    /// plan next to the actual result and its measured page accesses.
    pub fn explain(&self, name: &str, sel: Selection) -> Result<ExplainReport, CdbError> {
        self.explain_with(name, sel, Strategy::Auto)
    }

    /// [`explain`](Self::explain) with an explicit strategy.
    pub fn explain_with(
        &self,
        name: &str,
        sel: Selection,
        strategy: Strategy,
    ) -> Result<ExplainReport, CdbError> {
        let (plan, result) = self.planned(name, sel, Exact::Selection, strategy)?;
        Ok(ExplainReport { plan, result })
    }

    /// Runs one constraint-SQL statement through the operator pipeline:
    /// `SELECT <vars|*> FROM <rel> [JOIN <rel> …] WHERE <constraints>
    /// [EXIST|ALL] [LIMIT n]` — parse → lower → rewrite → build the
    /// operator tree (which plans every scan) → execute, or render it.
    pub fn sql(&self, text: &str, mode: SqlMode) -> Result<SqlOutcome, CdbError> {
        let query =
            crate::sql::parse(text).map_err(|e| CdbError::UnsupportedQuery(e.to_string()))?;
        let plan = crate::logical::lower(&query, |name| self.relation(name).map(Relation::dim))?;
        let plan = crate::logical::rewrite(plan);
        let mut columns: Vec<String> = query
            .relations
            .iter()
            .map(|(n, _)| format!("id({n})"))
            .collect();
        let keep_regions = match &query.projection {
            Projection::Star => false,
            Projection::Vars(vars) => {
                let names: Vec<String> =
                    vars.iter().map(|(v, _)| crate::sql::var_name(*v)).collect();
                columns.push(format!("region({})", names.join(", ")));
                true
            }
        };
        let ctx = ExecCtx {
            relations: &self.relations,
            reader: self.reader(),
        };
        let mut op = crate::physical::build(&plan, &ctx, keep_regions)?;
        if matches!(mode, SqlMode::Explain) {
            return Ok(SqlOutcome {
                columns,
                rows: Vec::new(),
                plan: Some(crate::pretty::render(&op.node(false))),
                stats: QueryStats::default(),
            });
        }
        let batch = drain(op.as_mut())?;
        let mut stats = QueryStats::default();
        op.add_stats(&mut stats);
        let analyze = matches!(mode, SqlMode::ExplainAnalyze);
        // The public row type is the one per-row cost left: materialized
        // here, at the very end, and not at all under ANALYZE.
        let mut rows = Vec::new();
        if !analyze {
            let mut regions = batch.regions.into_iter();
            rows.extend(
                (batch.ids.chunks_exact(batch.arity.max(1))).map(|ids| SqlRow {
                    ids: ids.to_vec(),
                    region: regions.next().filter(|_| keep_regions),
                }),
            );
        }
        Ok(SqlOutcome {
            columns,
            rows,
            plan: analyze.then(|| crate::pretty::render(&op.node(true))),
            stats,
        })
    }

    /// Executes a batch of selections on `threads` scoped worker threads
    /// that all borrow this surface — the read path is `&self` throughout,
    /// so there is nothing to clone or lock. Every query is planned exactly
    /// as a standalone [`query_with`](Self::query_with) would be, and its
    /// stats stay exact because each execution reads through its own
    /// [`cdb_storage::TrackedReader`]. Results are positionally aligned
    /// with the batch; page accesses are the same at any thread count.
    ///
    /// Workers claim queries from a shared cursor, so an expensive query
    /// never stalls the rest of the batch behind a fixed partition.
    ///
    /// # Panics
    /// Panics when `threads` is 0.
    pub fn query_batch(
        &self,
        name: &str,
        batch: &[(Selection, Strategy)],
        threads: usize,
    ) -> Result<Vec<Result<QueryResult, CdbError>>, CdbError> {
        self.relation(name)?; // surface missing relations once, up front
        assert!(threads >= 1, "need at least one worker");
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<QueryResult, CdbError>>>> =
            batch.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads.min(batch.len()) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some((sel, strategy)) = batch.get(i) else {
                        break;
                    };
                    let r = self.query_with(name, sel.clone(), *strategy);
                    *slots[i].lock().expect("worker panicked") = Some(r);
                });
            }
        });
        Ok(slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("worker panicked")
                    .expect("every query claimed exactly once")
            })
            .collect())
    }

    /// Equality-query convenience (the paper's footnote 2): tuples whose
    /// extension intersects the line `y = a·x + c`. Planned like any other
    /// selection, so every access method serves it — index or no index.
    pub fn exist_line(&self, name: &str, a: f64, c: f64) -> Result<QueryResult, CdbError> {
        self.line_query(name, a, c, SelectionKind::Exist)
    }

    /// Tuples whose extension lies entirely on the line `y = a·x + c`
    /// (degenerate segments/lines).
    pub fn all_line(&self, name: &str, a: f64, c: f64) -> Result<QueryResult, CdbError> {
        self.line_query(name, a, c, SelectionKind::All)
    }

    fn line_query(
        &self,
        name: &str,
        a: f64,
        c: f64,
        kind: SelectionKind,
    ) -> Result<QueryResult, CdbError> {
        let superset = Selection::line_superset(a, c);
        self.planned(name, superset, Exact::Line(kind), Strategy::Auto)
            .map(|(_, r)| r)
    }

    /// Convenience: EXIST selection, planned.
    pub fn exist(&self, name: &str, q: HalfPlane) -> Result<QueryResult, CdbError> {
        self.query(name, Selection::exist(q))
    }

    /// Convenience: ALL selection, planned.
    pub fn all(&self, name: &str, q: HalfPlane) -> Result<QueryResult, CdbError> {
        self.query(name, Selection::all(q))
    }

    /// Per-relation sizes, built indexes and health verdicts, sorted by
    /// name — the relation half of
    /// [`stats_snapshot`](crate::db::ConstraintDb::stats_snapshot).
    pub fn relation_stats(&self) -> Vec<RelationStats> {
        let mut relations: Vec<RelationStats> =
            self.relations.values().map(Relation::stats).collect();
        relations.sort_by(|a, b| a.name.cmp(&b.name));
        relations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::ConstraintDb;
    use crate::plan::{MethodKind, PlanCase};
    use crate::slopes::Bracket;
    use crate::SlopeSet;
    use cdb_geometry::tuple::GeneralizedTuple;
    use cdb_geometry::{HalfPlane, RelOp};
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
                    0 => Strategy::Scan,
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
        let sequential: Vec<Vec<u32>> = batch
            .iter()
            .map(|(sel, st)| db.query_with("r", sel.clone(), *st).unwrap().ids().to_vec())
            .collect();
        for threads in [1, 2, 4, 8] {
            let got = db.query_batch("r", &batch, threads).unwrap();
            for (i, (g, want)) in got.iter().zip(&sequential).enumerate() {
                let g = g.as_ref().unwrap();
                assert_eq!(g.ids(), want.as_slice(), "query {i} at {threads} threads");
            }
        }
    }

    #[test]
    fn per_query_stats_are_isolated_under_concurrency() {
        let (db, tuples) = testbed(400, 43);
        // Forced T2: every query runs the search its slope routes to.
        let batch: Vec<(Selection, Strategy)> = mixed_batch(&tuples, 16)
            .into_iter()
            .map(|(sel, _)| (sel, Strategy::T2))
            .collect();
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
        let got = db.query_batch("r", &batch, 8).unwrap();
        let slopes = db.relation("r").unwrap().index().unwrap().slopes().unwrap();
        for (i, (g, want)) in got.iter().zip(&sequential).enumerate() {
            let g = g.as_ref().unwrap();
            assert_eq!(g.stats.index_io.reads, *want, "index reads of query {i}");
            assert!(g.stats.index_io.reads > 0, "query {i} read no pages?");
            // The method forced T2 names, and the search its route runs,
            // by the slope's bracket.
            assert_eq!(g.stats.method, Some(MethodKind::Dual), "query {i}");
            let plan = db.plan_query("r", &batch[i].0).unwrap();
            let member = matches!(plan.case, PlanCase::Member { .. });
            let bracket = slopes.bracket(batch[i].0.halfplane.slope2d());
            assert_eq!(member, matches!(bracket, Bracket::Member(_)), "query {i}");
        }
    }

    #[test]
    fn errors_are_reported_in_place() {
        let (db, _tuples) = testbed(60, 47);
        let good = Selection::exist(HalfPlane::above(0.3, 0.0));
        let bad = Selection::exist(HalfPlane::new(vec![0.1, 0.2], 0.0, RelOp::Ge));
        let batch = vec![
            (good.clone(), Strategy::T2),
            (bad, Strategy::T2), // a 3-D selection on a 2-D relation
            (good, Strategy::T2),
        ];
        let got = db.query_batch("r", &batch, 2).unwrap();
        assert!(got[0].is_ok());
        let mismatch = CdbError::DimensionMismatch {
            expected: 2,
            got: 3,
        };
        assert_eq!(got[1].as_ref().err(), Some(&mismatch));
        assert!(got[2].is_ok());
        assert_eq!(
            got[0].as_ref().unwrap().ids(),
            got[2].as_ref().unwrap().ids()
        );
    }

    #[test]
    fn empty_batch_and_excess_threads() {
        let (db, _tuples) = testbed(30, 53);
        assert!(db.query_batch("r", &[], 4).unwrap().is_empty());
        let one = vec![(Selection::exist(HalfPlane::above(0.5, 1.0)), Strategy::Auto)];
        let got = db.query_batch("r", &one, 64).unwrap(); // workers clamp to batch size
        assert_eq!(got.len(), 1);
        assert!(got[0].is_ok());
    }
}
