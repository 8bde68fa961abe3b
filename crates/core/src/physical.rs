//! The execution layer: pull-based operators over constraint relations,
//! exchanging [`Batch`]es of rows.
//!
//! Every query — typed or SQL — executes as a tree of [`Operator`]s with an
//! `open`/`next_batch`/`close` contract:
//!
//! * `open` acquires resources and runs any eager work (executing the
//!   access method [`IndexScanOp`] planned when it was built, the heap scan
//!   for [`SeqScanOp`], buffering the inner side for [`NestedLoopJoinOp`]);
//! * `next_batch` yields the next [`Batch`] of rows, or `None` when
//!   drained; a batch may be empty (a filter that kept nothing);
//! * `close` releases state; operators may be closed early (`LIMIT`).
//!
//! A batch carries the matched tuple ids per source relation plus, when a
//! downstream operator needs geometry (filter, join, project), each row's
//! constraint region. Leaf operators only materialize regions when asked:
//! an id-only [`IndexScanOp`] hands the access method's id vector on as one
//! batch, by move, so a one-node plan costs what its index search costs;
//! asked for regions, it emits `REGION_CHUNK`-row (256) batches fetched through
//! the relation's [`TupleSource`] — one heap access per distinct page of
//! the chunk.
//!
//! Each operator renders itself as a [`PlanNode`] for `EXPLAIN`
//! ([`Operator::node`]): a built tree is already planned, so `EXPLAIN`
//! reads it without opening it; with `analyze` set the node also reports
//! observed rows and inclusive wall-clock time, read once per batch.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cdb_geometry::eliminate;
use cdb_geometry::halfplane::HalfPlane;
use cdb_geometry::predicates;
use cdb_geometry::simplex::LpResult;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_geometry::{LinearConstraint, RelOp};
use cdb_storage::{PageReader, TrackedReader};

use crate::error::CdbError;
use crate::index::{Exact, TupleSource};
use crate::logical::LogicalPlan;
use crate::plan::{AccessMethod, PlanCase, Planner, QueryPlan};
use crate::pretty::{actual_line, plan_detail_lines, PlanNode};
use crate::query::{QueryStats, QueryTimings, Selection, SelectionKind, Strategy};
use crate::relation::Relation;
use crate::sql::var_name;

/// Rows an [`IndexScanOp`] fetches regions for at a time: large enough
/// that rows sharing a heap page share its access, small enough that a
/// `LIMIT` above pays for at most this many rows it does not return.
const REGION_CHUNK: usize = 256;

/// A run of intermediate result rows.
#[derive(Clone, Debug, Default)]
pub struct Batch {
    /// Ids per row: one per source relation in `FROM` order.
    pub arity: usize,
    /// Matched tuple ids, row-major (`arity` per row).
    pub ids: Vec<u32>,
    /// The rows' constraint regions (combined across joins, projected by
    /// `Project`): one per row, or empty when no downstream operator asked
    /// for geometry.
    pub regions: Vec<GeneralizedTuple>,
}

impl Batch {
    /// Rows of one relation: an id each and, if any, a region each.
    fn of(ids: Vec<u32>, regions: Vec<GeneralizedTuple>) -> Batch {
        Batch {
            arity: 1,
            ids,
            regions,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.ids.len() / self.arity.max(1)
    }

    /// The ids of row `i`.
    fn row_ids(&self, i: usize) -> &[u32] {
        &self.ids[i * self.arity..(i + 1) * self.arity]
    }

    /// Keeps the first `rows` rows.
    fn truncate(&mut self, rows: usize) {
        self.ids.truncate(rows * self.arity);
        self.regions.truncate(rows);
    }

    /// Moves the rows of `more` behind this batch's.
    fn append(&mut self, mut more: Batch) {
        if self.ids.is_empty() {
            *self = more;
        } else {
            self.ids.append(&mut more.ids);
            self.regions.append(&mut more.regions);
        }
    }

    /// Rows produced under a filter, join or projection must carry
    /// geometry; the plan builder guarantees it, and this converts a
    /// violation into an error instead of a panic (the server must never
    /// panic on a query).
    fn require_regions(&self) -> Result<(), CdbError> {
        if self.regions.len() == self.rows() {
            return Ok(());
        }
        Err(CdbError::UnsupportedQuery(
            "internal: operator input is missing its region".into(),
        ))
    }
}

/// The operator contract.
pub trait Operator {
    /// Prepares the operator (and its inputs) for iteration.
    fn open(&mut self) -> Result<(), CdbError>;
    /// Produces the next batch of rows, or `None` when drained.
    fn next_batch(&mut self) -> Result<Option<Batch>, CdbError>;
    /// Releases per-execution state; safe to call before drain (`LIMIT`).
    fn close(&mut self);
    /// Renders this operator (and subtree) for `EXPLAIN`; with `analyze`,
    /// includes observed row counts and inclusive timings.
    fn node(&self, analyze: bool) -> PlanNode;
    /// Accumulates I/O and candidate accounting from every scan in the
    /// subtree.
    fn add_stats(&self, agg: &mut QueryStats);
}

/// Opens `op`, pulls it dry into one batch and closes it.
pub fn drain(op: &mut dyn Operator) -> Result<Batch, CdbError> {
    op.open()?;
    let mut all = Batch::default();
    while let Some(batch) = op.next_batch()? {
        all.append(batch);
    }
    op.close();
    Ok(all)
}

/// What an operator observed of its own run, for `EXPLAIN ANALYZE`. The
/// clock is read once per batch, never per row.
#[derive(Default)]
struct Seen {
    rows_in: u64,
    rows_out: u64,
    elapsed: Duration,
}

impl Seen {
    /// Books one produced batch and the time since `t0`.
    fn batch(&mut self, out: &Batch, t0: Instant) {
        self.rows_out += out.rows() as u64;
        self.elapsed += t0.elapsed();
    }
}

fn kind_word(kind: SelectionKind) -> &'static str {
    match kind {
        SelectionKind::All => "all",
        SelectionKind::Exist => "exist",
    }
}

fn ms(d: Duration) -> String {
    format!("time: {:.3} ms", d.as_secs_f64() * 1e3)
}

/// Lifts a constraint into `dim` coordinates by zero-padding.
fn lift(c: &LinearConstraint, dim: usize) -> LinearConstraint {
    if c.coeffs.len() == dim {
        return c.clone();
    }
    let mut coeffs = c.coeffs.clone();
    coeffs.resize(dim, 0.0);
    LinearConstraint::new(coeffs, c.constant, c.op)
}

/// Lifts a whole region into `dim` coordinates.
fn lift_region(t: &GeneralizedTuple, dim: usize) -> GeneralizedTuple {
    if t.dim() == dim {
        return t.clone();
    }
    GeneralizedTuple::new(t.constraints().iter().map(|c| lift(c, dim)).collect())
}

// --------------------------------------------------------------- EmptyOp

/// A statically-empty plan (unsatisfiable or false `WHERE`).
pub struct EmptyOp {
    reason: String,
}

impl Operator for EmptyOp {
    fn open(&mut self) -> Result<(), CdbError> {
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, CdbError> {
        Ok(None)
    }

    fn close(&mut self) {}

    fn node(&self, _analyze: bool) -> PlanNode {
        PlanNode {
            label: "Empty".into(),
            detail: vec![self.reason.clone()],
            children: vec![],
        }
    }

    fn add_stats(&self, _agg: &mut QueryStats) {}
}

// ------------------------------------------------------------ IndexScanOp

/// Planned access-method execution on one relation: the planner runs the
/// forced method or the paper's rule — the restricted search at a member
/// of `S`, T2 at any other slope it routes, else the scan —
/// exactly as the typed query path does, as one operator inside the
/// pipeline. It plans once, when built; `open` executes that plan, and
/// `EXPLAIN` reads it.
pub struct IndexScanOp<'a> {
    rel: &'a Relation,
    reader: &'a dyn PageReader,
    sel: Selection,
    /// What refinement decides: `sel` itself, or the line query `sel` is
    /// the superset of.
    exact: Exact,
    fetch_regions: bool,
    /// The method the planner chose, and its plan.
    method: AccessMethod<'a>,
    plan: QueryPlan,
    stats: QueryStats,
    /// Where the access method's time went.
    timings: QueryTimings,
    /// The access method's answer, ascending; `ids[at..]` is still to emit.
    ids: Vec<u32>,
    at: usize,
    seen: Seen,
}

impl<'a> IndexScanOp<'a> {
    /// Plans the scan on the method `strategy` forces if it forces one;
    /// `fetch_regions` asks `next_batch` to materialize each row's
    /// constraint region (needed under filters/joins). The planning time
    /// counts toward the operator's own.
    ///
    /// # Errors
    /// [`CdbError::Quarantined`] for a quarantined relation;
    /// [`CdbError::DimensionMismatch`] for a selection of another
    /// dimension; every refusal of [`Planner::choose`].
    pub fn new(
        rel: &'a Relation,
        reader: &'a dyn PageReader,
        sel: Selection,
        exact: Exact,
        strategy: Strategy,
        fetch_regions: bool,
    ) -> Result<IndexScanOp<'a>, CdbError> {
        let t0 = Instant::now();
        rel.ensure_usable()?;
        if rel.dim() != sel.halfplane.dim() {
            return Err(CdbError::DimensionMismatch {
                expected: rel.dim(),
                got: sel.halfplane.dim(),
            });
        }
        let (method, plan) = Planner::choose(rel, &sel, strategy.forced())?;
        let seen = Seen {
            elapsed: t0.elapsed(),
            ..Seen::default()
        };
        Ok(IndexScanOp {
            rel,
            reader,
            sel,
            exact,
            fetch_regions,
            method,
            plan,
            stats: QueryStats::default(),
            timings: QueryTimings::default(),
            ids: Vec::new(),
            at: 0,
            seen,
        })
    }

    /// The chosen plan, accumulated stats and the access method's timings,
    /// for the typed wrappers that re-package pipeline output as a
    /// [`crate::query::QueryResult`].
    pub fn into_plan_stats(self) -> (QueryPlan, QueryStats, QueryTimings) {
        (self.plan, self.stats, self.timings)
    }
}

impl Operator for IndexScanOp<'_> {
    fn open(&mut self) -> Result<(), CdbError> {
        let t0 = Instant::now();
        let source = self.rel.tuple_source();
        let case = &self.plan.case;
        let mut result = self
            .method
            .execute(self.reader, &self.sel, case, self.exact, &source)?;
        result.stats.method = Some(self.plan.method);
        self.timings = result.timings;
        (self.ids, self.stats) = result.into_parts();
        self.seen.elapsed += t0.elapsed();
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, CdbError> {
        if self.at >= self.ids.len() {
            return Ok(None);
        }
        let t0 = Instant::now();
        let batch = if self.fetch_regions {
            let end = self.ids.len().min(self.at + REGION_CHUNK);
            let ids = self.ids[self.at..end].to_vec();
            self.at = end;
            let tracked = TrackedReader::new(self.reader);
            let regions = self.rel.tuple_source().fetch_batch(&tracked, &ids)?;
            self.stats.heap_io.reads += tracked.reads();
            Batch::of(ids, regions)
        } else {
            Batch::of(std::mem::take(&mut self.ids), Vec::new())
        };
        self.seen.batch(&batch, t0);
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.ids = Vec::new();
    }

    fn node(&self, analyze: bool) -> PlanNode {
        let mut detail = plan_detail_lines(&self.plan);
        if analyze {
            detail.push(actual_line(&self.stats, self.seen.rows_out));
            detail.push(ms(self.seen.elapsed));
        }
        PlanNode {
            label: format!(
                "IndexScan {} [{} {}]",
                self.rel.name(),
                kind_word(self.sel.kind),
                self.sel.halfplane
            ),
            detail,
            children: vec![],
        }
    }

    fn add_stats(&self, agg: &mut QueryStats) {
        agg.accumulate(&self.stats);
    }
}

// -------------------------------------------------------------- SeqScanOp

/// Full relation scan, emitting every live tuple with its region.
pub struct SeqScanOp<'a> {
    rel: &'a Relation,
    reader: &'a dyn PageReader,
    /// Every live tuple, from `open` until the one `next_batch` takes it.
    rows: Option<Batch>,
    stats: QueryStats,
    seen: Seen,
}

impl Operator for SeqScanOp<'_> {
    fn open(&mut self) -> Result<(), CdbError> {
        let t0 = Instant::now();
        let tracked = TrackedReader::new(self.reader);
        let (ids, regions): (Vec<u32>, _) = self.rel.scan(&tracked)?.into_iter().unzip();
        self.stats.heap_io.reads += tracked.reads();
        self.stats.candidates += ids.len() as u64;
        self.rows = Some(Batch::of(ids, regions));
        self.seen.elapsed += t0.elapsed();
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, CdbError> {
        let batch = self.rows.take();
        self.seen.rows_out += batch.as_ref().map_or(0, Batch::rows) as u64;
        Ok(batch)
    }

    fn close(&mut self) {
        self.rows = None;
    }

    fn node(&self, analyze: bool) -> PlanNode {
        let mut detail = vec![PlanCase::FullScan(self.rel.len()).to_string()];
        if analyze {
            detail.push(actual_line(&self.stats, self.seen.rows_out));
            detail.push(ms(self.seen.elapsed));
        }
        PlanNode {
            label: format!("SeqScan {}", self.rel.name()),
            detail,
            children: vec![],
        }
    }

    fn add_stats(&self, agg: &mut QueryStats) {
        agg.accumulate(&self.stats);
    }
}

// --------------------------------------------------------------- FilterOp

/// Exact predicate over the full `WHERE` conjunction.
///
/// * `EXIST`: the row's region conjoined with every constraint must be
///   satisfiable (one phase-1 LP) — joint satisfiability, which does not
///   decompose over conjuncts.
/// * `ALL`: containment distributes, so each conjunct is checked on its
///   own — through the paper's exact dual predicate when the constraint
///   is non-vertical, and through support-function LPs otherwise.
pub struct FilterOp<'a> {
    input: Box<dyn Operator + 'a>,
    kind: SelectionKind,
    constraints: Vec<LinearConstraint>,
    dim: usize,
    seen: Seen,
}

impl FilterOp<'_> {
    fn keep(&self, region: &GeneralizedTuple) -> bool {
        let mut sys = lift_region(region, self.dim);
        match self.kind {
            SelectionKind::Exist => {
                for c in &self.constraints {
                    sys.push(lift(c, self.dim));
                }
                sys.is_satisfiable()
            }
            SelectionKind::All => self.constraints.iter().all(|c| contained(&sys, c)),
        }
    }
}

/// `region ⊆ {x : c holds}`, exactly.
fn contained(region: &GeneralizedTuple, c: &LinearConstraint) -> bool {
    let fitted = lift(c, region.dim());
    if let Some(hp) = HalfPlane::from_constraint(&fitted) {
        return predicates::all(&hp, region);
    }
    // Vertical constraint: bound the support function by LP.
    let eps = cdb_geometry::scalar::EPS;
    match fitted.op {
        RelOp::Le => match region.maximize(&fitted.coeffs) {
            LpResult::Optimal { value, .. } => value + fitted.constant <= eps,
            LpResult::Unbounded => false,
            LpResult::Infeasible => true,
        },
        RelOp::Ge => match region.minimize(&fitted.coeffs) {
            LpResult::Optimal { value, .. } => value + fitted.constant >= -eps,
            LpResult::Unbounded => false,
            LpResult::Infeasible => true,
        },
    }
}

impl Operator for FilterOp<'_> {
    fn open(&mut self) -> Result<(), CdbError> {
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, CdbError> {
        let Some(mut batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        let t0 = Instant::now();
        batch.require_regions()?;
        self.seen.rows_in += batch.rows() as u64;
        let (arity, mut kept) = (batch.arity, 0);
        for row in 0..batch.rows() {
            if self.keep(&batch.regions[row]) {
                batch.regions.swap(kept, row);
                batch
                    .ids
                    .copy_within(row * arity..(row + 1) * arity, kept * arity);
                kept += 1;
            }
        }
        batch.truncate(kept);
        self.seen.batch(&batch, t0);
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.input.close();
    }

    fn node(&self, analyze: bool) -> PlanNode {
        let pred = self
            .constraints
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(" && ");
        let mut detail = vec![match self.kind {
            SelectionKind::Exist => "joint satisfiability (phase-1 LP) over region ∧ WHERE".into(),
            SelectionKind::All => {
                "per-conjunct containment (dual predicate / support LP)".to_string()
            }
        }];
        if analyze {
            let (rows_in, rows_out) = (self.seen.rows_in, self.seen.rows_out);
            detail.push(format!("rows: {rows_in} in, {rows_out} out"));
            detail.push(ms(self.seen.elapsed));
        }
        PlanNode {
            label: format!("Filter [{}: {pred}]", kind_word(self.kind)),
            detail,
            children: vec![self.input.node(analyze)],
        }
    }

    fn add_stats(&self, agg: &mut QueryStats) {
        self.input.add_stats(agg);
    }
}

// ------------------------------------------------------- NestedLoopJoinOp

/// Conjunction join: every satisfiable pairing of a left and a right
/// region survives, carrying the combined constraint system. The inner
/// (right) side is buffered at `open`.
pub struct NestedLoopJoinOp<'a> {
    left: Box<dyn Operator + 'a>,
    right: Box<dyn Operator + 'a>,
    dim: usize,
    inner: Batch,
    /// `rows_in` counts the pairs tested.
    seen: Seen,
}

impl Operator for NestedLoopJoinOp<'_> {
    fn open(&mut self) -> Result<(), CdbError> {
        self.left.open()?;
        self.right.open()?;
        let t0 = Instant::now();
        while let Some(batch) = self.right.next_batch()? {
            batch.require_regions()?;
            self.inner.append(batch);
        }
        self.right.close();
        self.seen.elapsed += t0.elapsed();
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, CdbError> {
        let Some(outer) = self.left.next_batch()? else {
            return Ok(None);
        };
        let t0 = Instant::now();
        outer.require_regions()?;
        let mut out = Batch {
            arity: outer.arity + self.inner.arity,
            ..Batch::default()
        };
        for (li, lregion) in outer.regions.iter().enumerate() {
            let lifted: Vec<LinearConstraint> = lregion
                .constraints()
                .iter()
                .map(|c| lift(c, self.dim))
                .collect();
            for (ri, rregion) in self.inner.regions.iter().enumerate() {
                self.seen.rows_in += 1;
                let mut sys = lifted.clone();
                sys.extend(rregion.constraints().iter().map(|c| lift(c, self.dim)));
                let combined = GeneralizedTuple::new(sys);
                if combined.is_satisfiable() {
                    out.ids.extend_from_slice(outer.row_ids(li));
                    out.ids.extend_from_slice(self.inner.row_ids(ri));
                    out.regions.push(combined);
                }
            }
        }
        self.seen.batch(&out, t0);
        Ok(Some(out))
    }

    fn close(&mut self) {
        self.left.close();
        self.right.close();
        self.inner = Batch::default();
    }

    fn node(&self, analyze: bool) -> PlanNode {
        let mut detail = vec!["conjunction of regions; satisfiable pairs survive".to_string()];
        if analyze {
            let (pairs, rows_out) = (self.seen.rows_in, self.seen.rows_out);
            detail.push(format!("pairs tested: {pairs}, rows out: {rows_out}"));
            detail.push(ms(self.seen.elapsed));
        }
        PlanNode {
            label: "NestedLoopJoin".into(),
            detail,
            children: vec![self.left.node(analyze), self.right.node(analyze)],
        }
    }

    fn add_stats(&self, agg: &mut QueryStats) {
        self.left.add_stats(agg);
        self.right.add_stats(agg);
    }
}

// -------------------------------------------------------------- ProjectOp

/// Projection as existential variable elimination (Fourier–Motzkin).
pub struct ProjectOp<'a> {
    input: Box<dyn Operator + 'a>,
    /// The variables kept, in output order, of the input's `dim`.
    keep: Vec<usize>,
    dim: usize,
    seen: Seen,
}

impl Operator for ProjectOp<'_> {
    fn open(&mut self) -> Result<(), CdbError> {
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, CdbError> {
        let Some(mut batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        let t0 = Instant::now();
        batch.require_regions()?;
        for region in &mut batch.regions {
            *region = eliminate::project(&lift_region(region, self.dim), &self.keep);
        }
        self.seen.batch(&batch, t0);
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.input.close();
    }

    fn node(&self, analyze: bool) -> PlanNode {
        let vars = self
            .keep
            .iter()
            .map(|v| var_name(*v))
            .collect::<Vec<_>>()
            .join(", ");
        let dropped = (0..self.dim)
            .filter(|v| !self.keep.contains(v))
            .map(var_name)
            .collect::<Vec<_>>()
            .join(", ");
        let mut detail = vec![if dropped.is_empty() {
            "no variables eliminated (reorder only)".to_string()
        } else {
            format!("Fourier–Motzkin elimination of {dropped}")
        }];
        if analyze {
            detail.push(format!("rows: {}", self.seen.rows_out));
            detail.push(ms(self.seen.elapsed));
        }
        PlanNode {
            label: format!("Project [{vars}]"),
            detail,
            children: vec![self.input.node(analyze)],
        }
    }

    fn add_stats(&self, agg: &mut QueryStats) {
        self.input.add_stats(agg);
    }
}

// ---------------------------------------------------------------- LimitOp

/// Cuts the stream at `n` rows and closes its input as soon as they are
/// in, so nothing past the batch holding row `n` is ever produced.
pub struct LimitOp<'a> {
    input: Box<dyn Operator + 'a>,
    n: u64,
    produced: u64,
}

impl Operator for LimitOp<'_> {
    fn open(&mut self) -> Result<(), CdbError> {
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>, CdbError> {
        if self.produced >= self.n {
            return Ok(None);
        }
        let Some(mut batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        let left = self.n - self.produced;
        if batch.rows() as u64 >= left {
            batch.truncate(left as usize);
            self.input.close();
        }
        self.produced += batch.rows() as u64;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.input.close();
    }

    fn node(&self, analyze: bool) -> PlanNode {
        let mut detail = Vec::new();
        if analyze {
            detail.push(format!("rows: {}", self.produced));
        }
        PlanNode {
            label: format!("Limit {}", self.n),
            detail,
            children: vec![self.input.node(analyze)],
        }
    }

    fn add_stats(&self, agg: &mut QueryStats) {
        self.input.add_stats(agg);
    }
}

// ---------------------------------------------------------------- builder

/// Everything the plan builder needs from the engine (or a snapshot).
pub struct ExecCtx<'a> {
    /// The relation catalog.
    pub relations: &'a HashMap<String, Relation>,
    /// The read half of the pager.
    pub reader: &'a dyn PageReader,
}

/// Builds the physical operator tree for a rewritten logical plan.
///
/// `need_regions` says whether the *parent* needs this subtree's rows to
/// carry geometry; filters, joins and projections always demand it of
/// their inputs.
pub fn build<'a>(
    plan: &LogicalPlan,
    ctx: &ExecCtx<'a>,
    need_regions: bool,
) -> Result<Box<dyn Operator + 'a>, CdbError> {
    let rel = |name: &str| -> Result<&'a Relation, CdbError> {
        ctx.relations
            .get(name)
            .ok_or_else(|| CdbError::RelationNotFound(name.to_string()))
    };
    Ok(match plan {
        LogicalPlan::Empty { reason, .. } => Box::new(EmptyOp {
            reason: reason.clone(),
        }),
        LogicalPlan::Scan { relation, .. } => {
            let rel = rel(relation)?;
            rel.ensure_usable()?;
            Box::new(SeqScanOp {
                rel,
                reader: ctx.reader,
                rows: None,
                stats: QueryStats::default(),
                seen: Seen::default(),
            })
        }
        LogicalPlan::IndexSelection {
            relation,
            selection,
            ..
        } => Box::new(IndexScanOp::new(
            rel(relation)?,
            ctx.reader,
            selection.clone(),
            Exact::Selection,
            Strategy::Auto,
            need_regions,
        )?),
        LogicalPlan::Filter {
            kind,
            constraints,
            dim,
            input,
        } => Box::new(FilterOp {
            input: build(input, ctx, true)?,
            kind: *kind,
            constraints: constraints.clone(),
            dim: *dim,
            seen: Seen::default(),
        }),
        LogicalPlan::Join { left, right, dim } => Box::new(NestedLoopJoinOp {
            left: build(left, ctx, true)?,
            right: build(right, ctx, true)?,
            dim: *dim,
            inner: Batch::default(),
            seen: Seen::default(),
        }),
        LogicalPlan::Project { keep, input } => Box::new(ProjectOp {
            input: build(input, ctx, true)?,
            keep: keep.clone(),
            dim: logical_dim(input),
            seen: Seen::default(),
        }),
        LogicalPlan::Limit { n, input } => Box::new(LimitOp {
            input: build(input, ctx, need_regions)?,
            n: *n,
            produced: 0,
        }),
    })
}

/// Row width a logical node produces (max across join branches).
fn logical_dim(plan: &LogicalPlan) -> usize {
    match plan {
        LogicalPlan::Empty { .. } => 0,
        LogicalPlan::Scan { dim, .. }
        | LogicalPlan::IndexSelection { dim, .. }
        | LogicalPlan::Filter { dim, .. }
        | LogicalPlan::Join { dim, .. } => *dim,
        LogicalPlan::Project { keep, .. } => keep.len(),
        LogicalPlan::Limit { input, .. } => logical_dim(input),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{ConstraintDb, DbConfig};
    use crate::slopes::SlopeSet;
    use crate::sql::SqlMode;
    use cdb_geometry::halfplane::HalfPlane;
    use cdb_storage::conformance::allocations_during;
    use cdb_workload::{DatasetSpec, ObjectSize};
    use std::collections::BTreeSet;

    /// `n` small paper-style tuples under a 4-slope dual index, and one of
    /// the index's own slopes.
    fn bed(n: usize) -> (ConstraintDb, f64) {
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("r", 2).unwrap();
        for t in DatasetSpec::paper_1999(n, ObjectSize::Small, 0xBA7C).generate() {
            db.insert("r", t).unwrap();
        }
        db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
        let member = db
            .relation("r")
            .unwrap()
            .index()
            .unwrap()
            .slopes()
            .unwrap()
            .get(2);
        (db, member)
    }

    /// A scan over everything, asked for regions.
    fn region_scan(db: &ConstraintDb) -> IndexScanOp<'_> {
        IndexScanOp::new(
            db.relation("r").unwrap(),
            db.reader(),
            Selection::exist(HalfPlane::above(0.3, -1e9)),
            Exact::Selection,
            Strategy::Auto,
            true,
        )
        .unwrap()
    }

    /// Heap pages holding `ids`.
    fn pages_of(db: &ConstraintDb, ids: &[u32]) -> BTreeSet<u32> {
        let rel = db.relation("r").unwrap();
        (ids.iter())
            .map(|&id| rel.slots[id as usize].expect("live").page)
            .collect()
    }

    /// The regression guard against per-row and per-leaf work: a
    /// restricted query's sweep pushes ids from each page it reads straight
    /// into its candidate vectors, so ten times the rows cost at most 4
    /// more allocations (those vectors' extra doublings). The SQL text of
    /// the same selection allocates no more per row than the one `SqlRow`
    /// its public result type demands.
    #[test]
    fn restricted_query_allocations_do_not_grow_with_rows() {
        let everything = |n: usize| {
            let (db, member) = bed(n);
            let sel = Selection::exist(HalfPlane::above(member, -1e9));
            let case = db.plan_query("r", &sel).unwrap().case;
            assert!(matches!(case, crate::plan::PlanCase::Member { .. }));
            db.query_with("r", sel.clone(), Strategy::Auto).unwrap(); // warm the catalog
            let (result, allocations) =
                allocations_during(|| db.query_with("r", sel, Strategy::Auto).unwrap());
            assert_eq!(result.stats.method, Some(crate::plan::MethodKind::Dual));
            assert_eq!(result.len(), n);
            (db, member, allocations)
        };
        let (_, _, few) = everything(400);
        let (db, member, many) = everything(4000);
        assert!(
            many <= few + 4,
            "{many} allocations for 4000 ids, {few} for 400"
        );
        let stmt = format!("SELECT * FROM r WHERE -{member}*x + 1*y >= -1000000000 EXIST");
        let (outcome, allocations) =
            allocations_during(|| db.sql(&stmt, SqlMode::Execute).unwrap());
        let rows = outcome.rows.len() as u64;
        assert_eq!(rows, 4000);
        assert!(
            allocations - rows < rows / 10,
            "{allocations} allocations for {rows} SQL rows"
        );
    }

    /// A forced-T2 query that the key columns mostly decide allocates no
    /// more per row either: the key pass keeps one bit per row, a word per
    /// chunk, and sizes the list of accepted ids once, so ten times the
    /// rows cost at most 4 more allocations.
    #[test]
    fn t2_query_allocations_do_not_grow_with_rows() {
        let allocations = |n: usize| {
            let (db, member) = bed(n);
            let sel = Selection::exist(HalfPlane::above(member + 0.2, 10.0));
            db.query_with("r", sel.clone(), Strategy::T2).unwrap(); // warm the catalog
            let (result, allocations) =
                allocations_during(|| db.query_with("r", sel, Strategy::T2).unwrap());
            let stats = &result.stats;
            assert_eq!(stats.method, Some(crate::plan::MethodKind::Dual));
            assert!(
                stats.accepted_by_key > 0 && stats.rejected_by_key > 0,
                "{stats:?}"
            );
            allocations
        };
        let (few, many) = (allocations(400), allocations(4000));
        assert!(
            many <= few + 4,
            "{many} allocations for 4000 rows, {few} for 400"
        );
    }

    /// Asked for regions, the scan emits `REGION_CHUNK`-row batches and
    /// pays one heap access per distinct page of each.
    #[test]
    fn region_chunks_cost_one_heap_read_per_distinct_page() {
        let (db, _) = bed(700);
        let mut op = region_scan(&db);
        op.open().unwrap();
        let mut reads = op.stats.heap_io.reads;
        let mut sizes = Vec::new();
        let mut seen = Vec::new();
        while let Some(batch) = op.next_batch().unwrap() {
            assert_eq!((batch.arity, batch.regions.len()), (1, batch.rows()));
            let charged = op.stats.heap_io.reads - reads;
            assert_eq!(charged, pages_of(&db, &batch.ids).len() as u64);
            assert!(charged < batch.rows() as u64, "several rows share a page");
            reads = op.stats.heap_io.reads;
            sizes.push(batch.rows());
            seen.extend(batch.ids);
        }
        assert_eq!(sizes, [REGION_CHUNK, REGION_CHUNK, 700 - 2 * REGION_CHUNK]);
        assert_eq!(seen, (0..700).collect::<Vec<u32>>());
    }

    /// `LIMIT n` takes the batch holding row `n`, closes its input, and
    /// nothing past that batch is fetched.
    #[test]
    fn limit_closes_its_input_at_the_batch_holding_row_n() {
        let (db, _) = bed(700);
        for n in [0usize, 7, REGION_CHUNK, REGION_CHUNK + 1, 699, 700, 5000] {
            let mut whole = region_scan(&db);
            let mut op = LimitOp {
                input: Box::new(region_scan(&db)),
                n: n as u64,
                produced: 0,
            };
            let batch = drain(&mut op).unwrap();
            let want = n.min(700);
            assert_eq!(batch.ids, (0..want as u32).collect::<Vec<_>>(), "LIMIT {n}");
            assert_eq!(batch.regions.len(), want, "LIMIT {n}");
            let mut stats = QueryStats::default();
            op.add_stats(&mut stats);
            whole.open().unwrap();
            let scan_reads = whole.stats.heap_io.reads;
            // Chunks that had to be fetched: those up to and including the
            // one holding row `n` (none for LIMIT 0).
            let fetched = (want.div_ceil(REGION_CHUNK) * REGION_CHUNK).min(700);
            let region_reads: u64 = (0..fetched as u32)
                .collect::<Vec<_>>()
                .chunks(REGION_CHUNK)
                .map(|chunk| pages_of(&db, chunk).len() as u64)
                .sum();
            assert_eq!(stats.heap_io.reads, scan_reads + region_reads, "LIMIT {n}");
        }
    }

    #[test]
    fn batches_append_and_truncate_row_major() {
        let pair = |a: u32, b: u32| Batch {
            arity: 2,
            ids: vec![a, b],
            regions: Vec::new(),
        };
        let mut all = Batch::default();
        assert_eq!(all.rows(), 0);
        for (a, b) in [(1, 10), (1, 11), (2, 10)] {
            all.append(pair(a, b));
        }
        assert_eq!((all.arity, all.rows()), (2, 3));
        assert_eq!(all.row_ids(1), [1, 11]);
        all.truncate(2);
        assert_eq!(all.ids, [1, 10, 1, 11]);
        assert!(all.require_regions().is_err(), "two rows, no regions");
    }
}
