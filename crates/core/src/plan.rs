//! Access methods and the cost-based planner.
//!
//! The paper's value proposition is a *choice* among access techniques —
//! restricted (Section 3), T1 (Section 4.1), T2 (Sections 4.2–4.3) and the
//! R⁺-tree baseline of Section 5 — with analytic costs (Theorems 3.1/4.2)
//! that predict which wins. This module makes that choice first-class:
//!
//! * [`AccessMethod`] — one uniform `&self` execution surface over a
//!   [`PageReader`], with a capability descriptor (exact vs refined vs
//!   unsupported per [`Selection`]), a cost estimator, and page/maintenance
//!   accessors. Implemented by adapters over the three [`DualIndex`]
//!   techniques, [`DualIndexD`] for `d > 2`, a first-class sequential scan
//!   over a relation, and [`RPlusAccess`] over [`cdb_rplustree::RPlusTree`].
//! * [`Planner`] — enumerates the feasible methods, scores each with the
//!   paper-shaped I/O formulas evaluated at a candidate fraction seeded from
//!   a small feedback catalog ([`PlanCatalog`]) of observed per-plan
//!   [`QueryStats`], and returns the cheapest as a [`QueryPlan`].
//! * [`QueryPlan::explain`] / [`ExplainReport`] — render chosen method,
//!   estimated vs actual page accesses, bracket case and refinement mode.
//!
//! The cost model follows the shape of the paper's theorems rather than
//! reproducing their constants: a B⁺-tree search costs one root-to-leaf
//! descent (`h` pages) plus the fraction of leaf pages the sweep touches,
//! and fetching `c` candidates from a heap of `p` pages costs the expected
//! number of *distinct* pages `p · (1 − (1 − 1/p)^c)` (candidates are
//! batched per page by [`TupleSource`] implementations). T1 pays two
//! descents and roughly twice the candidates (its duplication problem,
//! Section 4.1); T2 pays one descent, a slightly longer sweep (the handicap
//! overshoot) and duplicate-free candidates; the restricted technique
//! refines only the f32 boundary band, so its heap cost is near zero.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cdb_btree::layout::leaf_capacity;
use cdb_rplustree::RPlusTree;
use cdb_storage::codec::{self, finite};
use cdb_storage::{CodecError, PageReader, RecordReader, RecordWriter, TrackedReader, Wire};

use crate::db::Relation;
use crate::ddim::DualIndexD;
use crate::error::CdbError;
use crate::index::{refine, DualIndex, TupleSource};
use crate::query::{QueryResult, QueryStats, Selection, SelectionKind, Strategy};
use crate::slopes::Bracket;

/// Candidate fraction assumed before any feedback is available (the paper's
/// experiments run at 10–15% selectivity; 1/8 sits in that band).
pub const DEFAULT_SELECTIVITY: f64 = 0.125;

/// How fast the d-dimensional T2 over-coverage grows with the slope-space
/// extent of the query's Voronoi cell. The whole-cell handicaps admit every
/// tuple whose `TOP`/`BOT` surface can cross the intercept *somewhere* in
/// the cell, a band of near-boundary tuples whose size is a fraction of the
/// whole relation — additive in `n`, independent of the query's own
/// selectivity — proportional to the sum of the cell's per-axis half-widths
/// (grids keep per-axis resolution, so the band gains an axis, not just
/// width, per dimension). Calibrated on `dimension_sweep` (uniform boxes,
/// 10–15% selectivity, d ∈ {2,3,4}); see EXPERIMENTS.md.
pub const T2_CELL_OVERSHOOT: f64 = 0.5;

/// Per-app-query surplus of the simplex covering, as a fraction of `n` per
/// unit of slope-space distance between the query slope and the simplex
/// vertex serving the leg. A leg sweeps exact keys at its *vertex* slope,
/// so its surplus is the (signed, half-cancelling) drift of the dual
/// surface between vertex and query — much smaller than T2's whole-cell
/// band. Calibrated on `dimension_sweep`; see EXPERIMENTS.md.
pub const SIMPLEX_LEG_OVERSHOOT: f64 = 0.06;

/// EWMA weight of the newest observation in the feedback catalog.
const EWMA_ALPHA: f64 = 0.3;

/// A rival access method whose estimate is within this factor of the
/// incumbent's counts as a near-tie and is eligible for an exploration
/// probe.
const NEAR_TIE_RATIO: f64 = 1.2;

/// Every `PROBE_PERIOD`-th executed query with a near-tie is served by the
/// least-sampled rival instead of the incumbent, so the rival's observed
/// candidate fraction stays calibrated instead of one method locking in
/// forever on stale feedback.
const PROBE_PERIOD: u64 = 16;

/// Identifies an access method independent of its borrowed adapter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Section 3: exact single-tree search (query slope must be in `S`).
    Restricted,
    /// Section 4.1: two app-queries, duplicates possible, then refinement.
    T1,
    /// Sections 4.2–4.3: handicap-guided duplicate-free search.
    T2,
    /// The d-dimensional extension (Section 4.4) for `d > 2` relations.
    DualD,
    /// Sequential scan of the heap with exact predicates.
    SeqScan,
    /// The packed R⁺-tree over tuple bounding boxes (Section 5 baseline).
    RPlus,
}

cdb_storage::wire_enum!(MethodKind {
    0 => Restricted,
    1 => T1,
    2 => T2,
    3 => DualD,
    4 => SeqScan,
    5 => RPlus,
});

impl MethodKind {
    /// The legacy [`Strategy`] this method corresponds to, if any.
    pub fn strategy(self) -> Option<Strategy> {
        match self {
            MethodKind::Restricted => Some(Strategy::Restricted),
            MethodKind::T1 => Some(Strategy::T1),
            MethodKind::T2 => Some(Strategy::T2),
            MethodKind::SeqScan => Some(Strategy::Scan),
            MethodKind::RPlus => Some(Strategy::RPlus),
            MethodKind::DualD => None,
        }
    }
}

impl fmt::Display for MethodKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MethodKind::Restricted => "Restricted",
            MethodKind::T1 => "T1",
            MethodKind::T2 => "T2",
            MethodKind::DualD => "DualD",
            MethodKind::SeqScan => "SeqScan",
            MethodKind::RPlus => "RPlus",
        };
        f.write_str(s)
    }
}

/// Whether (and how) a method can serve one particular selection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Capability {
    /// The index phase alone decides membership (up to the f32 boundary
    /// band, which is verified in place); no candidate superset.
    Exact,
    /// The index phase produces a candidate superset that an exact
    /// refinement pass (tuple fetches + the exact predicate) filters down.
    Refined,
    /// The method cannot serve this selection; the reason is shown in
    /// EXPLAIN output.
    Unsupported(String),
}

/// Predicted I/O for one (method, selection) pair, in page accesses.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostEstimate {
    /// Pages read in index structures (descents + sweeps).
    pub index_pages: f64,
    /// Distinct heap pages fetched for refinement.
    pub heap_pages: f64,
    /// Candidate tuples produced by the index phase (duplicates included).
    pub candidates: f64,
}

cdb_storage::wire_struct!(CostEstimate {
    index_pages,
    heap_pages,
    candidates
});

impl CostEstimate {
    /// Total predicted page accesses.
    pub fn total(&self) -> f64 {
        self.index_pages + self.heap_pages
    }
}

/// Human-readable execution detail for EXPLAIN output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanDetail {
    /// The bracket/routing case, e.g. `member slope 1.0` or
    /// `between slopes -0.414 and 0.414`.
    pub case: String,
    /// Refinement mode, e.g. `boundary band only` or `candidate superset`.
    pub refinement: &'static str,
}

/// Shared sizing facts the cost formulas need.
#[derive(Clone, Copy, Debug)]
pub struct MethodContext {
    /// Live tuples in the relation.
    pub n: u64,
    /// Pages of the relation's heap file.
    pub heap_pages: u64,
    /// Page size (drives per-page fan-outs).
    pub page_size: usize,
}

impl MethodContext {
    /// Leaf pages of one dual B⁺-tree over `n` entries.
    pub fn dual_leaf_pages(&self) -> f64 {
        let cap = leaf_capacity(self.page_size).max(1) as f64;
        (self.n as f64 / cap).ceil().max(1.0)
    }

    /// Expected number of *distinct* heap pages holding `c` uniformly
    /// spread candidates: `p · (1 − (1 − 1/p)^c)` (Yao's approximation) —
    /// the batch fetch of [`TupleSource`] pays one access per distinct page.
    pub fn heap_fetch_pages(&self, c: f64) -> f64 {
        let p = self.heap_pages.max(1) as f64;
        if c <= 0.0 {
            return 0.0;
        }
        p * (1.0 - (1.0 - 1.0 / p).powf(c))
    }
}

/// One query path the planner can choose: uniform `&self` execution over a
/// shared [`PageReader`], with capability, cost and maintenance metadata.
pub trait AccessMethod: Sync {
    /// Which method this is.
    fn kind(&self) -> MethodKind;

    /// Whether (and how) this method can serve `sel`.
    fn capability(&self, sel: &Selection) -> Capability;

    /// Cost estimate at the default candidate fraction.
    fn estimate(&self, sel: &Selection) -> CostEstimate {
        self.estimate_at(sel, DEFAULT_SELECTIVITY)
    }

    /// Cost estimate assuming the index phase produces `frac · n`
    /// candidates (before method-specific duplication factors).
    fn estimate_at(&self, sel: &Selection, frac: f64) -> CostEstimate;

    /// The bracket/routing case and refinement mode for EXPLAIN output.
    fn detail(&self, sel: &Selection) -> PlanDetail;

    /// Executes the selection, charging I/O to `pager` and fetching
    /// refinement tuples through `fetch`.
    fn execute(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError>;

    /// Pages owned by the method's backing structure (0 for scans).
    fn page_count(&self) -> u64;

    /// `true` when update traffic has loosened auxiliary structures and a
    /// maintenance pass (e.g. handicap refresh) would improve costs.
    fn needs_maintenance(&self) -> bool {
        false
    }
}

// ------------------------------------------------------- dual-index adapters

/// The restricted technique (Section 3) as an [`AccessMethod`].
pub struct RestrictedAccess<'a> {
    /// The shared dual forest.
    pub index: &'a DualIndex,
    /// Relation sizing for the cost formulas.
    pub ctx: MethodContext,
}

impl AccessMethod for RestrictedAccess<'_> {
    fn kind(&self) -> MethodKind {
        MethodKind::Restricted
    }

    fn capability(&self, sel: &Selection) -> Capability {
        if sel.halfplane.dim() != 2 {
            return Capability::Unsupported("the 2-D dual index serves 2-D queries only".into());
        }
        match self.index.slopes().bracket(sel.halfplane.slope2d()) {
            Bracket::Member(_) => Capability::Exact,
            _ => Capability::Unsupported(format!(
                "slope {} is not in the predefined set S",
                sel.halfplane.slope2d()
            )),
        }
    }

    fn estimate_at(&self, _sel: &Selection, frac: f64) -> CostEstimate {
        let h = self.index.tree_height() as f64;
        let c = frac * self.ctx.n as f64;
        CostEstimate {
            index_pages: h + frac * self.ctx.dual_leaf_pages(),
            // Only the f32 boundary band is fetched: a handful of tuples.
            heap_pages: self.ctx.heap_fetch_pages(2.0_f64.min(c)),
            candidates: c,
        }
    }

    fn detail(&self, sel: &Selection) -> PlanDetail {
        let case = match self.index.slopes().bracket(sel.halfplane.slope2d()) {
            Bracket::Member(i) => format!("member slope {}", self.index.slopes().get(i)),
            _ => "slope outside S".into(),
        };
        PlanDetail {
            case,
            refinement: "exact by key; f32 boundary band verified",
        }
    }

    fn execute(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        self.index.execute(pager, sel, Strategy::Restricted, fetch)
    }

    fn page_count(&self) -> u64 {
        self.index.page_count()
    }

    fn needs_maintenance(&self) -> bool {
        self.index.needs_refresh()
    }
}

/// Technique T1 (Section 4.1) as an [`AccessMethod`].
pub struct T1Access<'a> {
    /// The shared dual forest.
    pub index: &'a DualIndex,
    /// Relation sizing for the cost formulas.
    pub ctx: MethodContext,
}

impl AccessMethod for T1Access<'_> {
    fn kind(&self) -> MethodKind {
        MethodKind::T1
    }

    fn capability(&self, sel: &Selection) -> Capability {
        if sel.halfplane.dim() != 2 {
            return Capability::Unsupported("the 2-D dual index serves 2-D queries only".into());
        }
        match self.index.slopes().bracket(sel.halfplane.slope2d()) {
            Bracket::Member(_) => Capability::Exact, // delegates to restricted
            _ => Capability::Refined,
        }
    }

    fn estimate_at(&self, sel: &Selection, frac: f64) -> CostEstimate {
        let h = self.index.tree_height() as f64;
        if matches!(
            self.index.slopes().bracket(sel.halfplane.slope2d()),
            Bracket::Member(_)
        ) {
            // Member slopes execute the restricted technique.
            return RestrictedAccess {
                index: self.index,
                ctx: self.ctx,
            }
            .estimate_at(sel, frac);
        }
        // Two app-queries; the legs over-cover and overlap (duplication),
        // so candidates roughly double before refinement.
        let c = 2.0 * frac * self.ctx.n as f64;
        CostEstimate {
            index_pages: 2.0 * (h + frac * self.ctx.dual_leaf_pages()),
            heap_pages: self.ctx.heap_fetch_pages(c),
            candidates: c,
        }
    }

    fn detail(&self, sel: &Selection) -> PlanDetail {
        let slopes = self.index.slopes();
        let a = sel.halfplane.slope2d();
        let (case, refinement) = match slopes.bracket(a) {
            Bracket::Member(i) => (
                format!("member slope {} (restricted)", slopes.get(i)),
                "exact by key; f32 boundary band verified",
            ),
            Bracket::Between(i, j) => (
                format!(
                    "two app-queries at slopes {} and {}",
                    slopes.get(i),
                    slopes.get(j)
                ),
                "candidate superset; duplicates removed, then exact refinement",
            ),
            Bracket::Wrapped(cw, acw) => (
                format!(
                    "wrapped: app-queries at slopes {} and {} (Table 1)",
                    slopes.get(cw),
                    slopes.get(acw)
                ),
                "candidate superset; duplicates removed, then exact refinement",
            ),
        };
        PlanDetail { case, refinement }
    }

    fn execute(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        self.index.execute(pager, sel, Strategy::T1, fetch)
    }

    fn page_count(&self) -> u64 {
        self.index.page_count()
    }

    fn needs_maintenance(&self) -> bool {
        self.index.needs_refresh()
    }
}

/// Technique T2 (Sections 4.2–4.3) as an [`AccessMethod`].
pub struct T2Access<'a> {
    /// The shared dual forest.
    pub index: &'a DualIndex,
    /// Relation sizing for the cost formulas.
    pub ctx: MethodContext,
}

impl AccessMethod for T2Access<'_> {
    fn kind(&self) -> MethodKind {
        MethodKind::T2
    }

    fn capability(&self, sel: &Selection) -> Capability {
        if sel.halfplane.dim() != 2 {
            return Capability::Unsupported("the 2-D dual index serves 2-D queries only".into());
        }
        match self.index.slopes().bracket(sel.halfplane.slope2d()) {
            Bracket::Member(_) => Capability::Exact, // delegates to restricted
            _ => Capability::Refined,
        }
    }

    fn estimate_at(&self, sel: &Selection, frac: f64) -> CostEstimate {
        let h = self.index.tree_height() as f64;
        match self.index.slopes().bracket(sel.halfplane.slope2d()) {
            Bracket::Member(_) => RestrictedAccess {
                index: self.index,
                ctx: self.ctx,
            }
            .estimate_at(sel, frac),
            Bracket::Wrapped(..) => T1Access {
                index: self.index,
                ctx: self.ctx,
            }
            .estimate_at(sel, frac),
            Bracket::Between(..) => {
                // One descent; the two disjoint sweeps over-cover the exact
                // answer by the handicap overshoot (a strip, not a doubling).
                let c = 1.2 * frac * self.ctx.n as f64;
                CostEstimate {
                    index_pages: h + 1.2 * frac * self.ctx.dual_leaf_pages(),
                    heap_pages: self.ctx.heap_fetch_pages(c),
                    candidates: c,
                }
            }
        }
    }

    fn detail(&self, sel: &Selection) -> PlanDetail {
        let slopes = self.index.slopes();
        let a = sel.halfplane.slope2d();
        let (case, refinement) = match slopes.bracket(a) {
            Bracket::Member(i) => (
                format!("member slope {} (restricted)", slopes.get(i)),
                "exact by key; f32 boundary band verified",
            ),
            Bracket::Between(i, j) => {
                let mid = (slopes.get(i) + slopes.get(j)) / 2.0;
                let near = if a <= mid {
                    slopes.get(i)
                } else {
                    slopes.get(j)
                };
                (
                    format!(
                        "between slopes {} and {}: handicap-guided sweeps on the tree at {near}",
                        slopes.get(i),
                        slopes.get(j)
                    ),
                    "duplicate-free candidate superset, then exact refinement",
                )
            }
            Bracket::Wrapped(..) => (
                "wrapped slope: T1 fallback (Section 4.1)".into(),
                "candidate superset; duplicates removed, then exact refinement",
            ),
        };
        PlanDetail { case, refinement }
    }

    fn execute(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        self.index.execute(pager, sel, Strategy::T2, fetch)
    }

    fn page_count(&self) -> u64 {
        self.index.page_count()
    }

    fn needs_maintenance(&self) -> bool {
        self.index.needs_refresh()
    }
}

// --------------------------------------------------------- d > 2 dimensions

/// The d-dimensional dual index (Section 4.4) as an [`AccessMethod`].
pub struct DualDAccess<'a> {
    /// The d-dimensional forest.
    pub index: &'a DualIndexD,
    /// Relation sizing for the cost formulas.
    pub ctx: MethodContext,
}

impl DualDAccess<'_> {
    /// Cost of the simplex covering (generalized T1): `d` descents and `d`
    /// sweeps against `d` different trees. Each leg over-covers in
    /// proportion to how far its vertex sits from the query slope
    /// ([`SIMPLEX_LEG_OVERSHOOT`]), and the legs overlap heavily —
    /// `candidates` is the pre-dedup total the executor reports, but the
    /// heap only pays for the deduped union of the legs.
    pub fn simplex_estimate(&self, sel: &Selection, frac: f64) -> CostEstimate {
        let h = self.index.tree_height() as f64;
        let leaf = self.ctx.dual_leaf_pages();
        let d = self.index.dim() as f64;
        let n = self.ctx.n as f64;
        let slope = &sel.halfplane.slope;
        let points = self.index.points();
        let mean_dist = points
            .containing_simplex(slope)
            .map(|vs| {
                vs.iter()
                    .map(|&i| {
                        points.as_slice()[i]
                            .iter()
                            .zip(slope)
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum::<f64>()
                            .sqrt()
                    })
                    .sum::<f64>()
                    / vs.len() as f64
            })
            .unwrap_or(0.0);
        let leg = (frac + SIMPLEX_LEG_OVERSHOOT * mean_dist).min(1.0);
        let union = n * (1.0 - (1.0 - leg).powf(d));
        CostEstimate {
            index_pages: d * (h + leg * leaf),
            heap_pages: self.ctx.heap_fetch_pages(union),
            candidates: d * leg * n,
        }
    }
}

impl AccessMethod for DualDAccess<'_> {
    fn kind(&self) -> MethodKind {
        MethodKind::DualD
    }

    fn capability(&self, sel: &Selection) -> Capability {
        let d = self.index.dim();
        if sel.halfplane.dim() != d {
            return Capability::Unsupported(format!("the index serves {d}-D queries only"));
        }
        let slope = &sel.halfplane.slope;
        if self.index.points().position(slope).is_some() {
            Capability::Exact
        } else if self.index.points().nearest_grid(slope).is_some()
            || self.index.points().containing_simplex(slope).is_some()
        {
            Capability::Refined
        } else {
            Capability::Unsupported(format!(
                "query slope {slope:?} lies outside the hull of the predefined set S"
            ))
        }
    }

    fn estimate_at(&self, sel: &Selection, frac: f64) -> CostEstimate {
        let h = self.index.tree_height() as f64;
        let leaf = self.ctx.dual_leaf_pages();
        let slope = &sel.halfplane.slope;
        if self.index.points().position(slope).is_some() {
            let c = frac * self.ctx.n as f64;
            CostEstimate {
                index_pages: h + frac * leaf,
                heap_pages: self.ctx.heap_fetch_pages(2.0_f64.min(c)),
                candidates: c,
            }
        } else if let Some(cell) = self.index.points().nearest_grid(slope) {
            // d-dimensional T2: one descent, two disjoint handicap-guided
            // sweeps over one tree. The whole-cell handicaps admit an extra
            // band of near-boundary tuples sized by the cell's slope-space
            // extent — additive in n, per-cell (boundary cells are clipped
            // smaller) — not the fixed 2-D strip factor.
            let band: f64 = self
                .index
                .points()
                .cell_widths(cell)
                .map(|ws| ws.iter().map(|w| w / 2.0).sum())
                .unwrap_or(0.0);
            let covered = (frac + T2_CELL_OVERSHOOT * band).min(1.0);
            let c = covered * self.ctx.n as f64;
            CostEstimate {
                index_pages: h + covered * leaf,
                heap_pages: self.ctx.heap_fetch_pages(c),
                candidates: c,
            }
        } else {
            self.simplex_estimate(sel, frac)
        }
    }

    fn detail(&self, sel: &Selection) -> PlanDetail {
        let slope = &sel.halfplane.slope;
        if self.index.points().position(slope).is_some() {
            PlanDetail {
                case: format!("member slope point {slope:?}"),
                refinement: "exact by key; f32 boundary band verified",
            }
        } else if let Some(cell) = self.index.points().nearest_grid(slope) {
            PlanDetail {
                case: format!("grid cell {cell}: d-dimensional T2 sweeps"),
                refinement: "duplicate-free candidate superset, then exact refinement",
            }
        } else {
            PlanDetail {
                case: format!("simplex covering with {} app-queries", self.index.dim()),
                refinement: "candidate superset; duplicates removed, then exact refinement",
            }
        }
    }

    fn execute(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        self.index.execute(pager, sel, fetch)
    }

    fn page_count(&self) -> u64 {
        self.index.page_count()
    }
}

// ------------------------------------------------------------------ seqscan

/// A first-class sequential scan over a relation's heap: the no-index
/// baseline and the correctness oracle, now planned like any other method
/// instead of being an `UnsupportedQuery` wart inside the index.
pub struct SeqScanAccess<'a> {
    /// The relation to scan.
    pub relation: &'a Relation,
    /// Relation sizing for the cost formulas.
    pub ctx: MethodContext,
}

impl AccessMethod for SeqScanAccess<'_> {
    fn kind(&self) -> MethodKind {
        MethodKind::SeqScan
    }

    fn capability(&self, sel: &Selection) -> Capability {
        if sel.halfplane.dim() != self.relation.dim() {
            return Capability::Unsupported(format!(
                "the relation is {}-D, the query {}-D",
                self.relation.dim(),
                sel.halfplane.dim()
            ));
        }
        Capability::Exact
    }

    fn estimate_at(&self, _sel: &Selection, _frac: f64) -> CostEstimate {
        CostEstimate {
            index_pages: 0.0,
            heap_pages: self.ctx.heap_pages as f64,
            candidates: self.ctx.n as f64,
        }
    }

    fn detail(&self, _sel: &Selection) -> PlanDetail {
        PlanDetail {
            case: format!("full scan of {} tuples", self.ctx.n),
            refinement: "exact predicate per tuple (no candidate superset)",
        }
    }

    fn execute(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        _fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        let tracked = TrackedReader::new(pager);
        let pager: &dyn PageReader = &tracked;
        let before = pager.stats();
        let tuples = self.relation.scan(pager)?;
        let mut ids = Vec::new();
        for (id, t) in &tuples {
            if sel.holds(t) {
                ids.push(*id);
            }
        }
        let mut stats = QueryStats {
            candidates: tuples.len() as u64,
            ..QueryStats::default()
        };
        stats.heap_io = pager.stats().since(&before);
        Ok(QueryResult::new(ids, stats))
    }

    fn page_count(&self) -> u64 {
        0
    }
}

// -------------------------------------------------------------- R⁺ baseline

/// The packed R⁺-tree baseline (Section 5) as an [`AccessMethod`], finally
/// buildable and queryable through `ConstraintDb` like any other index.
///
/// The tree stores bounding boxes of the *bounded* tuples; a selection runs
/// the EXIST half-plane search as a candidate superset (valid for ALL too,
/// since `ALL(q) ⊆ EXIST(q)` over satisfiable tuples), appends the
/// unbounded overflow list (no finite MBR exists for those), and refines
/// exactly.
pub struct RPlusAccess<'a> {
    /// The packed tree over bounded tuples' MBRs.
    pub tree: &'a RPlusTree,
    /// Ids of unbounded tuples, kept outside the tree and always refined.
    pub unbounded: &'a [u32],
    /// Sorted tombstones: deleted bounded tuples still present in the tree
    /// (the packed structure supports inserts but not deletes), filtered
    /// out of every candidate set.
    pub dead: &'a [u32],
    /// Relation sizing for the cost formulas.
    pub ctx: MethodContext,
}

impl AccessMethod for RPlusAccess<'_> {
    fn kind(&self) -> MethodKind {
        MethodKind::RPlus
    }

    fn capability(&self, sel: &Selection) -> Capability {
        if sel.halfplane.dim() != 2 {
            return Capability::Unsupported("the R⁺-tree serves 2-D queries only".into());
        }
        Capability::Refined
    }

    fn estimate_at(&self, _sel: &Selection, frac: f64) -> CostEstimate {
        let h = self.tree.height() as f64;
        let c = frac * self.ctx.n as f64 + self.unbounded.len() as f64;
        CostEstimate {
            index_pages: h + frac * self.tree.page_count() as f64,
            heap_pages: self.ctx.heap_fetch_pages(c),
            candidates: c,
        }
    }

    fn detail(&self, _sel: &Selection) -> PlanDetail {
        PlanDetail {
            case: format!(
                "MBR intersection search; {} unbounded tuples via overflow list",
                self.unbounded.len()
            ),
            refinement: "candidate superset (EXIST MBRs), then exact refinement",
        }
    }

    fn execute(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        if sel.halfplane.dim() != 2 {
            return Err(CdbError::DimensionMismatch {
                expected: 2,
                got: sel.halfplane.dim(),
            });
        }
        let tracked = TrackedReader::new(pager);
        let pager: &dyn PageReader = &tracked;
        let before = pager.stats();
        let (mut candidates, search) = self.tree.search_halfplane(pager, &sel.halfplane)?;
        candidates.extend_from_slice(self.unbounded);
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|id| self.dead.binary_search(id).is_err());
        let mut stats = QueryStats {
            candidates: search.raw_hits + self.unbounded.len() as u64,
            duplicates: search.duplicates,
            ..QueryStats::default()
        };
        stats.index_io = pager.stats().since(&before);
        let heap_before = pager.stats();
        let ids = refine(pager, &|t| sel.holds(t), candidates, fetch, &mut stats)?;
        stats.heap_io = pager.stats().since(&heap_before);
        Ok(QueryResult::new(ids, stats))
    }

    fn page_count(&self) -> u64 {
        self.tree.page_count()
    }

    fn needs_maintenance(&self) -> bool {
        // Tombstones inflate candidate sets until the tree is repacked.
        !self.dead.is_empty()
    }
}

// ------------------------------------------------------------------ catalog

/// One EWMA-smoothed feedback entry of the [`PlanCatalog`].
#[derive(Clone, Copy, Debug)]
pub struct Observation {
    /// Smoothed candidates / n.
    pub candidate_frac: f64,
    /// Smoothed total page accesses.
    pub total_pages: f64,
    /// Number of executions folded in.
    pub samples: u64,
}

cdb_storage::wire_struct!(Observation { candidate_frac as finite, total_pages as finite, samples });

/// Per-(method, selection-kind) feedback from executed queries: the planner
/// seeds its cost formulas with the observed candidate fraction, so
/// estimates tighten as the engine serves traffic.
///
/// Interior-mutable (a mutex around a small map) so concurrent batch
/// workers can record through a shared `&self`.
#[derive(Debug, Default)]
pub struct PlanCatalog {
    inner: Mutex<HashMap<(MethodKind, SelectionKind), Observation>>,
    /// Bumped on every [`record`](Self::record); the database uses it to
    /// detect planner-state changes behind `&self` queries, so a catalog
    /// checkpoint is written only when something actually moved.
    version: AtomicU64,
    /// Monotone counter driving the exploration probes (persisted so a
    /// reopened database keeps its probe cadence).
    probe_clock: AtomicU64,
}

impl Clone for PlanCatalog {
    /// Deep copy of the feedback state (for database snapshots). The
    /// clone's counters continue independently; feedback recorded against
    /// a snapshot is not folded back into the live catalog.
    fn clone(&self) -> Self {
        PlanCatalog {
            inner: Mutex::new(self.inner.lock().expect("catalog poisoned").clone()),
            version: AtomicU64::new(self.version()),
            probe_clock: AtomicU64::new(self.probe_clock()),
        }
    }
}

/// The probe clock, then [`entries`](PlanCatalog::entries) as a counted
/// list. A restored catalog starts at version 0.
impl Wire for PlanCatalog {
    fn put(&self, w: &mut RecordWriter) {
        self.probe_clock().put(w);
        self.entries().put(w)
    }
    fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
        let probe_clock = u64::get(r)?;
        let entries = Vec::<(MethodKind, SelectionKind, Observation)>::get(r)?;
        Ok(PlanCatalog {
            inner: Mutex::new(entries.into_iter().map(|(m, k, o)| ((m, k), o)).collect()),
            version: AtomicU64::new(0),
            probe_clock: AtomicU64::new(probe_clock),
        })
    }
}

impl PlanCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of every entry, ordered by the persisted method and kind
    /// tags (deterministic, for serialization and reproducible diffs).
    pub fn entries(&self) -> Vec<(MethodKind, SelectionKind, Observation)> {
        let map = self.inner.lock().expect("catalog poisoned");
        let mut out: Vec<_> = map.iter().map(|(&(m, k), &o)| (m, k, o)).collect();
        out.sort_by_cached_key(|&(m, k, _)| codec::encode(&(m, k)));
        out
    }

    /// Number of [`record`](Self::record) calls since construction.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// The exploration probe clock (see [`Planner::choose`]).
    pub fn probe_clock(&self) -> u64 {
        self.probe_clock.load(Ordering::Relaxed)
    }

    /// Advances the probe clock, returning the new tick value.
    fn probe_tick(&self) -> u64 {
        self.probe_clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Folds one executed query's actuals into the catalog.
    pub fn record(&self, method: MethodKind, kind: SelectionKind, stats: &QueryStats, n: u64) {
        if n == 0 {
            return;
        }
        self.version.fetch_add(1, Ordering::Relaxed);
        let frac = stats.candidates as f64 / n as f64;
        let pages = stats.total_accesses() as f64;
        let mut map = self.inner.lock().expect("catalog poisoned");
        let e = map.entry((method, kind)).or_insert(Observation {
            candidate_frac: frac,
            total_pages: pages,
            samples: 0,
        });
        e.candidate_frac = EWMA_ALPHA * frac + (1.0 - EWMA_ALPHA) * e.candidate_frac;
        e.total_pages = EWMA_ALPHA * pages + (1.0 - EWMA_ALPHA) * e.total_pages;
        e.samples += 1;
    }

    /// The candidate fraction to evaluate `method`'s cost formula at: its
    /// own observation if any, else the mean over same-selection-kind
    /// entries (one shared fraction keeps the cross-method cost *ordering*
    /// intact), else `None` (caller falls back to
    /// [`DEFAULT_SELECTIVITY`]).
    pub fn frac_for(&self, method: MethodKind, kind: SelectionKind) -> Option<f64> {
        let map = self.inner.lock().expect("catalog poisoned");
        if let Some(o) = map.get(&(method, kind)) {
            // Convert observed raw candidates back to a base selectivity:
            // the formulas re-apply each method's duplication factor.
            let divisor = match method {
                MethodKind::T1 => 2.0,
                MethodKind::T2 | MethodKind::RPlus => 1.2,
                _ => 1.0,
            };
            return Some((o.candidate_frac / divisor).clamp(0.0, 1.0));
        }
        let same_kind: Vec<f64> = map
            .iter()
            .filter(|((_, k), _)| *k == kind)
            .map(|((m, _), o)| {
                let divisor = match m {
                    MethodKind::T1 => 2.0,
                    MethodKind::T2 | MethodKind::RPlus => 1.2,
                    _ => 1.0,
                };
                o.candidate_frac / divisor
            })
            .collect();
        if same_kind.is_empty() {
            None
        } else {
            Some((same_kind.iter().sum::<f64>() / same_kind.len() as f64).clamp(0.0, 1.0))
        }
    }

    /// Number of executions recorded for one (method, kind) pair.
    pub fn samples(&self, method: MethodKind, kind: SelectionKind) -> u64 {
        self.inner
            .lock()
            .expect("catalog poisoned")
            .get(&(method, kind))
            .map(|o| o.samples)
            .unwrap_or(0)
    }
}

// ------------------------------------------------------------------ planner

/// The chosen plan for one selection, with everything EXPLAIN needs.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// The chosen method.
    pub method: MethodKind,
    /// `true` when the method was forced by the caller rather than chosen
    /// on cost.
    pub forced: bool,
    /// `true` when the index phase alone decides membership.
    pub exact: bool,
    /// The bracket/routing case (e.g. `between slopes -0.414 and 0.414`).
    pub case: String,
    /// Refinement mode.
    pub refinement: &'static str,
    /// Predicted I/O for the chosen method.
    pub estimate: CostEstimate,
    /// The candidate fraction the estimates were evaluated at.
    pub frac: f64,
    /// `true` when the method was picked as an exploration probe of a
    /// near-tie rival rather than as the cheapest estimate.
    pub explored: bool,
    /// Every feasible method with its estimate, cheapest first.
    pub considered: Vec<(MethodKind, CostEstimate)>,
    /// Methods that cannot serve this selection, with reasons.
    pub rejected: Vec<(MethodKind, String)>,
}

impl QueryPlan {
    /// Renders the plan: chosen method, estimated page accesses, bracket
    /// case and refinement mode.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "method={} ({})  case: {}\n",
            self.method,
            if self.forced {
                "forced"
            } else if self.explored {
                "cost-based, exploration probe"
            } else {
                "cost-based"
            },
            self.case
        ));
        out.push_str(&format!(
            "  refinement: {} [{}]\n",
            self.refinement,
            if self.exact { "exact" } else { "refined" }
        ));
        out.push_str(&format!(
            "  estimate: {:.1} index + {:.1} heap = {:.1} pages, ~{:.0} candidates (frac {:.3})\n",
            self.estimate.index_pages,
            self.estimate.heap_pages,
            self.estimate.total(),
            self.estimate.candidates,
            self.frac
        ));
        out.push_str("  considered:\n");
        for (m, e) in &self.considered {
            // Pad the rendered name: Display impls ignore width flags.
            out.push_str(&format!(
                "    {:<11}{:>8.1} pages\n",
                m.to_string(),
                e.total()
            ));
        }
        for (m, why) in &self.rejected {
            out.push_str(&format!("    {:<11}rejected: {why}\n", m.to_string()));
        }
        out
    }
}

/// Enumerates feasible [`AccessMethod`]s for a selection and picks the
/// cheapest by estimated page accesses (or the `forced` one, validated).
pub struct Planner;

impl Planner {
    /// Plans `sel` over `methods`. Returns the index of the chosen method
    /// in `methods` plus the [`QueryPlan`].
    ///
    /// With `explore` set (queries that will actually execute), every
    /// `PROBE_PERIOD`-th decision with a near-tie — a rival estimated
    /// within `NEAR_TIE_RATIO` of the incumbent — picks the rival with
    /// the fewest recorded samples instead, keeping its observed candidate
    /// fraction calibrated. Pure planning calls (EXPLAIN-style) pass
    /// `false` so they are side-effect-free and deterministic.
    ///
    /// # Errors
    /// [`CdbError::UnsupportedQuery`] when `forced` names a method that is
    /// absent or cannot serve the selection, or when no method can.
    pub fn choose(
        methods: &[&dyn AccessMethod],
        sel: &Selection,
        forced: Option<MethodKind>,
        catalog: &PlanCatalog,
        explore: bool,
    ) -> Result<(usize, QueryPlan), CdbError> {
        let mut considered: Vec<(usize, MethodKind, Capability, CostEstimate, f64)> = Vec::new();
        let mut rejected: Vec<(MethodKind, String)> = Vec::new();
        for (i, m) in methods.iter().enumerate() {
            match m.capability(sel) {
                Capability::Unsupported(why) => rejected.push((m.kind(), why)),
                cap => {
                    let frac = catalog
                        .frac_for(m.kind(), sel.kind)
                        .unwrap_or(DEFAULT_SELECTIVITY);
                    let est = m.estimate_at(sel, frac);
                    considered.push((i, m.kind(), cap, est, frac));
                }
            }
        }
        considered.sort_by(|a, b| {
            a.3.total()
                .partial_cmp(&b.3.total())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut explored = false;
        let chosen = match forced {
            Some(k) => considered.iter().position(|c| c.1 == k).ok_or_else(|| {
                if let Some((_, why)) = rejected.iter().find(|(m, _)| *m == k) {
                    CdbError::UnsupportedQuery(format!("forced method {k}: {why}"))
                } else {
                    CdbError::UnsupportedQuery(format!(
                        "forced method {k} is not available on this relation"
                    ))
                }
            })?,
            None => {
                if considered.is_empty() {
                    let reasons: Vec<String> = rejected
                        .iter()
                        .map(|(m, why)| format!("{m}: {why}"))
                        .collect();
                    return Err(CdbError::UnsupportedQuery(format!(
                        "no access method supports this selection ({})",
                        reasons.join("; ")
                    )));
                }
                let mut pick = 0;
                if explore
                    && considered.len() > 1
                    && catalog.probe_tick().is_multiple_of(PROBE_PERIOD)
                {
                    let best_total = considered[0].3.total();
                    let probe = (1..considered.len())
                        .filter(|&i| considered[i].3.total() <= NEAR_TIE_RATIO * best_total)
                        .min_by_key(|&i| catalog.samples(considered[i].1, sel.kind));
                    if let Some(i) = probe {
                        pick = i;
                        explored = true;
                    }
                }
                pick
            }
        };
        let (mi, kind, cap, est, frac) = considered[chosen].clone();
        let detail = methods[mi].detail(sel);
        let plan = QueryPlan {
            method: kind,
            forced: forced.is_some(),
            exact: cap == Capability::Exact,
            case: detail.case,
            refinement: detail.refinement,
            estimate: est,
            frac,
            explored,
            considered: considered.iter().map(|(_, m, _, e, _)| (*m, *e)).collect(),
            rejected,
        };
        Ok((mi, plan))
    }
}

/// A planned query's full story: the plan plus the executed result, with a
/// renderer that lines up estimates against actuals.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// The plan the planner chose.
    pub plan: QueryPlan,
    /// The result of actually executing that plan.
    pub result: QueryResult,
}

impl ExplainReport {
    /// Renders plan + actual page accesses for side-by-side comparison.
    /// The observed-cost line comes from the shared pretty-printer
    /// ([`crate::pretty::actual_line`]) so typed EXPLAIN and SQL
    /// `EXPLAIN ANALYZE` agree on its shape.
    pub fn render(&self) -> String {
        let mut out = self.plan.explain();
        out.push_str("  ");
        out.push_str(&crate::pretty::actual_line(
            &self.result.stats,
            self.result.len() as u64,
        ));
        out.push('\n');
        out
    }
}

impl fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_estimate_totals() {
        let e = CostEstimate {
            index_pages: 3.0,
            heap_pages: 4.5,
            candidates: 100.0,
        };
        assert!((e.total() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn heap_fetch_pages_saturates() {
        let ctx = MethodContext {
            n: 1000,
            heap_pages: 50,
            page_size: 1024,
        };
        assert_eq!(ctx.heap_fetch_pages(0.0), 0.0);
        let few = ctx.heap_fetch_pages(3.0);
        assert!(few > 2.5 && few <= 3.0, "few candidates ≈ their own pages");
        let many = ctx.heap_fetch_pages(100_000.0);
        assert!((many - 50.0).abs() < 1e-6, "saturates at the heap size");
    }

    #[test]
    fn catalog_feedback_tightens_frac() {
        let cat = PlanCatalog::new();
        assert_eq!(cat.frac_for(MethodKind::T2, SelectionKind::Exist), None);
        let stats = QueryStats {
            candidates: 120,
            ..QueryStats::default()
        };
        cat.record(MethodKind::T2, SelectionKind::Exist, &stats, 1000);
        let f = cat
            .frac_for(MethodKind::T2, SelectionKind::Exist)
            .expect("recorded");
        assert!((f - 0.1).abs() < 1e-9, "0.12 observed / 1.2 divisor, {f}");
        assert_eq!(cat.samples(MethodKind::T2, SelectionKind::Exist), 1);
        // Same-kind fallback for a method with no entry of its own.
        let g = cat
            .frac_for(MethodKind::T1, SelectionKind::Exist)
            .expect("same-kind fallback");
        assert!((g - 0.1).abs() < 1e-9);
        // Different selection kind: still no data.
        assert_eq!(cat.frac_for(MethodKind::T2, SelectionKind::All), None);
    }

    #[test]
    fn catalog_entries_round_trip() {
        let cat = PlanCatalog::new();
        let stats = QueryStats {
            candidates: 120,
            ..QueryStats::default()
        };
        cat.record(MethodKind::T2, SelectionKind::Exist, &stats, 1000);
        cat.record(MethodKind::RPlus, SelectionKind::All, &stats, 1000);
        assert_eq!(cat.version(), 2, "each record bumps the version");
        let entries = cat.entries();
        assert_eq!(entries.len(), 2);
        let restored: PlanCatalog = codec::decode(&codec::encode(&cat)).unwrap();
        assert_eq!(restored.version(), 0, "a restored catalog starts clean");
        assert_eq!(restored.probe_clock(), cat.probe_clock());
        for (m, k, o) in &entries {
            assert_eq!(restored.frac_for(*m, *k), cat.frac_for(*m, *k));
            assert_eq!(restored.samples(*m, *k), o.samples);
        }
    }

    #[test]
    fn method_kind_strategy_round_trip() {
        assert_eq!(MethodKind::T2.strategy(), Some(Strategy::T2));
        assert_eq!(MethodKind::SeqScan.strategy(), Some(Strategy::Scan));
        assert_eq!(MethodKind::RPlus.strategy(), Some(Strategy::RPlus));
        assert_eq!(MethodKind::DualD.strategy(), None);
        assert_eq!(MethodKind::T2.to_string(), "T2");
    }
}
