//! Access methods and the cost-based planner.
//!
//! The paper's value proposition is a *choice* among access techniques —
//! restricted (Section 3), T1 (Section 4.1), T2 (Sections 4.2–4.3) and the
//! R⁺-tree baseline of Section 5 — with analytic costs (Theorems 3.1/4.2)
//! that predict which wins. This module makes that choice first-class:
//!
//! * [`AccessMethod`] — one borrowed, `Copy` enum over a relation's query
//!   paths: a sequential scan, one of the three [`DualIndex`] techniques,
//!   the d-dimensional index, or the R⁺-tree baseline
//!   ([`cdb_rplustree::RPlusTree`]), handed out by
//!   [`Relation::method`] with no allocation.
//!   [`route`](AccessMethod::route) decides once how a [`Selection`] is
//!   served — a [`PlanCase`], or the [`Rejection`] saying why not — and the
//!   cost estimator, the executor and EXPLAIN all read that one case.
//! * [`Planner`] — enumerates the feasible methods, scores each with the
//!   paper-shaped I/O formulas evaluated at a candidate fraction seeded from
//!   a small lock-free feedback table ([`PlanCatalog`]) of observed
//!   per-search candidate fractions, and returns the cheapest as a
//!   [`QueryPlan`].
//! * [`QueryPlan::explain`] / [`ExplainReport`] — render chosen method,
//!   estimated vs actual page accesses, routing case and refinement mode.
//!   The case and every rejection reason are plain data until then:
//!   planning a query formats no string.
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

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use cdb_btree::layout::leaf_capacity;
use cdb_geometry::constraint::RelOp;
use cdb_storage::PageReader;

use crate::error::CdbError;
use crate::index::ddim::DualIndexD;
use crate::index::{foreign, refine, Candidates, DualIndex, Exact, RPlusIndex, TupleSource};
use crate::query::{QueryResult, QueryStats, Selection, SelectionKind, Side};
use crate::relation::Relation;

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

/// How many candidates the search `method` runs produces per tuple of a
/// base fraction: T1's two overlapping app-queries roughly double it, T2's
/// handicap overshoot adds a strip. The cost formulas multiply by it and
/// [`PlanCatalog::frac_for`] divides observations by it.
fn overcover(method: MethodKind) -> f64 {
    match method {
        MethodKind::T1 => 2.0,
        MethodKind::T2 | MethodKind::RPlus => 1.2,
        _ => 1.0,
    }
}

/// Identifies an access method independent of what it borrows.
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

/// Why a method cannot serve a selection. Plain data on the executing
/// path; text only when EXPLAIN or an error message renders it.
#[derive(Clone, Debug, PartialEq)]
pub enum Rejection {
    /// The method serves `serves`-dimensional queries only.
    Dimension {
        /// The dimension of the method's index, or of the relation.
        serves: usize,
        /// The query's dimension.
        query: usize,
    },
    /// The restricted technique asked a slope outside `S`.
    SlopeNotInS(f64),
    /// The query slope (owned: its dimension is unbounded) lies outside
    /// the bounding box of the d-dimensional slope points.
    OutsideBox(Vec<f64>),
}

impl Rejection {
    /// The refusal of a `query`-dimensional selection by a method that
    /// serves `serves` dimensions, if they differ.
    pub(crate) fn dimension(serves: usize, sel: &Selection) -> Result<(), Rejection> {
        let query = sel.halfplane.dim();
        if query == serves {
            return Ok(());
        }
        Err(Rejection::Dimension { serves, query })
    }
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::Dimension { serves, query } => {
                write!(f, "serves {serves}-D queries only, the query is {query}-D")
            }
            Rejection::SlopeNotInS(a) => write!(f, "slope {a} is not in the predefined set S"),
            Rejection::OutsideBox(slope) => write!(
                f,
                "query slope {slope:?} lies outside the bounding box of the predefined set S"
            ),
        }
    }
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

/// One tree pair of a 2-D dual forest: element `i` of `S`, whose slope
/// is `slope`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeAt {
    /// Index of the slope in `S` (and of its tree pair in the forest).
    pub i: usize,
    /// The slope itself.
    pub slope: f64,
}

/// One app-query of Table 1: the trees it sweeps and its operator `θ`.
pub type Leg = (TreeAt, RelOp);

/// The route a method takes for one selection — decided once by
/// [`AccessMethod::route`], then read by the cost model, the executor and
/// EXPLAIN alike. It names the search that runs and carries what execution
/// needs (tree indices, sides, operators, cells, vertices) next to what
/// EXPLAIN prints, e.g. `member slope 1` or `between slopes -0.414 and
/// 0.414: …`; which technique was asked for is [`QueryPlan::method`].
/// Plain data on the executing path; text only when EXPLAIN renders it.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanCase {
    /// A member slope: the restricted search, whichever dual technique
    /// routed it.
    Member(TreeAt),
    /// Table 1's two app-queries: between two slopes of `S` both legs keep
    /// `θ` (T1); wrapped through the vertical they are the clockwise and
    /// anticlockwise neighbours, one leg with `¬θ` (rows 2 and 3) — where
    /// T2 runs them too, as the paper details T2 for `a₁ < a < a₂` only.
    AppQueries([Leg; 2]),
    /// T2 between slopes `lo` and `hi`, sweeping the trees at `near`
    /// guided by the handicaps of `side`.
    Between {
        /// Lower bracketing slope.
        lo: f64,
        /// Upper bracketing slope.
        hi: f64,
        /// The trees that are swept: those whose handicap strip
        /// `[aᵢ, (aᵢ+aⱼ)/2]` contains the query slope.
        near: TreeAt,
        /// The side of `near` that strip lies on.
        side: Side,
    },
    /// d-dimensional member slope point `i` (owned: unbounded dimension).
    MemberPoint {
        /// Index of the point in `S`.
        i: usize,
        /// The point itself.
        slope: Vec<f64>,
    },
    /// d-dimensional T2 over the Voronoi cell of slope point `.0`.
    Cell(usize),
    /// Simplex covering: one app-query per vertex (indices into `S`).
    SimplexCovering(Vec<usize>),
    /// Sequential scan of `.0` tuples.
    FullScan(u64),
    /// R⁺-tree search plus `.0` unbounded tuples from the overflow list.
    MbrSearch(usize),
}

impl PlanCase {
    /// The search this case actually runs — what planner feedback is
    /// booked under and [`QueryStats::method`] reports.
    pub fn runs(&self) -> MethodKind {
        match self {
            PlanCase::Member(_) => MethodKind::Restricted,
            PlanCase::AppQueries(_) => MethodKind::T1,
            PlanCase::Between { .. } => MethodKind::T2,
            PlanCase::MemberPoint { .. } | PlanCase::Cell(_) | PlanCase::SimplexCovering(_) => {
                MethodKind::DualD
            }
            PlanCase::FullScan(_) => MethodKind::SeqScan,
            PlanCase::MbrSearch(_) => MethodKind::RPlus,
        }
    }

    /// The member cases: the swept tree's keys decide the selection's own
    /// predicate, so all but the `f32` boundary band is accepted unfetched.
    pub fn exact_by_key(&self) -> bool {
        matches!(self, PlanCase::Member(_) | PlanCase::MemberPoint { .. })
    }

    /// How the case's candidates become the answer: `[exact]` when the
    /// index phase alone decides membership (up to the f32 boundary band,
    /// which is verified in place), `[refined]` when it produces a
    /// candidate superset that exact refinement filters down.
    pub fn refinement(&self) -> &'static str {
        match self {
            PlanCase::Member(_) | PlanCase::MemberPoint { .. } => {
                "exact by key; f32 boundary band verified [exact]"
            }
            PlanCase::AppQueries(_) | PlanCase::SimplexCovering(_) => {
                "candidate superset; duplicates removed, then exact refinement [refined]"
            }
            PlanCase::Between { .. } | PlanCase::Cell(_) => {
                "duplicate-free candidate superset, then exact refinement [refined]"
            }
            PlanCase::FullScan(_) => "exact predicate per tuple (no candidate superset) [exact]",
            PlanCase::MbrSearch(_) => {
                "candidate superset (EXIST MBRs), then exact refinement [refined]"
            }
        }
    }
}

impl fmt::Display for PlanCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanCase::Member(t) => write!(f, "member slope {}", t.slope),
            PlanCase::AppQueries([(a, th1), (b, th2)]) if th1 != th2 => write!(
                f,
                "wrapped: app-queries at slopes {} and {} (Table 1)",
                a.slope, b.slope
            ),
            PlanCase::AppQueries([(a, _), (b, _)]) => {
                write!(f, "two app-queries at slopes {} and {}", a.slope, b.slope)
            }
            PlanCase::Between { lo, hi, near, .. } => write!(
                f,
                "between slopes {lo} and {hi}: handicap-guided sweeps on the tree at {}",
                near.slope
            ),
            PlanCase::MemberPoint { slope, .. } => write!(f, "member slope point {slope:?}"),
            PlanCase::Cell(i) => write!(
                f,
                "Voronoi cell of slope point {i}: d-dimensional T2 sweeps"
            ),
            PlanCase::SimplexCovering(vertices) => {
                write!(f, "simplex covering with {} app-queries", vertices.len())
            }
            PlanCase::FullScan(n) => write!(f, "full scan of {n} tuples"),
            PlanCase::MbrSearch(unbounded) => write!(
                f,
                "MBR intersection search; {unbounded} unbounded tuples via overflow list"
            ),
        }
    }
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

/// One query path the planner can choose, borrowed from a relation by
/// [`Relation::method`]: routing, costing and execution over a shared
/// [`PageReader`], one match each.
#[derive(Clone, Copy)]
pub enum AccessMethod<'a> {
    /// A first-class sequential scan over a relation's heap: the no-index
    /// baseline and the correctness oracle, planned like any other method.
    SeqScan(&'a Relation),
    /// One technique of the 2-D dual index — restricted (Section 3), T1
    /// (Section 4.1) or T2 (Sections 4.2–4.3); at a member slope all three
    /// run the restricted search.
    Dual(&'a DualIndex, MethodKind),
    /// The d-dimensional dual index (Section 4.4).
    DualD(&'a DualIndexD),
    /// The packed R⁺-tree baseline (Section 5): bounding boxes of the
    /// bounded tuples, whose candidate superset is refined exactly.
    RPlus(&'a RPlusIndex),
}

impl AccessMethod<'_> {
    /// Which method this is.
    pub fn kind(&self) -> MethodKind {
        match *self {
            AccessMethod::SeqScan(_) => MethodKind::SeqScan,
            AccessMethod::Dual(_, technique) => technique,
            AccessMethod::DualD(_) => MethodKind::DualD,
            AccessMethod::RPlus(_) => MethodKind::RPlus,
        }
    }

    /// How this method serves `sel`, or why it cannot. Computed once per
    /// plan; [`estimate`](Self::estimate) and [`execute`](Self::execute)
    /// take the case back instead of re-deriving it.
    pub fn route(&self, sel: &Selection) -> Result<PlanCase, Rejection> {
        match *self {
            AccessMethod::SeqScan(relation) => {
                Rejection::dimension(relation.dim(), sel)?;
                Ok(PlanCase::FullScan(relation.len()))
            }
            AccessMethod::Dual(index, technique) => index.route(technique, sel),
            AccessMethod::DualD(index) => index.route(sel),
            AccessMethod::RPlus(index) => {
                Rejection::dimension(2, sel)?;
                Ok(PlanCase::MbrSearch(index.unbounded.len()))
            }
        }
    }

    /// Cost estimate of `case` (this method's [`route`](Self::route) of
    /// `sel`) over a relation sized by `ctx`, assuming the index phase
    /// produces `frac · n` candidates (before case-specific duplication
    /// factors).
    pub fn estimate(
        &self,
        ctx: &MethodContext,
        sel: &Selection,
        case: &PlanCase,
        frac: f64,
    ) -> CostEstimate {
        let (n, leaves) = (ctx.n as f64, ctx.dual_leaf_pages());
        match *self {
            AccessMethod::SeqScan(_) => CostEstimate {
                index_pages: 0.0,
                heap_pages: ctx.heap_pages as f64,
                candidates: n,
            },
            AccessMethod::Dual(index, _) => {
                let h = index.forest.height() as f64;
                let over = overcover(case.runs());
                match case.runs() {
                    MethodKind::Restricted => CostEstimate {
                        index_pages: h + frac * leaves,
                        // Only the f32 boundary band is fetched: a handful
                        // of tuples.
                        heap_pages: ctx.heap_fetch_pages(2.0_f64.min(frac * n)),
                        candidates: frac * n,
                    },
                    // One descent; the two disjoint sweeps over-cover the
                    // exact answer by the handicap overshoot (a strip, not
                    // a doubling).
                    MethodKind::T2 => CostEstimate {
                        index_pages: h + over * frac * leaves,
                        heap_pages: ctx.heap_fetch_pages(over * frac * n),
                        candidates: over * frac * n,
                    },
                    // Two app-queries; the legs over-cover and overlap
                    // (duplication), so candidates roughly double before
                    // refinement.
                    _ => CostEstimate {
                        index_pages: over * (h + frac * leaves),
                        heap_pages: ctx.heap_fetch_pages(over * frac * n),
                        candidates: over * frac * n,
                    },
                }
            }
            AccessMethod::DualD(index) => {
                let h = index.forest.height() as f64;
                match case {
                    // d-dimensional T2: one descent, two disjoint
                    // handicap-guided sweeps over one tree. The whole-cell
                    // handicaps admit an extra band of near-boundary tuples
                    // sized by the cell's slope-space extent — additive in
                    // n, per-cell (boundary cells are clipped smaller) —
                    // not the fixed 2-D strip factor.
                    PlanCase::Cell(i) => {
                        let band: f64 = index
                            .cell_extent(*i)
                            .map(|ws| ws.iter().map(|w| w / 2.0).sum())
                            .unwrap_or(0.0);
                        let covered = (frac + T2_CELL_OVERSHOOT * band).min(1.0);
                        CostEstimate {
                            index_pages: h + covered * leaves,
                            heap_pages: ctx.heap_fetch_pages(covered * n),
                            candidates: covered * n,
                        }
                    }
                    // Generalized T1: `d` descents and `d` sweeps against
                    // `d` different trees. Each leg over-covers in
                    // proportion to how far its vertex sits from the query
                    // slope ([`SIMPLEX_LEG_OVERSHOOT`]), and the legs
                    // overlap heavily — `candidates` is the pre-dedup total
                    // the executor reports, but the heap only pays for the
                    // deduped union of the legs.
                    PlanCase::SimplexCovering(vertices) => {
                        let d = vertices.len() as f64;
                        let dist = |&v: &usize| {
                            let to = index.points().as_slice()[v].iter();
                            let to = to.zip(&sel.halfplane.slope);
                            to.map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
                        };
                        let mean_dist = vertices.iter().map(dist).sum::<f64>() / d;
                        let leg = (frac + SIMPLEX_LEG_OVERSHOOT * mean_dist).min(1.0);
                        CostEstimate {
                            index_pages: d * (h + leg * leaves),
                            heap_pages: ctx.heap_fetch_pages(n * (1.0 - (1.0 - leg).powf(d))),
                            candidates: d * leg * n,
                        }
                    }
                    // A member point: the restricted search, as in 2-D.
                    _ => CostEstimate {
                        index_pages: h + frac * leaves,
                        heap_pages: ctx.heap_fetch_pages(2.0_f64.min(frac * n)),
                        candidates: frac * n,
                    },
                }
            }
            AccessMethod::RPlus(index) => {
                let tree = &index.tree;
                let c = frac * n + index.unbounded.len() as f64;
                CostEstimate {
                    index_pages: tree.height() as f64 + frac * tree.page_count() as f64,
                    heap_pages: ctx.heap_fetch_pages(c),
                    candidates: c,
                }
            }
        }
    }

    /// Executes `sel` along `case`, charging I/O to `pager`, fetching
    /// refinement tuples through `fetch` and deciding them with `exact`.
    ///
    /// # Errors
    /// [`CdbError::UnsupportedQuery`] for a case this method did not
    /// route; the I/O and decoding errors of the search.
    pub fn execute(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        case: &PlanCase,
        exact: Exact,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        match *self {
            // The live ids are the scan's candidates: none decided by key.
            AccessMethod::SeqScan(relation) => refine(pager, sel, exact, fetch, |_| {
                Ok(Candidates::check(relation.live_ids()))
            }),
            AccessMethod::Dual(index, _) => index.run(pager, sel, case, exact, fetch),
            AccessMethod::DualD(index) => index.run(pager, sel, case, exact, fetch),
            AccessMethod::RPlus(index) => {
                // Its own route is the proof that the query is 2-D.
                let PlanCase::MbrSearch(_) = case else {
                    return Err(foreign(case));
                };
                refine(pager, sel, exact, fetch, |pager| {
                    Ok(index.candidates(pager, &sel.halfplane)?)
                })
            }
        }
    }
}

// ------------------------------------------------------------------ catalog

/// Every method, in the order of its [`PlanCatalog`] row.
const METHODS: [MethodKind; 6] = [
    MethodKind::Restricted,
    MethodKind::T1,
    MethodKind::T2,
    MethodKind::DualD,
    MethodKind::SeqScan,
    MethodKind::RPlus,
];

/// Per-(method, selection-kind) feedback from executed queries: the planner
/// seeds its cost formulas with the observed candidate fraction, so
/// estimates tighten as the engine serves traffic.
///
/// A cache, not state: one EWMA per `[MethodKind][SelectionKind]` slot, its
/// `f64` bits in a relaxed atomic (NaN until the first observation), so any
/// number of readers record through `&self` without a lock. Nothing
/// persists it — a reopened database plans cold — and a relation shares it,
/// behind an `Arc`, with every snapshot taken of it.
#[derive(Debug)]
pub struct PlanCatalog([[AtomicU64; 2]; 6]);

impl Default for PlanCatalog {
    fn default() -> Self {
        let unobserved = |_| AtomicU64::new(f64::NAN.to_bits());
        PlanCatalog(std::array::from_fn(|_| std::array::from_fn(unobserved)))
    }
}

impl PlanCatalog {
    /// Folds one executed query's candidate fraction into its slot.
    pub fn record(&self, method: MethodKind, kind: SelectionKind, stats: &QueryStats, n: u64) {
        if n == 0 {
            return;
        }
        let frac = stats.candidates as f64 / n as f64;
        let fold = |bits: u64| {
            let old = f64::from_bits(bits);
            let old = if old.is_nan() { frac } else { old };
            Some((EWMA_ALPHA * frac + (1.0 - EWMA_ALPHA) * old).to_bits())
        };
        let slot = &self.0[method as usize][kind as usize];
        let _ = slot.fetch_update(Ordering::Relaxed, Ordering::Relaxed, fold);
    }

    /// The smoothed candidate fraction (candidates / n) observed for one
    /// pair, if any query of it has run.
    pub fn observed(&self, method: MethodKind, kind: SelectionKind) -> Option<f64> {
        let frac = f64::from_bits(self.0[method as usize][kind as usize].load(Ordering::Relaxed));
        (!frac.is_nan()).then_some(frac)
    }

    /// The candidate fraction to evaluate the cost formula of a case that
    /// [runs](PlanCase::runs) `method` at: the method's own observation if
    /// any, else the mean over same-selection-kind observations (one shared
    /// fraction keeps the cross-method cost *ordering* intact), else `None`
    /// (caller falls back to [`DEFAULT_SELECTIVITY`]). A sequential scan's
    /// candidates are the whole relation by definition — its fraction of
    /// 1.0 says nothing about the selection and stays out of the mean.
    pub fn frac_for(&self, method: MethodKind, kind: SelectionKind) -> Option<f64> {
        // Converts observed raw candidates back to a base selectivity: the
        // formulas re-apply each search's duplication factor.
        let base = |m: MethodKind| self.observed(m, kind).map(|frac| frac / overcover(m));
        if let Some(own) = base(method) {
            return Some(own.clamp(0.0, 1.0));
        }
        let others = METHODS.into_iter().filter(|&m| m != MethodKind::SeqScan);
        let (sum, count) = others
            .filter_map(base)
            .fold((0.0, 0), |(sum, count), f| (sum + f, count + 1));
        (count > 0).then(|| (sum / count as f64).clamp(0.0, 1.0))
    }
}

// ------------------------------------------------------------------ planner

/// The chosen plan for one selection, with everything EXPLAIN needs.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryPlan {
    /// The chosen method.
    pub method: MethodKind,
    /// `true` when the method was forced by the caller rather than chosen
    /// on cost.
    pub forced: bool,
    /// The route the method takes (e.g. `between slopes -0.414 and
    /// 0.414`), and with it the refinement mode.
    pub case: PlanCase,
    /// Predicted I/O for the chosen method.
    pub estimate: CostEstimate,
    /// The candidate fraction the estimates were evaluated at.
    pub frac: f64,
    /// Every feasible method with its estimate, cheapest first.
    pub considered: Vec<(MethodKind, CostEstimate)>,
    /// Methods that cannot serve this selection, with reasons.
    pub rejected: Vec<(MethodKind, Rejection)>,
}

impl QueryPlan {
    /// Renders the plan: chosen method, estimated page accesses, bracket
    /// case and refinement mode.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "method={} ({})  case: {}\n",
            self.method,
            if self.forced { "forced" } else { "cost-based" },
            self.case
        ));
        out.push_str(&format!("  refinement: {}\n", self.case.refinement()));
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

/// Every method, in the planner's tie-breaking order.
const TIE_BREAK: [MethodKind; 6] = [
    MethodKind::SeqScan,
    MethodKind::Restricted,
    MethodKind::T2,
    MethodKind::T1,
    MethodKind::DualD,
    MethodKind::RPlus,
];

/// Enumerates feasible [`AccessMethod`]s for a selection and picks the
/// cheapest by estimated page accesses (or the `forced` one, validated).
pub struct Planner;

impl Planner {
    /// Plans `sel` over the methods `relation` offers
    /// ([`Relation::method`]), costed at `page_size`. Returns the chosen
    /// method plus the [`QueryPlan`].
    ///
    /// Every method is [routed](AccessMethod::route) once; its case is
    /// costed at the candidate fraction observed for the search the case
    /// [runs](PlanCase::runs) — and, when `exact` is not the selection's
    /// own predicate, with every candidate of a member case fetched: its
    /// keys decide nothing then. Planning reads the feedback catalog and
    /// changes nothing.
    ///
    /// # Errors
    /// [`CdbError::NoIndex`] when `forced` names a method whose index the
    /// relation could serve the selection with but has not built (or has
    /// marked corrupt); [`CdbError::UnsupportedQuery`] when the forced
    /// method cannot serve the selection — a 2-D method on a relation of
    /// another dimension among them — or when no method can.
    pub fn choose<'r>(
        relation: &'r Relation,
        page_size: usize,
        sel: &Selection,
        exact: Exact,
        forced: Option<MethodKind>,
    ) -> Result<(AccessMethod<'r>, QueryPlan), CdbError> {
        let ctx = MethodContext {
            n: relation.len(),
            heap_pages: relation.heap_pages(),
            page_size,
        };
        let catalog = relation.catalog();
        let mut routed: Vec<(AccessMethod, PlanCase, CostEstimate, f64)> = Vec::new();
        let mut rejected: Vec<(MethodKind, Rejection)> = Vec::new();
        for m in TIE_BREAK.into_iter().filter_map(|k| relation.method(k)) {
            match m.route(sel) {
                Err(why) => rejected.push((m.kind(), why)),
                Ok(case) => {
                    let frac = catalog
                        .frac_for(case.runs(), sel.kind)
                        .unwrap_or(DEFAULT_SELECTIVITY);
                    let mut est = m.estimate(&ctx, sel, &case, frac);
                    if exact != Exact::Selection && case.exact_by_key() {
                        est.heap_pages = ctx.heap_fetch_pages(est.candidates);
                    }
                    routed.push((m, case, est, frac));
                }
            }
        }
        routed.sort_by(|a, b| {
            a.2.total()
                .partial_cmp(&b.2.total())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let chosen = match forced {
            Some(k) => routed.iter().position(|c| c.0.kind() == k).ok_or_else(|| {
                // A method the relation does not offer: only the
                // d-dimensional index serves a relation of any dimension.
                let absent = || {
                    Rejection::dimension(2, sel)
                        .err()
                        .filter(|_| k != MethodKind::DualD)
                };
                let rejection = rejected.iter().find(|(m, _)| *m == k);
                match rejection.map(|(_, why)| why.clone()).or_else(absent) {
                    Some(why) => CdbError::UnsupportedQuery(format!("forced method {k}: {why}")),
                    None => CdbError::NoIndex(relation.name().into()),
                }
            })?,
            None if routed.is_empty() => {
                let reasons: Vec<String> = rejected
                    .iter()
                    .map(|(m, why)| format!("{m}: {why}"))
                    .collect();
                return Err(CdbError::UnsupportedQuery(format!(
                    "no access method supports this selection ({})",
                    reasons.join("; ")
                )));
            }
            None => 0,
        };
        let considered = routed.iter().map(|c| (c.0.kind(), c.2)).collect();
        let (method, case, estimate, frac) = routed.swap_remove(chosen);
        let plan = QueryPlan {
            method: method.kind(),
            forced: forced.is_some(),
            case,
            estimate,
            frac,
            considered,
            rejected,
        };
        Ok((method, plan))
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

    /// One `AppQueries` case serves both rows of Table 1: legs that keep
    /// `θ` are the between case, legs whose operators differ wrap through
    /// the vertical — and EXPLAIN says which.
    #[test]
    fn app_queries_tell_wrapped_legs_from_between_legs() {
        let at = |i, slope| TreeAt { i, slope };
        let between = PlanCase::AppQueries([(at(1, -0.5), RelOp::Ge), (at(2, 0.5), RelOp::Ge)]);
        let wrapped = PlanCase::AppQueries([(at(3, 2.0), RelOp::Le), (at(0, -2.0), RelOp::Ge)]);
        assert_eq!(
            between.to_string(),
            "two app-queries at slopes -0.5 and 0.5"
        );
        assert_eq!(
            wrapped.to_string(),
            "wrapped: app-queries at slopes 2 and -2 (Table 1)"
        );
        for case in [between, wrapped] {
            assert_eq!(case.runs(), MethodKind::T1);
            assert!(case.refinement().contains("duplicates removed"), "{case}");
        }
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
        let cat = PlanCatalog::default();
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
        let seen = cat.observed(MethodKind::T2, SelectionKind::Exist);
        assert!(seen.is_some_and(|o| (o - 0.12).abs() < 1e-12), "{seen:?}");
        assert_eq!(cat.observed(MethodKind::T1, SelectionKind::Exist), None);
        // Same-kind fallback for a method with no entry of its own.
        let g = cat
            .frac_for(MethodKind::T1, SelectionKind::Exist)
            .expect("same-kind fallback");
        assert!((g - 0.1).abs() < 1e-9);
        // Different selection kind: still no data.
        assert_eq!(cat.frac_for(MethodKind::T2, SelectionKind::All), None);
        // A scan reads every tuple whatever was asked: its fraction of 1.0
        // must not drag a method without an observation up to "everything".
        let scanned = QueryStats {
            candidates: 1000,
            ..QueryStats::default()
        };
        cat.record(MethodKind::SeqScan, SelectionKind::Exist, &scanned, 1000);
        let g = cat.frac_for(MethodKind::T1, SelectionKind::Exist).unwrap();
        assert!((g - 0.1).abs() < 1e-9, "the scan is not in the mean, {g}");
        let own = cat.frac_for(MethodKind::SeqScan, SelectionKind::Exist);
        assert_eq!(own, Some(1.0), "its own entry still answers for it");
        // And a catalog holding nothing but scans has no data to offer.
        cat.record(MethodKind::SeqScan, SelectionKind::All, &scanned, 1000);
        assert_eq!(cat.frac_for(MethodKind::T2, SelectionKind::All), None);
    }
}
