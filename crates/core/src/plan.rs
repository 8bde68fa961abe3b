//! Access methods and the planner.
//!
//! The paper offers a choice among access techniques — restricted
//! (Section 3), T1 (Section 4.1), T2 (Sections 4.2–4.3) and the R⁺-tree
//! baseline of Section 5 — and deploys its index by one rule: the
//! restricted search at a slope of `S`, T2 everywhere else. This module
//! makes that rule the planner:
//!
//! * [`AccessMethod`] — one borrowed, `Copy` enum over a relation's query
//!   paths: a sequential scan, one of the three [`DualIndex`] techniques
//!   (over either geometry), or the R⁺-tree baseline
//!   ([`cdb_rplustree::RPlusTree`]), handed out by
//!   [`Relation::method`] with no allocation.
//!   [`route`](AccessMethod::route) decides once how a [`Selection`] is
//!   served — a [`PlanCase`], or the [`Rejection`] saying why not — and the
//!   executor and EXPLAIN both read that one case.
//! * [`Planner`] — runs the method a caller forces, validated, or else the
//!   first of the fixed order Restricted → T2 → SeqScan that routes the
//!   selection, as a [`QueryPlan`]: a function of the relation and the
//!   selection alone.
//! * [`QueryPlan::explain`] / [`ExplainReport`] — render the method, the
//!   routing case, the refinement mode, the methods that could not route
//!   the selection and, after execution, the measured page accesses. The
//!   case and every rejection reason are plain data until then: planning a
//!   query formats no string.

use std::fmt;

use cdb_geometry::constraint::RelOp;
use cdb_storage::PageReader;

use crate::error::CdbError;
use crate::index::{foreign, refine, Candidates, DualIndex, Exact, RPlusIndex, TupleSource};
use crate::query::{QueryResult, Selection, Side};
use crate::relation::Relation;

/// Identifies an access method independent of what it borrows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Section 3: exact single-tree search (query slope must be in `S`).
    Restricted,
    /// Section 4.1: two app-queries, duplicates possible, then refinement.
    T1,
    /// Sections 4.2–4.4: handicap-guided duplicate-free search.
    T2,
    /// Sequential scan of the heap with exact predicates.
    SeqScan,
    /// The packed R⁺-tree over tuple bounding boxes (Section 5 baseline).
    RPlus,
}

cdb_storage::wire_enum!(MethodKind {
    0 => Restricted,
    1 => T1,
    2 => T2,
    4 => SeqScan,
    5 => RPlus,
});

impl fmt::Display for MethodKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MethodKind::Restricted => "Restricted",
            MethodKind::T1 => "T1",
            MethodKind::T2 => "T2",
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
    /// The restricted technique asked a slope outside `S`: one slope in
    /// 2-D, a slope point in `E^{d-1}` (owned: unbounded dimension).
    SlopeNotInS(Vec<f64>),
    /// T1 asked an index over slope points: Table 1's app-queries need a
    /// slope set.
    NoAppQueries,
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
            Rejection::SlopeNotInS(slope) => match &slope[..] {
                [a] => write!(f, "slope {a} is not in the predefined set S"),
                point => write!(f, "slope point {point:?} is not in the predefined set S"),
            },
            Rejection::NoAppQueries => {
                f.write_str("Table 1's app-queries run over a slope set, not slope points")
            }
            Rejection::OutsideBox(slope) => write!(
                f,
                "query slope {slope:?} lies outside the bounding box of the predefined set S"
            ),
        }
    }
}

/// One tree pair of a dual forest over a slope set: element `i` of `S`,
/// whose slope is `slope`.
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
/// [`AccessMethod::route`], then read by the executor and EXPLAIN alike. It names the search that runs and carries what execution
/// needs (tree indices, sides, operators, cells, vertices) next to what
/// EXPLAIN prints, e.g. `member slope 1` or `between slopes -0.414 and
/// 0.414: …`; which technique was asked for is [`QueryPlan::method`].
/// Plain data on the executing path; text only when EXPLAIN renders it.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanCase {
    /// A member of `S`: the restricted search, whichever dual technique
    /// routed it.
    Member {
        /// Index of the member in `S` (and of its tree pair in the forest).
        i: usize,
        /// The member itself: one slope in 2-D, a slope point in `E^{d-1}`
        /// (owned: unbounded dimension).
        slope: Vec<f64>,
    },
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
    /// The search this case actually runs — what
    /// [`QueryStats::method`](crate::query::QueryStats::method) reports.
    pub fn runs(&self) -> MethodKind {
        match self {
            PlanCase::Member { .. } => MethodKind::Restricted,
            PlanCase::AppQueries(_) | PlanCase::SimplexCovering(_) => MethodKind::T1,
            PlanCase::Between { .. } | PlanCase::Cell(_) => MethodKind::T2,
            PlanCase::FullScan(_) => MethodKind::SeqScan,
            PlanCase::MbrSearch(_) => MethodKind::RPlus,
        }
    }

    /// How the case's candidates become the answer: `[exact]` when the
    /// index phase alone decides membership (up to the f32 boundary band,
    /// which is verified in place), `[refined]` when it produces a
    /// candidate superset that exact refinement filters down.
    pub fn refinement(&self) -> &'static str {
        match self {
            PlanCase::Member { .. } => "exact by key; f32 boundary band verified [exact]",
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
            PlanCase::Member { slope, .. } => match &slope[..] {
                [a] => write!(f, "member slope {a}"),
                point => write!(f, "member slope point {point:?}"),
            },
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

/// One query path the planner can choose, borrowed from a relation by
/// [`Relation::method`]: routing and execution over a shared
/// [`PageReader`], one match each.
#[derive(Clone, Copy)]
pub enum AccessMethod<'a> {
    /// A first-class sequential scan over a relation's heap: the no-index
    /// baseline and the correctness oracle, planned like any other method.
    SeqScan(&'a Relation),
    /// One technique of the dual index — restricted (Section 3), T1
    /// (Section 4.1) or T2 (Sections 4.2–4.4); at a member of `S` all three
    /// run the restricted search.
    Dual(&'a DualIndex, MethodKind),
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
            AccessMethod::RPlus(_) => MethodKind::RPlus,
        }
    }

    /// How this method serves `sel`, or why it cannot. Computed once per
    /// plan; [`execute`](Self::execute) takes the case back instead of
    /// re-deriving it.
    pub fn route(&self, sel: &Selection) -> Result<PlanCase, Rejection> {
        match *self {
            AccessMethod::SeqScan(relation) => {
                Rejection::dimension(relation.dim(), sel)?;
                Ok(PlanCase::FullScan(relation.len()))
            }
            AccessMethod::Dual(index, technique) => index.route(technique, sel),
            AccessMethod::RPlus(index) => {
                Rejection::dimension(2, sel)?;
                Ok(PlanCase::MbrSearch(index.unbounded.len()))
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
            AccessMethod::SeqScan(relation) => refine(pager, sel, exact, fetch, None, |_| {
                Ok(Candidates::check(relation.live_ids()))
            }),
            AccessMethod::Dual(index, _) => index.run(pager, sel, case, exact, fetch),
            AccessMethod::RPlus(index) => {
                // Its own route is the proof that the query is 2-D.
                let PlanCase::MbrSearch(_) = case else {
                    return Err(foreign(case));
                };
                refine(pager, sel, exact, fetch, None, |pager| {
                    Ok(index.candidates(pager, &sel.halfplane)?)
                })
            }
        }
    }
}

// ------------------------------------------------------------------ planner

/// The chosen plan for one selection, with everything EXPLAIN needs.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryPlan {
    /// The chosen method.
    pub method: MethodKind,
    /// `true` when the method was forced by the caller rather than chosen
    /// by the rule.
    pub forced: bool,
    /// The route the method takes (e.g. `between slopes -0.414 and
    /// 0.414`), and with it the refinement mode.
    pub case: PlanCase,
    /// Methods tried before the chosen one that cannot serve this
    /// selection, with reasons.
    pub rejected: Vec<(MethodKind, Rejection)>,
}

impl QueryPlan {
    /// Renders the plan: method, routing case, refinement mode and the
    /// methods that could not route the selection.
    pub fn explain(&self) -> String {
        let mut out = format!(
            "method={} ({})  case: {}\n  refinement: {}\n",
            self.method,
            if self.forced { "forced" } else { "auto" },
            self.case,
            self.case.refinement()
        );
        for (m, why) in &self.rejected {
            // Pad the rendered name: Display impls ignore width flags.
            out.push_str(&format!("  {:<11}rejected: {why}\n", m.to_string()));
        }
        out
    }
}

/// What `Auto` tries, in order, in every dimension — the paper's rule
/// (Sections 3, 4.2, 4.4): the restricted search at a member of `S`, T2
/// at any other slope it routes (a wrapped 2-D one runs Table 1's
/// app-queries, a d-dimensional one its nearest point's cell), and the
/// scan wherever the dual index routes nothing. T1 and the R⁺-tree run
/// only when forced.
const AUTO: [MethodKind; 3] = [MethodKind::Restricted, MethodKind::T2, MethodKind::SeqScan];

/// Picks the [`AccessMethod`] for a selection: the `forced` one,
/// validated, or the first method of the paper's rule that routes it.
pub struct Planner;

impl Planner {
    /// Plans `sel` over the methods `relation` offers
    /// ([`Relation::method`]). Returns the chosen method plus the
    /// [`QueryPlan`]; both depend on the relation and the selection alone.
    ///
    /// # Errors
    /// [`CdbError::NoIndex`] when `forced` names a method whose index the
    /// relation could serve the selection with but has not built (or has
    /// marked corrupt); [`CdbError::UnsupportedQuery`] when the forced
    /// method cannot serve the selection — a 2-D method on a relation of
    /// another dimension among them — or when no method can.
    pub fn choose<'r>(
        relation: &'r Relation,
        sel: &Selection,
        forced: Option<MethodKind>,
    ) -> Result<(AccessMethod<'r>, QueryPlan), CdbError> {
        let order = match &forced {
            Some(k) => std::slice::from_ref(k),
            None => &AUTO[..],
        };
        let mut rejected = Vec::new();
        for m in order.iter().filter_map(|&k| relation.method(k)) {
            match m.route(sel) {
                Err(why) => rejected.push((m.kind(), why)),
                Ok(case) => {
                    let plan = QueryPlan {
                        method: m.kind(),
                        forced: forced.is_some(),
                        case,
                        rejected,
                    };
                    return Ok((m, plan));
                }
            }
        }
        Err(match forced {
            Some(k) => {
                // A method the relation does not offer: the restricted
                // search and T2 serve any dimension over slope points; T1
                // and the R⁺-tree serve 2-D queries only.
                let absent = || {
                    let planar = matches!(k, MethodKind::T1 | MethodKind::RPlus);
                    Rejection::dimension(2, sel).err().filter(|_| planar)
                };
                match rejected.pop().map(|(_, why)| why).or_else(absent) {
                    Some(why) => CdbError::UnsupportedQuery(format!("forced method {k}: {why}")),
                    None => CdbError::NoIndex(relation.name().into()),
                }
            }
            None => {
                let reasons: Vec<String> = rejected
                    .iter()
                    .map(|(m, why)| format!("{m}: {why}"))
                    .collect();
                CdbError::UnsupportedQuery(format!(
                    "no access method supports this selection ({})",
                    reasons.join("; ")
                ))
            }
        })
    }
}

/// A planned query's full story: the plan plus the executed result, with a
/// renderer that puts the measured cost under the plan.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// The plan the planner chose.
    pub plan: QueryPlan,
    /// The result of actually executing that plan.
    pub result: QueryResult,
}

impl ExplainReport {
    /// Renders the plan, then the actual page accesses.
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
    use crate::db::{ConstraintDb, DbConfig};
    use crate::index::ddim::SlopePoints;
    use crate::index::IndexKind;
    use crate::query::Strategy;
    use crate::slopes::SlopeSet;
    use cdb_geometry::constraint::LinearConstraint;
    use cdb_geometry::halfplane::HalfPlane;
    use cdb_geometry::tuple::GeneralizedTuple;
    use cdb_workload::{DatasetSpec, ObjectSize};

    /// `Auto` is the paper's rule, one row per shape: the restricted search
    /// at a member slope, T2 at an interior one and at one beyond max `S`
    /// (where it runs Table 1's wrapped app-queries); over slope points in
    /// 3-D the restricted search at a member point, T2's cell inside the
    /// box of `S` and the scan outside it — and the scan
    /// too when the dual index is marked corrupt, whatever R⁺-tree is built
    /// beside it. T1 and the R⁺-tree run only when forced.
    #[test]
    fn auto_follows_the_paper_rule() {
        let plan = |db: &ConstraintDb, name: &str, sel: &Selection, strategy: Strategy| {
            let rel = db.relation(name).unwrap();
            Planner::choose(rel, sel, strategy.forced()).unwrap().1
        };
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("r", 2).unwrap();
        for t in DatasetSpec::paper_1999(400, ObjectSize::Small, 0xA7).generate() {
            db.insert("r", t).unwrap();
        }
        let slopes = SlopeSet::uniform_tan(4);
        db.build_dual_index("r", slopes.clone()).unwrap();
        db.build_rplus_index("r", 1.0).unwrap();
        let at = |i| TreeAt {
            i,
            slope: slopes.get(i),
        };
        let exist = |a: f64| Selection::exist(HalfPlane::above(a, 2.0));
        let (member, interior, beyond) = (slopes.get(1), 0.3, slopes.get(3) + 1.0);

        let got = plan(&db, "r", &exist(member), Strategy::Auto);
        assert_eq!(
            (got.method, &got.case),
            (
                MethodKind::Restricted,
                &PlanCase::Member {
                    i: 1,
                    slope: vec![member]
                }
            )
        );
        let got = plan(&db, "r", &exist(interior), Strategy::Auto);
        assert_eq!(got.method, MethodKind::T2);
        assert!(
            matches!(got.case, PlanCase::Between { lo, hi, .. } if lo == at(1).slope && hi == at(2).slope)
        );
        assert_eq!(
            got.rejected,
            [(MethodKind::Restricted, Rejection::SlopeNotInS(vec![0.3]))]
        );
        assert!(!got.forced && got.explain().starts_with("method=T2 (auto)"));
        let got = plan(&db, "r", &exist(beyond), Strategy::Auto);
        assert_eq!(got.method, MethodKind::T2);
        assert!(
            matches!(got.case, PlanCase::AppQueries([(a, th1), (b, th2)]) if a == at(3) && b == at(0) && th1 != th2)
        );
        let got = plan(&db, "r", &exist(interior), Strategy::RPlus);
        assert_eq!((got.method, got.forced), (MethodKind::RPlus, true));
        assert!(matches!(got.case, PlanCase::MbrSearch(_)), "{}", got.case);

        db.for_update("r")
            .unwrap()
            .1
            .set_corrupt(IndexKind::Dual, true);
        for a in [member, interior, beyond] {
            let got = plan(&db, "r", &exist(a), Strategy::Auto);
            assert_eq!(got.case, PlanCase::FullScan(400), "slope {a}");
            assert!(got.rejected.is_empty());
        }

        db.create_relation("boxes", 3).unwrap();
        for i in 0..60 {
            let lo = [f64::from(i % 10), f64::from(i / 10), f64::from(i % 7)];
            let cs = (0..3).flat_map(|axis| {
                let mut unit = vec![0.0; 3];
                unit[axis] = 1.0;
                [
                    LinearConstraint::new(unit.clone(), -lo[axis], RelOp::Ge),
                    LinearConstraint::new(unit, -lo[axis] - 2.0, RelOp::Le),
                ]
            });
            db.insert("boxes", GeneralizedTuple::new(cs.collect()))
                .unwrap();
        }
        db.build_dual_index("boxes", SlopePoints::grid(3, 3, 1.0))
            .unwrap();
        let sel = |slope: Vec<f64>| Selection::exist(HalfPlane::new(slope, 4.0, RelOp::Ge));
        let got = plan(&db, "boxes", &sel(vec![1.0, -1.0]), Strategy::Auto);
        assert_eq!(got.method, MethodKind::Restricted);
        assert!(
            matches!(got.case, PlanCase::Member { i: 2, .. }),
            "{}",
            got.case
        );
        assert!(got.rejected.is_empty());
        let got = plan(&db, "boxes", &sel(vec![0.3, -0.6]), Strategy::Auto);
        assert_eq!(got.method, MethodKind::T2);
        assert!(matches!(got.case, PlanCase::Cell(_)), "{}", got.case);
        let off = Rejection::SlopeNotInS(vec![0.3, -0.6]);
        assert_eq!(got.rejected, [(MethodKind::Restricted, off)]);
        let got = plan(&db, "boxes", &sel(vec![1.5, 0.0]), Strategy::Auto);
        assert_eq!(got.case, PlanCase::FullScan(60));
        let off = Rejection::SlopeNotInS(vec![1.5, 0.0]);
        let why = Rejection::OutsideBox(vec![1.5, 0.0]);
        assert_eq!(
            got.rejected,
            [(MethodKind::Restricted, off), (MethodKind::T2, why)]
        );
    }

    /// A d-D member route names the member of `S` it matched, as the 2-D
    /// table does, not the query's slope: `all b z >= 0x + 0y - 4` on a
    /// 3 × 3 grid has the slope `[-0.0, -0.0]`, and a slope within the
    /// workspace tolerance of a member matches that member too.
    #[test]
    fn a_member_slope_point_route_names_the_member() {
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("b", 3).unwrap();
        db.build_dual_index("b", SlopePoints::grid(3, 3, 1.0))
            .unwrap();
        let rel = db.relation("b").unwrap();
        for (slope, member) in [
            (vec![-0.0, -0.0], "[0.0, 0.0]"),
            (vec![1.0 + 1e-12, -1.0 + 1e-12], "[1.0, -1.0]"),
        ] {
            let sel = Selection::all(HalfPlane::new(slope, -4.0, RelOp::Ge));
            let got = Planner::choose(rel, &sel, None).unwrap().1;
            assert_eq!(got.method, MethodKind::Restricted);
            let case = format!("case: member slope point {member}\n");
            assert!(got.explain().contains(&case), "{}", got.explain());
        }
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
}
