//! Access methods and the planner.
//!
//! The paper deploys its dual index by one rule — the restricted search
//! (Section 3) at a slope of `S`, T2 (Sections 4.2–4.4) everywhere else —
//! beside the R⁺-tree baseline of Section 5; its T1 (Section 4.1) lives on
//! as an ablation composed of restricted searches. The dual index is one
//! access method whose route names the search, and this module makes the
//! rule the planner:
//!
//! * [`AccessMethod`] — one borrowed, `Copy` enum over a relation's query
//!   paths: a sequential scan, the [`DualIndex`] (over either geometry),
//!   or the R⁺-tree baseline ([`cdb_rplustree::RPlusTree`]), handed out by
//!   [`Relation::method`] with no allocation.
//!   [`route`](AccessMethod::route) decides once how a [`Selection`] is
//!   served — a [`PlanCase`], or the [`Rejection`] saying why not — and the
//!   executor and EXPLAIN both read that one case.
//! * [`Planner`] — runs the method a caller forces, validated, or else the
//!   first of the fixed order Dual → SeqScan that routes the selection, as
//!   a [`QueryPlan`]: a function of the relation and the selection alone.
//! * [`QueryPlan::explain`] / [`ExplainReport`] — render the method, the
//!   routing case, the refinement mode, the methods that could not route
//!   the selection and, after execution, the measured page accesses. The
//!   case and every rejection reason are plain data until then: planning a
//!   query formats no string.

use std::fmt;

use cdb_storage::PageReader;

use crate::error::CdbError;
use crate::index::{foreign, refine, Candidates, DualIndex, RPlusIndex, TupleSource};
use crate::query::{QueryResult, Selection, Side};
use crate::relation::Relation;

/// Identifies an access method independent of what it borrows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// The dual index: Section 3's exact search at a member of `S`,
    /// Sections 4.2–4.4's handicap-guided duplicate-free search elsewhere —
    /// which one, the plan's [`PlanCase`] says.
    Dual,
    /// Sequential scan of the heap with exact predicates.
    SeqScan,
    /// The packed R⁺-tree over tuple bounding boxes (Section 5 baseline).
    RPlus,
}

cdb_storage::wire_enum!(MethodKind {
    4 => SeqScan,
    5 => RPlus,
    7 => Dual,
});

impl fmt::Display for MethodKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MethodKind::Dual => "Dual",
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

/// The route a method takes for one selection — decided once by
/// [`AccessMethod::route`], then read by the executor and EXPLAIN alike. It
/// names the search that runs and carries what execution needs (tree
/// indices, sides, cells) next to what EXPLAIN prints, e.g. `member slope
/// 1` or `between slopes -0.414 and 0.414: …`.
/// Plain data on the executing path; text only when EXPLAIN renders it.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanCase {
    /// A member of `S`: Section 3's restricted search.
    Member {
        /// Index of the member in `S` (and of its tree pair in the forest).
        i: usize,
        /// The member itself: one slope in 2-D, a slope point in `E^{d-1}`
        /// (owned: unbounded dimension).
        slope: Vec<f64>,
    },
    /// T2 between slopes `lo` and `hi` of `S`, sweeping the trees at
    /// `near` guided by the handicaps of `side`.
    Between {
        /// The bracketing slope the query's rotates away from: `lo < hi`,
        /// or `lo` = max `S` and `hi` = min `S` where the rotation between
        /// them wraps through the vertical.
        lo: f64,
        /// The bracketing slope the query's rotates toward.
        hi: f64,
        /// The trees that are swept: those whose handicap strip contains
        /// the query slope — `[aᵢ, (aᵢ+aⱼ)/2]`, or an end's piece of the
        /// strip through the vertical.
        near: TreeAt,
        /// The side of `near` that strip lies on.
        side: Side,
    },
    /// d-dimensional T2 over the Voronoi cell of slope point `.0`.
    Cell(usize),
    /// Sequential scan of `.0` tuples.
    FullScan(u64),
    /// R⁺-tree search plus `.0` unbounded tuples from the overflow list.
    MbrSearch(usize),
}

impl PlanCase {
    /// How the case's candidates become the answer: `[exact]` when the
    /// index phase alone decides membership (up to the f32 boundary band,
    /// which is verified in place), `[refined]` when it produces a
    /// candidate superset that exact refinement filters down.
    pub fn refinement(&self) -> &'static str {
        match self {
            PlanCase::Member { .. } => "exact by key; f32 boundary band verified [exact]",
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
            PlanCase::Between { lo, hi, near, .. } => write!(
                f,
                "between slopes {lo} and {hi}{}: handicap-guided sweeps on the tree at {}",
                if lo > hi { " through the vertical" } else { "" },
                near.slope
            ),
            PlanCase::Cell(i) => write!(
                f,
                "Voronoi cell of slope point {i}: d-dimensional T2 sweeps"
            ),
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
    /// The dual index: the restricted search (Section 3) at a member of
    /// `S`, T2 (Sections 4.2–4.4) at any other slope it routes.
    Dual(&'a DualIndex),
    /// The packed R⁺-tree baseline (Section 5): bounding boxes of the
    /// bounded tuples, whose candidate superset is refined exactly.
    RPlus(&'a RPlusIndex),
}

impl AccessMethod<'_> {
    /// Which method this is.
    pub fn kind(&self) -> MethodKind {
        match *self {
            AccessMethod::SeqScan(_) => MethodKind::SeqScan,
            AccessMethod::Dual(_) => MethodKind::Dual,
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
            AccessMethod::Dual(index) => index.route(sel),
            AccessMethod::RPlus(index) => {
                Rejection::dimension(2, sel)?;
                Ok(PlanCase::MbrSearch(index.unbounded.len()))
            }
        }
    }

    /// Executes `sel` along `case`, charging I/O to `pager` and fetching
    /// refinement tuples through `fetch`.
    ///
    /// # Errors
    /// [`CdbError::UnsupportedQuery`] for a case this method did not
    /// route; the I/O and decoding errors of the search.
    pub fn execute(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        case: &PlanCase,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        match *self {
            // The live ids are the scan's candidates: none decided by key.
            AccessMethod::SeqScan(relation) => refine(pager, sel, fetch, None, |_| {
                Ok(Candidates::check(relation.live_ids()))
            }),
            AccessMethod::Dual(index) => index.run(pager, sel, case, fetch),
            AccessMethod::RPlus(index) => {
                // Its own route is the proof that the query is 2-D.
                let PlanCase::MbrSearch(_) = case else {
                    return Err(foreign(case));
                };
                refine(pager, sel, fetch, None, |pager| {
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
/// (Sections 3, 4.2, 4.4): the dual index wherever it routes (a member of
/// `S` to the restricted search, every other 2-D slope and a d-dimensional
/// one inside the box of `S` to T2), and the scan wherever it routes
/// nothing. The R⁺-tree runs only when forced.
const AUTO: [MethodKind; 2] = [MethodKind::Dual, MethodKind::SeqScan];

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
                // A method the relation does not offer: the dual index
                // serves any dimension over slope points; the R⁺-tree
                // serves 2-D queries only.
                let absent = || {
                    let planar = k == MethodKind::RPlus;
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
    use cdb_geometry::constraint::{LinearConstraint, RelOp};
    use cdb_geometry::halfplane::HalfPlane;
    use cdb_geometry::tuple::GeneralizedTuple;
    use cdb_workload::{DatasetSpec, ObjectSize};

    /// `Auto` is the paper's rule, one row per shape: the dual index's
    /// restricted search at a member slope, its T2 at an interior one and
    /// at one beyond max `S` (in the trees at max `S`, through the
    /// vertical); over slope points in 3-D the restricted search at a
    /// member point, T2's cell inside the box of `S` and the scan outside
    /// it — and the scan
    /// too when the dual index is marked corrupt, whatever R⁺-tree is built
    /// beside it. The R⁺-tree runs only when forced.
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
                MethodKind::Dual,
                &PlanCase::Member {
                    i: 1,
                    slope: vec![member]
                }
            )
        );
        assert!(got
            .explain()
            .starts_with("method=Dual (auto)  case: member slope"));
        let got = plan(&db, "r", &exist(interior), Strategy::Auto);
        assert_eq!(got.method, MethodKind::Dual);
        assert!(
            matches!(got.case, PlanCase::Between { lo, hi, .. } if lo == at(1).slope && hi == at(2).slope)
        );
        assert!(got.rejected.is_empty());
        let text = got.explain();
        assert!(!got.forced && text.starts_with("method=Dual (auto)  case: between slopes"));
        let got = plan(&db, "r", &exist(beyond), Strategy::Auto);
        assert_eq!(got.method, MethodKind::Dual);
        assert_eq!(
            got.case,
            PlanCase::Between {
                lo: at(3).slope,
                hi: at(0).slope,
                near: at(3),
                side: Side::Next,
            }
        );
        assert!(
            got.explain().contains("through the vertical"),
            "{}",
            got.explain()
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
        assert_eq!(got.method, MethodKind::Dual);
        assert!(
            matches!(got.case, PlanCase::Member { i: 2, .. }),
            "{}",
            got.case
        );
        assert!(got.rejected.is_empty());
        let got = plan(&db, "boxes", &sel(vec![0.3, -0.6]), Strategy::Auto);
        assert_eq!(got.method, MethodKind::Dual);
        assert!(matches!(got.case, PlanCase::Cell(_)), "{}", got.case);
        assert!(got.rejected.is_empty());
        let got = plan(&db, "boxes", &sel(vec![1.5, 0.0]), Strategy::Auto);
        assert_eq!(got.case, PlanCase::FullScan(60));
        let why = Rejection::OutsideBox(vec![1.5, 0.0]);
        assert_eq!(got.rejected, [(MethodKind::Dual, why)]);
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
            assert_eq!(got.method, MethodKind::Dual);
            let case = format!("case: member slope point {member}\n");
            assert!(got.explain().contains(&case), "{}", got.explain());
        }
    }
}
