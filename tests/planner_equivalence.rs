//! The planner is the paper's rule in every dimension — a member of `S` →
//! restricted search, otherwise T2 (between slopes, or in the cell of the
//! nearest slope point for d > 2); the scan where the dual index routes
//! nothing — and a pure function of the relation and
//! the selection: the result set is exactly what the bracket rule and the
//! scan oracle produce, and replaying the search that ran as a forced
//! strategy reproduces the same ids and I/O stats. `explain` must return a plan for every selection
//! shape the engine accepts — both selection kinds, both operators, member
//! / between / wrapped slopes, with and without an index, in `E²` and `E^d`
//! — and the plan's [`PlanCase`] must be the route that executed: the same
//! search run directly on a stand-alone index returns the same ids and the
//! same counts.

use std::collections::HashMap;

use constraint_db::index::ddim::SlopePoints;
use constraint_db::index::error::CdbError;
use constraint_db::index::plan::{MethodKind, PlanCase, Planner, QueryPlan, Rejection, TreeAt};
use constraint_db::index::query::{QueryResult, Side, Strategy};
use constraint_db::index::slopes::Bracket;
use constraint_db::prelude::*;

fn build_db(tuples: &[GeneralizedTuple], k: Option<usize>) -> ConstraintDb {
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("r", 2).unwrap();
    for t in tuples {
        db.insert("r", t.clone()).unwrap();
    }
    if let Some(k) = k {
        db.build_dual_index("r", SlopeSet::uniform_tan(k)).unwrap();
    }
    db
}

/// The planned `result` against `direct`, the same search run on a
/// stand-alone index over the same tuples: same ids, same counts. The
/// stand-alone fetch is an in-memory lookup that reads no heap page, and
/// only the planner stamps `method`.
fn assert_same_run(planned: &QueryResult, direct: &QueryResult, what: &str) {
    assert_eq!(planned.ids(), direct.ids(), "{what}: ids");
    let counts = QueryStats {
        heap_io: direct.stats.heap_io,
        method: None,
        ..planned.stats
    };
    assert_eq!(counts, direct.stats, "{what}: stats");
}

/// The hint that forces `method`: a search over `Strategy::forced`, the
/// one table, not a second one.
fn hint_forcing(method: MethodKind) -> Strategy {
    [Strategy::T2, Strategy::Scan, Strategy::RPlus]
        .into_iter()
        .find(|s| s.forced() == Some(method))
        .expect("every 2-D method is forcible")
}

/// The paper's bracket rule, the reference the planner is compared
/// against: exact restricted search for member slopes, technique T2 for
/// everything else, wrapped slopes included — `true` where the dual index
/// must route the restricted search.
fn bracket_rule(db: &ConstraintDb, slope: f64) -> bool {
    let slopes = db.relation("r").unwrap().index().unwrap().slopes().unwrap();
    matches!(slopes.bracket(slope), Bracket::Member(_))
}

#[test]
fn planner_auto_matches_legacy_dispatch_and_oracle() {
    for seed in [11u64, 12, 13] {
        let tuples = DatasetSpec::paper_1999(800, ObjectSize::Small, seed).generate();
        let db = build_db(&tuples, Some(4));
        let mut qg = QueryGen::new(seed * 77);
        for i in 0..20 {
            let kind = if i % 2 == 0 {
                cdb_workload::QueryKind::Exist
            } else {
                cdb_workload::QueryKind::All
            };
            // Low selectivities, where an index win is unambiguous.
            let q = qg.calibrated(&tuples, kind, 0.02 + 0.08 * (i % 4) as f64 / 3.0);
            let sel = match kind {
                cdb_workload::QueryKind::Exist => Selection::exist(q.halfplane.clone()),
                cdb_workload::QueryKind::All => Selection::all(q.halfplane.clone()),
            };
            let auto = db.query_with("r", sel.clone(), Strategy::Auto).unwrap();
            let scan = db.query_with("r", sel.clone(), Strategy::Scan).unwrap();
            let reference = db.query_with("r", sel.clone(), Strategy::T2).unwrap();
            assert_eq!(auto.ids(), scan.ids(), "seed {seed} query {i} vs oracle");
            assert_eq!(
                auto.ids(),
                reference.ids(),
                "seed {seed} query {i} vs the bracket rule"
            );
            let case = db.plan_query("r", &sel).unwrap().case;
            assert_eq!(
                matches!(case, PlanCase::Member { .. }),
                bracket_rule(&db, q.halfplane.slope2d()),
                "seed {seed} query {i}: {case}"
            );
            // Replaying the search that ran as a forced strategy must be
            // bit-identical in result and measured I/O: the planner changes
            // *which* method runs, never *how* it runs.
            let ran = auto.stats.method.expect("planner stamps the method");
            let replay = db.query_with("r", sel, hint_forcing(ran)).unwrap();
            assert_eq!(replay.ids(), auto.ids(), "replay ids");
            assert_eq!(
                replay.stats.index_io, auto.stats.index_io,
                "replay index io"
            );
            assert_eq!(replay.stats.heap_io, auto.stats.heap_io, "replay heap io");
            assert_eq!(replay.stats.candidates, auto.stats.candidates);
            assert_eq!(replay.stats.false_hits, auto.stats.false_hits);
            assert_eq!(replay.stats.duplicates, auto.stats.duplicates);
        }
    }
}

#[test]
fn unindexed_relation_plans_a_scan_with_oracle_results() {
    let tuples = DatasetSpec::paper_1999(300, ObjectSize::Small, 29).generate();
    let db = build_db(&tuples, None);
    let mut qg = QueryGen::new(0x5CAB);
    for i in 0..8 {
        let kind = if i % 2 == 0 {
            cdb_workload::QueryKind::Exist
        } else {
            cdb_workload::QueryKind::All
        };
        let q = qg.calibrated(&tuples, kind, 0.1);
        let sel = match kind {
            cdb_workload::QueryKind::Exist => Selection::exist(q.halfplane.clone()),
            cdb_workload::QueryKind::All => Selection::all(q.halfplane.clone()),
        };
        let auto = db.query_with("r", sel.clone(), Strategy::Auto).unwrap();
        let scan = db.query_with("r", sel, Strategy::Scan).unwrap();
        assert_eq!(auto.ids(), scan.ids());
        assert_eq!(auto.stats.method, Some(MethodKind::SeqScan));
    }
}

/// Every selection shape gets a plan in `E²`: both kinds × both operators
/// × member / between / wrapped query slopes, indexed or not — and, the
/// dual index forced or left to the planner, the plan's case is the
/// routing table's entry and the search that ran.
#[test]
fn explain_covers_every_selection_shape_2d() {
    let tuples = DatasetSpec::paper_1999(250, ObjectSize::Small, 31).generate();
    let slopes = SlopeSet::uniform_tan(4);
    let member = slopes.get(1);
    let between = 0.75 * slopes.get(1) + 0.25 * slopes.get(2); // nearer slope 1
    let wrapped = slopes.get(3) + 1.0; // beyond max S: wraps through vertical
    assert!(matches!(slopes.bracket(member), Bracket::Member(1)));
    assert!(matches!(slopes.bracket(between), Bracket::Between(1, 2)));
    assert!(matches!(slopes.bracket(wrapped), Bracket::Wrapped(3, 0)));
    let at = |i: usize| TreeAt {
        i,
        slope: slopes.get(i),
    };

    // The stand-alone index the planned runs are compared with.
    let pairs: Vec<(u32, GeneralizedTuple)> = (0u32..).zip(tuples.iter().cloned()).collect();
    let mut pager = MemPager::paper_1999();
    let index = DualIndex::build(&mut pager, slopes.clone(), &pairs).unwrap();
    let lookup: HashMap<u32, GeneralizedTuple> = pairs.iter().cloned().collect();
    let fetch = |_: &dyn PageReader, id: u32| lookup[&id].clone();

    for indexed in [true, false] {
        let db = build_db(&tuples, if indexed { Some(4) } else { None });
        for slope in [member, between, wrapped] {
            for hp in [HalfPlane::above(slope, 2.0), HalfPlane::below(slope, 2.0)] {
                for sel in [Selection::exist(hp.clone()), Selection::all(hp.clone())] {
                    // The plan-only entry point plans what EXPLAIN runs, in
                    // full: both read the plan of the one built scan.
                    let plan = db.plan_query("r", &sel).unwrap();
                    let report = db
                        .explain("r", sel.clone())
                        .unwrap_or_else(|e| panic!("explain {sel:?} (indexed={indexed}): {e}"));
                    assert_eq!(plan, report.plan, "{sel:?} (indexed={indexed})");
                    let text = report.to_string();
                    assert!(text.contains("method="), "rendered plan: {text}");
                    assert!(text.contains("actual:"), "rendered actuals: {text}");
                    if !indexed {
                        assert!(matches!(report.plan.case, PlanCase::FullScan(250)));
                        continue;
                    }

                    for forced in [Strategy::T2, Strategy::Auto] {
                        let what = format!("{forced:?} {sel:?}");
                        let report = db.explain_with("r", sel.clone(), forced).unwrap();
                        let (plan, result) = (&report.plan, &report.result);
                        assert_eq!(plan.method, MethodKind::Dual, "{what}");
                        assert_eq!(result.stats.method, Some(plan.method), "{what}");
                        // The case names the search: the restricted search
                        // at a member slope, else T2.
                        let want = match slopes.bracket(slope) {
                            Bracket::Member(_) => PlanCase::Member {
                                i: 1,
                                slope: vec![member],
                            },
                            // `near` is the slope whose handicap strip
                            // [a₁, (a₁+a₂)/2] contains the query slope.
                            Bracket::Between(..) => PlanCase::Between {
                                lo: slopes.get(1),
                                hi: slopes.get(2),
                                near: at(1),
                                side: Side::Next,
                            },
                            // Beyond max S: its trees, over their piece of
                            // the strip through the vertical.
                            Bracket::Wrapped(..) => PlanCase::Between {
                                lo: slopes.get(3),
                                hi: slopes.get(0),
                                near: at(3),
                                side: Side::Next,
                            },
                        };
                        assert_eq!(plan.case, want, "{what}");
                        let direct = index.execute(&pager, &sel, forced, &fetch).unwrap();
                        assert_same_run(result, &direct, &what);
                    }
                }
            }
        }
    }
    // The other half of the gap routes to the other tree.
    let upper = 0.25 * slopes.get(1) + 0.75 * slopes.get(2);
    let sel = Selection::exist(HalfPlane::above(upper, 2.0));
    let db = build_db(&tuples, Some(4));
    let report = db.explain_with("r", sel, Strategy::T2).unwrap();
    assert!(
        matches!(report.plan.case, PlanCase::Between { near, side: Side::Prev, .. } if near == at(2)),
        "{:?}",
        report.plan.case
    );
}

fn boxes_3d(n: usize) -> Vec<GeneralizedTuple> {
    let mut rng = cdb_prng::StdRng::seed_from_u64(0xD3D);
    (0..n)
        .map(|_| {
            let mut cs = Vec::new();
            for axis in 0..3usize {
                let lo: f64 = rng.gen_range(-50.0..45.0);
                let hi = lo + rng.gen_range(1.0..6.0);
                let mut a = vec![0.0; 3];
                a[axis] = 1.0;
                cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
                cs.push(LinearConstraint::new(a, -hi, RelOp::Le));
            }
            GeneralizedTuple::new(cs)
        })
        .collect()
}

/// And in `E^d` (d = 3): member (grid-point), grid-cell and out-of-box
/// slopes on a grid set, slopes in a bare simplex and in its box but
/// outside its hull, all get a plan by the rule of 2-D — the restricted
/// search at a member point, T2 at any other slope in the box, the scan
/// out of it — whose case is the index's route and the search that ran.
#[test]
fn explain_covers_d_dimensional_selections() {
    let tuples = boxes_3d(150);
    let pairs: Vec<(u32, GeneralizedTuple)> = (0u32..).zip(tuples.iter().cloned()).collect();
    let lookup: HashMap<u32, GeneralizedTuple> = pairs.iter().cloned().collect();
    let fetch = |_: &dyn PageReader, id: u32| lookup[&id].clone();
    let simplex = vec![vec![-0.2, -0.2], vec![0.2, -0.2], vec![0.0, 0.2]];

    // Grid axes are 5 steps over [-0.2, 0.2]²: a grid point, an interior
    // point, and a slope outside the box (only the scan can serve it). Then
    // a bare simplex with the same box: every slope in it takes T2 over the
    // nearest vertex's cell — the "simplex" shape used to take the
    // covering, and (0.16, 0.16), outside the hull, used to be refused. One
    // stand-alone index per slope set; one database per shape.
    let standalone = |points: SlopePoints| {
        let mut pager = MemPager::paper_1999();
        let index = DualIndex::build(&mut pager, points, &pairs).unwrap();
        (index, pager)
    };
    let grid = standalone(SlopePoints::grid(3, 5, 0.2));
    let bare = standalone(SlopePoints::new(3, simplex));
    let shapes: [(&str, &(DualIndex, MemPager), Vec<f64>); 5] = [
        ("member", &grid, vec![0.0, 0.0]),
        ("grid cell", &grid, vec![0.13, -0.07]),
        ("outside box", &grid, vec![2.5, 2.5]),
        ("simplex", &bare, vec![0.02, 0.1]),
        ("in box, outside hull", &bare, vec![0.16, 0.16]),
    ];
    for (label, (index, pager), slope) in shapes {
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("boxes", 3).unwrap();
        for t in &tuples {
            db.insert("boxes", t.clone()).unwrap();
        }
        db.build_dual_index("boxes", index.points().unwrap().clone())
            .unwrap();
        for op in [RelOp::Ge, RelOp::Le] {
            let hp = HalfPlane::new(slope.clone(), 10.0, op);
            for sel in [Selection::exist(hp.clone()), Selection::all(hp.clone())] {
                let what = format!("{label} {sel:?}");
                let plan = db.plan_query("boxes", &sel).unwrap();
                let report = db
                    .explain("boxes", sel.clone())
                    .unwrap_or_else(|e| panic!("explain {what}: {e}"));
                assert_eq!(plan, report.plan, "{what}");
                let scan = db.query_with("boxes", sel.clone(), Strategy::Scan).unwrap();
                assert_eq!(report.result.ids(), scan.ids(), "{what} vs scan oracle");
                // Auto is Dual → SeqScan here too.
                let routed = index.route(&sel);
                if label == "outside box" {
                    assert_eq!(report.plan.method, MethodKind::SeqScan, "{what}");
                    let why = Rejection::OutsideBox(slope.clone());
                    assert_eq!(routed, Err(why.clone()), "{what}");
                    let rejected = [(MethodKind::Dual, why)];
                    assert_eq!(report.plan.rejected, rejected, "{what}");
                    continue;
                }
                let case = routed.unwrap_or_else(|why| panic!("{what}: {why}"));
                if label == "member" {
                    assert!(matches!(case, PlanCase::Member { .. }), "{case:?}");
                } else {
                    assert!(matches!(case, PlanCase::Cell(_)), "{case:?}");
                }
                let direct = index.run(pager, &sel, &case, &fetch).unwrap();
                assert_eq!(direct.ids(), scan.ids(), "{what}: direct vs scan oracle");
                assert_eq!(report.plan.method, MethodKind::Dual, "{what}");
                assert_eq!(report.plan.case, case, "{what}");
                assert!(report.plan.rejected.is_empty(), "{what}");
                assert_eq!(report.result.stats.method, Some(MethodKind::Dual));
                assert_same_run(&report.result, &direct, &what);
            }
        }
    }
}

/// The restricted search and T2 are the dual index's routes in every
/// dimension: forced on a 3-D relation over slope points, the index runs
/// a member point's trees (`Member`) and an in-box slope's nearest point's
/// cell (`Cell`), each answering as the predicate oracle. The R⁺-tree, a
/// 2-D structure, is refused for the dimension.
#[test]
fn forced_restricted_and_t2_route_over_slope_points() {
    let tuples = boxes_3d(150);
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("boxes", 3).unwrap();
    for t in &tuples {
        db.insert("boxes", t.clone()).unwrap();
    }
    db.build_dual_index("boxes", SlopePoints::grid(3, 3, 1.0))
        .unwrap();
    let oracle = |sel: &Selection| -> Vec<u32> {
        let hits = (0u32..).zip(&tuples).filter(|(_, t)| sel.holds(*t));
        hits.map(|(id, _)| id).collect()
    };
    let shapes = [
        (vec![1.0, -1.0], true),
        (vec![0.0, 0.0], true),
        (vec![0.3, -0.6], false),
        (vec![-0.85, 0.45], false),
    ];
    for (slope, member) in shapes {
        for op in [RelOp::Ge, RelOp::Le] {
            let hp = HalfPlane::new(slope.clone(), 5.0, op);
            for sel in [Selection::exist(hp.clone()), Selection::all(hp)] {
                let what = format!("{sel:?}");
                let report = db.explain_with("boxes", sel.clone(), Strategy::T2).unwrap();
                let (plan, result) = (&report.plan, &report.result);
                assert_eq!((plan.method, plan.forced), (MethodKind::Dual, true));
                match &plan.case {
                    PlanCase::Member { slope: at, .. } => assert!(member && *at == slope, "{what}"),
                    PlanCase::Cell(_) => assert!(!member, "{what}"),
                    other => panic!("{what}: {other}"),
                }
                assert_eq!(result.stats.method, Some(plan.method), "{what}");
                assert_eq!(result.ids(), oracle(&sel), "{what}");
            }
        }
    }
    let sel = Selection::exist(HalfPlane::new(vec![0.3, -0.6], 5.0, RelOp::Ge));
    let refused = |forced| db.query_with("boxes", sel.clone(), forced).err();
    let why = "forced method RPlus: serves 2-D queries only, the query is 3-D";
    assert_eq!(
        refused(Strategy::RPlus),
        Some(CdbError::UnsupportedQuery(why.into()))
    );
}

/// `Auto` and the forced dual index route one case, row by row: a member
/// slope, an interior one and both wraps through the vertical on a 2-D
/// relation; a member point, an in-box slope and an out-of-box slope on a
/// 3-D one; and a 3-D selection on the 2-D relation. Where the index
/// routes, `Auto` rejects nothing before it and every run reports the
/// method its plan names; where it does not, the forced index is refused
/// with the reason `Auto` gives before it scans.
#[test]
fn auto_and_the_forced_dual_index_route_one_case() {
    let tuples = DatasetSpec::paper_1999(300, ObjectSize::Small, 53).generate();
    let mut db = build_db(&tuples, Some(4));
    db.create_relation("boxes", 3).unwrap();
    for t in boxes_3d(120) {
        db.insert("boxes", t).unwrap();
    }
    db.build_dual_index("boxes", SlopePoints::grid(3, 3, 1.0))
        .unwrap();
    let slopes = SlopeSet::uniform_tan(4);
    // (label, relation, query slope, the route's shape; `None`: refused)
    let rows = [
        ("member", "r", vec![slopes.get(1)], Some("member")),
        ("interior", "r", vec![0.3], Some("between")),
        (
            "beyond max S",
            "r",
            vec![slopes.get(3) + 1.0],
            Some("wrapped"),
        ),
        (
            "below min S",
            "r",
            vec![slopes.get(0) - 1.0],
            Some("wrapped"),
        ),
        ("d-D member", "boxes", vec![1.0, -1.0], Some("member")),
        ("d-D in box", "boxes", vec![0.3, -0.6], Some("cell")),
        ("d-D out of box", "boxes", vec![1.5, 0.0], None),
        ("3-D on 2-D", "r", vec![0.1, 0.2], None),
    ];
    for (label, name, slope, shape) in rows {
        let rel = db.relation(name).unwrap();
        for op in [RelOp::Ge, RelOp::Le] {
            let hp = HalfPlane::new(slope.clone(), 4.0, op);
            for sel in [Selection::exist(hp.clone()), Selection::all(hp)] {
                let what = format!("{label} {sel:?}");
                let plan = |forced| Planner::choose(rel, &sel, forced).map(|(_, p)| p);
                let (auto, dual) = (plan(None), plan(Some(MethodKind::Dual)));
                let Some(shape) = shape else {
                    let why = db.relation(name).unwrap().index().unwrap().route(&sel);
                    let why = why.expect_err("refused");
                    let forced = format!("forced method Dual: {why}");
                    assert_eq!(dual, Err(CdbError::UnsupportedQuery(forced)), "{what}");
                    match auto {
                        Ok(QueryPlan {
                            method, rejected, ..
                        }) => {
                            assert_eq!(method, MethodKind::SeqScan, "{what}");
                            assert_eq!(rejected, [(MethodKind::Dual, why)], "{what}");
                        }
                        Err(_) => {
                            let got = db.query_with(name, sel.clone(), Strategy::Auto);
                            let want = CdbError::DimensionMismatch {
                                expected: 2,
                                got: 3,
                            };
                            assert_eq!(got.err(), Some(want), "{what}");
                        }
                    }
                    continue;
                };
                let (auto, dual) = (auto.unwrap(), dual.unwrap());
                assert_eq!(auto.case, dual.case, "{what}");
                assert_eq!(
                    (auto.method, dual.method),
                    (MethodKind::Dual, MethodKind::Dual)
                );
                assert!(auto.rejected.is_empty(), "{what}: {:?}", auto.rejected);
                let routed = match &auto.case {
                    PlanCase::Member { .. } => "member",
                    PlanCase::Between { lo, hi, .. } if lo < hi => "between",
                    PlanCase::Between { .. } => "wrapped",
                    PlanCase::Cell(_) => "cell",
                    other => panic!("{what}: {other}"),
                };
                assert_eq!(routed, shape, "{what}");
                for strategy in [Strategy::Auto, Strategy::T2] {
                    let report = db.explain_with(name, sel.clone(), strategy).unwrap();
                    assert_eq!(report.plan.case, auto.case, "{what} {strategy:?}");
                    let ran = report.result.stats.method;
                    assert_eq!(ran, Some(report.plan.method), "{what} {strategy:?}");
                }
            }
        }
    }
}

/// `QueryStats::method` names the method that ran and its plan's case the
/// search: at a member slope Auto and forced T2 both run the dual index's
/// restricted search, and at a wrapped slope T2's own sweeps.
#[test]
fn stats_name_the_search_that_ran() {
    let tuples = DatasetSpec::paper_1999(2000, ObjectSize::Small, 43).generate();
    let db = build_db(&tuples, Some(4));
    let slopes = SlopeSet::uniform_tan(4);
    let ran = |sel: Selection, strategy| {
        let report = db.explain_with("r", sel, strategy).unwrap();
        let method = report.result.stats.method;
        assert_eq!(method, Some(report.plan.method));
        (method, report.plan.case, report.result)
    };
    for i in 0..256 {
        let hp = HalfPlane::above(slopes.get(i % 4), -40.0 + 0.3 * i as f64);
        let (method, case, _) = ran(Selection::exist(hp), Strategy::Auto);
        assert_eq!(method, Some(MethodKind::Dual), "query {i}");
        assert!(matches!(case, PlanCase::Member { .. }), "query {i}: {case}");
    }
    // Forced T2 at a member slope still answers — by that same search.
    let sel = Selection::exist(HalfPlane::above(slopes.get(2), 5.0));
    let scan = db.query_with("r", sel.clone(), Strategy::Scan).unwrap();
    let (method, case, r) = ran(sel, Strategy::T2);
    assert_eq!(r.ids(), scan.ids());
    assert_eq!(method, Some(MethodKind::Dual));
    assert!(matches!(case, PlanCase::Member { i: 2, .. }), "{case}");
    // A wrapped slope runs T2's own sweeps, and its case says so.
    let wrapped = Selection::exist(HalfPlane::above(slopes.get(3) + 1.0, 5.0));
    let (method, case, r) = ran(wrapped, Strategy::T2);
    assert_eq!(method, Some(MethodKind::Dual));
    assert!(
        matches!(case, PlanCase::Between { lo, hi, .. } if lo > hi),
        "{case}"
    );
    assert_eq!(r.stats.duplicates, 0);
}

/// A plan is a function of the relation and the selection: the same on a
/// fresh database, after 200 other queries, on a snapshot taken before
/// them, and after close and reopen — no state is shared across queries,
/// snapshots or opens.
#[test]
fn plans_are_a_function_of_relation_and_selection() {
    let path = std::env::temp_dir().join(format!("cdb_it_plans_{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let tuples = DatasetSpec::paper_1999(1500, ObjectSize::Small, 47).generate();
    let mut db = ConstraintDb::create(&path, DbConfig::paper_1999()).unwrap();
    db.create_relation("r", 2).unwrap();
    for t in &tuples {
        db.insert("r", t.clone()).unwrap();
    }
    db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
    db.build_rplus_index("r", 1.0).unwrap();
    let sels = [
        Selection::exist(HalfPlane::above(0.3, 5.0)),
        Selection::all(HalfPlane::below(-1.7, 20.0)),
        Selection::exist(HalfPlane::above(SlopeSet::uniform_tan(4).get(2), 0.0)),
    ];
    let plans = |db: &dyn Fn(&Selection) -> QueryPlan| sels.iter().map(db).collect::<Vec<_>>();
    let fresh = plans(&|sel| db.plan_query("r", sel).unwrap());
    let snap = db.snapshot().unwrap();
    let mut qg = QueryGen::new(0x91A5);
    for i in 0..200 {
        let kind = if i % 2 == 0 {
            cdb_workload::QueryKind::Exist
        } else {
            cdb_workload::QueryKind::All
        };
        let q = qg.calibrated(&tuples, kind, 0.02 + 0.5 * (i % 5) as f64 / 4.0);
        let sel = match kind {
            cdb_workload::QueryKind::Exist => Selection::exist(q.halfplane),
            cdb_workload::QueryKind::All => Selection::all(q.halfplane),
        };
        db.query("r", sel).unwrap();
    }
    let after = plans(&|sel| db.plan_query("r", sel).unwrap());
    let on_snapshot = plans(&|sel| snap.plan_query("r", sel).unwrap());
    drop(snap);
    db.close().unwrap();
    let db = ConstraintDb::open(&path).unwrap();
    let reopened = plans(&|sel| db.plan_query("r", sel).unwrap());
    assert_eq!(after, fresh, "after 200 queries");
    assert_eq!(on_snapshot, fresh, "on a snapshot taken before them");
    assert_eq!(reopened, fresh, "after close and reopen");
    db.close().unwrap();
    std::fs::remove_file(&path).unwrap();
    let _ = std::fs::remove_file(constraint_db::storage::wal_path(&path));
}

/// Batches through `query_batch` plan per-query exactly like the
/// standalone path, at any worker count.
#[test]
fn planned_batches_match_standalone_queries() {
    let tuples = DatasetSpec::paper_1999(400, ObjectSize::Small, 37).generate();
    let db = build_db(&tuples, Some(3));
    let mut qg = QueryGen::new(0xBA7);
    let batch: Vec<(Selection, Strategy)> = (0..12)
        .map(|i| {
            let kind = if i % 2 == 0 {
                cdb_workload::QueryKind::Exist
            } else {
                cdb_workload::QueryKind::All
            };
            let q = qg.calibrated(&tuples, kind, 0.08);
            let sel = match kind {
                cdb_workload::QueryKind::Exist => Selection::exist(q.halfplane),
                cdb_workload::QueryKind::All => Selection::all(q.halfplane),
            };
            (sel, Strategy::Auto)
        })
        .collect();
    let standalone: Vec<Vec<u32>> = batch
        .iter()
        .map(|(sel, st)| db.query_with("r", sel.clone(), *st).unwrap().ids().to_vec())
        .collect();
    for threads in [1, 4] {
        let results = db.query_batch("r", &batch, threads).unwrap();
        for (i, (got, want)) in results.iter().zip(&standalone).enumerate() {
            let got = got.as_ref().unwrap();
            assert_eq!(
                got.ids(),
                want.as_slice(),
                "batch query {i} ({threads} threads)"
            );
            assert!(
                got.stats.method.is_some(),
                "batch query {i} carries its plan"
            );
        }
    }
}

/// `QueryStats` of the candidate paths — T2 between slopes of `S` and
/// through the vertical, the R⁺-tree's duplicate-prone candidate list, the
/// cells of a bare simplex — summed over seeded beds as `[candidates,
/// duplicates, false hits, rejected by key, pages, rows]`. The R⁺-tree's
/// totals were recorded at the parent of the change that replaced its
/// `sort_unstable` + `dedup` with `query::order_ids`; ordering ids another
/// way must not move one of them. Until the key columns' rejections got
/// their own counter, they were false hits: each pin's old five-column
/// form is the third and fourth entries summed.
#[test]
fn duplicate_and_candidate_accounting_is_pinned() {
    fn fold(acc: &mut [u64; 6], r: &constraint_db::index::QueryResult) {
        let s = &r.stats;
        let add = [
            s.candidates,
            s.duplicates,
            s.false_hits,
            s.rejected_by_key,
            s.total_accesses(),
            r.len() as u64,
        ];
        assert_eq!(
            s.candidates,
            s.duplicates + s.false_hits + s.rejected_by_key + r.len() as u64,
            "every candidate booked once"
        );
        for (a, x) in acc.iter_mut().zip(add) {
            *a += x;
        }
    }
    let tuples = DatasetSpec::paper_1999(600, ObjectSize::Small, 31).generate();
    let mut db = build_db(&tuples, Some(3));
    db.build_rplus_index("r", 1.0).unwrap();
    let mut qg = QueryGen::new(0xF1E1D);
    let (mut t2, mut rplus) = ([0u64; 6], [0u64; 6]);
    for i in 0..40 {
        let kind = if i % 2 == 0 {
            cdb_workload::QueryKind::Exist
        } else {
            cdb_workload::QueryKind::All
        };
        let q = qg.calibrated(&tuples, kind, 0.10);
        let sel = match kind {
            cdb_workload::QueryKind::Exist => Selection::exist(q.halfplane.clone()),
            cdb_workload::QueryKind::All => Selection::all(q.halfplane.clone()),
        };
        fold(
            &mut t2,
            &db.query_with("r", sel.clone(), Strategy::T2).unwrap(),
        );
        fold(
            &mut rplus,
            &db.query_with("r", sel, Strategy::RPlus).unwrap(),
        );
    }

    let mut db3 = ConstraintDb::in_memory(DbConfig::paper_1999());
    db3.create_relation("boxes", 3).unwrap();
    for t in boxes_3d(150) {
        db3.insert("boxes", t).unwrap();
    }
    // A bare simplex, not a grid: the planner's `Auto` runs T2 over the
    // nearest vertex's cell, and so does a stand-alone index beside it.
    let simplex = vec![vec![-1.0, -1.0], vec![1.0, -1.0], vec![0.0, 1.0]];
    let bare = SlopePoints::new(3, simplex);
    db3.build_dual_index("boxes", bare.clone()).unwrap();
    let pairs: Vec<(u32, GeneralizedTuple)> = (0u32..).zip(boxes_3d(150)).collect();
    let lookup: HashMap<u32, GeneralizedTuple> = pairs.iter().cloned().collect();
    let fetch = |_: &dyn PageReader, id: u32| lookup[&id].clone();
    let mut pager = MemPager::paper_1999();
    let covered = DualIndex::build(&mut pager, bare, &pairs).unwrap();
    let (mut auto, mut cells) = ([0u64; 6], [0u64; 6]);
    for (i, slope) in [[0.0, 0.0], [0.3, -0.4], [-0.2, 0.1], [0.1, 0.5]]
        .into_iter()
        .enumerate()
    {
        for op in [RelOp::Ge, RelOp::Le] {
            let hp = HalfPlane::new(slope.to_vec(), 5.0 * i as f64 - 10.0, op);
            for sel in [Selection::exist(hp.clone()), Selection::all(hp.clone())] {
                let cell = covered.route(&sel).unwrap();
                assert!(matches!(cell, PlanCase::Cell(_)), "{cell}");
                let r = covered.run(&pager, &sel, &cell, &fetch);
                fold(&mut cells, &r.unwrap());
                let r = db3.query_with("boxes", sel, Strategy::Auto).unwrap();
                assert_eq!(r.stats.method, Some(MethodKind::Dual));
                fold(&mut auto, &r);
            }
        }
    }
    // Every dual row's pages fell when a sweep stopped reading its start
    // leaf twice (once per restricted search, twice per T2 search): T2
    // 1311 → 1234, the cells 112 → 80, Auto 720 → 688, and after churn
    // Between 470 → 406 and the grid cell 176 → 136.
    // T1's two legs stood here, [13154, 1206, 620, 8928, 1231, 2400],
    // until T2 ran every slope outside S; T2 was [18098, 288, 656, 14754,
    // 1306, 2400] while it ran those legs through the vertical, and
    // [17752, 0, 659, 14693, 1234, 2400] while the key columns sampled S
    // alone and bounded with chords only: C's chords and the tangents
    // reject 633 more candidates by key, so 633 fewer are fetched, and
    // the heap pages among the total fall with them. Then [17752, 0, 26,
    // 15326, 402, 2400] while both trees of an element bucketed by the
    // shared (max TOP, min BOT) reach: each tree's own surface leaves ALL's
    // return sweeps 3380 fewer candidates, all of them ones the keys
    // rejected, and 25 fewer pages.
    assert_eq!(t2, [14372, 0, 26, 11946, 377, 2400], "T2");
    assert_eq!(rplus, [6514, 615, 3499, 0, 2949, 2400], "R⁺-tree");
    // The routed cell on these selections: a third fewer candidates and
    // pages than the simplex covering, [3762, 1614, 948, 0, 168, 1200],
    // which the ablations compose; no duplicates, more false hits.
    assert_eq!(cells, [2399, 0, 1199, 0, 80, 1200], "bare simplex cells");
    // Was [300, 0, 131, 90, 169], summed over the selections a cost model
    // sent to the cell (it sent the rest to the scan): `Auto` runs the cell
    // on all 16 now, the `cells` row's search, reading the heap pages the
    // stand-alone lookup does not.
    assert_eq!(
        auto,
        [2399, 0, 1199, 0, 688, 1200],
        "Auto over a bare set's cells"
    );

    // Incremental folds, both geometries: a fixed insert/delete script on
    // stand-alone indexes (no refresh), then handicap-guided searches only.
    // Recorded at the parent of the change that made the dual index one
    // type over its slope geometry.
    macro_rules! churn {
        ($index:ident, $pager:ident, $pairs:ident, $late:expr) => {
            for (id, t) in (5000u32..).zip($late) {
                $index.insert(&mut $pager, id, &t).unwrap();
                $pairs.push((id, t));
            }
            for (id, t) in $pairs.iter().filter(|(id, _)| id % 3 == 1) {
                assert!($index.remove(&mut $pager, *id, t).unwrap(), "remove {id}");
            }
            $pairs.retain(|(id, _)| id % 3 != 1);
        };
    }

    let mut pager = MemPager::paper_1999();
    let mut pairs: Vec<(u32, GeneralizedTuple)> = (0u32..)
        .zip(DatasetSpec::paper_1999(500, ObjectSize::Small, 41).generate())
        .collect();
    let mut index = DualIndex::build(&mut pager, SlopeSet::uniform_tan(4), &pairs).unwrap();
    let late = DatasetSpec::paper_1999(300, ObjectSize::Medium, 42).generate();
    churn!(index, pager, pairs, late);
    let lookup: HashMap<u32, GeneralizedTuple> = pairs.iter().cloned().collect();
    let fetch = |_: &dyn PageReader, id: u32| lookup[&id].clone();
    let mut between = [0u64; 6];
    for (i, a) in [-2.0, -1.2, -0.9, -0.2, 0.2, 0.9, 1.2, 2.0]
        .into_iter()
        .enumerate()
    {
        for op in [RelOp::Ge, RelOp::Le] {
            let hp = HalfPlane::new2d(a, 9.0 * i as f64 - 30.0, op);
            for sel in [Selection::exist(hp.clone()), Selection::all(hp.clone())] {
                let case = index.route(&sel).unwrap();
                assert!(matches!(case, PlanCase::Between { .. }), "{case}");
                fold(
                    &mut between,
                    &index.execute(&pager, &sel, Strategy::T2, &fetch).unwrap(),
                );
            }
        }
    }

    let mut pager = MemPager::paper_1999();
    let mut boxes = boxes_3d(330);
    let late = boxes.split_off(200);
    let mut pairs: Vec<(u32, GeneralizedTuple)> = (0u32..).zip(boxes).collect();
    let mut index = DualIndex::build(&mut pager, SlopePoints::grid(3, 3, 1.0), &pairs).unwrap();
    churn!(index, pager, pairs, late);
    let lookup: HashMap<u32, GeneralizedTuple> = pairs.iter().cloned().collect();
    let fetch = |_: &dyn PageReader, id: u32| lookup[&id].clone();
    let mut cell = [0u64; 6];
    for (i, slope) in [
        [0.2, -0.1],
        [-0.9, -0.8],
        [0.7, 0.3],
        [-0.4, 0.95],
        [0.45, -0.6],
    ]
    .into_iter()
    .enumerate()
    {
        for op in [RelOp::Ge, RelOp::Le] {
            let hp = HalfPlane::new(slope.to_vec(), 11.0 * i as f64 - 25.0, op);
            for sel in [Selection::exist(hp.clone()), Selection::all(hp.clone())] {
                let case = index.route(&sel).unwrap();
                assert!(matches!(case, PlanCase::Cell(_)), "{case}");
                fold(&mut cell, &index.run(&pager, &sel, &case, &fetch).unwrap());
            }
        }
    }
    // Was [16513, 0, 7985, 470, 8528]: 7379 of the false hits were the
    // keys' rejections. Then [16513, 0, 606, 7379, 406, 8528] until the
    // key columns sampled C and bounded with tangents: 566 more rejected
    // by key, and the index pages (the fetches here read none) stay. Then
    // [16513, 0, 40, 7945, 406, 8528] until each tree folded its own
    // surface's reaches on insert and bucketed by them at build: 2994
    // fewer candidates, all of them rejected by key, and 49 fewer pages
    // ([13519, 0, 40, 4951, 357, 8528]). A delete that takes a leaf's
    // first or last key now hands its handicaps to the next leaf holding
    // a key, as an emptied leaf did, so no sweep starting past the leaf's
    // new edge misses a tuple bucketed there: 631 of those candidates
    // and 11 of those pages come back.
    assert_eq!(
        between,
        [14150, 0, 40, 5582, 368, 8528],
        "2-D Between after churn"
    );
    // Was [4120, 0, 1920, 0, 136, 2200] until a delete of a leaf's first
    // or last key handed its handicaps on (above): 109 more false hits.
    assert_eq!(
        cell,
        [4229, 0, 2029, 0, 136, 2200],
        "3-D grid cell after churn"
    );
}
