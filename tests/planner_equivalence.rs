//! The cost-based planner must be a pure optimisation: whatever access
//! method it picks, the result set is exactly what the paper's bracket
//! rule (member slope → restricted search, otherwise T2 — the reference
//! the planner is compared against) and the scan oracle produce, and
//! replaying the search that ran as a forced strategy reproduces the same
//! ids and I/O stats. `explain` must return a plan for every selection
//! shape the engine accepts — both selection kinds, both operators, member
//! / between / wrapped slopes, with and without an index, in `E²` and `E^d`
//! — and the plan's [`PlanCase`] must be the route that executed: the same
//! search run directly on a stand-alone index returns the same ids and the
//! same counts.

use std::collections::HashMap;

use constraint_db::index::ddim::{DualIndexD, SlopePoints};
use constraint_db::index::index::Exact;
use constraint_db::index::plan::{MethodKind, PlanCase, Rejection, TreeAt};
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
/// only the planner stamps `method` and `estimate`.
fn assert_same_run(planned: &QueryResult, direct: &QueryResult, what: &str) {
    assert_eq!(planned.ids(), direct.ids(), "{what}: ids");
    let counts = QueryStats {
        heap_io: direct.stats.heap_io,
        method: None,
        estimate: None,
        ..planned.stats
    };
    assert_eq!(counts, direct.stats, "{what}: stats");
}

/// The hint that forces `method`: a search over `Strategy::forced`, the
/// one table, not a second one.
fn hint_forcing(method: MethodKind) -> Strategy {
    [
        Strategy::Restricted,
        Strategy::T1,
        Strategy::T2,
        Strategy::Scan,
        Strategy::RPlus,
    ]
    .into_iter()
    .find(|s| s.forced() == Some(method))
    .expect("every 2-D method is forcible")
}

/// The paper's bracket rule, the reference the planner is compared
/// against: exact restricted search for member slopes, technique T2 for
/// everything else (T2 itself falls back to T1 on wrapped slopes).
fn bracket_rule(db: &ConstraintDb, slope: f64) -> Strategy {
    let slopes = db.relation("r").unwrap().index().unwrap().slopes();
    match slopes.bracket(slope) {
        Bracket::Member(_) => Strategy::Restricted,
        Bracket::Between(..) | Bracket::Wrapped(..) => Strategy::T2,
    }
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
            let reference = db
                .query_with("r", sel.clone(), bracket_rule(&db, q.halfplane.slope2d()))
                .unwrap();
            assert_eq!(auto.ids(), scan.ids(), "seed {seed} query {i} vs oracle");
            assert_eq!(
                auto.ids(),
                reference.ids(),
                "seed {seed} query {i} vs the bracket rule"
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
/// × member / between / wrapped query slopes, indexed or not — and, forced
/// to each dual technique or left to the planner, the plan's case is the
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
                    assert!(
                        report.plan.estimate.total() > 0.0,
                        "non-trivial estimate for {sel:?}"
                    );
                    let text = report.to_string();
                    assert!(text.contains("method="), "rendered plan: {text}");
                    assert!(text.contains("actual:"), "rendered actuals: {text}");
                    if !indexed {
                        assert!(matches!(report.plan.case, PlanCase::FullScan(250)));
                        continue;
                    }

                    let theta = hp.op;
                    for forced in [
                        Strategy::Restricted,
                        Strategy::T1,
                        Strategy::T2,
                        Strategy::Auto,
                    ] {
                        let what = format!("{forced:?} {sel:?}");
                        let report = match db.explain_with("r", sel.clone(), forced) {
                            Ok(report) => report,
                            Err(e) => {
                                assert!(forced == Strategy::Restricted && slope != member, "{e}");
                                continue;
                            }
                        };
                        let (plan, result) = (&report.plan, &report.result);
                        assert_eq!(result.stats.method, Some(plan.case.runs()), "{what}");
                        if forced == Strategy::Auto && plan.method == MethodKind::SeqScan {
                            // On 250 tuples the scan is a fair choice.
                            assert_eq!(plan.case, PlanCase::FullScan(250), "{what}");
                            continue;
                        }
                        // The label that won (all of Auto's candidates run
                        // the same search at a member slope, and tie).
                        let technique = forced.forced().unwrap_or(plan.method);
                        assert_eq!(plan.method, technique, "{what}");
                        let wrapped_legs = [(at(3), theta), (at(0), theta.negated())];
                        // Every technique runs the restricted search at a
                        // member slope, and T2 runs T1's app-queries at a
                        // wrapped one: the case names the search, the
                        // plan's method the technique asked for.
                        let want = match (technique, slopes.bracket(slope)) {
                            (MethodKind::Restricted, _) => PlanCase::Member(at(1)),
                            (_, Bracket::Member(_)) => PlanCase::Member(at(1)),
                            (MethodKind::T1, Bracket::Between(..)) => {
                                PlanCase::AppQueries([(at(1), theta), (at(2), theta)])
                            }
                            (MethodKind::T1, _) => PlanCase::AppQueries(wrapped_legs),
                            // `near` is the slope whose handicap strip
                            // [a₁, (a₁+a₂)/2] contains the query slope.
                            (MethodKind::T2, Bracket::Between(..)) => PlanCase::Between {
                                lo: slopes.get(1),
                                hi: slopes.get(2),
                                near: at(1),
                                side: Side::Next,
                            },
                            (MethodKind::T2, _) => {
                                assert_eq!(result.stats.method, Some(MethodKind::T1), "{what}");
                                PlanCase::AppQueries(wrapped_legs)
                            }
                            (other, _) => panic!("{what}: the planner chose {other}"),
                        };
                        assert_eq!(plan.case, want, "{what}");
                        let hint = hint_forcing(technique);
                        let direct = index.execute(&pager, &sel, hint, &fetch).unwrap();
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
/// outside its hull, all get a plan — out of the box falling back to the
/// scan method — and whenever the planner runs the d-dimensional index,
/// the plan's case is the index's route and the search that ran.
#[test]
fn explain_covers_d_dimensional_selections() {
    let tuples = boxes_3d(150);
    let pairs: Vec<(u32, GeneralizedTuple)> = (0u32..).zip(tuples.iter().cloned()).collect();
    let lookup: HashMap<u32, GeneralizedTuple> = pairs.iter().cloned().collect();
    let fetch = |_: &dyn PageReader, id: u32| lookup[&id].clone();
    let simplex = vec![vec![-0.2, -0.2], vec![0.2, -0.2], vec![0.0, 0.2]];

    // Grid axes are 5 steps over [-0.2, 0.2]² (cells small enough that T2's
    // whole-cell band still beats a scan of 150 boxes): a grid point, an
    // interior point, and a slope outside the box (only the scan can serve
    // it). Then a bare simplex with the same box: every slope in it takes
    // T2 over the nearest vertex's cell — the "simplex" shape used to take
    // the covering, and (0.16, 0.16), outside the hull, used to be refused.
    // One stand-alone index per slope set; one database per shape, so each
    // is planned from a fresh feedback catalog.
    let standalone = |points: SlopePoints| {
        let mut pager = MemPager::paper_1999();
        let index = DualIndexD::build(&mut pager, points, &pairs).unwrap();
        (index, pager)
    };
    let grid = standalone(SlopePoints::grid(3, 5, 0.2));
    let bare = standalone(SlopePoints::new(3, simplex));
    let shapes: [(&str, &(DualIndexD, MemPager), Vec<f64>); 5] = [
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
        db.build_dual_index_d("boxes", index.points().clone())
            .unwrap();
        let mut planned_on_the_index = 0;
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
                let routed = index.route(&sel);
                if label == "outside box" {
                    assert_eq!(report.plan.method, MethodKind::SeqScan, "{what}");
                    let why = Rejection::OutsideBox(slope.clone());
                    assert_eq!(routed, Err(why.clone()), "{what}");
                    assert_eq!(report.plan.rejected, [(MethodKind::DualD, why)], "{what}");
                    continue;
                }
                let case = routed.unwrap_or_else(|why| panic!("{what}: {why}"));
                if label == "member" {
                    assert!(matches!(case, PlanCase::MemberPoint { .. }), "{case:?}");
                } else {
                    assert!(matches!(case, PlanCase::Cell(_)), "{case:?}");
                }
                let direct = index
                    .run(pager, &sel, &case, Exact::Selection, &fetch)
                    .unwrap();
                assert_eq!(direct.ids(), scan.ids(), "{what}: direct vs scan oracle");
                if report.plan.method == MethodKind::DualD {
                    planned_on_the_index += 1;
                    assert_eq!(report.plan.case, case, "{what}");
                    assert_eq!(report.result.stats.method, Some(MethodKind::DualD));
                    assert_same_run(&report.result, &direct, &what);
                }
            }
        }
        if label != "outside box" {
            assert!(
                planned_on_the_index > 0,
                "{label}: the planner never ran it"
            );
        }
    }
}

/// Planner feedback is keyed by the search that ran, not by the label that
/// won. At a member slope every dual technique runs the restricted search:
/// 256 such queries used to be booked under `T1` and `T2` whenever those
/// labels won the tie (225 and 16 times), dragging T1's and T2's observed
/// fractions toward the restricted search's for every other slope.
#[test]
fn feedback_is_booked_under_the_search_that_ran() {
    let tuples = DatasetSpec::paper_1999(2000, ObjectSize::Small, 43).generate();
    let db = build_db(&tuples, Some(4));
    let slopes = SlopeSet::uniform_tan(4);
    for i in 0..256 {
        let hp = HalfPlane::above(slopes.get(i % 4), -40.0 + 0.3 * i as f64);
        let r = db.query("r", Selection::exist(hp)).unwrap();
        assert_eq!(r.stats.method, Some(MethodKind::Restricted), "query {i}");
    }
    let catalog = db.relation("r").unwrap().catalog();
    let methods = [
        MethodKind::Restricted,
        MethodKind::T1,
        MethodKind::T2,
        MethodKind::DualD,
        MethodKind::SeqScan,
        MethodKind::RPlus,
    ];
    let booked: Vec<(MethodKind, SelectionKind)> = methods
        .iter()
        .flat_map(|&m| [(m, SelectionKind::Exist), (m, SelectionKind::All)])
        .filter(|&(m, k)| catalog.observed(m, k).is_some())
        .collect();
    assert_eq!(booked, [(MethodKind::Restricted, SelectionKind::Exist)]);
    // Forced T1/T2 at a member slope still answer — by that same search.
    let sel = Selection::exist(HalfPlane::above(slopes.get(2), 5.0));
    let scan = db.query_with("r", sel.clone(), Strategy::Scan).unwrap();
    for forced in [Strategy::T1, Strategy::T2] {
        let r = db.query_with("r", sel.clone(), forced).unwrap();
        assert_eq!(r.ids(), scan.ids(), "{forced:?}");
        assert_eq!(r.stats.method, Some(MethodKind::Restricted), "{forced:?}");
    }
    // Likewise T2's wrapped fallback is T1's search, and booked as such.
    let wrapped = Selection::exist(HalfPlane::above(slopes.get(3) + 1.0, 5.0));
    let r = db.query_with("r", wrapped, Strategy::T2).unwrap();
    assert_eq!(r.stats.method, Some(MethodKind::T1));
    let catalog = db.relation("r").unwrap().catalog();
    assert!(catalog
        .observed(MethodKind::T1, SelectionKind::Exist)
        .is_some());
    assert_eq!(catalog.observed(MethodKind::T2, SelectionKind::Exist), None);
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

/// `QueryStats` of the duplicate-prone paths — T1's two legs, the
/// d-dimensional simplex covering, the R⁺-tree's candidate list — summed
/// over seeded beds as `[candidates, duplicates, false hits, pages, rows]`.
/// The totals were recorded at the parent of the change that replaced each
/// path's `sort_unstable` + `dedup` with `query::order_ids`; ordering ids
/// another way must not move one of them.
#[test]
fn duplicate_and_candidate_accounting_is_pinned() {
    fn fold(acc: &mut [u64; 5], r: &constraint_db::index::QueryResult) {
        let s = &r.stats;
        let add = [
            s.candidates,
            s.duplicates,
            s.false_hits,
            s.total_accesses(),
            r.len() as u64,
        ];
        for (a, x) in acc.iter_mut().zip(add) {
            *a += x;
        }
    }
    let tuples = DatasetSpec::paper_1999(600, ObjectSize::Small, 31).generate();
    let mut db = build_db(&tuples, Some(3));
    db.build_rplus_index("r", 1.0).unwrap();
    let mut qg = QueryGen::new(0xF1E1D);
    let (mut t1, mut rplus) = ([0u64; 5], [0u64; 5]);
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
            &mut t1,
            &db.query_with("r", sel.clone(), Strategy::T1).unwrap(),
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
    // nearest vertex's cell where it beats a scan; the covering the route
    // used to take is run stand-alone, as an ablation builds it, and so is
    // the routed cell on every selection, beside it.
    let simplex = vec![vec![-1.0, -1.0], vec![1.0, -1.0], vec![0.0, 1.0]];
    let bare = SlopePoints::new(3, simplex);
    db3.build_dual_index_d("boxes", bare.clone()).unwrap();
    let pairs: Vec<(u32, GeneralizedTuple)> = (0u32..).zip(boxes_3d(150)).collect();
    let lookup: HashMap<u32, GeneralizedTuple> = pairs.iter().cloned().collect();
    let fetch = |_: &dyn PageReader, id: u32| lookup[&id].clone();
    let mut pager = MemPager::paper_1999();
    let covered = DualIndexD::build(&mut pager, bare, &pairs).unwrap();
    let covering = PlanCase::SimplexCovering(vec![0, 1, 2]);
    let (mut auto, mut simplex, mut cells) = ([0u64; 5], [0u64; 5], [0u64; 5]);
    for (i, slope) in [[0.0, 0.0], [0.3, -0.4], [-0.2, 0.1], [0.1, 0.5]]
        .into_iter()
        .enumerate()
    {
        for op in [RelOp::Ge, RelOp::Le] {
            let hp = HalfPlane::new(slope.to_vec(), 5.0 * i as f64 - 10.0, op);
            for sel in [Selection::exist(hp.clone()), Selection::all(hp.clone())] {
                let r = covered.run(&pager, &sel, &covering, Exact::Selection, &fetch);
                fold(&mut simplex, &r.unwrap());
                let cell = covered.route(&sel).unwrap();
                assert!(matches!(cell, PlanCase::Cell(_)), "{cell}");
                let r = covered.run(&pager, &sel, &cell, Exact::Selection, &fetch);
                fold(&mut cells, &r.unwrap());
                let r = db3.query_with("boxes", sel, Strategy::Auto).unwrap();
                if r.stats.method == Some(MethodKind::DualD) {
                    fold(&mut auto, &r);
                }
            }
        }
    }
    // Pages were 3320 before the key columns decided most of T1's
    // candidates unfetched; every other count stayed.
    assert_eq!(t1, [13154, 1206, 9548, 1231, 2400], "T1");
    assert_eq!(rplus, [6514, 615, 3499, 2949, 2400], "R⁺-tree");
    // Recorded at the parent of the change that routed every point set
    // to its cells, where `Auto` ran the covering: [529, 248, 102, 100, 179].
    assert_eq!(
        simplex,
        [3762, 1614, 948, 168, 1200],
        "bare simplex covering"
    );
    // The routed cell on the same selections: a third fewer candidates and
    // pages than the covering, no duplicates, more false hits.
    assert_eq!(cells, [2399, 0, 1199, 112, 1200], "bare simplex cells");
    assert_eq!(auto, [300, 0, 131, 90, 169], "Auto over a bare set's cells");

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
    let mut between = [0u64; 5];
    for (i, a) in [-2.0, -1.2, -0.9, -0.2, 0.2, 0.9, 1.2, 2.0]
        .into_iter()
        .enumerate()
    {
        for op in [RelOp::Ge, RelOp::Le] {
            let hp = HalfPlane::new2d(a, 9.0 * i as f64 - 30.0, op);
            for sel in [Selection::exist(hp.clone()), Selection::all(hp.clone())] {
                let case = index.route(MethodKind::T2, &sel).unwrap();
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
    let mut index = DualIndexD::build(&mut pager, SlopePoints::grid(3, 3, 1.0), &pairs).unwrap();
    churn!(index, pager, pairs, late);
    let lookup: HashMap<u32, GeneralizedTuple> = pairs.iter().cloned().collect();
    let fetch = |_: &dyn PageReader, id: u32| lookup[&id].clone();
    let mut cell = [0u64; 5];
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
                fold(
                    &mut cell,
                    &index
                        .run(&pager, &sel, &case, Exact::Selection, &fetch)
                        .unwrap(),
                );
            }
        }
    }
    assert_eq!(
        between,
        [16513, 0, 7985, 470, 8528],
        "2-D Between after churn"
    );
    assert_eq!(
        cell,
        [4120, 0, 1920, 176, 2200],
        "3-D grid cell after churn"
    );
}
