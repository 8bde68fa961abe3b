//! The cost-based planner must be a pure optimisation: whatever access
//! method it picks, the result set is exactly what the legacy
//! `Strategy::Auto` dispatch (bracket-based: member slope → restricted
//! search, otherwise T2) and the scan oracle produce, and replaying the
//! chosen method as a forced strategy reproduces the same ids and I/O
//! stats. `explain` must return a plan for every selection shape the
//! engine accepts — both selection kinds, both operators, member / between
//! / wrapped slopes, with and without an index, in `E²` and `E^d`.

use constraint_db::index::ddim::SlopePoints;
use constraint_db::index::plan::MethodKind;
use constraint_db::index::query::Strategy;
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

/// The pre-planner `Strategy::Auto` dispatch rule: exact restricted search
/// for member slopes, technique T2 for everything else (T2 itself falls
/// back to T1 on wrapped slopes).
fn legacy_auto(db: &ConstraintDb, slope: f64) -> Strategy {
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
            let legacy = db
                .query_with("r", sel.clone(), legacy_auto(&db, q.halfplane.slope2d()))
                .unwrap();
            assert_eq!(auto.ids(), scan.ids(), "seed {seed} query {i} vs oracle");
            assert_eq!(
                auto.ids(),
                legacy.ids(),
                "seed {seed} query {i} vs legacy dispatch"
            );
            // Replaying the planner's choice as a forced strategy must be
            // bit-identical in result and measured I/O: the planner changes
            // *which* method runs, never *how* it runs.
            let chosen = auto.stats.method.expect("planner stamps the method");
            let forced = chosen.strategy().expect("every 2-D method is forcible");
            let replay = db.query_with("r", sel, forced).unwrap();
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
/// × member / between / wrapped query slopes, indexed or not.
#[test]
fn explain_covers_every_selection_shape_2d() {
    let tuples = DatasetSpec::paper_1999(250, ObjectSize::Small, 31).generate();
    let slopes = SlopeSet::uniform_tan(4);
    let member = slopes.get(1);
    let between = (slopes.get(1) + slopes.get(2)) / 2.0;
    let wrapped = slopes.get(3) + 1.0; // beyond max S: wraps through vertical
    assert!(matches!(slopes.bracket(member), Bracket::Member(1)));
    assert!(matches!(slopes.bracket(between), Bracket::Between(1, 2)));
    assert!(matches!(slopes.bracket(wrapped), Bracket::Wrapped(3, 0)));

    for indexed in [true, false] {
        let db = build_db(&tuples, if indexed { Some(4) } else { None });
        for slope in [member, between, wrapped] {
            for hp in [HalfPlane::above(slope, 2.0), HalfPlane::below(slope, 2.0)] {
                for sel in [Selection::exist(hp.clone()), Selection::all(hp.clone())] {
                    let report = db
                        .explain("r", sel.clone())
                        .unwrap_or_else(|e| panic!("explain {sel:?} (indexed={indexed}): {e}"));
                    assert!(
                        report.plan.estimate.total() > 0.0,
                        "non-trivial estimate for {sel:?}"
                    );
                    let text = report.to_string();
                    assert!(text.contains("method="), "rendered plan: {text}");
                    assert!(text.contains("actual:"), "rendered actuals: {text}");
                    // The plan-only entry point agrees on the method.
                    let plan = db.plan_query("r", &sel).unwrap();
                    assert_eq!(plan.method, report.plan.method);
                }
            }
        }
    }
}

/// And in `E^d` (d = 3): member (grid-point), interior and out-of-hull
/// slopes all get a plan — the latter falling back to the scan method.
#[test]
fn explain_covers_d_dimensional_selections() {
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("boxes", 3).unwrap();
    let mut rng = cdb_prng::StdRng::seed_from_u64(0xD3D);
    for _ in 0..150 {
        let mut cs = Vec::new();
        for axis in 0..3usize {
            let lo: f64 = rng.gen_range(-50.0..45.0);
            let hi = lo + rng.gen_range(1.0..6.0);
            let mut a = vec![0.0; 3];
            a[axis] = 1.0;
            cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
            cs.push(LinearConstraint::new(a, -hi, RelOp::Le));
        }
        db.insert("boxes", GeneralizedTuple::new(cs)).unwrap();
    }
    db.build_dual_index_d("boxes", SlopePoints::grid(3, 3, 1.0))
        .unwrap();

    // Grid axes are [-1, 0, 1]²: a grid point, an interior point, and a
    // slope outside the hull (only the scan can serve it).
    let shapes: [(&str, Vec<f64>); 3] = [
        ("member", vec![0.0, 0.0]),
        ("interior", vec![0.3, -0.4]),
        ("outside hull", vec![2.5, 2.5]),
    ];
    for (label, slope) in shapes {
        for op in [RelOp::Ge, RelOp::Le] {
            let hp = HalfPlane::new(slope.clone(), 10.0, op);
            for sel in [Selection::exist(hp.clone()), Selection::all(hp.clone())] {
                let report = db
                    .explain("boxes", sel.clone())
                    .unwrap_or_else(|e| panic!("explain {label} {sel:?}: {e}"));
                let scan = db.query_with("boxes", sel, Strategy::Scan).unwrap();
                assert_eq!(report.result.ids(), scan.ids(), "{label} vs scan oracle");
                if label == "outside hull" {
                    assert_eq!(report.plan.method, MethodKind::SeqScan, "{label}");
                }
            }
        }
    }
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
    let mut rng = cdb_prng::StdRng::seed_from_u64(0xD3D);
    for _ in 0..150 {
        let mut cs = Vec::new();
        for axis in 0..3usize {
            let lo: f64 = rng.gen_range(-50.0..45.0);
            let hi = lo + rng.gen_range(1.0..6.0);
            let mut a = vec![0.0; 3];
            a[axis] = 1.0;
            cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
            cs.push(LinearConstraint::new(a, -hi, RelOp::Le));
        }
        db3.insert("boxes", GeneralizedTuple::new(cs)).unwrap();
    }
    // A bare simplex, not a grid: every interior slope takes the covering.
    let simplex = vec![vec![-1.0, -1.0], vec![1.0, -1.0], vec![0.0, 1.0]];
    db3.build_dual_index_d("boxes", SlopePoints::new(3, simplex))
        .unwrap();
    let mut ddim = [0u64; 5];
    for (i, slope) in [[0.0, 0.0], [0.3, -0.4], [-0.2, 0.1], [0.1, 0.5]]
        .into_iter()
        .enumerate()
    {
        for op in [RelOp::Ge, RelOp::Le] {
            let hp = HalfPlane::new(slope.to_vec(), 5.0 * i as f64 - 10.0, op);
            for sel in [Selection::exist(hp.clone()), Selection::all(hp.clone())] {
                let r = db3.query_with("boxes", sel, Strategy::Auto).unwrap();
                if r.stats.method == Some(MethodKind::DualD) {
                    fold(&mut ddim, &r);
                }
            }
        }
    }
    assert_eq!(t1, [13154, 1206, 9548, 3320, 2400], "T1");
    assert_eq!(rplus, [6514, 615, 3499, 2949, 2400], "R⁺-tree");
    assert_eq!(ddim, [529, 248, 102, 100, 179], "simplex covering");
}
