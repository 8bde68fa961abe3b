//! Randomized suites (seeded, in-repo PRNG) on the core invariants:
//!
//! * the two independent `TOP/BOT` evaluators (LP vs vertex/ray) agree;
//! * `ALL ⇒ EXIST`, complement laws of the selection predicates;
//! * tuple serialization round-trips;
//! * indexed queries equal the oracle on arbitrary generated relations;
//! * T2 emits no duplicate candidates;
//! * T2 at slopes past the ends of `S` equals the oracle through churn and
//!   reopen;
//! * concurrent batch execution equals sequential execution query-for-query.

use cdb_prng::StdRng;

use constraint_db::geometry::constraint::{LinearConstraint, RelOp};
use constraint_db::geometry::parse::parse_tuple;
use constraint_db::geometry::polygon::Polygon;
use constraint_db::geometry::predicates::oracle_select;
use constraint_db::geometry::predicates::{all, exist};
use constraint_db::geometry::tuple::GeneralizedTuple;
use constraint_db::geometry::{dual, HalfPlane};
use constraint_db::index::query::Strategy as QueryStrategy;
use constraint_db::prelude::{
    ConstraintDb, DatasetSpec, DbConfig, ObjectSize, Rect, Selection, SlopeSet, TupleGen,
};

/// A random linear constraint with well-scaled coefficients.
fn random_constraint(rng: &mut StdRng) -> LinearConstraint {
    loop {
        let a = rng.gen_range(-4.0..4.0);
        let b = rng.gen_range(-4.0..4.0);
        if a.abs() < 0.05 && b.abs() < 0.05 {
            continue; // degenerate: no x/y dependence
        }
        let c = rng.gen_range(-40.0..40.0);
        let op = if rng.gen_bool(0.5) {
            RelOp::Ge
        } else {
            RelOp::Le
        };
        return LinearConstraint::new2d(a, b, c, op);
    }
}

/// A random (possibly unbounded, possibly empty) 2-D tuple.
fn random_tuple(rng: &mut StdRng) -> GeneralizedTuple {
    let n = rng.gen_range(1..6usize);
    GeneralizedTuple::new((0..n).map(|_| random_constraint(rng)).collect())
}

#[test]
fn lp_and_vertex_surfaces_agree() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x9100 + seed);
        let t = random_tuple(&mut rng);
        let a = rng.gen_range(-3.0..3.0);
        let lp_top = dual::top(&t, &[a]);
        let lp_bot = dual::bot(&t, &[a]);
        match Polygon::from_tuple(&t) {
            None => {
                assert!(
                    lp_top.is_none(),
                    "seed {seed}: polygon empty but LP feasible for {t}"
                );
            }
            Some(p) => {
                let (vt, vb) = (p.top(a), p.bot(a));
                let lt = lp_top.expect("polygon non-empty");
                let lb = lp_bot.expect("polygon non-empty");
                let close = |x: f64, y: f64| {
                    (x.is_infinite() && x == y) || (x - y).abs() <= 1e-5 * (1.0 + x.abs().min(1e6))
                };
                assert!(
                    close(lt, vt),
                    "seed {seed} TOP: lp={lt} vertex={vt} for {t} at a={a}"
                );
                assert!(
                    close(lb, vb),
                    "seed {seed} BOT: lp={lb} vertex={vb} for {t} at a={a}"
                );
            }
        }
    }
}

#[test]
fn top_dominates_bot() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x9200 + seed);
        let t = random_tuple(&mut rng);
        let a = rng.gen_range(-3.0..3.0);
        if let (Some(top), Some(bot)) = (dual::top(&t, &[a]), dual::bot(&t, &[a])) {
            assert!(top >= bot - 1e-7, "seed {seed}: top={top} < bot={bot}");
        }
    }
}

#[test]
fn all_implies_exist() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x9300 + seed);
        let t = random_tuple(&mut rng);
        let a = rng.gen_range(-3.0..3.0);
        let b = rng.gen_range(-50.0..50.0);
        if !t.is_satisfiable() {
            continue;
        }
        for q in [HalfPlane::above(a, b), HalfPlane::below(a, b)] {
            if all(&q, &t) {
                assert!(
                    exist(&q, &t),
                    "seed {seed}: ALL without EXIST for {q} on {t}"
                );
            }
        }
    }
}

#[test]
fn complement_exhausts_plane() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x9400 + seed);
        let t = random_tuple(&mut rng);
        let a = rng.gen_range(-3.0..3.0);
        let b = rng.gen_range(-50.0..50.0);
        if !t.is_satisfiable() {
            continue;
        }
        let q = HalfPlane::above(a, b);
        // A satisfiable tuple intersects q or its complement (or both).
        assert!(exist(&q, &t) || exist(&q.complement(), &t), "seed {seed}");
        // With closed half-planes, ALL(q) and ALL(¬q) can hold together only
        // when the whole extension lies on the shared boundary line.
        if all(&q, &t) && all(&q.complement(), &t) {
            let top = dual::top(&t, &[a]).unwrap();
            let bot = dual::bot(&t, &[a]).unwrap();
            assert!(
                (top - b).abs() < 1e-6 && (bot - b).abs() < 1e-6,
                "seed {seed}: extension not on the boundary"
            );
        }
    }
}

#[test]
fn tuple_codec_roundtrip() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x9500 + seed);
        let t = random_tuple(&mut rng);
        let bytes = t.encode();
        let back = GeneralizedTuple::decode(&bytes).expect("round trip");
        assert_eq!(back, t, "seed {seed}");
    }
}

#[test]
fn polygon_points_satisfy_tuple() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x9600 + seed);
        let t = random_tuple(&mut rng);
        if let Some(p) = Polygon::from_tuple(&t) {
            for v in p.points() {
                // Generating points lie in (or numerically on) the extension.
                let mut ok = true;
                for c in t.constraints() {
                    let lhs = c.lhs(&[v[0], v[1]]);
                    let tol = 1e-6 * (1.0 + lhs.abs());
                    ok &= match c.op {
                        RelOp::Le => lhs <= tol,
                        RelOp::Ge => lhs >= -tol,
                    };
                }
                assert!(ok, "seed {seed}: point {v:?} violates {t}");
            }
        }
    }
}

/// Builds a mixed bounded/unbounded relation with an index on `k` slopes.
fn indexed_db(seed: u64, k: usize, unbounded: usize) -> (ConstraintDb, usize) {
    let mut g = TupleGen::new(seed, Rect::paper_window(), ObjectSize::Small);
    let mut tuples: Vec<GeneralizedTuple> = (0..60).map(|_| g.bounded_tuple()).collect();
    for _ in 0..unbounded {
        tuples.push(g.unbounded_tuple());
    }
    let n = tuples.len();
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("r", 2).unwrap();
    for t in &tuples {
        db.insert("r", t.clone()).unwrap();
    }
    db.build_dual_index("r", SlopeSet::uniform_tan(k)).unwrap();
    (db, n)
}

// Whole-index oracle equivalence is expensive: fewer cases.
#[test]
fn indexed_queries_match_oracle() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x9700 + case);
        let seed = rng.gen_range(0..1000u64);
        let k = rng.gen_range(2..5usize);
        let a = rng.gen_range(-2.5..2.5);
        let b = rng.gen_range(-60.0..60.0);
        let unbounded = rng.gen_range(0..3usize) * 10;
        let (db, _) = indexed_db(seed, k, unbounded);
        for sel in [
            Selection::exist(HalfPlane::above(a, b)),
            Selection::exist(HalfPlane::below(a, b)),
            Selection::all(HalfPlane::above(a, b)),
            Selection::all(HalfPlane::below(a, b)),
        ] {
            let want = db
                .query_with("r", sel.clone(), QueryStrategy::Scan)
                .unwrap();
            for strat in [QueryStrategy::T2, QueryStrategy::Auto] {
                let got = db.query_with("r", sel.clone(), strat).unwrap();
                assert_eq!(
                    got.ids(),
                    want.ids(),
                    "strategy {:?} kind {:?} a={} b={} seed={} k={}",
                    strat,
                    sel.kind,
                    a,
                    b,
                    seed,
                    k
                );
            }
        }
    }
}

#[test]
fn t2_produces_no_duplicate_candidates() {
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x9800 + case);
        let seed = rng.gen_range(0..500u64);
        let a = rng.gen_range(-2.0..2.0);
        let b = rng.gen_range(-50.0..50.0);
        let tuples = DatasetSpec::paper_1999(120, ObjectSize::Medium, seed).generate();
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("r", 2).unwrap();
        for t in &tuples {
            db.insert("r", t.clone()).unwrap();
        }
        db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
        for sel in [
            Selection::exist(HalfPlane::above(a, b)),
            Selection::all(HalfPlane::below(a, b)),
        ] {
            let got = db.query_with("r", sel, QueryStrategy::T2).unwrap();
            // Between slopes of S and through the vertical alike.
            assert_eq!(got.stats.duplicates, 0, "case {case} a={a} b={b}");
        }
    }
}

/// Every 2-D slope outside `S` runs T2 in the trees at an end of `S`,
/// over its piece of the strip through the vertical: the symmetric
/// `uniform_tan(4)` (split at the vertical), the lopsided `uniform_tan(3)`
/// (min S ≈ −10, split in t = 1/a) and {0.5, 2} (the wrap holds the
/// vertical and a = 0; split at a = −1), at slopes just past max S and
/// min S, at ±1e6, on both sides of each split and at a = 0. Tuples
/// include ones unbounded in x; 512-byte pages spread each tree over a
/// dozen leaves, so the guided sweeps rely on the handicaps of the strip
/// through the vertical. After the build, after 100 inserts and
/// deletes (handicaps folded, never re-tightened) and after reopen, every
/// answer is the oracle's, with no duplicate candidate.
#[test]
fn wrapped_slopes_match_oracle_through_churn_and_reopen() {
    let path = std::env::temp_dir().join(format!("cdb_pb_wrapped_{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let sets = [
        ("tan4", SlopeSet::uniform_tan(4)),
        ("tan3", SlopeSet::uniform_tan(3)),
        ("pos", SlopeSet::new(vec![0.5, 2.0])),
    ];
    let mut g = TupleGen::new(0x3A9, Rect::paper_window(), ObjectSize::Medium);
    let mut tuples: Vec<GeneralizedTuple> = (0..500).map(|_| g.bounded_tuple()).collect();
    tuples.extend((0..100).map(|_| g.unbounded_tuple()));
    for text in [
        "y >= 2 && y <= 9",
        "x >= 5 && y >= x",
        "x <= -20 && y <= 0",
        "x >= 1 && x <= 3 && y >= x - 40",
        "y >= 0.5x + 3",
    ] {
        tuples.push(parse_tuple(text).unwrap());
    }
    let mut db = ConstraintDb::create(&path, DbConfig { page_size: 512 }).unwrap();
    let mut live: Vec<Vec<(u32, GeneralizedTuple)>> = Vec::new();
    for (name, slopes) in &sets {
        db.create_relation(name, 2).unwrap();
        let ids = tuples.iter().map(|t| db.insert(name, t.clone()).unwrap());
        live.push(ids.zip(tuples.iter().cloned()).collect());
        db.build_dual_index(name, slopes.clone()).unwrap();
    }
    let check = |db: &ConstraintDb, live: &[Vec<(u32, GeneralizedTuple)>], when: &str| {
        for ((name, slopes), live) in sets.iter().zip(live) {
            let (lo, hi) = (slopes.get(0), slopes.get(slopes.len() - 1));
            let past = |s: f64, way: f64| s + way * 1e-6 * s.abs().max(1.0);
            let mut wrapped = vec![past(hi, 1.0), past(lo, -1.0), 1e6, -1e6, 3.0, -3.0, 25.0];
            if lo > 0.0 {
                wrapped.extend([0.0, -0.5, -1.0, -2.0]);
            }
            for a in wrapped {
                for b in [-30.0, 0.0, 17.0] {
                    for op in [RelOp::Ge, RelOp::Le] {
                        let hp = HalfPlane::new2d(a, b, op);
                        for sel in [Selection::exist(hp.clone()), Selection::all(hp.clone())] {
                            let what = format!("{when} {name}: {sel:?}");
                            let all = sel.kind == constraint_db::prelude::SelectionKind::All;
                            let hits = oracle_select(&hp, all, live.iter().map(|(_, t)| t));
                            let mut want: Vec<u32> = hits.into_iter().map(|i| live[i].0).collect();
                            want.sort_unstable();
                            for strategy in [QueryStrategy::T2, QueryStrategy::Auto] {
                                let got = db.query_with(name, sel.clone(), strategy).unwrap();
                                assert_eq!(got.ids(), want, "{what} {strategy:?}");
                                assert_eq!(got.stats.duplicates, 0, "{what} {strategy:?}");
                            }
                        }
                    }
                }
            }
        }
    };
    check(&db, &live, "built");
    let mut rng = StdRng::seed_from_u64(0x3AA);
    for ((name, _), live) in sets.iter().zip(live.iter_mut()) {
        for i in 0..100 {
            if i % 2 == 0 {
                let t = if i % 4 == 0 {
                    g.unbounded_tuple()
                } else {
                    g.bounded_tuple()
                };
                live.push((db.insert(name, t.clone()).unwrap(), t));
            } else {
                let (id, _) = live.swap_remove(rng.gen_range(0..live.len()));
                db.delete(name, id).unwrap();
            }
        }
    }
    check(&db, &live, "churned");
    db.close().unwrap();
    let db = ConstraintDb::open(&path).unwrap();
    check(&db, &live, "reopened");
    drop(db);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(constraint_db::storage::wal_path(&path));
}

/// The executor satellite: a randomized batch over every strategy —
/// including Restricted on member slopes — returns, at every thread count,
/// exactly what per-query sequential execution returns.
#[test]
fn query_executor_batch_matches_sequential() {
    for case in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x9900 + case);
        let seed = rng.gen_range(0..1000u64);
        let k = rng.gen_range(2..5usize);
        let unbounded = rng.gen_range(0..3usize) * 10;
        let (db, _) = indexed_db(seed, k, unbounded);
        let member_slopes: Vec<f64> = {
            let rel = db.relation("r").unwrap();
            rel.index().unwrap().slopes().unwrap().as_slice().to_vec()
        };
        let mut batch = Vec::new();
        for qi in 0..18 {
            let strat = match qi % 3 {
                0 => QueryStrategy::Auto,
                1 => QueryStrategy::T2,
                _ => QueryStrategy::Restricted,
            };
            let a = if strat == QueryStrategy::Restricted {
                member_slopes[rng.gen_range(0..member_slopes.len())]
            } else {
                rng.gen_range(-2.5..2.5)
            };
            let b = rng.gen_range(-60.0..60.0);
            let hp = if rng.gen_bool(0.5) {
                HalfPlane::above(a, b)
            } else {
                HalfPlane::below(a, b)
            };
            let sel = if rng.gen_bool(0.5) {
                Selection::exist(hp)
            } else {
                Selection::all(hp)
            };
            batch.push((sel, strat));
        }
        let sequential: Vec<(Vec<u32>, u64)> = batch
            .iter()
            .map(|(sel, strat)| {
                let r = db.query_with("r", sel.clone(), *strat).unwrap();
                (r.ids().to_vec(), r.stats.index_io.reads)
            })
            .collect();
        for threads in [1usize, 3, 8] {
            let got = db.query_batch("r", &batch, threads).unwrap();
            for (qi, (r, (want_ids, want_reads))) in got.iter().zip(&sequential).enumerate() {
                let r = r.as_ref().unwrap();
                assert_eq!(
                    r.ids(),
                    want_ids.as_slice(),
                    "case {case} query {qi} at {threads} threads"
                );
                assert_eq!(
                    r.stats.index_io.reads, *want_reads,
                    "case {case} query {qi}: per-query stats must be isolated"
                );
            }
        }
    }
}
