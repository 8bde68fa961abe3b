//! Direct checks of the paper's propositions, tables and counterexamples.

use constraint_db::geometry::constraint::RelOp;
use constraint_db::geometry::predicates::{all, exist};
use constraint_db::geometry::{dual, HalfPlane};
use constraint_db::prelude::*;

/// Proposition 2.1: `TOP_P(s) ≥ BOT_P(s)` for every satisfiable tuple and
/// slope.
#[test]
fn proposition_2_1_top_dominates_bot() {
    let mut g = TupleGen::new(5, Rect::paper_window(), ObjectSize::Medium);
    for i in 0..40 {
        let t = if i % 3 == 0 {
            g.unbounded_tuple()
        } else {
            g.bounded_tuple()
        };
        for a in [-4.0, -1.0, -0.2, 0.0, 0.5, 1.3, 6.0] {
            let top = dual::top(&t, &[a]).unwrap();
            let bot = dual::bot(&t, &[a]).unwrap();
            assert!(top >= bot - 1e-7, "TOP {top} < BOT {bot} at a={a} for {t}");
        }
    }
}

/// Proposition 2.2: the four threshold rules decide ALL/EXIST exactly.
#[test]
fn proposition_2_2_threshold_rules() {
    let mut g = TupleGen::new(9, Rect::paper_window(), ObjectSize::Small);
    for _ in 0..25 {
        let t = g.bounded_tuple();
        for a in [-1.5, 0.0, 0.8] {
            let top = dual::top(&t, &[a]).unwrap();
            let bot = dual::bot(&t, &[a]).unwrap();
            for b in [bot - 1.0, bot, (bot + top) / 2.0, top, top + 1.0] {
                assert_eq!(
                    all(&HalfPlane::above(a, b), &t),
                    b <= bot + 1e-9 * (1.0 + bot.abs()),
                    "ALL(>=) at b={b} bot={bot}"
                );
                assert_eq!(
                    exist(&HalfPlane::above(a, b), &t),
                    b <= top + 1e-9 * (1.0 + top.abs()),
                    "EXIST(>=) at b={b} top={top}"
                );
                assert_eq!(
                    all(&HalfPlane::below(a, b), &t),
                    b >= top - 1e-9 * (1.0 + top.abs()),
                    "ALL(<=) at b={b} top={top}"
                );
                assert_eq!(
                    exist(&HalfPlane::below(a, b), &t),
                    b >= bot - 1e-9 * (1.0 + bot.abs()),
                    "EXIST(<=) at b={b} bot={bot}"
                );
            }
        }
    }
}

/// Table 1: the union of the two app-query half-planes covers the original
/// half-plane, for all three slope-neighbourhood cases. Verified by dense
/// point sampling.
#[test]
fn table_1_app_queries_cover_the_original() {
    // Slope set {-1, 0.5}; query slopes realizing each row of Table 1.
    // a1 is the clockwise rotation neighbour, a2 the anticlockwise one;
    // beyond the extremes of S the rotation wraps through the vertical.
    #[derive(Clone, Copy)]
    enum Row {
        Between,  // a1 < a < a2:       θ1 = θ,  θ2 = θ
        AboveAll, // a1 < a, a2 < a:    θ1 = θ,  θ2 = ¬θ
        BelowAll, // a < a1, a < a2:    θ1 = ¬θ, θ2 = θ
    }
    let cases = [
        (0.0, -1.0, 0.5, Row::Between),
        (3.0, 0.5, -1.0, Row::AboveAll),
        (-4.0, 0.5, -1.0, Row::BelowAll),
    ];
    for (a, a1, a2, row) in cases {
        for theta in [RelOp::Ge, RelOp::Le] {
            let (o1, o2) = match row {
                Row::Between => (theta, theta),
                Row::AboveAll => (theta, theta.negated()),
                Row::BelowAll => (theta.negated(), theta),
            };
            let b = 2.0;
            let q = HalfPlane::new2d(a, b, theta);
            // App-query lines through P = (0, b).
            let q1 = HalfPlane::new2d(a1, b, o1);
            let q2 = HalfPlane::new2d(a2, b, o2);
            // Dense sampling of the plane.
            for xi in -30..=30 {
                for yi in -30..=30 {
                    let p = [xi as f64 * 3.4, yi as f64 * 3.4];
                    if q.contains(&p) {
                        assert!(
                            q1.contains(&p) || q2.contains(&p),
                            "point {p:?} in {q} escapes {q1} ∪ {q2}"
                        );
                    }
                }
            }
        }
    }
}

/// Figure 4: approximating ALL with *two ALL* app-queries is incorrect —
/// there are tuples contained in the original half-plane but in neither
/// app-half-plane. (The implementation therefore uses ALL + EXIST.)
#[test]
fn figure_4_two_all_app_queries_would_be_wrong() {
    // Query: y >= 0 (slope 0); app slopes -1 and 1, lines through origin.
    let q = HalfPlane::above(0.0, 0.0);
    let q1 = HalfPlane::above(-1.0, 0.0);
    let q2 = HalfPlane::above(1.0, 0.0);
    // A wide flat box just above the x axis: inside q, but pokes outside
    // both tilted half-planes.
    let t = parse_tuple("y >= 1 && y <= 2 && x >= -10 && x <= 10").unwrap();
    assert!(all(&q, &t), "tuple is contained in the original query");
    assert!(!all(&q1, &t), "but not in app-query 1");
    assert!(!all(&q2, &t), "nor in app-query 2");
    // The EXIST app-query does catch it.
    assert!(exist(&q2, &t));
}

/// Theorem 3.1 / Figure 10 shape: index space is linear in `k` and in `n`.
#[test]
fn space_is_linear_in_k_and_n() {
    let build = |n: usize, k: usize| -> u64 {
        let tuples = DatasetSpec::paper_1999(n, ObjectSize::Small, 99).generate();
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("r", 2).unwrap();
        for t in tuples {
            db.insert("r", t).unwrap();
        }
        db.build_dual_index("r", SlopeSet::uniform_tan(k)).unwrap();
        db.relation("r").unwrap().index().unwrap().page_count()
    };
    let p_n400_k2 = build(400, 2);
    let p_n400_k4 = build(400, 4);
    let p_n800_k2 = build(800, 2);
    let rk = p_n400_k4 as f64 / p_n400_k2 as f64;
    assert!((1.7..=2.4).contains(&rk), "k-doubling ratio {rk}");
    let rn = p_n800_k2 as f64 / p_n400_k2 as f64;
    assert!((1.6..=2.5).contains(&rn), "n-doubling ratio {rn}");
}

/// The restricted search answers member-slope queries with logarithmic
/// descent plus output-proportional sweeps (Theorem 3.1's access pattern):
/// doubling the relation size must not double the page cost of a
/// fixed-output query.
#[test]
fn restricted_cost_scales_with_output_not_input() {
    use constraint_db::index::query::Strategy;
    let run = |n: usize| -> (u64, usize) {
        let tuples = DatasetSpec::paper_1999(n, ObjectSize::Small, 123).generate();
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("r", 2).unwrap();
        for t in tuples {
            db.insert("r", t).unwrap();
        }
        db.build_dual_index("r", SlopeSet::uniform_tan(2)).unwrap();
        let s = {
            let rel = db.relation("r").unwrap();
            rel.index().unwrap().slopes().unwrap().get(0)
        };
        // A near-constant-output query: top 20 tuples by TOP value.
        let pairs = db.scan_relation("r").unwrap();
        let mut tops: Vec<f64> = pairs
            .iter()
            .map(|(_, t)| dual::top(t, &[s]).unwrap())
            .collect();
        tops.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let b = tops[19];
        let report = db
            .explain_with("r", Selection::exist(HalfPlane::above(s, b)), Strategy::T2)
            .unwrap();
        assert!(matches!(report.plan.case, PlanCase::Member { i: 0, .. }));
        let r = report.result;
        (r.stats.index_io.accesses(), r.len())
    };
    let (cost_1k, len_1k) = run(1000);
    let (cost_4k, len_4k) = run(4000);
    assert!((18..=25).contains(&len_1k), "output ~20, got {len_1k}");
    assert!((18..=25).contains(&len_4k));
    assert!(
        cost_4k <= cost_1k + 3,
        "fixed-output cost must stay ~log: {cost_1k} -> {cost_4k}"
    );
}

/// Unbounded tuples store `±∞` keys and are retrieved exactly (the paper's
/// finite/infinite uniformity claim; Figure 1's object-window pitfall).
#[test]
fn infinite_objects_are_first_class() {
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("r", 2).unwrap();
    // The Figure 1 configuration: the query and the unbounded tuple meet
    // only far outside any reasonable working window.
    let t2 = parse_tuple("y >= x - 1000 && y <= x - 990 && x >= 400").unwrap();
    let id = db.insert("r", t2).unwrap();
    {
        let f = "y >= 0 && y <= 1 && x >= 0 && x <= 1";
        db.insert("r", parse_tuple(f).unwrap()).unwrap();
    }
    db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
    // q: y <= 0.5x - 600 — intersects the wedge only at huge x.
    let q = HalfPlane::below(0.5, -600.0);
    let r = db.exist("r", q).unwrap();
    assert_eq!(
        r.ids(),
        &[id],
        "the intersection outside any window is found"
    );
}
