//! Differential tests of the 2-D `TOP_P`/`BOT_P` kernel: on every input it
//! must agree with the simplex (`dual::top_lp`/`bot_lp`) and with the
//! explicit V-representation (`Polygon::top`/`bot`) — equal `±∞`, finite
//! values within 1e-9 relative — whether it reads an owned tuple or a
//! borrowed view of the encoded bytes; and whatever it leaves undecided
//! must come out of `dual::top`/`bot` as the simplex's answer.

use cdb_geometry::constraint::{LinearConstraint, RelOp};
use cdb_geometry::dual::{self, DualSurfaces, Surface};
use cdb_geometry::parse::parse_tuple;
use cdb_geometry::predicates;
use cdb_geometry::{kernel2d, GeneralizedTuple, HalfPlane, Polygon, Rect, TupleView};
use cdb_prng::StdRng;
use cdb_workload::{ObjectSize, TupleGen};

/// The paper's slope sets `S` for `k = 2..=5` (`SlopeSet::uniform_tan`).
fn slopes_in_s() -> Vec<f64> {
    let mut out = Vec::new();
    for k in 2..=5usize {
        for i in 0..k {
            let phi = std::f64::consts::PI * (i as f64 + 0.5) / k as f64;
            let phi = if (phi - std::f64::consts::FRAC_PI_2).abs() < 0.05 {
                phi + 0.1
            } else {
                phi
            };
            out.push(phi.tan());
        }
    }
    out
}

fn same(a: f64, b: f64) -> bool {
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= 1e-9 * 1.0_f64.max(a.abs()).max(b.abs())
}

fn rows_of(t: &GeneralizedTuple) -> Vec<[f64; 3]> {
    t.constraints()
        .iter()
        .map(|c| kernel2d::le_row(c.op, c.coeffs[0], c.coeffs[1], c.constant))
        .collect()
}

/// Checks one tuple at one slope on both surfaces and both readers.
/// Returns whether the kernel decided it.
fn check(t: &GeneralizedTuple, a: f64) -> bool {
    let bytes = t.encode();
    let view = TupleView::new(&bytes).expect("encode output validates");
    let polygon = Polygon::from_tuple(t);
    let decided = kernel2d::bot_top(rows_of(t), a);
    for which in [Surface::Top, Surface::Bot] {
        let lp = match which {
            Surface::Top => dual::top_lp(t, &[a]),
            Surface::Bot => dual::bot_lp(t, &[a]),
        };
        let routed = dual::surface(t, which, &[a]);
        let encoded = view.surface(which, &[a]);
        assert_eq!(routed, encoded, "{which:?} a={a}: owned vs encoded, {t}");
        match (lp, routed) {
            (None, None) => assert!(decided.is_none(), "kernel decided an empty set: {t}"),
            (Some(lp), Some(got)) => {
                assert!(same(lp, got), "{which:?} a={a}: lp {lp} vs {got} for {t}")
            }
            other => panic!("{which:?} a={a}: emptiness differs {other:?} for {t}"),
        }
        if let (Some(p), Some(got)) = (&polygon, routed) {
            let v = match which {
                Surface::Top => p.top(a),
                Surface::Bot => p.bot(a),
            };
            assert!(
                same(v, got),
                "{which:?} a={a}: polygon {v} vs {got} for {t}"
            );
        }
        if let Some((bot, top)) = decided {
            // A decided kernel answer is what the router returns, bit for bit.
            let k = if which == Surface::Top { top } else { bot };
            assert_eq!(
                routed,
                Some(k),
                "{which:?} a={a}: router bypassed the kernel"
            );
        } else {
            // Undecided: the router's answer is the simplex's, bit for bit.
            assert_eq!(routed, lp, "{which:?} a={a}: undecided must fall back, {t}");
        }
    }
    decided.is_some()
}

#[test]
fn kernel_matches_lp_and_polygon_on_generator_tuples() {
    let mut slopes = slopes_in_s();
    slopes.extend([-20.0, -7.5, -1.0, 0.0, 1.0, 7.5, 20.0]);
    let mut decided = 0usize;
    let mut total = 0usize;
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ seed);
        let mut tuples = Vec::new();
        for size in [ObjectSize::Small, ObjectSize::Medium] {
            let mut g = TupleGen::new(seed * 31 + 7, Rect::paper_window(), size);
            tuples.extend((0..120).map(|_| g.bounded_tuple()));
            tuples.extend((0..80).map(|_| g.unbounded_tuple()));
        }
        let mut g = TupleGen::new(seed, Rect::paper_window(), ObjectSize::Small);
        for t in &tuples {
            for &a in &slopes {
                total += 1;
                decided += usize::from(check(t, a));
            }
            for _ in 0..8 {
                total += 1;
                decided += usize::from(check(t, g.slope()));
                let a: f64 = rng.gen_range(-20.0..20.0);
                total += 1;
                decided += usize::from(check(t, a));
            }
        }
    }
    // Every bounded tuple and every wedge has a vertex: the kernel must be
    // carrying the load, not silently deferring to the simplex.
    assert!(
        decided * 10 >= total * 7,
        "kernel decided only {decided} of {total}"
    );
}

#[test]
fn kernel_matches_lp_on_hand_written_degenerate_cases() {
    let c = LinearConstraint::new2d;
    let cases: Vec<(&str, GeneralizedTuple, bool)> = vec![
        ("point", parse_tuple("x = 2 && y = 5").unwrap(), true),
        (
            "segment",
            parse_tuple("y = 0.5x + 2 && x >= 0 && x <= 10").unwrap(),
            true,
        ),
        ("strip", parse_tuple("y >= x && y <= x + 1").unwrap(), false),
        (
            "half-strip",
            parse_tuple("y >= x && y <= x + 1 && x >= 10").unwrap(),
            true,
        ),
        ("half-plane", parse_tuple("y >= 2x - 1").unwrap(), false),
        ("line", parse_tuple("y = x + 3").unwrap(), false),
        ("whole space", GeneralizedTuple::whole_space(2), false),
        (
            "contradictory pair",
            GeneralizedTuple::new(vec![
                c(1.0, 0.0, 0.0, RelOp::Ge),
                c(1.0, 0.0, 1.0, RelOp::Le),
            ]),
            false,
        ),
        (
            "contradictory pair in a box",
            parse_tuple("x >= 0 && x <= -1 && y >= 0 && y <= 1").unwrap(),
            false,
        ),
        (
            "redundant constraints",
            parse_tuple("x >= 0 && x <= 4 && y >= 0 && y <= 4 && x + y <= 100 && y <= 50").unwrap(),
            true,
        ),
        (
            "duplicated constraints",
            parse_tuple("x >= 1 && x >= 1 && x <= 3 && y >= 1 && y <= 4 && y <= 4 && x <= 3")
                .unwrap(),
            true,
        ),
        (
            "scaled duplicates",
            GeneralizedTuple::new(vec![
                c(1.0, 0.0, -1.0, RelOp::Ge),
                c(3.0, 0.0, -3.0, RelOp::Ge),
                c(-0.1, 0.0, 0.3, RelOp::Ge),
                c(0.0, 1.0, -1.0, RelOp::Ge),
                c(0.0, 7.0, -28.0, RelOp::Le),
            ]),
            true,
        ),
        ("wedge", parse_tuple("y >= x && x >= 5").unwrap(), true),
        ("quadrant", parse_tuple("x <= 2 && y >= 3").unwrap(), true),
        (
            "true trivial row",
            GeneralizedTuple::new(vec![
                c(0.0, 0.0, -1.0, RelOp::Le),
                c(1.0, 0.0, 0.0, RelOp::Ge),
                c(0.0, 1.0, 0.0, RelOp::Ge),
                c(1.0, 1.0, -4.0, RelOp::Le),
            ]),
            true,
        ),
        (
            "false trivial row",
            GeneralizedTuple::new(vec![
                c(0.0, 0.0, 1.0, RelOp::Le),
                c(1.0, 0.0, 0.0, RelOp::Ge),
                c(0.0, 1.0, 0.0, RelOp::Ge),
                c(1.0, 1.0, -4.0, RelOp::Le),
            ]),
            false,
        ),
    ];
    let mut slopes = slopes_in_s();
    slopes.extend([
        -20.0,
        -3.0,
        -1.0,
        -0.5,
        0.0,
        0.5,
        1.0,
        1.0 + 1e-12,
        2.0,
        3.0,
        20.0,
    ]);
    for (name, t, expect_decided) in &cases {
        for &a in &slopes {
            assert_eq!(check(t, a), *expect_decided, "{name} at a={a}");
        }
    }
}

#[test]
fn kernel_defers_beyond_its_capacity() {
    // A regular 20-gon: more rows than the kernel holds, so the simplex
    // answers — and says the same as the V-representation.
    let n = kernel2d::CAPACITY + 4;
    let verts: Vec<[f64; 2]> = (0..n)
        .map(|i| {
            let th = std::f64::consts::TAU * (i as f64 + 0.25) / n as f64;
            [3.0 + 10.0 * th.cos(), -2.0 + 10.0 * th.sin()]
        })
        .collect();
    let t = Polygon::bounded(verts).to_tuple();
    assert!(t.len() > kernel2d::CAPACITY);
    for a in [-2.0, 0.0, 0.37, 5.0] {
        assert!(!check(&t, a), "over-capacity tuple decided by the kernel");
    }
}

#[test]
fn predicates_agree_across_owned_encoded_and_lp() {
    let mut g = TupleGen::new(77, Rect::paper_window(), ObjectSize::Small);
    let mut tuples: Vec<GeneralizedTuple> = (0..150).map(|_| g.bounded_tuple()).collect();
    tuples.extend((0..60).map(|_| g.unbounded_tuple()));
    for (n, t) in tuples.iter().enumerate() {
        let bytes = t.encode();
        let view = TupleView::new(&bytes).unwrap();
        let lp = dual::Lp(t);
        let a = g.slope();
        let b = -40.0 + (n % 17) as f64 * 5.0;
        for q in [HalfPlane::above(a, b), HalfPlane::below(a, b)] {
            let want = (predicates::all(&q, &lp), predicates::exist(&q, &lp));
            assert_eq!((predicates::all(&q, t), predicates::exist(&q, t)), want);
            assert_eq!(
                (predicates::all(&q, &view), predicates::exist(&q, &view)),
                want
            );
        }
        let want = (
            predicates::exist_hyperplane(&[a], b, &lp),
            predicates::all_hyperplane(&[a], b, &lp),
        );
        let got = (
            predicates::exist_hyperplane(&[a], b, &view),
            predicates::all_hyperplane(&[a], b, &view),
        );
        assert_eq!(got, want, "line y = {a}x + {b} vs {t}");
    }
}

#[test]
fn encoded_view_equals_decode() {
    // Round trips, 2-D and 3-D.
    let mut g = TupleGen::new(5, Rect::paper_window(), ObjectSize::Medium);
    let mut tuples: Vec<GeneralizedTuple> = (0..40).map(|_| g.bounded_tuple()).collect();
    tuples.extend((0..20).map(|_| g.unbounded_tuple()));
    tuples.push(GeneralizedTuple::whole_space(3));
    tuples.push(parse_tuple("z >= x + y && z <= 10 && x >= 0 && y >= 0").unwrap());
    for t in &tuples {
        let bytes = t.encode();
        let view = TupleView::new(&bytes).expect("round trip validates");
        assert_eq!(view.dim(), t.dim());
        assert_eq!(view.len(), t.len());
        assert_eq!(&view.to_tuple(), t);
        assert_eq!(GeneralizedTuple::decode(&bytes).as_ref(), Some(t));
    }
    // A 3-D view evaluates through the simplex like the owned tuple.
    let cube = parse_tuple("x >= 0 && x <= 1 && y >= 0 && y <= 1 && z >= 0 && z <= 1").unwrap();
    let bytes = cube.encode();
    let view = TupleView::new(&bytes).unwrap();
    assert_eq!(view.top(&[1.0, 1.0]), dual::top(&cube, &[1.0, 1.0]));
    assert_eq!(view.bot(&[1.0, 1.0]), dual::bot_lp(&cube, &[1.0, 1.0]));

    // Malformed inputs: the view rejects exactly what `decode` rejects.
    let good = parse_tuple("x >= 0 && x <= 1 && y >= 0 && y <= 1")
        .unwrap()
        .encode();
    let mut malformed: Vec<Vec<u8>> = vec![
        vec![],
        vec![1, 0, 1, 0, 7],
        good[..good.len() - 1].to_vec(),  // truncated
        [good.as_slice(), &[0]].concat(), // trailing byte
        vec![0, 0, 1, 0],                 // dim 0
        vec![2, 0, 0, 0],                 // no constraints
    ];
    let mut bad_op = good.clone();
    bad_op[4] = 9;
    malformed.push(bad_op);
    for (field, poison) in [(5, f64::NAN), (13, f64::INFINITY), (21, f64::NEG_INFINITY)] {
        let mut bad = good.clone();
        bad[field..field + 8].copy_from_slice(&poison.to_le_bytes());
        malformed.push(bad);
    }
    // Non-finite in the *last* constraint, too.
    let mut bad = good.clone();
    let at = good.len() - 8;
    bad[at..].copy_from_slice(&f64::NAN.to_le_bytes());
    malformed.push(bad);
    for bytes in &malformed {
        assert!(GeneralizedTuple::decode(bytes).is_none(), "{bytes:?}");
        assert!(TupleView::new(bytes).is_none(), "{bytes:?}");
    }
}

/// The one-slope kernel as it stood before the per-tuple evaluator: every
/// vertex enumerated afresh for each slope. The evaluator must reproduce
/// it bit for bit, in the plain frame on the rows and in the swapped frame
/// on the rows with `x` and `y` exchanged.
fn one_slope_kernel(rows: &[[f64; 3]], slope: f64) -> Option<(f64, f64)> {
    const EPS: f64 = cdb_geometry::scalar::EPS;
    let mut loaded = Vec::new();
    for &[ax, ay, rhs] in rows {
        let norm = ax.abs() + ay.abs();
        if norm <= EPS {
            if norm == 0.0 && rhs >= 0.0 {
                continue;
            }
            return None;
        }
        if loaded.len() == kernel2d::CAPACITY {
            return None;
        }
        loaded.push([ax, ay, rhs, norm]);
    }
    let rows = &loaded;
    let (mut bot, mut top) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, p) in rows.iter().enumerate() {
        for (j, q) in rows.iter().enumerate().skip(i + 1) {
            let det = p[0] * q[1] - q[0] * p[1];
            if det.abs() <= EPS * p[3] * q[3] {
                continue;
            }
            let xd = p[2] * q[1] - q[2] * p[1];
            let yd = p[0] * q[2] - q[0] * p[2];
            let (sign, scale) = (det.signum(), det.abs());
            let feasible = rows.iter().enumerate().all(|(k, r)| {
                let (tx, ty, bound) = (r[0] * xd, r[1] * yd, r[2] * scale);
                k == i
                    || k == j
                    || sign * (tx + ty) <= bound + EPS * (scale + tx.abs() + ty.abs() + bound.abs())
            });
            if feasible {
                let v = (yd - slope * xd) / det;
                bot = bot.min(v);
                top = top.max(v);
            }
        }
    }
    if top < bot {
        return None;
    }
    let slope_norm = slope.abs() + 1.0;
    for p in rows {
        let (dx, dy) = (-p[1], p[0]);
        let (mut forward, mut backward) = (true, true);
        for r in rows {
            let along = r[0] * dx + r[1] * dy;
            let tol = EPS * r[3] * p[3];
            forward &= along <= tol;
            backward &= along >= -tol;
        }
        let gain = dy - slope * dx;
        let tol = EPS * slope_norm * p[3];
        let (rises, falls) = (gain > tol, gain < -tol);
        if (forward && rises) || (backward && falls) {
            top = f64::INFINITY;
        }
        if (forward && falls) || (backward && rises) {
            bot = f64::NEG_INFINITY;
        }
    }
    Some((bot, top))
}

/// The key columns' samples for `uniform_tan(k)`: the slopes of `S` and the
/// midpoints between neighbours (plain frame), and the split of the strip
/// wrapping through the vertical, `t = 1/a` (swapped frame).
fn samples_of_c(k: usize) -> (Vec<f64>, f64) {
    let mut s: Vec<f64> = slopes_in_s()[(2..k).sum::<usize>()..][..k].to_vec();
    s.sort_by(f64::total_cmp);
    let (lo, hi) = (s[0], s[k - 1]);
    let split = if (lo + hi).abs() <= 1e-9 * hi.max(-lo) {
        0.0
    } else {
        (1.0 / lo + 1.0 / hi) / 2.0
    };
    let mids: Vec<f64> = s.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
    (s.into_iter().chain(mids).collect(), split)
}

/// The per-tuple evaluator is the one-slope kernel, bit for bit, in both
/// frames — over small, medium and unbounded tuples, at every sample of C
/// for `uniform_tan(k)`, `k = 2…6` (k = 6 only through the slopes written
/// out below), at slopes of a set on one side of `a = 0`, and at random
/// slopes — and every attaining vertex it names is one (checked where
/// `|a| ≤ 100`): it lies in the
/// tuple, on the line `y − s·x = key`, so its dual line bounds the surface
/// at every other slope (a lower bound of TOP, an upper bound of BOT).
#[test]
fn surfaces_evaluator_is_the_one_slope_kernel_with_its_vertices() {
    let mut tuples = Vec::new();
    for size in [ObjectSize::Small, ObjectSize::Medium] {
        let mut g = TupleGen::new(0x5EED + size as u64, Rect::paper_window(), size);
        tuples.extend((0..60).map(|_| g.bounded_tuple()));
        tuples.extend((0..40).map(|_| g.unbounded_tuple()));
    }
    tuples.push(parse_tuple("x = 2 && y = 5").unwrap());
    tuples.push(parse_tuple("y = 0.5x + 2 && x >= 0 && x <= 10").unwrap());
    tuples.push(parse_tuple("x >= 1 && x <= 3 && y >= 1 && y <= 4").unwrap());
    let mut plain = vec![0.0, 0.5, 2.0, 1.25, -1.0]; // S = {0.5, 2}: C adds 1.25 and ∓1
    let mut swapped = vec![0.0, -1.0, 1.0];
    for k in 2..=5 {
        let (s, split) = samples_of_c(k);
        plain.extend(s);
        swapped.push(split);
    }
    // k = 6 is symmetric: its split is the vertical.
    let six: Vec<f64> = (0..6)
        .map(|i| (std::f64::consts::PI * (i as f64 + 0.5) / 6.0).tan())
        .collect();
    plain.extend(&six);
    let mut rng = StdRng::seed_from_u64(0xE7A1);
    plain.extend((0..12).map(|_| rng.gen_range(-30.0..30.0)));
    swapped.extend(plain.iter().filter(|a| **a != 0.0).map(|a| 1.0 / a));
    swapped.extend((0..12).map(|_| rng.gen_range(-3.0..3.0)));
    let (mut evaluated, mut vertices) = (0, 0);
    for t in &tuples {
        let rows = rows_of(t);
        let exchanged: Vec<[f64; 3]> = rows.iter().map(|&[a, b, r]| [b, a, r]).collect();
        let surfaces = kernel2d::Surfaces::new(rows.iter().copied());
        let bits = |v: Option<(f64, f64)>| v.map(|(b, t)| (b.to_bits(), t.to_bits()));
        for (frame, slopes, reference) in [(false, &plain, &rows), (true, &swapped, &exchanged)] {
            for &a in slopes.iter() {
                let got = surfaces
                    .as_ref()
                    .and_then(|s| if frame { s.swapped_at(a) } else { s.at(a) });
                let want = one_slope_kernel(reference, a);
                let values = got.map(|(b, t)| (b.value, t.value));
                assert_eq!(bits(values), bits(want), "{t} at {a}, swapped = {frame}");
                if frame {
                    let routed = dual::swapped_bot_top(t, a);
                    assert_eq!(bits(values.or(routed)), bits(routed), "{t}: {a}");
                } else {
                    assert_eq!(bits(kernel2d::bot_top(rows.iter().copied(), a)), bits(want));
                }
                evaluated += 1;
                // (Past |a| = 100 the vertex is not recovered to the test's
                // tolerance from its value and one coordinate.)
                let Some((bot, top)) = got.filter(|_| a.abs() <= 100.0) else {
                    continue;
                };
                for (e, upper) in [(top, true), (bot, false)] {
                    if !e.value.is_finite() {
                        assert!(e.at.is_nan(), "{t}: an unbounded surface names no vertex");
                        continue;
                    }
                    vertices += 1;
                    // The vertex, in the tuple's own axes.
                    let other = e.value + a * e.at;
                    let point = if frame { [other, e.at] } else { [e.at, other] };
                    let holds = t.constraints().iter().all(|c| {
                        let lhs = c.coeffs[0] * point[0] + c.coeffs[1] * point[1] + c.constant;
                        let tol = 1e-7 * (1.0 + point[0].abs() + point[1].abs());
                        match c.op {
                            RelOp::Le => lhs <= tol,
                            RelOp::Ge => lhs >= -tol,
                        }
                    });
                    assert!(holds, "{t}: {point:?} attains {e:?} at {a}");
                    for b in [-7.0, -0.4, 0.0, 0.3, 2.5, 11.0] {
                        let (lo, hi) = one_slope_kernel(reference, b).unwrap();
                        let line = e.value - (b - a) * e.at;
                        let tol = 1e-9 * (1.0 + line.abs() + (b * e.at).abs());
                        if upper {
                            assert!(hi >= line - tol, "{t}: TOP({b}) = {hi} < {line}");
                        } else {
                            assert!(lo <= line + tol, "{t}: BOT({b}) = {lo} > {line}");
                        }
                    }
                }
            }
        }
    }
    assert!(
        vertices * 2 > evaluated,
        "{vertices} vertices in {evaluated}"
    );
}
