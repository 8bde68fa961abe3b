//! The 2-D `TOP_P`/`BOT_P` kernel: both surfaces of a planar polyhedron at
//! one slope, straight from its constraint rows, with no allocation and no
//! linear program.
//!
//! In the dual plane `TOP_P` is the upper envelope of the dual lines of
//! `P`'s vertices, so for a polyhedron that *has* a vertex
//!
//! * `TOP_P(a) = max over vertices (y − a·x)`, unless a direction of the
//!   recession cone increases `y − a·x`, in which case it is `+∞`;
//! * `BOT_P(a)` is the mirror image (`min`, `−∞`).
//!
//! Vertices are the feasible pairwise intersections of constraint
//! boundaries; a pointed 2-D recession cone is spanned by directions that
//! run along constraint boundaries, so testing those is enough. With 3–6
//! constraints per tuple (the paper's workload) that is a few dozen dot
//! products on stack arrays — against a two-phase dense-tableau simplex
//! with ~20 heap allocations.
//!
//! The kernel never guesses. Whatever it cannot settle from a feasible
//! vertex — an empty extension, a half-plane, a strip, a line, the whole
//! plane, a nearly-trivial row, or more rows than [`CAPACITY`] — is
//! reported as *undecided* (`None`) and [`crate::dual`] falls through to
//! the simplex, which also remains the evaluator for `d > 2` and the
//! independent reference ([`crate::dual::top_lp`]).

use crate::constraint::RelOp;
use crate::scalar::EPS;

/// Most non-trivial rows the kernel takes on; longer conjunctions go to the
/// simplex (pairwise enumeration is quadratic, the tableau is not).
pub const CAPACITY: usize = 16;

/// The constraint `a·x + b·y + c θ 0` as a row `[a', b', r]` of the
/// canonical system `a'·x + b'·y ≤ r` (the same rewrite as
/// [`crate::constraint::LinearConstraint::as_le`]).
#[inline]
pub fn le_row(op: RelOp, a: f64, b: f64, c: f64) -> [f64; 3] {
    match op {
        RelOp::Le => [a, b, -c],
        RelOp::Ge => [-a, -b, c],
    }
}

/// A loaded row: normal `(ax, ay)`, right-hand side, and the 1-norm of the
/// normal that scales every tolerance involving it.
#[derive(Clone, Copy, Default)]
struct Row {
    ax: f64,
    ay: f64,
    rhs: f64,
    norm: f64,
}

/// `(BOT_P(slope), TOP_P(slope))` of the polyhedron `⋀ rows` (each row
/// `[a, b, r]` meaning `a·x + b·y ≤ r`), or `None` when undecided.
///
/// A decided answer implies the extension is non-empty (it has a vertex);
/// either value may be infinite.
pub fn bot_top(rows: impl IntoIterator<Item = [f64; 3]>, slope: f64) -> Option<(f64, f64)> {
    let mut loaded = [Row::default(); CAPACITY];
    let mut m = 0;
    for [ax, ay, rhs] in rows {
        let norm = ax.abs() + ay.abs();
        if norm <= EPS {
            // `0 ≤ r` holds everywhere or nowhere: a true row carries no
            // geometry; a false or nearly-trivial one is the simplex's call.
            if norm == 0.0 && rhs >= 0.0 {
                continue;
            }
            return None;
        }
        if m == CAPACITY {
            return None;
        }
        loaded[m] = Row { ax, ay, rhs, norm };
        m += 1;
    }
    let rows = &loaded[..m];

    // Vertices: feasible intersections of two non-parallel boundaries.
    let (mut bot, mut top) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, p) in rows.iter().enumerate() {
        for (j, q) in rows.iter().enumerate().skip(i + 1) {
            let det = p.ax * q.ay - q.ax * p.ay;
            if det.abs() <= EPS * p.norm * q.norm {
                continue;
            }
            // Cramer's rule with the division held back: the vertex is
            // (xd, yd) / det, and `r·v ≤ rhs` is tested scaled by |det|, so
            // only feasible vertices (m of the m² pairs) pay a division.
            let xd = p.rhs * q.ay - q.rhs * p.ay;
            let yd = p.ax * q.rhs - q.ax * p.rhs;
            let (sign, scale) = (det.signum(), det.abs());
            let feasible = rows.iter().enumerate().all(|(k, r)| {
                let (tx, ty, bound) = (r.ax * xd, r.ay * yd, r.rhs * scale);
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
        return None; // no feasible vertex
    }

    // Recession: a direction ±d along a boundary belongs to the cone iff no
    // row's normal has a positive component along it.
    let slope_norm = slope.abs() + 1.0;
    for p in rows {
        let (dx, dy) = (-p.ay, p.ax);
        let (mut forward, mut backward) = (true, true);
        for r in rows {
            let along = r.ax * dx + r.ay * dy;
            let tol = EPS * r.norm * p.norm;
            forward &= along <= tol;
            backward &= along >= -tol;
            if !forward && !backward {
                break;
            }
        }
        // Growth of the objective `y − slope·x` along +d.
        let gain = dy - slope * dx;
        let tol = EPS * slope_norm * p.norm;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `[a, b, c, ge]` quadruples → ≤-rows.
    fn rows(cs: &[(f64, f64, f64, RelOp)]) -> Vec<[f64; 3]> {
        cs.iter()
            .map(|&(a, b, c, op)| le_row(op, a, b, c))
            .collect()
    }

    const SQUARE: [(f64, f64, f64, RelOp); 4] = [
        (1.0, 0.0, -1.0, RelOp::Ge), // x >= 1
        (1.0, 0.0, -3.0, RelOp::Le), // x <= 3
        (0.0, 1.0, -1.0, RelOp::Ge), // y >= 1
        (0.0, 1.0, -4.0, RelOp::Le), // y <= 4
    ];

    #[test]
    fn rectangle_surfaces() {
        assert_eq!(bot_top(rows(&SQUARE), 0.0), Some((1.0, 4.0)));
        assert_eq!(bot_top(rows(&SQUARE), 1.0), Some((-2.0, 3.0)));
        assert_eq!(bot_top(rows(&SQUARE), -1.0), Some((2.0, 7.0)));
    }

    #[test]
    fn wedge_and_strip_with_a_vertex_are_decided_with_infinities() {
        // x <= 2 && y >= 3: up and to the left.
        let quadrant = rows(&[(1.0, 0.0, -2.0, RelOp::Le), (0.0, 1.0, -3.0, RelOp::Ge)]);
        assert_eq!(bot_top(quadrant.clone(), 0.5), Some((2.0, f64::INFINITY)));
        assert_eq!(
            bot_top(quadrant.clone(), -0.5),
            Some((f64::NEG_INFINITY, f64::INFINITY))
        );
        // Along the edge itself the objective is flat: finite.
        assert_eq!(bot_top(quadrant, 0.0), Some((3.0, f64::INFINITY)));
        // y >= x && y <= x + 1 && x >= 10: a half-strip heading off at slope 1.
        let half_strip = rows(&[
            (-1.0, 1.0, 0.0, RelOp::Ge),
            (-1.0, 1.0, -1.0, RelOp::Le),
            (1.0, 0.0, -10.0, RelOp::Ge),
        ]);
        assert_eq!(bot_top(half_strip.clone(), 1.0), Some((0.0, 1.0)));
        assert_eq!(bot_top(half_strip.clone(), 0.5), Some((5.0, f64::INFINITY)));
        assert_eq!(bot_top(half_strip, 2.0), Some((f64::NEG_INFINITY, -9.0)));
    }

    #[test]
    fn no_feasible_vertex_is_undecided() {
        let cases: Vec<Vec<[f64; 3]>> = vec![
            // Half-plane.
            rows(&[(-1.0, 1.0, 0.0, RelOp::Ge)]),
            // Strip y >= x && y <= x + 1.
            rows(&[(-1.0, 1.0, 0.0, RelOp::Ge), (-1.0, 1.0, -1.0, RelOp::Le)]),
            // Line y = x + 3.
            rows(&[(-1.0, 1.0, -3.0, RelOp::Ge), (-1.0, 1.0, -3.0, RelOp::Le)]),
            // Whole plane: one trivially-true row.
            rows(&[(0.0, 0.0, -1.0, RelOp::Le)]),
            // Contradictory pair x >= 0 && x <= -1, alone and boxed in y.
            rows(&[(1.0, 0.0, 0.0, RelOp::Ge), (1.0, 0.0, 1.0, RelOp::Le)]),
            rows(&[
                (1.0, 0.0, 0.0, RelOp::Ge),
                (1.0, 0.0, 1.0, RelOp::Le),
                (0.0, 1.0, 0.0, RelOp::Ge),
                (0.0, 1.0, -1.0, RelOp::Le),
            ]),
            // Trivially-false row beside a square.
            rows(&SQUARE)
                .into_iter()
                .chain([[0.0, 0.0, -1.0]])
                .collect(),
            // Nearly-trivial row: not the kernel's to interpret.
            rows(&SQUARE)
                .into_iter()
                .chain([[1e-12, 0.0, 1.0]])
                .collect(),
        ];
        for (n, case) in cases.into_iter().enumerate() {
            assert_eq!(bot_top(case, 0.3), None, "case {n}");
        }
    }

    #[test]
    fn trivially_true_rows_are_skipped() {
        let with_true: Vec<[f64; 3]> = rows(&SQUARE).into_iter().chain([[0.0, 0.0, 1.0]]).collect();
        assert_eq!(bot_top(with_true, 0.0), Some((1.0, 4.0)));
    }

    #[test]
    fn capacity_is_a_hard_limit() {
        // A square cut by ever-shallower redundant caps y <= 4 + k.
        let mut cs = rows(&SQUARE);
        for k in 0..CAPACITY - 4 {
            cs.push([0.0, 1.0, 5.0 + k as f64]);
        }
        assert_eq!(cs.len(), CAPACITY);
        assert_eq!(bot_top(cs.clone(), 0.0), Some((1.0, 4.0)));
        cs.push([0.0, 1.0, 100.0]);
        assert_eq!(bot_top(cs, 0.0), None);
    }

    #[test]
    fn degenerate_point_and_segment() {
        // The point (2, 5) as four touching half-planes.
        let point = rows(&[
            (1.0, 0.0, -2.0, RelOp::Ge),
            (1.0, 0.0, -2.0, RelOp::Le),
            (0.0, 1.0, -5.0, RelOp::Ge),
            (0.0, 1.0, -5.0, RelOp::Le),
        ]);
        assert_eq!(bot_top(point, 1.5), Some((2.0, 2.0)));
        // Segment y = 2, 0 <= x <= 5.
        let segment = rows(&[
            (0.0, 1.0, -2.0, RelOp::Ge),
            (0.0, 1.0, -2.0, RelOp::Le),
            (1.0, 0.0, 0.0, RelOp::Ge),
            (1.0, 0.0, -5.0, RelOp::Le),
        ]);
        assert_eq!(bot_top(segment.clone(), 0.0), Some((2.0, 2.0)));
        assert_eq!(bot_top(segment, 1.0), Some((-3.0, 2.0)));
    }
}
