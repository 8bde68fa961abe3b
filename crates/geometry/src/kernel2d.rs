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
//! [`Surfaces`] is the per-tuple evaluator: it enumerates the vertices and
//! recession directions once and then evaluates any slope, in the plain
//! frame or the one swapped through the vertical, naming the vertex that
//! attains each surface; [`bot_top`] is the same enumeration folded at one
//! slope as it goes, storing and allocating nothing.
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

/// A pairwise boundary intersection, with Cramer's division held back
/// (the point `(xd, yd) / det`), and whether it passed the feasibility
/// test of each frame: the swapped frame reads the same rows with their
/// coefficients exchanged, which orders one tolerance sum differently.
#[derive(Clone, Copy)]
struct Vertex {
    xd: f64,
    yd: f64,
    det: f64,
    plain: bool,
    swapped: bool,
}

impl Vertex {
    /// `(xd, yd, det)` in the plain frame, or in the swapped one — the same
    /// rows with `x` and `y` exchanged, where the vertex is
    /// `(−yd, −xd) / −det` — if the vertex is feasible there.
    #[inline(always)]
    fn in_frame<const SWAPPED: bool>(&self) -> Option<(f64, f64, f64)> {
        if SWAPPED {
            self.swapped.then_some((-self.yd, -self.xd, -self.det))
        } else {
            self.plain.then_some((self.xd, self.yd, self.det))
        }
    }
}

/// One surface value and a vertex attaining it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Extreme {
    /// `TOP_P` or `BOT_P` (`±∞` where the polyhedron is unbounded that
    /// way).
    pub value: f64,
    /// The first coordinate, in the frame evaluated, of a vertex attaining
    /// a finite `value` — its x in the plain frame, its y in the swapped
    /// one — so the vertex's dual line `value − (a′ − a)·at` bounds the
    /// surface at every other `a′`; `NaN` where `value` is infinite.
    pub at: f64,
}

/// What a polyhedron's rows give every slope: the rows, and those along
/// whose boundary `+d` or `−d` is in the recession cone.
struct Shape {
    rows: [Row; CAPACITY],
    m: usize,
    /// `(row, +d, −d)` in the plain frame (the swapped frame sees the two
    /// directions reversed). A bounded polyhedron has none.
    rays: [(usize, bool, bool); CAPACITY],
    n_rays: usize,
}

impl Shape {
    /// The one vertex enumeration: loads `rows`, shows every pairwise
    /// intersection feasible in the plain frame — or, with `SWAPPED`, in
    /// either frame — to `vertex`, and finds the recession directions;
    /// `None` for rows the kernel leaves to the simplex whatever the slope
    /// (a nearly-trivial or false row, more than [`CAPACITY`]).
    fn enumerate<const SWAPPED: bool>(
        rows: impl IntoIterator<Item = [f64; 3]>,
        mut vertex: impl FnMut(Vertex),
    ) -> Option<Self> {
        let mut s = Shape {
            rows: [Row::default(); CAPACITY],
            m: 0,
            rays: [(0, false, false); CAPACITY],
            n_rays: 0,
        };
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
            if s.m == CAPACITY {
                return None;
            }
            s.rows[s.m] = Row { ax, ay, rhs, norm };
            s.m += 1;
        }
        let rows = &s.rows[..s.m];

        // Vertices: feasible intersections of two non-parallel boundaries.
        for (i, p) in rows.iter().enumerate() {
            for (j, q) in rows.iter().enumerate().skip(i + 1) {
                let det = p.ax * q.ay - q.ax * p.ay;
                if det.abs() <= EPS * p.norm * q.norm {
                    continue;
                }
                // Cramer's rule with the division held back: the vertex is
                // (xd, yd) / det, and `r·v ≤ rhs` is tested scaled by |det|,
                // so only feasible vertices (m of the m² pairs) pay a division.
                let xd = p.rhs * q.ay - q.rhs * p.ay;
                let yd = p.ax * q.rhs - q.ax * p.rhs;
                let (sign, scale) = (det.signum(), det.abs());
                let (mut plain, mut swapped) = (true, SWAPPED);
                for (k, r) in rows.iter().enumerate() {
                    if k == i || k == j {
                        continue;
                    }
                    let (tx, ty, bound) = (r.ax * xd, r.ay * yd, r.rhs * scale);
                    let lhs = sign * (tx + ty);
                    plain &= lhs <= bound + EPS * (scale + tx.abs() + ty.abs() + bound.abs());
                    if SWAPPED {
                        swapped &= lhs <= bound + EPS * (scale + ty.abs() + tx.abs() + bound.abs());
                    }
                    if !plain && !swapped {
                        break;
                    }
                }
                if plain || swapped {
                    vertex(Vertex {
                        xd,
                        yd,
                        det,
                        plain,
                        swapped,
                    });
                }
            }
        }

        // Recession: a direction ±d along a boundary belongs to the cone iff
        // no row's normal has a positive component along it.
        for (i, p) in rows.iter().enumerate() {
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
            if forward || backward {
                s.rays[s.n_rays] = (i, forward, backward);
                s.n_rays += 1;
            }
        }
        Some(s)
    }
}

/// Both surfaces at one slope, folded over the vertices of one frame.
struct Fold<const SWAPPED: bool> {
    slope: f64,
    bot: f64,
    top: f64,
    /// `(xd, det)` of the vertex attaining each, in the frame.
    lowest: (f64, f64),
    highest: (f64, f64),
}

impl<const SWAPPED: bool> Fold<SWAPPED> {
    fn new(slope: f64) -> Self {
        Fold {
            slope,
            bot: f64::INFINITY,
            top: f64::NEG_INFINITY,
            lowest: (f64::NAN, 1.0),
            highest: (f64::NAN, 1.0),
        }
    }

    #[inline(always)]
    fn vertex(&mut self, v: &Vertex) {
        let Some((xd, yd, det)) = v.in_frame::<SWAPPED>() else {
            return;
        };
        let value = (yd - self.slope * xd) / det;
        self.lowest = if value < self.bot {
            (xd, det)
        } else {
            self.lowest
        };
        self.highest = if value > self.top {
            (xd, det)
        } else {
            self.highest
        };
        self.bot = self.bot.min(value);
        self.top = self.top.max(value);
    }

    /// The surfaces once every vertex is folded in; `None` when none was
    /// feasible.
    fn finish(self, shape: &Shape) -> Option<(Extreme, Extreme)> {
        let Fold {
            slope,
            mut bot,
            mut top,
            ..
        } = self;
        if top < bot {
            return None; // no feasible vertex
        }
        let slope_norm = slope.abs() + 1.0;
        for &(i, forward, backward) in &shape.rays[..shape.n_rays] {
            let p = &shape.rows[i];
            let ((dx, dy), (forward, backward)) = if SWAPPED {
                ((-p.ax, p.ay), (backward, forward))
            } else {
                ((-p.ay, p.ax), (forward, backward))
            };
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
        let extreme = |value: f64, (xd, det): (f64, f64)| Extreme {
            value,
            at: if value.is_finite() {
                xd / det
            } else {
                f64::NAN
            },
        };
        Some((extreme(bot, self.lowest), extreme(top, self.highest)))
    }
}

/// The per-tuple 2-D surface evaluator: a polyhedron's feasible vertices
/// and the recession directions along its boundaries, enumerated once,
/// then both surfaces at any slope, in the plain frame ([`at`](Self::at))
/// or the one swapped through the vertical
/// ([`swapped_at`](Self::swapped_at)), each with its attaining vertex.
/// [`bot_top`] is this evaluator at one slope, folded as it enumerates.
pub struct Surfaces {
    shape: Shape,
    vertices: Vec<Vertex>,
}

impl Surfaces {
    /// Enumerates the polyhedron `⋀ rows` (each row `[a, b, r]` meaning
    /// `a·x + b·y ≤ r`); `None` for rows the kernel leaves to the simplex
    /// whatever the slope (a nearly-trivial or false row, more than
    /// [`CAPACITY`]).
    pub fn new(rows: impl IntoIterator<Item = [f64; 3]>) -> Option<Self> {
        let mut vertices = Vec::new();
        let shape = Shape::enumerate::<true>(rows, |v| vertices.push(v))?;
        Some(Surfaces { shape, vertices })
    }

    /// `(BOT_P(slope), TOP_P(slope))`, or `None` when no vertex is feasible
    /// (the simplex's call).
    pub fn at(&self, slope: f64) -> Option<(Extreme, Extreme)> {
        self.fold(Fold::<false>::new(slope))
    }

    /// `(BOT′(t), TOP′(t))`: the minimum and maximum of `x − t·y`, the
    /// surfaces in the frame swapped through the vertical (`t = 1/a`), with
    /// the y of an attaining vertex; `None` as for [`at`](Self::at).
    pub fn swapped_at(&self, t: f64) -> Option<(Extreme, Extreme)> {
        self.fold(Fold::<true>::new(t))
    }

    fn fold<const SWAPPED: bool>(&self, mut fold: Fold<SWAPPED>) -> Option<(Extreme, Extreme)> {
        for v in &self.vertices {
            fold.vertex(v);
        }
        fold.finish(&self.shape)
    }
}

/// `(BOT_P(slope), TOP_P(slope))` of the polyhedron `⋀ rows` (each row
/// `[a, b, r]` meaning `a·x + b·y ≤ r`), or `None` when undecided: the
/// [`Surfaces`] evaluator at one slope, folded as the vertices are
/// enumerated, so nothing is stored and nothing allocated.
///
/// A decided answer implies the extension is non-empty (it has a vertex);
/// either value may be infinite.
pub fn bot_top(rows: impl IntoIterator<Item = [f64; 3]>, slope: f64) -> Option<(f64, f64)> {
    let mut fold = Fold::<false>::new(slope);
    let shape = Shape::enumerate::<false>(rows, |v| fold.vertex(&v))?;
    let (bot, top) = fold.finish(&shape)?;
    Some((bot.value, top.value))
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
