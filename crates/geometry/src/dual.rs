//! The point/hyperplane dual transform and the `TOP_P`/`BOT_P` surfaces
//! (Section 2.1 of the paper).
//!
//! For a non-vertical hyperplane `H: x_d = b1*x1 + … + b_{d-1}*x_{d-1} + b_d`
//! the dual point is `D(H) = (b1, …, b_d)`; for a point `p = (p1, …, p_d)`
//! the dual hyperplane is `D(p): x_d = −p1*x1 − … − p_{d-1}*x_{d-1} + p_d`.
//! The transform reverses the above/below relation: `p` lies above `H` iff
//! `D(H)` lies below `D(p)`.
//!
//! For a polyhedron `P` and a slope `b = (b1, …, b_{d-1})`:
//!
//! * `TOP_P(b)` — the maximum intercept `b_d` such that the hyperplane of
//!   slope `b` and intercept `b_d` still intersects `P`;
//! * `BOT_P(b)` — the minimum such intercept.
//!
//! Equivalently `TOP_P(b) = sup {x_d − b·x' : x ∈ P}` (and `BOT` the `inf`),
//! so *unbounded* polyhedra yield `±∞` with no special casing. Two
//! evaluators compute it:
//!
//! * for `d = 2`, the allocation-free planar kernel ([`crate::kernel2d`]):
//!   the maximum over the feasible pairwise boundary intersections plus a
//!   recession-direction test — on an owned tuple or directly on its
//!   encoded bytes ([`TupleView`]);
//! * the two-phase simplex ([`top_lp`]/[`bot_lp`]): the only evaluator for
//!   `d > 2`, the fallback for whatever the kernel leaves undecided (no
//!   feasible vertex: empty set, half-plane, strip, line; or too many
//!   rows), and the *independent reference* every oracle compares against.
//!
//! [`top`]/[`bot`] route between them; callers never choose. `TOP_P` is
//! convex and `BOT_P` concave in the slope; therefore their extrema over a
//! slope segment are attained at the segment endpoints, which is exactly
//! what the T2 handicap computation needs.

use crate::constraint::LinearConstraint;
use crate::halfplane::HalfPlane;
use crate::kernel2d;
use crate::simplex::LpResult;
use crate::tuple::{GeneralizedTuple, TupleView};

/// A surface value: finite, `+∞` (upward-unbounded) or `−∞`.
pub type DualValue = f64;

/// Which of the two dual surfaces of a polyhedron.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Surface {
    /// `TOP_P`: maximum intercept (upper hull in the dual).
    Top,
    /// `BOT_P`: minimum intercept (lower hull in the dual).
    Bot,
}

/// Anything whose `TOP_P`/`BOT_P` surfaces can be evaluated: an owned
/// tuple, a borrowed [`TupleView`] of its encoded bytes, or the simplex
/// reference [`Lp`]. The exact predicates ([`crate::predicates`]) are
/// written once against this trait, so the refinement step can run them on
/// a record still sitting in its heap page.
///
/// Every evaluation returns `None` for an empty extension.
pub trait DualSurfaces {
    /// Dimension `d` of the ambient space.
    fn dim(&self) -> usize;
    /// One of the two surfaces at `slope`.
    fn surface(&self, which: Surface, slope: &[f64]) -> Option<DualValue>;
    /// `TOP_P(slope)`.
    fn top(&self, slope: &[f64]) -> Option<DualValue> {
        self.surface(Surface::Top, slope)
    }
    /// `BOT_P(slope)`.
    fn bot(&self, slope: &[f64]) -> Option<DualValue> {
        self.surface(Surface::Bot, slope)
    }
}

impl<T: DualSurfaces + ?Sized> DualSurfaces for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn surface(&self, which: Surface, slope: &[f64]) -> Option<DualValue> {
        (**self).surface(which, slope)
    }
}

impl DualSurfaces for GeneralizedTuple {
    fn dim(&self) -> usize {
        self.dim()
    }
    fn surface(&self, which: Surface, slope: &[f64]) -> Option<DualValue> {
        planar(self.dim(), self.le_rows_2d(), which, slope)
            .or_else(|| surface_lp(self, which, slope))
    }
}

impl DualSurfaces for TupleView<'_> {
    fn dim(&self) -> usize {
        self.dim()
    }
    fn surface(&self, which: Surface, slope: &[f64]) -> Option<DualValue> {
        planar(self.dim(), self.le_rows_2d(), which, slope)
            .or_else(|| surface_lp(&self.to_tuple(), which, slope))
    }
}

/// A tuple evaluated by the simplex only — the reference the kernel is
/// checked against ([`crate::predicates::oracle_select`] wraps every tuple
/// in it).
#[derive(Clone, Copy, Debug)]
pub struct Lp<'a>(pub &'a GeneralizedTuple);

impl DualSurfaces for Lp<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn surface(&self, which: Surface, slope: &[f64]) -> Option<DualValue> {
        surface_lp(self.0, which, slope)
    }
}

fn check_slope(dim: usize, slope: &[f64]) {
    assert_eq!(
        slope.len() + 1,
        dim,
        "slope has {} coefficients but the space has dimension {}",
        slope.len(),
        dim
    );
}

/// The 2-D fast path: the surface value from the constraint rows, or
/// `None` when the answer is the simplex's to give (`d ≠ 2`, or the kernel
/// left it undecided). `rows` is only consumed for `d = 2`.
fn planar(
    dim: usize,
    rows: impl Iterator<Item = [f64; 3]>,
    which: Surface,
    slope: &[f64],
) -> Option<DualValue> {
    check_slope(dim, slope);
    if dim != 2 {
        return None;
    }
    let (bot, top) = kernel2d::bot_top(rows, slope[0])?;
    Some(match which {
        Surface::Top => top,
        Surface::Bot => bot,
    })
}

/// Evaluates `TOP_P(slope)` for the tuple's extension `P`.
///
/// Returns `None` if `P` is empty, `Some(+∞)` if hyperplanes of this slope
/// intersect `P` at arbitrarily large intercepts, and the finite maximum
/// intercept otherwise.
///
/// ```
/// use cdb_geometry::{dual, parse::parse_tuple};
///
/// let square = parse_tuple("x >= 1 && x <= 3 && y >= 1 && y <= 4").unwrap();
/// // Lines y = 0·x + b touch the square up to b = 4 ...
/// assert_eq!(dual::top(&square, &[0.0]), Some(4.0));
/// // ... and down to b = 1.
/// assert_eq!(dual::bot(&square, &[0.0]), Some(1.0));
/// // An upward-unbounded region has infinite TOP at every slope.
/// let wedge = parse_tuple("y >= x").unwrap();
/// assert_eq!(dual::top(&wedge, &[0.5]), Some(f64::INFINITY));
/// ```
pub fn top(tuple: &GeneralizedTuple, slope: &[f64]) -> Option<DualValue> {
    tuple.surface(Surface::Top, slope)
}

/// Evaluates `BOT_P(slope)`; `Some(−∞)` for downward-unbounded `P`.
pub fn bot(tuple: &GeneralizedTuple, slope: &[f64]) -> Option<DualValue> {
    tuple.surface(Surface::Bot, slope)
}

/// Evaluates one of the two surfaces.
pub fn surface(tuple: &GeneralizedTuple, which: Surface, slope: &[f64]) -> Option<DualValue> {
    DualSurfaces::surface(tuple, which, slope)
}

/// `TOP_P(slope)` by linear programming, in any dimension: the reference
/// evaluator, and what [`top`] falls back to.
pub fn top_lp(tuple: &GeneralizedTuple, slope: &[f64]) -> Option<DualValue> {
    surface_lp(tuple, Surface::Top, slope)
}

/// `BOT_P(slope)` by linear programming (see [`top_lp`]).
pub fn bot_lp(tuple: &GeneralizedTuple, slope: &[f64]) -> Option<DualValue> {
    surface_lp(tuple, Surface::Bot, slope)
}

/// `(BOT_P(slope), TOP_P(slope))` from one evaluation — the planar kernel
/// yields both at once — equal to [`bot`] and [`top`] bit for bit.
pub fn bot_top(tuple: &GeneralizedTuple, slope: &[f64]) -> Option<(DualValue, DualValue)> {
    check_slope(tuple.dim(), slope);
    let planar = (tuple.dim() == 2).then(|| kernel2d::bot_top(tuple.le_rows_2d(), slope[0]));
    planar
        .flatten()
        .or_else(|| Some((bot_lp(tuple, slope)?, top_lp(tuple, slope)?)))
}

/// `(BOT′(t), TOP′(t))` of a planar tuple: the minimum and maximum of
/// `x − t·y` over its extension — its surfaces in the frame swapped
/// through the vertical, `t = 1/a`, where `t = 0` is the vertical itself
/// and gives the tuple's x-extent. `±∞` where the tuple is unbounded that
/// way, `None` for an empty extension. Evaluated like [`top`]/[`bot`] on
/// the tuple with its axes exchanged: the planar kernel, else the simplex.
///
/// ```
/// use cdb_geometry::{dual, parse::parse_tuple};
///
/// let square = parse_tuple("x >= 1 && x <= 3 && y >= 1 && y <= 4").unwrap();
/// assert_eq!(dual::swapped_bot_top(&square, 0.0), Some((1.0, 3.0)));
/// let wedge = parse_tuple("y >= x && x >= 5").unwrap();
/// assert_eq!(dual::swapped_bot_top(&wedge, 0.0), Some((5.0, f64::INFINITY)));
/// ```
///
/// # Panics
/// Panics when the tuple is not 2-D.
pub fn swapped_bot_top(tuple: &GeneralizedTuple, t: f64) -> Option<(DualValue, DualValue)> {
    assert_eq!(tuple.dim(), 2, "the swapped frame is planar");
    let rows = tuple.le_rows_2d().map(|[a, b, r]| [b, a, r]);
    kernel2d::bot_top(rows, t).or_else(|| {
        let exchanged = tuple
            .constraints()
            .iter()
            .map(|c| LinearConstraint::new(vec![c.coeffs[1], c.coeffs[0]], c.constant, c.op));
        let exchanged = GeneralizedTuple::new(exchanged.collect());
        Some((bot_lp(&exchanged, &[t])?, top_lp(&exchanged, &[t])?))
    })
}

/// One surface as the linear program `max/min x_d − b·x'` over `P`.
fn surface_lp(tuple: &GeneralizedTuple, which: Surface, slope: &[f64]) -> Option<DualValue> {
    check_slope(tuple.dim(), slope);
    let mut obj: Vec<f64> = slope.iter().map(|b| -b).collect();
    obj.push(1.0);
    let (lp, unbounded) = match which {
        Surface::Top => (tuple.maximize(&obj), f64::INFINITY),
        Surface::Bot => (tuple.minimize(&obj), f64::NEG_INFINITY),
    };
    match lp {
        LpResult::Infeasible => None,
        LpResult::Unbounded => Some(unbounded),
        LpResult::Optimal { value, .. } => Some(value),
    }
}

/// Maximum of `TOP_P` over the slope segment `[s1, s2]`.
///
/// `TOP_P` is convex along any segment in slope space, so the maximum is
/// `max(TOP(s1), TOP(s2))`. Returns `None` for an empty extension.
pub fn max_top_on_segment(tuple: &GeneralizedTuple, s1: &[f64], s2: &[f64]) -> Option<DualValue> {
    Some(top(tuple, s1)?.max(top(tuple, s2)?))
}

/// Minimum of `BOT_P` over the slope segment `[s1, s2]` (concavity ⇒
/// endpoint minimum). Returns `None` for an empty extension.
pub fn min_bot_on_segment(tuple: &GeneralizedTuple, s1: &[f64], s2: &[f64]) -> Option<DualValue> {
    Some(bot(tuple, s1)?.min(bot(tuple, s2)?))
}

/// The dual point `D(H)` of a non-vertical hyperplane given in solved form
/// (the boundary of `hp`): `(b1, …, b_{d-1}, b_d)`.
pub fn dual_point_of(hp: &HalfPlane) -> Vec<f64> {
    let mut p = hp.slope.clone();
    p.push(hp.intercept);
    p
}

/// The dual hyperplane `D(p)` of a point, in solved form:
/// `x_d = −p1*x1 − … − p_{d-1}*x_{d-1} + p_d`, returned as slope/intercept.
pub fn dual_hyperplane_of(point: &[f64]) -> (Vec<f64>, f64) {
    assert!(!point.is_empty());
    let d = point.len();
    let slope: Vec<f64> = point[..d - 1].iter().map(|p| -p).collect();
    (slope, point[d - 1])
}

/// Position of a point relative to a non-vertical hyperplane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Position {
    /// Point strictly above the hyperplane.
    Above,
    /// Point on the hyperplane.
    On,
    /// Point strictly below.
    Below,
}

/// Classifies `point` against the hyperplane `x_d = slope·x' + intercept`.
pub fn classify(point: &[f64], slope: &[f64], intercept: f64) -> Position {
    assert_eq!(point.len(), slope.len() + 1, "dimension mismatch");
    let f: f64 = slope.iter().zip(point).map(|(b, x)| b * x).sum::<f64>() + intercept;
    let xd = point[point.len() - 1];
    if crate::scalar::approx_eq(xd, f) {
        Position::On
    } else if xd > f {
        Position::Above
    } else {
        Position::Below
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{LinearConstraint, RelOp};

    /// The hexagon-ish polygon of the paper's Figure 2 is not given
    /// numerically; use a square with vertices (1,1),(3,1),(3,4),(1,4).
    fn rect_1134() -> GeneralizedTuple {
        GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, -1.0, RelOp::Ge), // x >= 1
            LinearConstraint::new2d(-1.0, 0.0, 3.0, RelOp::Ge), // x <= 3
            LinearConstraint::new2d(0.0, 1.0, -1.0, RelOp::Ge), // y >= 1
            LinearConstraint::new2d(0.0, -1.0, 4.0, RelOp::Ge), // y <= 4
        ])
    }

    /// One evaluation of both surfaces is the two evaluations, bit for bit:
    /// from the kernel, and from the simplex where the kernel leaves a
    /// strip to it or the tuple is not planar.
    #[test]
    fn bot_top_is_bot_and_top() {
        let strip = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(0.0, 1.0, -2.0, RelOp::Ge),
            LinearConstraint::new2d(0.0, -1.0, 9.0, RelOp::Ge),
        ]);
        let cube = GeneralizedTuple::new(
            (0..3)
                .flat_map(|axis| {
                    let mut unit = vec![0.0; 3];
                    unit[axis] = 1.0;
                    [
                        LinearConstraint::new(unit.clone(), 1.0, RelOp::Ge),
                        LinearConstraint::new(unit, -2.0, RelOp::Le),
                    ]
                })
                .collect(),
        );
        for slope in [-2.5, 0.0, 0.3, 7.0] {
            for t in [rect_1134(), strip.clone()] {
                assert_eq!(
                    bot_top(&t, &[slope]),
                    Some((bot(&t, &[slope]).unwrap(), top(&t, &[slope]).unwrap()))
                );
            }
            let s = [slope, -slope];
            assert_eq!(
                bot_top(&cube, &s),
                Some((bot(&cube, &s).unwrap(), top(&cube, &s).unwrap()))
            );
        }
    }

    /// The swapped frame's surfaces are the extremes of `x − t·y`: on the
    /// rectangle, at its vertices; unbounded in x, infinite; and the kernel
    /// on the exchanged rows equals the simplex on the exchanged tuple,
    /// including where the kernel leaves the answer to it (a strip, a
    /// half-plane).
    #[test]
    fn swapped_surfaces_are_the_extremes_of_x_minus_t_y() {
        let t = rect_1134();
        assert_eq!(swapped_bot_top(&t, 0.0), Some((1.0, 3.0)));
        // t = 1: x − y over the rectangle, −3 at (1, 4), 2 at (3, 1).
        let (lo, hi) = swapped_bot_top(&t, 1.0).unwrap();
        assert!((lo + 3.0).abs() < 1e-9 && (hi - 2.0).abs() < 1e-9);
        let wedge = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(-1.0, 1.0, 0.0, RelOp::Ge), // y >= x
            LinearConstraint::new2d(1.0, 0.0, -5.0, RelOp::Ge), // x >= 5
        ]);
        assert_eq!(swapped_bot_top(&wedge, 0.0), Some((5.0, f64::INFINITY)));
        let strip = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(0.0, 1.0, -2.0, RelOp::Ge), // y >= 2
            LinearConstraint::new2d(0.0, -1.0, 9.0, RelOp::Ge), // y <= 9
        ]);
        let half = GeneralizedTuple::new(vec![LinearConstraint::new2d(0.5, -1.0, 3.0, RelOp::Le)]);
        for tuple in [t, wedge, strip, half] {
            let exchanged = GeneralizedTuple::new(
                tuple
                    .constraints()
                    .iter()
                    .map(|c| LinearConstraint::new2d(c.coeffs[1], c.coeffs[0], c.constant, c.op))
                    .collect(),
            );
            for slope in [-3.0, -0.5, 0.0, 0.25, 2.0] {
                let lp = (bot_lp(&exchanged, &[slope]), top_lp(&exchanged, &[slope]));
                let (lo, hi) = swapped_bot_top(&tuple, slope).unwrap();
                let near = |a: f64, b: Option<f64>| {
                    let b = b.unwrap();
                    a == b || (a - b).abs() <= 1e-7 * (1.0 + b.abs())
                };
                assert!(near(lo, lp.0) && near(hi, lp.1), "{tuple} at t = {slope}");
            }
        }
        // x ≤ 3·y and y ≤ 0 meet the strip x ≥ 1 nowhere: empty.
        let empty = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, -1.0, RelOp::Ge),
            LinearConstraint::new2d(1.0, -3.0, 0.0, RelOp::Le),
            LinearConstraint::new2d(0.0, 1.0, 0.0, RelOp::Le),
        ]);
        assert_eq!(swapped_bot_top(&empty, 0.5), None);
    }

    #[test]
    fn top_bot_of_rectangle() {
        let t = rect_1134();
        // Slope 0: TOP = max y = 4, BOT = min y = 1.
        assert!((top(&t, &[0.0]).unwrap() - 4.0).abs() < 1e-7);
        assert!((bot(&t, &[0.0]).unwrap() - 1.0).abs() < 1e-7);
        // Slope 1: TOP = max(y - x) at (1,4) = 3; BOT = min(y - x) at (3,1) = -2.
        assert!((top(&t, &[1.0]).unwrap() - 3.0).abs() < 1e-7);
        assert!((bot(&t, &[1.0]).unwrap() + 2.0).abs() < 1e-7);
        // Slope -1: TOP = max(y + x) at (3,4) = 7; BOT at (1,1) = 2.
        assert!((top(&t, &[-1.0]).unwrap() - 7.0).abs() < 1e-7);
        assert!((bot(&t, &[-1.0]).unwrap() - 2.0).abs() < 1e-7);
    }

    #[test]
    fn top_ge_bot_everywhere() {
        // Proposition 2.1.
        let t = rect_1134();
        for a in [-3.0, -0.5, 0.0, 0.7, 2.0, 10.0] {
            assert!(top(&t, &[a]).unwrap() >= bot(&t, &[a]).unwrap());
        }
    }

    #[test]
    fn unbounded_gives_infinities() {
        // x <= 2 && y >= 3: unbounded up and to the left.
        let t = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, -2.0, RelOp::Le),
            LinearConstraint::new2d(0.0, 1.0, -3.0, RelOp::Ge),
        ]);
        // Any slope: y - a x unbounded above (y free upward).
        assert_eq!(top(&t, &[0.5]).unwrap(), f64::INFINITY);
        // Slope 0: BOT = min y = 3 (finite!).
        assert!((bot(&t, &[0.0]).unwrap() - 3.0).abs() < 1e-7);
        // Positive slope: y - a x with x -> -inf makes it +inf; min is still 3 - a*2?
        // min(y - 0.5x) subject to x <= 2, y >= 3: at x = 2, y = 3 -> 2.
        assert!((bot(&t, &[0.5]).unwrap() - 2.0).abs() < 1e-7);
        // Negative slope: y + 0.5x, x -> -inf => -inf.
        assert_eq!(bot(&t, &[-0.5]).unwrap(), f64::NEG_INFINITY);
    }

    #[test]
    fn empty_extension_yields_none() {
        let empty = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, 0.0, RelOp::Ge),
            LinearConstraint::new2d(1.0, 0.0, 1.0, RelOp::Le),
        ]);
        assert!(top(&empty, &[0.0]).is_none());
        assert!(bot(&empty, &[0.0]).is_none());
    }

    #[test]
    fn segment_extrema_match_dense_sampling() {
        let t = rect_1134();
        let (a1, a2) = (-1.5, 2.5);
        let max_top = max_top_on_segment(&t, &[a1], &[a2]).unwrap();
        let min_bot = min_bot_on_segment(&t, &[a1], &[a2]).unwrap();
        let mut sampled_max = f64::NEG_INFINITY;
        let mut sampled_min = f64::INFINITY;
        for i in 0..=100 {
            let a = a1 + (a2 - a1) * (i as f64) / 100.0;
            sampled_max = sampled_max.max(top(&t, &[a]).unwrap());
            sampled_min = sampled_min.min(bot(&t, &[a]).unwrap());
        }
        assert!(max_top >= sampled_max - 1e-7);
        assert!(
            (max_top - sampled_max).abs() < 1e-6,
            "convexity endpoint max"
        );
        assert!(min_bot <= sampled_min + 1e-7);
        assert!(
            (min_bot - sampled_min).abs() < 1e-6,
            "concavity endpoint min"
        );
    }

    #[test]
    fn duality_reverses_above_below() {
        // Key property: p above H  iff  D(H) below D(p).
        let h = HalfPlane::above(2.0, -1.0); // boundary y = 2x - 1
        let dh = dual_point_of(&h);
        for p in [[0.0, 3.0], [1.0, 1.0], [2.0, 0.0], [-1.0, -3.0]] {
            let pos_primal = classify(&p, &h.slope, h.intercept);
            let (ds, di) = dual_hyperplane_of(&p);
            let pos_dual = classify(&dh, &ds, di);
            let expected = match pos_primal {
                Position::Above => Position::Below,
                Position::On => Position::On,
                Position::Below => Position::Above,
            };
            assert_eq!(pos_dual, expected, "point {p:?}");
        }
    }

    #[test]
    fn example_2_1_of_the_paper_shape() {
        // Recreate the spirit of Example 2.1 with the rectangle:
        // q2 ≡ y >= TOP(0) touches the polygon from above: EXIST holds with equality.
        let t = rect_1134();
        let top0 = top(&t, &[0.0]).unwrap();
        assert!((top0 - 4.0).abs() < 1e-9);
        // A line with slope 1 passing between BOT(1) and TOP(1) cuts the polygon.
        let (b_lo, b_hi) = (bot(&t, &[1.0]).unwrap(), top(&t, &[1.0]).unwrap());
        assert!(b_lo < 0.0 && 0.0 < b_hi);
    }

    #[test]
    fn three_dimensional_surfaces() {
        // Unit cube in 3-D.
        let mut cs = Vec::new();
        for i in 0..3 {
            let mut lo = vec![0.0; 3];
            lo[i] = 1.0;
            cs.push(LinearConstraint::new(lo.clone(), 0.0, RelOp::Ge)); // xi >= 0
            cs.push(LinearConstraint::new(lo, -1.0, RelOp::Le)); // xi <= 1
        }
        let cube = GeneralizedTuple::new(cs);
        // TOP at slope (1, 1): max(z - x - y) = 1 at (0,0,1).
        assert!((top(&cube, &[1.0, 1.0]).unwrap() - 1.0).abs() < 1e-7);
        // BOT at slope (1, 1): min(z - x - y) = -2 at (1,1,0).
        assert!((bot(&cube, &[1.0, 1.0]).unwrap() + 2.0).abs() < 1e-7);
    }

    #[test]
    #[should_panic]
    fn slope_dimension_mismatch_panics() {
        let t = rect_1134();
        let _ = top(&t, &[0.0, 1.0]);
    }
}
