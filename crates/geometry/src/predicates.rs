//! Exact `ALL`/`EXIST` selection predicates (Proposition 2.2).
//!
//! These predicates are the *refinement step* of the approximation
//! techniques (they discard false hits exactly) and double as the oracle for
//! every test in the workspace. They are evaluated through the `TOP`/`BOT`
//! surfaces, so finite and infinite tuples are handled uniformly:
//!
//! | selection      | holds iff                       |
//! |----------------|---------------------------------|
//! | `ALL(q(≥), t)`   | `b_d ≤ BOT_P(b)`               |
//! | `ALL(q(≤), t)`   | `b_d ≥ TOP_P(b)`               |
//! | `EXIST(q(≥), t)` | `b_d ≤ TOP_P(b)`               |
//! | `EXIST(q(≤), t)` | `b_d ≥ BOT_P(b)`               |
//!
//! Both query and tuple extensions are closed sets, so boundary contact
//! counts as intersection and containment admits touching boundaries —
//! hence the non-strict comparisons.
//!
//! Each predicate is written once, over [`DualSurfaces`]: an owned tuple
//! and a borrowed view of its encoded bytes go through the 2-D kernel (or
//! the simplex for `d > 2`), while [`oracle_select`] evaluates through the
//! simplex alone ([`dual::Lp`]) and so stays an independent reference.

use crate::constraint::RelOp;
use crate::dual::{self, DualSurfaces};
use crate::halfplane::HalfPlane;
use crate::scalar::{approx_eq, approx_ge, approx_le};
use crate::tuple::GeneralizedTuple;

/// `true` iff the extension of `tuple` is contained in the half-plane `q`.
///
/// An unsatisfiable tuple (empty extension) is vacuously contained in any
/// query; the index layer filters empty tuples at insert time, but the
/// predicate is total.
pub fn all<P: DualSurfaces + ?Sized>(q: &HalfPlane, tuple: &P) -> bool {
    assert_eq!(q.dim(), tuple.dim(), "query/tuple dimension mismatch");
    match q.op {
        RelOp::Ge => match tuple.bot(&q.slope) {
            None => true, // empty extension: vacuous containment
            Some(b) => approx_le(q.intercept, b),
        },
        RelOp::Le => match tuple.top(&q.slope) {
            None => true,
            Some(t) => approx_ge(q.intercept, t),
        },
    }
}

/// `true` iff the extension of `tuple` intersects the half-plane `q`.
pub fn exist<P: DualSurfaces + ?Sized>(q: &HalfPlane, tuple: &P) -> bool {
    assert_eq!(q.dim(), tuple.dim(), "query/tuple dimension mismatch");
    match q.op {
        RelOp::Ge => match tuple.top(&q.slope) {
            None => false, // empty extension intersects nothing
            Some(t) => approx_le(q.intercept, t),
        },
        RelOp::Le => match tuple.bot(&q.slope) {
            None => false,
            Some(b) => approx_ge(q.intercept, b),
        },
    }
}

/// `true` iff the extension of `tuple` intersects the *hyperplane*
/// `x_d = slope·x' + c` — the equality-constraint query of the paper's
/// footnote 2 (`θ ∈ {=}`): the line touches `P` iff its intercept lies in
/// `[BOT_P(slope), TOP_P(slope)]` (continuity of the touching intercepts).
pub fn exist_hyperplane<P: DualSurfaces + ?Sized>(slope: &[f64], c: f64, tuple: &P) -> bool {
    match (tuple.bot(slope), tuple.top(slope)) {
        (Some(b), Some(t)) => approx_le(b, c) && approx_le(c, t),
        _ => false, // empty extension
    }
}

/// `true` iff the extension of `tuple` is contained in the hyperplane
/// `x_d = slope·x' + c`: both surfaces collapse onto the intercept
/// (a degenerate, flat polyhedron lying inside the hyperplane).
pub fn all_hyperplane<P: DualSurfaces + ?Sized>(slope: &[f64], c: f64, tuple: &P) -> bool {
    match (tuple.bot(slope), tuple.top(slope)) {
        (Some(b), Some(t)) => approx_eq(b, c) && approx_eq(t, c),
        _ => true, // empty extension: vacuous containment
    }
}

/// Brute-force reference evaluation of a selection over a whole relation:
/// returns the indices of the qualifying tuples. This is the oracle used by
/// the integration and property tests and by the selectivity calibrator; it
/// evaluates every surface by linear programming, never by the kernel the
/// engine's own refinement uses.
pub fn oracle_select<'a, I>(q: &HalfPlane, all_query: bool, tuples: I) -> Vec<usize>
where
    I: IntoIterator<Item = &'a GeneralizedTuple>,
{
    tuples
        .into_iter()
        .enumerate()
        .filter(|(_, t)| {
            let t = dual::Lp(t);
            if all_query {
                all(q, &t)
            } else {
                exist(q, &t)
            }
        })
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::LinearConstraint;

    fn rect(x0: f64, x1: f64, y0: f64, y1: f64) -> GeneralizedTuple {
        GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, -x0, RelOp::Ge),
            LinearConstraint::new2d(-1.0, 0.0, x1, RelOp::Ge),
            LinearConstraint::new2d(0.0, 1.0, -y0, RelOp::Ge),
            LinearConstraint::new2d(0.0, -1.0, y1, RelOp::Ge),
        ])
    }

    #[test]
    fn example_2_1() {
        // Square [1,3]x[1,4.5] stands in for the polygon of Figure 2, chosen
        // so that TOP(0) = 4.5 matches q2 of Example 2.1.
        let t = rect(1.0, 3.0, 1.0, 4.5);
        // q1 ≡ y >= -x - 1: whole polygon above => ALL.
        let q1 = HalfPlane::above(-1.0, -1.0);
        assert!(all(&q1, &t));
        assert!(exist(&q1, &t));
        // q2 ≡ y >= 4.5 touches the top edge: EXIST but not ALL.
        let q2 = HalfPlane::above(0.0, 4.5);
        assert!(exist(&q2, &t));
        assert!(!all(&q2, &t));
        // q3 ≡ y >= x cuts through: EXIST but not ALL.
        let q3 = HalfPlane::above(1.0, 0.0);
        assert!(exist(&q3, &t));
        assert!(!all(&q3, &t));
        // q2' ≡ y <= 4.5 contains the polygon: ALL.
        let q2p = HalfPlane::below(0.0, 4.5);
        assert!(all(&q2p, &t));
        // q3' ≡ y <= x: EXIST but not ALL.
        let q3p = HalfPlane::below(1.0, 0.0);
        assert!(exist(&q3p, &t));
        assert!(!all(&q3p, &t));
    }

    #[test]
    fn disjoint_halfplane() {
        let t = rect(0.0, 1.0, 0.0, 1.0);
        let q = HalfPlane::above(0.0, 5.0); // y >= 5
        assert!(!exist(&q, &t));
        assert!(!all(&q, &t));
    }

    #[test]
    fn unbounded_tuple_vs_queries() {
        // Figure 1 motivation: the unbounded tuple must be seen exactly,
        // with no object-window clipping. Strip y >= x && y <= x + 1, x >= 10.
        let t = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(-1.0, 1.0, 0.0, RelOp::Ge), // y >= x
            LinearConstraint::new2d(1.0, -1.0, 1.0, RelOp::Ge), // y <= x + 1
            LinearConstraint::new2d(1.0, 0.0, -10.0, RelOp::Ge), // x >= 10
        ]);
        // The strip heads off to +infinity along slope 1: any half-plane
        // y >= a x + b with a < 1 eventually contains points of it.
        assert!(exist(&HalfPlane::above(0.5, 100.0), &t));
        // ... but does not contain it entirely.
        assert!(!all(&HalfPlane::above(0.5, 100.0), &t));
        // A half-plane below a line of slope 1 under the strip misses it.
        assert!(!exist(&HalfPlane::below(1.0, -1.0), &t));
        // The strip is contained in y >= x (its own lower boundary).
        assert!(all(&HalfPlane::above(1.0, 0.0), &t));
        // And in y <= x + 1.
        assert!(all(&HalfPlane::below(1.0, 1.0), &t));
    }

    #[test]
    fn boundary_touch_counts_as_intersection() {
        let t = rect(0.0, 1.0, 0.0, 1.0);
        let q = HalfPlane::above(0.0, 1.0); // y >= 1 touches the top edge
        assert!(exist(&q, &t));
    }

    #[test]
    fn containment_with_touching_boundary() {
        let t = rect(0.0, 1.0, 0.0, 1.0);
        let q = HalfPlane::above(0.0, 0.0); // y >= 0 contains [0,1]^2
        assert!(all(&q, &t));
    }

    #[test]
    fn empty_tuple_semantics() {
        let empty = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, 0.0, RelOp::Ge),
            LinearConstraint::new2d(1.0, 0.0, 1.0, RelOp::Le),
        ]);
        let q = HalfPlane::above(0.0, 0.0);
        assert!(all(&q, &empty), "empty set is contained everywhere");
        assert!(!exist(&q, &empty), "empty set intersects nothing");
    }

    #[test]
    fn all_implies_exist_for_satisfiable() {
        let t = rect(-2.0, -1.0, 3.0, 4.0);
        for (a, b) in [(0.0, 0.0), (1.0, 2.0), (-0.5, 3.0), (2.0, 10.0)] {
            for q in [HalfPlane::above(a, b), HalfPlane::below(a, b)] {
                if all(&q, &t) {
                    assert!(exist(&q, &t), "ALL must imply EXIST for {q}");
                }
            }
        }
    }

    #[test]
    fn oracle_select_filters() {
        let tuples = vec![
            rect(0.0, 1.0, 0.0, 1.0),   // low
            rect(0.0, 1.0, 10.0, 11.0), // high
            rect(0.0, 1.0, 4.0, 6.0),   // middle, straddles y = 5
        ];
        let q = HalfPlane::above(0.0, 5.0);
        assert_eq!(oracle_select(&q, false, &tuples), vec![1, 2]); // EXIST
        assert_eq!(oracle_select(&q, true, &tuples), vec![1]); // ALL
    }

    #[test]
    fn hyperplane_queries_footnote_2() {
        let t = rect(1.0, 3.0, 1.0, 4.0);
        // Horizontal lines: y = c touches the box for c in [1, 4].
        assert!(exist_hyperplane(&[0.0], 1.0, &t));
        assert!(exist_hyperplane(&[0.0], 2.5, &t));
        assert!(exist_hyperplane(&[0.0], 4.0, &t));
        assert!(!exist_hyperplane(&[0.0], 4.5, &t));
        assert!(!exist_hyperplane(&[0.0], 0.5, &t));
        // Tilted line through the box.
        assert!(exist_hyperplane(&[1.0], 0.0, &t)); // y = x passes through
        assert!(!exist_hyperplane(&[1.0], 10.0, &t));
        // Containment in a line: only degenerate tuples qualify.
        assert!(!all_hyperplane(&[0.0], 2.5, &t));
        let segment = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(0.0, 1.0, -2.0, RelOp::Ge), // y >= 2
            LinearConstraint::new2d(0.0, 1.0, -2.0, RelOp::Le), // y <= 2
            LinearConstraint::new2d(1.0, 0.0, 0.0, RelOp::Ge),
            LinearConstraint::new2d(1.0, 0.0, -5.0, RelOp::Le),
        ]);
        assert!(all_hyperplane(&[0.0], 2.0, &segment));
        assert!(!all_hyperplane(&[0.0], 3.0, &segment));
        // An unbounded strip is never inside a line, but a full line is.
        let line = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(-1.0, 1.0, -3.0, RelOp::Ge), // y >= x + 3
            LinearConstraint::new2d(-1.0, 1.0, -3.0, RelOp::Le), // y <= x + 3
        ]);
        assert!(all_hyperplane(&[1.0], 3.0, &line));
        assert!(exist_hyperplane(&[0.5], 100.0, &line));
    }

    #[test]
    fn three_dimensional_predicates() {
        // Unit cube; query half-space z >= x + y - 3 contains it.
        let mut cs = Vec::new();
        for i in 0..3 {
            let mut v = vec![0.0; 3];
            v[i] = 1.0;
            cs.push(LinearConstraint::new(v.clone(), 0.0, RelOp::Ge));
            cs.push(LinearConstraint::new(v, -1.0, RelOp::Le));
        }
        let cube = GeneralizedTuple::new(cs);
        let q = HalfPlane::new(vec![1.0, 1.0], -3.0, RelOp::Ge);
        assert!(all(&q, &cube));
        // z >= x + y - 1 cuts the cube.
        let q2 = HalfPlane::new(vec![1.0, 1.0], -1.0, RelOp::Ge);
        assert!(exist(&q2, &cube) && !all(&q2, &cube));
    }
}
