//! Query half-planes.
//!
//! The paper's queries are half-planes in *solved form*
//! `x_d θ b1*x1 + … + b_{d-1}*x_{d-1} + b_d` with `θ ∈ {≥, ≤}` — i.e. the
//! bounding hyperplane is non-vertical and is written as a function of the
//! last coordinate. The vector `(b1, …, b_{d-1})` is the *slope* (the
//! "angular coefficient" in 2-D) and `b_d` the *intercept*.

use crate::constraint::{LinearConstraint, RelOp};
use crate::parse::var_name;
use crate::scalar::approx_zero;

/// A non-vertical query half-plane `x_d θ slope·(x1..x_{d-1}) + intercept`.
#[derive(Clone, Debug, PartialEq)]
pub struct HalfPlane {
    /// Slope coefficients `b1 … b_{d-1}`. Empty for `d = 1` (ray queries).
    pub slope: Vec<f64>,
    /// Intercept `b_d`.
    pub intercept: f64,
    /// `Ge` means the region *above* (and on) the hyperplane, `Le` *below*.
    pub op: RelOp,
}

impl HalfPlane {
    /// Creates a half-plane `x_d θ slope·x + intercept`.
    ///
    /// # Panics
    /// Panics if any coefficient is non-finite.
    pub fn new(slope: Vec<f64>, intercept: f64, op: RelOp) -> Self {
        assert!(
            slope.iter().all(|b| b.is_finite()) && intercept.is_finite(),
            "half-plane coefficients must be finite"
        );
        HalfPlane {
            slope,
            intercept,
            op,
        }
    }

    /// 2-D convenience: the half-plane `y θ a*x + b`.
    pub fn new2d(a: f64, b: f64, op: RelOp) -> Self {
        Self::new(vec![a], b, op)
    }

    /// The half-plane `y ≥ a*x + b` (region above the line).
    pub fn above(a: f64, b: f64) -> Self {
        Self::new2d(a, b, RelOp::Ge)
    }

    /// The half-plane `y ≤ a*x + b` (region below the line).
    pub fn below(a: f64, b: f64) -> Self {
        Self::new2d(a, b, RelOp::Le)
    }

    /// Dimension `d` of the ambient space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.slope.len() + 1
    }

    /// The 2-D angular coefficient `a`. Panics unless `dim() == 2`.
    #[inline]
    pub fn slope2d(&self) -> f64 {
        assert_eq!(self.dim(), 2, "slope2d requires a 2-D half-plane");
        self.slope[0]
    }

    /// Evaluates the bounding hyperplane function
    /// `F(x1..x_{d-1}) = slope·x + intercept` (the `F_H` of Section 2.1).
    pub fn boundary_at(&self, point: &[f64]) -> f64 {
        assert_eq!(point.len(), self.slope.len(), "dimension mismatch");
        self.slope
            .iter()
            .zip(point)
            .map(|(b, x)| b * x)
            .sum::<f64>()
            + self.intercept
    }

    /// Returns `true` if the full point (of dimension `d`) lies inside the
    /// half-plane (boundary included).
    pub fn contains(&self, point: &[f64]) -> bool {
        assert_eq!(point.len(), self.dim(), "dimension mismatch");
        let f = self.boundary_at(&point[..point.len() - 1]);
        let xd = point[point.len() - 1];
        match self.op {
            RelOp::Ge => xd >= f - crate::scalar::EPS,
            RelOp::Le => xd <= f + crate::scalar::EPS,
        }
    }

    /// Converts the half-plane into an equivalent [`LinearConstraint`]
    /// in the normalized `a·x + c θ 0` form.
    ///
    /// `x_d ≥ slope·x + i`  ⇔  `-slope·x + x_d - i ≥ 0`.
    pub fn to_constraint(&self) -> LinearConstraint {
        let mut coeffs: Vec<f64> = self.slope.iter().map(|b| -b).collect();
        coeffs.push(1.0);
        LinearConstraint::new(coeffs, -self.intercept, self.op)
    }

    /// Attempts to convert an arbitrary non-vertical [`LinearConstraint`]
    /// into solved form. Returns `None` if the constraint is vertical
    /// (`a_d = 0`), for which the dual transform is undefined.
    ///
    /// `a·x + c θ 0` with `a_d > 0` keeps `θ`; with `a_d < 0` flips it.
    pub fn from_constraint(c: &LinearConstraint) -> Option<HalfPlane> {
        let ad = *c.coeffs.last().expect("non-empty coeffs");
        if approx_zero(ad) {
            return None;
        }
        // a1 x1 + ... + ad xd + c θ 0  =>  xd θ' (-a1/ad) x1 + ... + (-c/ad)
        let slope: Vec<f64> = c.coeffs[..c.coeffs.len() - 1]
            .iter()
            .map(|a| -a / ad)
            .collect();
        let intercept = -c.constant / ad;
        let op = if ad > 0.0 { c.op } else { c.op.negated() };
        Some(HalfPlane::new(slope, intercept, op))
    }

    /// The complementary half-plane sharing the same boundary.
    pub fn complement(&self) -> HalfPlane {
        HalfPlane::new(self.slope.clone(), self.intercept, self.op.negated())
    }
}

impl std::fmt::Display for HalfPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} ", var_name(self.slope.len()), self.op)?;
        for (i, b) in self.slope.iter().enumerate() {
            write!(f, "{b}*{} + ", var_name(i))?;
        }
        write!(f, "{}", self.intercept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_2d() {
        let q = HalfPlane::above(1.0, 0.0); // y >= x
        assert!(q.contains(&[1.0, 2.0]));
        assert!(q.contains(&[1.0, 1.0])); // boundary
        assert!(!q.contains(&[2.0, 1.0]));
        let q2 = HalfPlane::below(1.0, 0.0);
        assert!(q2.contains(&[2.0, 1.0]));
        assert!(!q2.contains(&[1.0, 2.0]));
    }

    #[test]
    fn contains_3d() {
        // z >= x + 2y + 1
        let q = HalfPlane::new(vec![1.0, 2.0], 1.0, RelOp::Ge);
        assert!(q.contains(&[0.0, 0.0, 1.0]));
        assert!(q.contains(&[1.0, 1.0, 4.0]));
        assert!(!q.contains(&[1.0, 1.0, 3.9]));
    }

    #[test]
    fn constraint_round_trip() {
        let q = HalfPlane::above(2.0, -3.0); // y >= 2x - 3
        let c = q.to_constraint();
        // Points agree.
        for p in [[0.0, 0.0], [1.0, -1.0], [2.0, 1.0], [5.0, 7.0]] {
            assert_eq!(q.contains(&p), c.satisfied_by(&p), "point {p:?}");
        }
        let back = HalfPlane::from_constraint(&c).unwrap();
        assert!((back.slope2d() - 2.0).abs() < 1e-12);
        assert!((back.intercept + 3.0).abs() < 1e-12);
        assert_eq!(back.op, RelOp::Ge);
    }

    #[test]
    fn from_constraint_flips_op_for_negative_ad() {
        // -y + x <= 0  <=>  y >= x
        let c = LinearConstraint::new2d(1.0, -1.0, 0.0, RelOp::Le);
        let h = HalfPlane::from_constraint(&c).unwrap();
        assert_eq!(h.op, RelOp::Ge);
        assert!((h.slope2d() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vertical_constraint_has_no_solved_form() {
        let c = LinearConstraint::new2d(1.0, 0.0, -4.0, RelOp::Le); // x <= 4
        assert!(HalfPlane::from_constraint(&c).is_none());
    }

    #[test]
    fn complement_flips_membership_off_boundary() {
        let q = HalfPlane::above(0.5, 1.0);
        let qc = q.complement();
        assert!(q.contains(&[0.0, 2.0]) && !qc.contains(&[0.0, 2.0]));
        assert!(!q.contains(&[0.0, 0.0]) && qc.contains(&[0.0, 0.0]));
        // Both contain the boundary.
        assert!(q.contains(&[0.0, 1.0]) && qc.contains(&[0.0, 1.0]));
    }

    #[test]
    fn boundary_at_matches_slope_intercept() {
        let q = HalfPlane::above(3.0, -2.0);
        assert!((q.boundary_at(&[2.0]) - 4.0).abs() < 1e-12);
    }
}
