//! Linear constraints over `d` real variables.
//!
//! A constraint has the normalized form `a·x + c θ 0` with `θ ∈ {≤, ≥}`.
//! Equality constraints are represented, as in Section 2 of the paper, by the
//! conjunction of a `≤` and a `≥` constraint (see
//! [`LinearConstraint::equality_pair`]).

use crate::parse::var_name;
use crate::scalar::approx_zero;

/// Comparison operator of a linear constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// `a·x + c ≤ 0`
    Le,
    /// `a·x + c ≥ 0`
    Ge,
}

impl RelOp {
    /// The opposite operator (`¬θ` in the paper's Table 1).
    #[inline]
    pub fn negated(self) -> RelOp {
        match self {
            RelOp::Le => RelOp::Ge,
            RelOp::Ge => RelOp::Le,
        }
    }
}

impl std::fmt::Display for RelOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelOp::Le => write!(f, "<="),
            RelOp::Ge => write!(f, ">="),
        }
    }
}

/// A single linear constraint `a1*x1 + … + ad*xd + c θ 0`.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearConstraint {
    /// Coefficients `a1 … ad`; the length is the dimension of the space.
    pub coeffs: Vec<f64>,
    /// Constant term `c`.
    pub constant: f64,
    /// Comparison operator `θ`.
    pub op: RelOp,
}

impl LinearConstraint {
    /// Creates a constraint `coeffs·x + constant θ 0`.
    ///
    /// # Panics
    /// Panics if `coeffs` is empty or any coefficient is non-finite.
    pub fn new(coeffs: Vec<f64>, constant: f64, op: RelOp) -> Self {
        assert!(!coeffs.is_empty(), "constraint needs at least one variable");
        assert!(
            coeffs.iter().all(|a| a.is_finite()) && constant.is_finite(),
            "constraint coefficients must be finite"
        );
        LinearConstraint {
            coeffs,
            constant,
            op,
        }
    }

    /// Convenience constructor for the 2-D constraint `a*x + b*y + c θ 0`.
    pub fn new2d(a: f64, b: f64, c: f64, op: RelOp) -> Self {
        Self::new(vec![a, b], c, op)
    }

    /// The dimension of the ambient space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coeffs.len()
    }

    /// Returns the pair of inequalities equivalent to `a·x + c = 0`.
    pub fn equality_pair(coeffs: Vec<f64>, constant: f64) -> [LinearConstraint; 2] {
        [
            LinearConstraint::new(coeffs.clone(), constant, RelOp::Ge),
            LinearConstraint::new(coeffs, constant, RelOp::Le),
        ]
    }

    /// Evaluates the left-hand side `a·x + c` at `point`.
    ///
    /// # Panics
    /// Panics if `point.len() != self.dim()`.
    pub fn lhs(&self, point: &[f64]) -> f64 {
        assert_eq!(point.len(), self.dim(), "dimension mismatch");
        self.coeffs
            .iter()
            .zip(point)
            .map(|(a, x)| a * x)
            .sum::<f64>()
            + self.constant
    }

    /// Returns `true` if `point` satisfies the constraint (boundary included).
    pub fn satisfied_by(&self, point: &[f64]) -> bool {
        let v = self.lhs(point);
        match self.op {
            RelOp::Le => v <= crate::scalar::EPS,
            RelOp::Ge => v >= -crate::scalar::EPS,
        }
    }

    /// Rewrites the constraint in the canonical "≤" form `a'·x ≤ b'`,
    /// returning `(a', b')`. `Ge` constraints are negated.
    pub fn as_le(&self) -> (Vec<f64>, f64) {
        match self.op {
            RelOp::Le => (self.coeffs.clone(), -self.constant),
            RelOp::Ge => (self.coeffs.iter().map(|a| -a).collect(), self.constant),
        }
    }

    /// `true` if the constraint involves none of the variables
    /// (i.e. it is either trivially true or trivially false).
    pub fn is_trivial(&self) -> bool {
        self.coeffs.iter().all(|a| approx_zero(*a))
    }

    /// For a trivial constraint, whether it is satisfied; `None` otherwise.
    pub fn trivial_truth(&self) -> Option<bool> {
        if !self.is_trivial() {
            return None;
        }
        Some(match self.op {
            RelOp::Le => self.constant <= crate::scalar::EPS,
            RelOp::Ge => self.constant >= -crate::scalar::EPS,
        })
    }

    /// `true` if the bounding hyperplane `a·x + c = 0` is *vertical* in the
    /// paper's sense, i.e. it does not bound the last coordinate (`a_d = 0`).
    ///
    /// The dual transform of Section 2.1 is defined for non-vertical
    /// hyperplanes only.
    pub fn is_vertical(&self) -> bool {
        approx_zero(*self.coeffs.last().expect("non-empty coeffs"))
    }
}

impl std::fmt::Display for LinearConstraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (i, a) in self.coeffs.iter().enumerate() {
            if approx_zero(*a) {
                continue;
            }
            let name = var_name(i);
            if first {
                write!(f, "{a}*{name}")?;
                first = false;
            } else if *a >= 0.0 {
                write!(f, " + {a}*{name}")?;
            } else {
                write!(f, " - {}*{name}", -a)?;
            }
        }
        if first {
            write!(f, "0")?;
        }
        if self.constant >= 0.0 {
            write!(f, " + {}", self.constant)?;
        } else {
            write!(f, " - {}", -self.constant)?;
        }
        write!(f, " {} 0", self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lhs_and_satisfaction() {
        // x + 2y - 4 <= 0
        let c = LinearConstraint::new2d(1.0, 2.0, -4.0, RelOp::Le);
        assert_eq!(c.lhs(&[0.0, 0.0]), -4.0);
        assert!(c.satisfied_by(&[0.0, 0.0]));
        assert!(c.satisfied_by(&[0.0, 2.0])); // boundary
        assert!(!c.satisfied_by(&[4.0, 4.0]));
    }

    #[test]
    fn ge_satisfaction() {
        // y - 3 >= 0
        let c = LinearConstraint::new2d(0.0, 1.0, -3.0, RelOp::Ge);
        assert!(c.satisfied_by(&[100.0, 3.0]));
        assert!(!c.satisfied_by(&[0.0, 0.0]));
    }

    #[test]
    fn as_le_normalizes_ge() {
        // x >= 1  <=>  x - 1 >= 0  <=>  -x <= -1
        let c = LinearConstraint::new2d(1.0, 0.0, -1.0, RelOp::Ge);
        let (a, b) = c.as_le();
        assert_eq!(a, vec![-1.0, 0.0]);
        assert_eq!(b, -1.0);
        // Check a point: x = 2 satisfies both forms.
        assert!(-2.0 <= b || (-2.0 - b).abs() < 1e-12);
    }

    #[test]
    fn equality_pair_brackets_the_hyperplane() {
        let [ge, le] = LinearConstraint::equality_pair(vec![1.0, -1.0], 0.0);
        // On the line y = x both hold.
        assert!(ge.satisfied_by(&[2.0, 2.0]));
        assert!(le.satisfied_by(&[2.0, 2.0]));
        // Off the line exactly one holds.
        assert!(!(ge.satisfied_by(&[3.0, 1.0]) ^ le.satisfied_by(&[1.0, 3.0])));
        assert!(ge.satisfied_by(&[3.0, 1.0]));
        assert!(!le.satisfied_by(&[3.0, 1.0]));
    }

    #[test]
    fn vertical_detection() {
        // x <= 4 : vertical in (x, y) because the y coefficient is 0.
        let v = LinearConstraint::new2d(1.0, 0.0, -4.0, RelOp::Le);
        assert!(v.is_vertical());
        let nv = LinearConstraint::new2d(1.0, 0.5, -4.0, RelOp::Le);
        assert!(!nv.is_vertical());
    }

    #[test]
    fn trivial_constraints() {
        let t = LinearConstraint::new2d(0.0, 0.0, -1.0, RelOp::Le);
        assert!(t.is_trivial());
        assert_eq!(t.trivial_truth(), Some(true));
        let f = LinearConstraint::new2d(0.0, 0.0, 1.0, RelOp::Le);
        assert_eq!(f.trivial_truth(), Some(false));
        let nt = LinearConstraint::new2d(1.0, 0.0, 0.0, RelOp::Le);
        assert_eq!(nt.trivial_truth(), None);
    }

    #[test]
    fn negated_op() {
        assert_eq!(RelOp::Le.negated(), RelOp::Ge);
        assert_eq!(RelOp::Ge.negated(), RelOp::Le);
    }

    #[test]
    fn display_is_readable() {
        let c = LinearConstraint::new2d(1.0, -2.0, 3.0, RelOp::Ge);
        let s = format!("{c}");
        assert!(s.contains(">= 0"), "{s}");
    }

    #[test]
    #[should_panic]
    fn rejects_empty() {
        LinearConstraint::new(vec![], 0.0, RelOp::Le);
    }

    #[test]
    #[should_panic]
    fn rejects_nan() {
        LinearConstraint::new(vec![f64::NAN], 0.0, RelOp::Le);
    }
}
