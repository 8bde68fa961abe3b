//! Generalized tuples: conjunctions of linear constraints.
//!
//! A generalized tuple denotes the set of points satisfying all of its
//! constraints — a convex polyhedron that may be empty, bounded or unbounded.
//! This is the *data object* of a constraint database (Section 2 of the
//! paper): a generalized relation is a collection of generalized tuples.

use crate::constraint::{LinearConstraint, RelOp};
use crate::kernel2d;
use crate::simplex::{self, LpResult};

/// A generalized tuple `⋀ᵢ aᵢ·x + cᵢ θᵢ 0`.
#[derive(Clone, Debug, PartialEq)]
pub struct GeneralizedTuple {
    dim: usize,
    constraints: Vec<LinearConstraint>,
}

impl GeneralizedTuple {
    /// Creates a tuple from its constraints.
    ///
    /// # Panics
    /// Panics if `constraints` is empty or the dimensions disagree.
    pub fn new(constraints: Vec<LinearConstraint>) -> Self {
        assert!(
            !constraints.is_empty(),
            "tuple needs at least one constraint"
        );
        let dim = constraints[0].dim();
        assert!(
            constraints.iter().all(|c| c.dim() == dim),
            "all constraints must share the same dimension"
        );
        GeneralizedTuple { dim, constraints }
    }

    /// The whole space `E^d` (no restricting constraints): represented by a
    /// single trivially-true constraint.
    pub fn whole_space(dim: usize) -> Self {
        GeneralizedTuple::new(vec![LinearConstraint::new(vec![0.0; dim], -1.0, RelOp::Le)])
    }

    /// Dimension `d` of the ambient space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The constraints of the conjunction.
    #[inline]
    pub fn constraints(&self) -> &[LinearConstraint] {
        &self.constraints
    }

    /// Number of constraints (`m` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Always `false`: a tuple has at least one constraint by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Adds a constraint to the conjunction.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn push(&mut self, c: LinearConstraint) {
        assert_eq!(c.dim(), self.dim, "dimension mismatch");
        self.constraints.push(c);
    }

    /// Returns `true` if `point` satisfies every constraint.
    pub fn contains(&self, point: &[f64]) -> bool {
        self.constraints.iter().all(|c| c.satisfied_by(point))
    }

    /// The constraints rewritten in canonical `A x ≤ b` form.
    pub fn as_le_system(&self) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rows = Vec::with_capacity(self.constraints.len());
        let mut rhs = Vec::with_capacity(self.constraints.len());
        for c in &self.constraints {
            let (a, b) = c.as_le();
            rows.push(a);
            rhs.push(b);
        }
        (rows, rhs)
    }

    /// Returns `true` if the extension is non-empty (the tuple is
    /// *satisfiable*). Decided exactly by a phase-1 LP.
    pub fn is_satisfiable(&self) -> bool {
        self.any_point().is_some()
    }

    /// Returns an arbitrary point of the extension, or `None` if empty.
    pub fn any_point(&self) -> Option<Vec<f64>> {
        let (rows, rhs) = self.as_le_system();
        simplex::feasible_point(self.dim, &rows, &rhs)
    }

    /// Maximizes `objective · x` over the extension.
    pub fn maximize(&self, objective: &[f64]) -> LpResult {
        let (rows, rhs) = self.as_le_system();
        simplex::maximize(objective, &rows, &rhs)
    }

    /// Minimizes `objective · x` over the extension.
    pub fn minimize(&self, objective: &[f64]) -> LpResult {
        let (rows, rhs) = self.as_le_system();
        simplex::minimize(objective, &rows, &rhs)
    }

    /// Returns `true` if the extension is bounded (and non-empty).
    ///
    /// Decided by 2d LPs: the extension is bounded iff every coordinate is
    /// bounded in both directions.
    pub fn is_bounded(&self) -> bool {
        if !self.is_satisfiable() {
            return false;
        }
        for i in 0..self.dim {
            let mut obj = vec![0.0; self.dim];
            obj[i] = 1.0;
            if matches!(self.maximize(&obj), LpResult::Unbounded) {
                return false;
            }
            if matches!(self.minimize(&obj), LpResult::Unbounded) {
                return false;
            }
        }
        true
    }

    /// The axis-aligned bounding box as `(min, max)` corner vectors, or
    /// `None` if the extension is empty or unbounded.
    pub fn bounding_box(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        let mut lo = vec![0.0; self.dim];
        let mut hi = vec![0.0; self.dim];
        for i in 0..self.dim {
            let mut obj = vec![0.0; self.dim];
            obj[i] = 1.0;
            match self.maximize(&obj) {
                LpResult::Optimal { value, .. } => hi[i] = value,
                _ => return None,
            }
            match self.minimize(&obj) {
                LpResult::Optimal { value, .. } => lo[i] = value,
                _ => return None,
            }
        }
        Some((lo, hi))
    }

    // ---- serialization (fixed little-endian layout for heap-file storage) ----

    /// Serializes the tuple to bytes.
    ///
    /// Layout: `u16 dim, u16 m`, then per constraint `u8 op` (0 = ≤, 1 = ≥),
    /// `f64` constant, `f64 × dim` coefficients.
    pub fn encode(&self) -> Vec<u8> {
        let m = self.constraints.len();
        let mut out = Vec::with_capacity(Self::encoded_len(self.dim, m));
        out.extend_from_slice(&(self.dim as u16).to_le_bytes());
        out.extend_from_slice(&(m as u16).to_le_bytes());
        for c in &self.constraints {
            out.push(match c.op {
                RelOp::Le => 0,
                RelOp::Ge => 1,
            });
            out.extend_from_slice(&c.constant.to_le_bytes());
            for a in &c.coeffs {
                out.extend_from_slice(&a.to_le_bytes());
            }
        }
        out
    }

    /// Length in bytes of what [`encode`](Self::encode) writes for `m`
    /// constraints in `E^dim`.
    pub fn encoded_len(dim: usize, m: usize) -> usize {
        4 + m * (1 + 8 * (dim + 1))
    }

    /// Deserializes a tuple previously produced by [`encode`](Self::encode).
    ///
    /// Returns `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<GeneralizedTuple> {
        TupleView::new(bytes).map(|v| v.to_tuple())
    }

    /// The rows of a 2-D tuple in canonical `a·x + b·y ≤ r` form, for the
    /// planar kernel. Lazy: only to be consumed when `dim() == 2`.
    pub(crate) fn le_rows_2d(&self) -> impl Iterator<Item = [f64; 3]> + '_ {
        self.constraints
            .iter()
            .map(|c| kernel2d::le_row(c.op, c.coeffs[0], c.coeffs[1], c.constant))
    }
}

/// A validated, borrowed view of [`GeneralizedTuple::encode`] bytes.
///
/// Validation ([`TupleView::new`]) rejects exactly what
/// [`GeneralizedTuple::decode`] rejects — `decode` *is* `new` followed by
/// [`to_tuple`](Self::to_tuple) — so code that only needs to read the
/// constraints (the refinement step, evaluating `TOP_P`/`BOT_P` on a
/// record still sitting in its heap page) skips the per-constraint
/// allocations of an owned tuple.
#[derive(Clone, Copy, Debug)]
pub struct TupleView<'a> {
    dim: usize,
    /// The constraint records: `len() · (1 + 8·(dim + 1))` bytes.
    body: &'a [u8],
}

fn f64_at(bytes: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte field"))
}

impl<'a> TupleView<'a> {
    /// Validates `bytes` as an encoded tuple. `None` on malformed input:
    /// wrong length, zero dimension or constraint count, an operator byte
    /// other than 0/1, a non-finite number.
    pub fn new(bytes: &'a [u8]) -> Option<Self> {
        if bytes.len() < 4 {
            return None;
        }
        let dim = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        let m = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
        if dim == 0 || m == 0 {
            return None;
        }
        let per = 1 + 8 * (dim + 1);
        let body = &bytes[4..];
        if body.len() != m * per {
            return None;
        }
        let well_formed = body.chunks_exact(per).all(|rec| {
            rec[0] <= 1 && (0..=dim).all(|field| f64_at(rec, 1 + 8 * field).is_finite())
        });
        well_formed.then_some(TupleView { dim, body })
    }

    /// Dimension `d` of the ambient space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of constraints.
    #[inline]
    pub fn len(&self) -> usize {
        self.body.len() / self.record_len()
    }

    /// Always `false`: an encoded tuple has at least one constraint.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    fn record_len(&self) -> usize {
        1 + 8 * (self.dim + 1)
    }

    fn op_of(rec: &[u8]) -> RelOp {
        if rec[0] == 0 {
            RelOp::Le
        } else {
            RelOp::Ge
        }
    }

    /// The owned tuple these bytes encode.
    pub fn to_tuple(&self) -> GeneralizedTuple {
        let constraints = self
            .body
            .chunks_exact(self.record_len())
            .map(|rec| LinearConstraint {
                coeffs: (1..=self.dim).map(|f| f64_at(rec, 1 + 8 * f)).collect(),
                constant: f64_at(rec, 1),
                op: Self::op_of(rec),
            })
            .collect();
        GeneralizedTuple {
            dim: self.dim,
            constraints,
        }
    }

    /// The rows of a 2-D tuple in canonical `a·x + b·y ≤ r` form, read
    /// off the bytes. Lazy: only to be consumed when `dim() == 2`.
    pub(crate) fn le_rows_2d(&self) -> impl Iterator<Item = [f64; 3]> + 'a {
        self.body.chunks_exact(self.record_len()).map(|rec| {
            kernel2d::le_row(
                Self::op_of(rec),
                f64_at(rec, 9),
                f64_at(rec, 17),
                f64_at(rec, 1),
            )
        })
    }
}

impl std::fmt::Display for GeneralizedTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unit square [0,1]².
    fn unit_square() -> GeneralizedTuple {
        GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, 0.0, RelOp::Ge), // x >= 0
            LinearConstraint::new2d(-1.0, 0.0, 1.0, RelOp::Ge), // x <= 1
            LinearConstraint::new2d(0.0, 1.0, 0.0, RelOp::Ge), // y >= 0
            LinearConstraint::new2d(0.0, -1.0, 1.0, RelOp::Ge), // y <= 1
        ])
    }

    /// The paper's running example: x <= 2 && y >= 3 (unbounded quadrant).
    fn intro_example() -> GeneralizedTuple {
        GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, -2.0, RelOp::Le),
            LinearConstraint::new2d(0.0, 1.0, -3.0, RelOp::Ge),
        ])
    }

    #[test]
    fn membership() {
        let sq = unit_square();
        assert!(sq.contains(&[0.5, 0.5]));
        assert!(sq.contains(&[0.0, 1.0]));
        assert!(!sq.contains(&[1.5, 0.5]));
    }

    #[test]
    fn satisfiability() {
        assert!(unit_square().is_satisfiable());
        let empty = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, 0.0, RelOp::Ge), // x >= 0
            LinearConstraint::new2d(1.0, 0.0, 1.0, RelOp::Le), // x <= -1
        ]);
        assert!(!empty.is_satisfiable());
        assert!(empty.any_point().is_none());
    }

    #[test]
    fn any_point_is_member() {
        let t = intro_example();
        let p = t.any_point().expect("satisfiable");
        assert!(t.contains(&p), "{p:?}");
    }

    #[test]
    fn boundedness() {
        assert!(unit_square().is_bounded());
        assert!(!intro_example().is_bounded());
        assert!(!GeneralizedTuple::whole_space(2).is_bounded());
    }

    #[test]
    fn whole_space_contains_everything() {
        let w = GeneralizedTuple::whole_space(3);
        assert!(w.contains(&[1e6, -1e6, 0.0]));
        assert!(w.is_satisfiable());
    }

    #[test]
    fn bounding_box_of_square() {
        let (lo, hi) = unit_square().bounding_box().unwrap();
        assert!(lo[0].abs() < 1e-7 && lo[1].abs() < 1e-7);
        assert!((hi[0] - 1.0).abs() < 1e-7 && (hi[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn bounding_box_unbounded_is_none() {
        assert!(intro_example().bounding_box().is_none());
    }

    #[test]
    fn encode_decode_round_trip() {
        for t in [
            unit_square(),
            intro_example(),
            GeneralizedTuple::whole_space(3),
        ] {
            let bytes = t.encode();
            let back = GeneralizedTuple::decode(&bytes).expect("decodes");
            assert_eq!(back, t);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(GeneralizedTuple::decode(&[]).is_none());
        assert!(GeneralizedTuple::decode(&[1, 0, 1, 0, 7]).is_none());
        let mut good = unit_square().encode();
        good.truncate(good.len() - 1);
        assert!(GeneralizedTuple::decode(&good).is_none());
        // Bad op byte.
        let mut bad = unit_square().encode();
        bad[4] = 9;
        assert!(GeneralizedTuple::decode(&bad).is_none());
    }

    #[test]
    fn maximize_over_square() {
        match unit_square().maximize(&[1.0, 1.0]) {
            LpResult::Optimal { value, .. } => assert!((value - 2.0).abs() < 1e-7),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn maximize_unbounded_direction() {
        // Max y over {x <= 2, y >= 3}: unbounded.
        assert!(matches!(
            intro_example().maximize(&[0.0, 1.0]),
            LpResult::Unbounded
        ));
        // Min y over the same region: 3.
        match intro_example().minimize(&[0.0, 1.0]) {
            LpResult::Optimal { value, .. } => assert!((value - 3.0).abs() < 1e-7),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic]
    fn mixed_dimensions_rejected() {
        GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, 0.0, RelOp::Ge),
            LinearConstraint::new(vec![1.0, 0.0, 0.0], 0.0, RelOp::Ge),
        ]);
    }
}
