//! Brute-force vertex/ray enumeration for d-dimensional polyhedra.
//!
//! Every `d`-subset of constraint boundaries is solved as a dense linear
//! system and kept when feasible; extreme recession rays come from
//! `(d−1)`-subsets of the homogeneous system. Complexity is
//! `O(C(m, d)·d³)`, so the input is small: at most [`MAX_ROWS`] rows.
//! [`vertices`] is the vertex pass alone, for bounded input — the
//! slope-point cells of the d-dimensional dual index; [`enumerate`]
//! cross-validates the LP evaluator on tuples. [`solve_square`] and
//! [`Combinations`] are the workspace's one dense solver and one subset
//! iterator.

#![allow(clippy::needless_range_loop)] // index-parallel array math reads clearer here
use crate::scalar::EPS;
use crate::tuple::GeneralizedTuple;

/// The most constraint rows an enumeration takes.
pub const MAX_ROWS: usize = 32;

/// Vertices and extreme recession rays of a tuple's extension.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VRep {
    /// Vertices (empty for non-pointed polyhedra).
    pub vertices: Vec<Vec<f64>>,
    /// Extreme rays of the recession cone, normalized to unit length.
    /// Incomplete for non-pointed cones (lineality is not separated).
    pub rays: Vec<Vec<f64>>,
}

/// Enumerates vertices and extreme rays of `tuple`'s extension.
///
/// # Panics
/// Panics if the number of constraints exceeds [`MAX_ROWS`].
pub fn enumerate(tuple: &GeneralizedTuple) -> VRep {
    let (rows, rhs) = tuple.as_le_system();
    let d = tuple.dim();
    let vertices = vertices(&rows, &rhs, d);

    // Extreme rays: for each (d-1)-subset of the homogeneous system, the
    // null direction (if 1-dimensional) oriented to satisfy A r <= 0.
    let cone_ok = |r: &[f64]| {
        rows.iter().all(|a| {
            let v: f64 = a.iter().zip(r).map(|(ai, xi)| ai * xi).sum();
            v <= EPS * 10.0
        })
    };
    let mut rays: Vec<Vec<f64>> = Vec::new();
    if d >= 2 {
        let mut subsets = Combinations::new(rows.len(), d - 1);
        while let Some(combo) = subsets.advance() {
            let a: Vec<&[f64]> = combo.iter().map(|&i| rows[i].as_slice()).collect();
            if let Some(dir) = null_direction(&a, d) {
                for sign in [1.0, -1.0] {
                    let r: Vec<f64> = dir.iter().map(|x| x * sign).collect();
                    if cone_ok(&r) && !rays.iter().any(|q| vec_eq(q, &r)) {
                        rays.push(r);
                    }
                }
            }
        }
    }
    VRep { vertices, rays }
}

/// The vertices of `{x ∈ E^d : rows · x ≤ rhs}`, without the ray pass:
/// for a bounded polytope, which has none.
///
/// # Panics
/// Panics on more than [`MAX_ROWS`] rows.
pub fn vertices(rows: &[Vec<f64>], rhs: &[f64], d: usize) -> Vec<Vec<f64>> {
    assert!(
        rows.len() <= MAX_ROWS,
        "vertex_enum is for small inputs only"
    );
    let feasible = |p: &[f64]| {
        rows.iter().zip(rhs).all(|(a, &b)| {
            let v: f64 = a.iter().zip(p).map(|(ai, xi)| ai * xi).sum();
            v <= b + EPS * 10.0 * 1.0_f64.max(v.abs()).max(b.abs())
        })
    };
    let mut vertices: Vec<Vec<f64>> = Vec::new();
    let mut subsets = Combinations::new(rows.len(), d);
    while let Some(combo) = subsets.advance() {
        let a: Vec<&[f64]> = combo.iter().map(|&i| rows[i].as_slice()).collect();
        let b: Vec<f64> = combo.iter().map(|&i| rhs[i]).collect();
        if let Some(x) = solve_square(&a, &b) {
            if feasible(&x) && !vertices.iter().any(|v| vec_eq(v, &x)) {
                vertices.push(x);
            }
        }
    }
    vertices
}

fn vec_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| crate::scalar::approx_eq(*x, *y))
}

/// The `k`-subsets of `0..n` in lexicographic order, one at a time: each
/// [`advance`](Self::advance) rewrites the one index buffer in place.
#[derive(Clone, Debug)]
pub struct Combinations {
    idx: Vec<usize>,
    n: usize,
    started: bool,
}

impl Combinations {
    /// Before the first `k`-subset of `0..n`.
    pub fn new(n: usize, k: usize) -> Self {
        Combinations {
            // A `k` past `n` yields nothing: `n + 1` indices say as much.
            idx: (0..k.min(n + 1)).collect(),
            n,
            started: false,
        }
    }

    /// The next subset, ascending; `None` after the last (at once when
    /// `k > n`).
    pub fn advance(&mut self) -> Option<&[usize]> {
        let (n, k) = (self.n, self.idx.len());
        if k > n {
            return None;
        }
        if std::mem::replace(&mut self.started, true) {
            let i = (0..k).rfind(|&i| self.idx[i] != i + n - k)?;
            self.idx[i] += 1;
            for j in (i + 1)..k {
                self.idx[j] = self.idx[j - 1] + 1;
            }
        }
        Some(&self.idx)
    }
}

/// Solves the square system `A x = b` by Gaussian elimination with partial
/// pivoting; `None` if singular.
pub fn solve_square(a: &[&[f64]], b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    let mut m: Vec<Vec<f64>> = a
        .iter()
        .zip(b)
        .map(|(row, &bi)| {
            let mut r = row.to_vec();
            r.push(bi);
            r
        })
        .collect();
    for col in 0..n {
        let piv = (col..n).max_by(|&i, &j| {
            m[i][col]
                .abs()
                .partial_cmp(&m[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if m[piv][col].abs() < EPS {
            return None;
        }
        m.swap(col, piv);
        let p = m[col][col];
        for r in (col + 1)..n {
            let f = m[r][col] / p;
            if f != 0.0 {
                for c in col..=n {
                    m[r][c] -= f * m[col][c];
                }
            }
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut s = m[row][n];
        for c in (row + 1)..n {
            s -= m[row][c] * x[c];
        }
        x[row] = s / m[row][row];
    }
    Some(x)
}

/// Returns a unit vector spanning the null space of the `(d-1) × d` system
/// `A x = 0`, or `None` if the null space is not exactly 1-dimensional.
fn null_direction(a: &[&[f64]], d: usize) -> Option<Vec<f64>> {
    let k = a.len();
    debug_assert_eq!(k, d - 1);
    // Row-reduce A (k x d).
    let mut m: Vec<Vec<f64>> = a.iter().map(|r| r.to_vec()).collect();
    let mut pivots: Vec<usize> = Vec::new();
    let mut row = 0;
    for col in 0..d {
        let piv = (row..k).max_by(|&i, &j| {
            m[i][col]
                .abs()
                .partial_cmp(&m[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let Some(piv) = piv else { break };
        if m[piv][col].abs() < EPS {
            continue;
        }
        m.swap(row, piv);
        let p = m[row][col];
        for r in 0..k {
            if r != row {
                let f = m[r][col] / p;
                if f != 0.0 {
                    for c in 0..d {
                        m[r][c] -= f * m[row][c];
                    }
                }
            }
        }
        pivots.push(col);
        row += 1;
        if row == k {
            break;
        }
    }
    if pivots.len() != d - 1 {
        return None; // rank-deficient: null space dimension > 1
    }
    let free = (0..d).find(|c| !pivots.contains(c))?;
    let mut x = vec![0.0; d];
    x[free] = 1.0;
    for (r, &pc) in pivots.iter().enumerate() {
        x[pc] = -m[r][free] / m[r][pc];
    }
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    Some(x.iter().map(|v| v / norm).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{LinearConstraint, RelOp};
    use crate::dual;

    #[test]
    fn triangle_2d() {
        let t = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, 0.0, RelOp::Ge),
            LinearConstraint::new2d(0.0, 1.0, 0.0, RelOp::Ge),
            LinearConstraint::new2d(1.0, 1.0, -4.0, RelOp::Le),
        ]);
        let v = enumerate(&t);
        assert_eq!(v.vertices.len(), 3);
        assert!(v.rays.is_empty());
    }

    #[test]
    fn unit_cube_3d() {
        let mut cs = Vec::new();
        for i in 0..3 {
            let mut u = vec![0.0; 3];
            u[i] = 1.0;
            cs.push(LinearConstraint::new(u.clone(), 0.0, RelOp::Ge));
            cs.push(LinearConstraint::new(u, -1.0, RelOp::Le));
        }
        let cube = GeneralizedTuple::new(cs);
        let v = enumerate(&cube);
        assert_eq!(v.vertices.len(), 8);
        assert!(v.rays.is_empty());
    }

    #[test]
    fn quadrant_rays_2d() {
        // x <= 2 && y >= 3.
        let t = GeneralizedTuple::new(vec![
            LinearConstraint::new2d(1.0, 0.0, -2.0, RelOp::Le),
            LinearConstraint::new2d(0.0, 1.0, -3.0, RelOp::Ge),
        ]);
        let v = enumerate(&t);
        assert_eq!(v.vertices.len(), 1);
        assert_eq!(v.rays.len(), 2);
        for r in &v.rays {
            assert!(r[0] <= EPS && r[1] >= -EPS, "ray {r:?} leaves the cone");
        }
    }

    #[test]
    fn surfaces_match_lp_on_cube() {
        let mut cs = Vec::new();
        for i in 0..3 {
            let mut u = vec![0.0; 3];
            u[i] = 1.0;
            cs.push(LinearConstraint::new(u.clone(), 0.0, RelOp::Ge));
            cs.push(LinearConstraint::new(u, -1.0, RelOp::Le));
        }
        let cube = GeneralizedTuple::new(cs);
        let v = enumerate(&cube);
        for slope in [[0.0, 0.0], [1.0, -1.0], [0.5, 2.0]] {
            // TOP from vertices: max (z - b1 x - b2 y).
            let vt = v
                .vertices
                .iter()
                .map(|p| p[2] - slope[0] * p[0] - slope[1] * p[1])
                .fold(f64::NEG_INFINITY, f64::max);
            let lt = dual::top(&cube, &slope).unwrap();
            assert!((vt - lt).abs() < 1e-6, "slope {slope:?}: {vt} vs {lt}");
        }
    }

    #[test]
    fn combinations_counts() {
        let count = |n, k| {
            let mut subsets = Combinations::new(n, k);
            std::iter::from_fn(|| subsets.advance().map(<[usize]>::to_vec)).count()
        };
        assert_eq!(count(5, 2), 10);
        assert_eq!(count(4, 4), 1);
        assert_eq!(count(3, 4), 0);
        assert_eq!(count(6, 1), 6);
        assert_eq!(count(3, 0), 1);
        let mut subsets = Combinations::new(4, 2);
        let all: Vec<Vec<usize>> =
            std::iter::from_fn(|| subsets.advance().map(<[usize]>::to_vec)).collect();
        assert_eq!(all[..3], [vec![0, 1], vec![0, 2], vec![0, 3]]);
        assert_eq!(all[5], [2, 3]);
        assert_eq!(subsets.advance(), None, "stays exhausted");
    }

    #[test]
    fn vertices_of_a_box_skip_the_ray_pass() {
        let rows = vec![
            vec![-1.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, -1.0],
            vec![0.0, 1.0],
        ];
        let v = vertices(&rows, &[0.5, 1.0, 0.0, 2.0], 2);
        assert_eq!(v.len(), 4);
        assert!(
            v.contains(&vec![-0.5, 2.0]) && v.contains(&vec![1.0, 0.0]),
            "{v:?}"
        );
    }

    #[test]
    fn solve_square_simple() {
        let a: Vec<&[f64]> = vec![&[2.0, 0.0], &[0.0, 4.0]];
        let x = solve_square(&a, &[4.0, 8.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9 && (x[1] - 2.0).abs() < 1e-9);
        let singular: Vec<&[f64]> = vec![&[1.0, 1.0], &[2.0, 2.0]];
        assert!(solve_square(&singular, &[1.0, 2.0]).is_none());
    }
}
