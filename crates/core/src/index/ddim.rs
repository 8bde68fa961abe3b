//! The d-dimensional extension (Section 4.4): [`SlopePoints`], the second
//! [`SlopeGeometry`] of the one [`DualIndex`], and its routing table.
//!
//! In `E^d` the predefined set `S` becomes a set of *slope points* in
//! `E^{d-1}`; every point carries a `B^up`/`B^down` tree pair keyed by
//! `TOP_P`/`BOT_P` evaluated at that point. Queries whose slope is in `S`
//! are exact, exactly as in 2-D.
//!
//! For an arbitrary slope the paper notes that "d searches against d
//! different B⁺-trees are sufficient in `E^d`": this module routes to that
//! generalized T1. The query slope is covered by a simplex of `d` points of
//! `S`; the `d` app-queries share the point `P = (0, …, 0, b)` on the query
//! hyperplane, so each app-query keeps the intercept `b` and the original
//! operator. Covering proof: if a point `x` fails every app-query
//! (`x_d < sʲ·x' + b` for all `j`), any convex combination with the
//! barycentric weights of the query slope gives `x_d < s·x' + b`, i.e. `x`
//! fails the original query too. ALL selections run one ALL app-query plus
//! `d−1` EXIST app-queries (the Figure 4 argument, unchanged).
//!
//! For **grid** slope sets ([`SlopePoints::grid`]) the d-dimensional
//! **technique T2** is also available and is the default: the Voronoi cell
//! of a grid point is a box, so a tuple's *reach* over the cell is the
//! maximum of `TOP_P` (resp. minimum of `BOT_P`) over the cell's `2^{d-1}`
//! corners — exact because the surfaces are convex/concave and the cell is
//! the convex hull of its corners. One low/high handicap pair per leaf then
//! drives the same two-sweep, duplicate-free search as in 2-D. (The paper
//! sketches per-Voronoi-edge handicaps, `4·d` per leaf, for arbitrary point
//! sets; whole-cell reaches are a correct, slightly looser specialization
//! that a box grid makes exact.)
//!
//! Slopes outside the convex hull of `S` are rejected — choose `S` to cover
//! the query workload's slope region. The experiments of Section 5 are all
//! 2-D; `dimension_sweep` exercises this module for the Section 6 claim.

use cdb_geometry::{scalar, simplex};
use cdb_storage::codec::{get_option, put_option, Finite};
use cdb_storage::{CodecError, RecordReader, RecordWriter, Wire};

use super::{DualIndex, Region, SlopeGeometry};
use crate::plan::{PlanCase, Rejection};
use crate::query::{Selection, Side};

/// How far outside a simplex (in barycentric weight) or the hull of `S`
/// (in slope coordinates) a slope may lie and still count as covered.
const HULL_TOLERANCE: f64 = 1e-9;

/// A predefined set of slope points in `E^{d-1}`.
#[derive(Clone, Debug, PartialEq)]
pub struct SlopePoints {
    dim: usize, // ambient space dimension d
    points: Vec<Vec<f64>>,
    /// For grid-constructed sets: the sorted coordinate values per slope
    /// axis. Point `i` has multi-index `(i / per^j) % per` on axis `j`.
    grid_axes: Option<Vec<Vec<f64>>>,
}

/// The write-ahead log's layout: the dimension, then the body.
impl Wire for SlopePoints {
    fn put(&self, w: &mut RecordWriter) {
        self.dim.put(w);
        self.put_body(w)
    }
    fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
        let dim = usize::get(r)?;
        Self::get_body(r, dim)
    }
}

impl SlopePoints {
    /// Builds a set of slope points for a `dim`-dimensional space; each
    /// point must have `dim − 1` coordinates.
    ///
    /// # Panics
    /// Panics on dimension mismatches, non-finite coordinates or fewer
    /// than `dim` points (a covering simplex needs `d` vertices).
    pub fn new(dim: usize, points: Vec<Vec<f64>>) -> Self {
        Self::try_from_parts(dim, points, None).unwrap_or_else(|why| panic!("{why}"))
    }

    /// The one place a slope-point set is validated, grid axes included —
    /// for parts from outside the program (a log record, the catalog).
    ///
    /// # Errors
    /// The reason: `dim < 2`, a point outside `E^(d-1)`, a non-finite
    /// coordinate, fewer than `d` points (a covering simplex needs `d`
    /// vertices), or grid axes that do not index exactly the points.
    pub(crate) fn try_from_parts(
        dim: usize,
        points: Vec<Vec<f64>>,
        grid_axes: Option<Vec<Vec<f64>>>,
    ) -> Result<Self, &'static str> {
        if dim < 2 {
            return Err("dimension must be at least 2");
        }
        if points.iter().any(|p| p.len() != dim - 1) {
            return Err("slope points live in E^(d-1)");
        }
        if points.len() < dim {
            return Err("need at least d slope points for simplex covering");
        }
        if !(points.all_finite() && grid_axes.iter().all(Finite::all_finite)) {
            return Err("slope coordinates must be finite");
        }
        if let Some(axes) = &grid_axes {
            let cells = axes.iter().try_fold(1usize, |n, a| n.checked_mul(a.len()));
            if axes.len() != dim - 1 || cells != Some(points.len()) {
                return Err("grid axes must index exactly the slope points");
            }
        }
        Ok(SlopePoints {
            dim,
            points,
            grid_axes,
        })
    }

    /// A regular grid of `per_axis^(d-1)` points over `[-range, range]` in
    /// each slope coordinate.
    ///
    /// # Panics
    /// Panics where [`try_grid`](Self::try_grid) refuses.
    pub fn grid(dim: usize, per_axis: usize, range: f64) -> Self {
        Self::try_grid(dim, per_axis, range).unwrap_or_else(|why| panic!("{why}"))
    }

    /// [`grid`](Self::grid) for parameters from outside the program (a
    /// request, the shell).
    ///
    /// # Errors
    /// The reason: `dim < 2`, `per_axis < 2`, a range that is not a positive
    /// finite number, or a point count beyond `usize`.
    pub fn try_grid(dim: usize, per_axis: usize, range: f64) -> Result<Self, &'static str> {
        if dim < 2 {
            return Err("the d-dimensional dual index needs a relation of dimension >= 2");
        }
        if per_axis < 2 {
            return Err("grid needs per_axis >= 2");
        }
        if !(range.is_finite() && range > 0.0) {
            return Err("grid range must be positive");
        }
        let axis: Vec<f64> = (0..per_axis)
            .map(|i| -range + 2.0 * range * i as f64 / (per_axis - 1) as f64)
            .collect();
        let cells = per_axis
            .checked_pow(dim as u32 - 1)
            .ok_or("grid has too many points")?;
        // Point `i` has multi-index `(i / per^j) % per` on axis `j`.
        let points = (0..cells)
            .map(|i| {
                (0..dim - 1)
                    .map(|j| axis[i / per_axis.pow(j as u32) % per_axis])
                    .collect()
            })
            .collect();
        Self::try_from_parts(dim, points, Some(vec![axis; dim - 1]))
    }

    /// Everything but the dimension, which in the catalog the owning
    /// relation supplies: the point count, `dim − 1` coordinates per point,
    /// a presence byte and the grid axes as `dim − 1` counted lists.
    pub(crate) fn put_body(&self, w: &mut RecordWriter) {
        self.points.len().put(w);
        for p in &self.points {
            w.put_seq(p);
        }
        put_option(self.grid_axes.as_ref(), w, |axes, w| w.put_seq(axes));
    }

    /// Mirror of [`put_body`](Self::put_body), validated by
    /// [`try_from_parts`](Self::try_from_parts).
    pub(crate) fn get_body(r: &mut RecordReader<'_>, dim: usize) -> Result<Self, CodecError> {
        if dim < 2 {
            // Zero-coordinate points would read no bytes: nothing would
            // bound a forged count.
            return Err(CodecError::Invalid("slope points dimension"));
        }
        let mut points = Vec::new();
        for _ in 0..usize::get(r)? {
            points.push(r.get_seq(dim - 1)?);
        }
        let grid_axes = get_option(r, |r| r.get_seq(dim - 1))?;
        Self::try_from_parts(dim, points, grid_axes).map_err(CodecError::Invalid)
    }

    /// Ambient dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of slope points `k`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Never true (construction requires `≥ d ≥ 2` points).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The slope points.
    pub fn as_slice(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// Index of a (numerically) matching member point.
    pub fn position(&self, slope: &[f64]) -> Option<usize> {
        self.points
            .iter()
            .position(|p| p.iter().zip(slope).all(|(a, b)| scalar::approx_eq(*a, *b)))
    }

    /// Finds `d` member points whose simplex contains `slope`, preferring
    /// nearby points. Returns the member indices. A slope outside the hull
    /// of `S` is refused by one feasibility LP before any of the `C(k, d)`
    /// subsets is tried.
    pub fn containing_simplex(&self, slope: &[f64]) -> Option<Vec<usize>> {
        if !self.hull_contains(slope) {
            return None;
        }
        let d = self.dim; // simplex size in E^{d-1}
        let mut order: Vec<usize> = (0..self.points.len()).collect();
        let dist = |i: usize| -> f64 {
            self.points[i]
                .iter()
                .zip(slope)
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        };
        order.sort_by(|&i, &j| dist(i).partial_cmp(&dist(j)).unwrap());
        // Try combinations of the nearest points first, one at a time:
        // there are C(k, d) of them.
        let mut combo: Vec<usize> = (0..d).collect();
        loop {
            let pick: Vec<usize> = combo.iter().map(|&c| order[c]).collect();
            let verts: Vec<&[f64]> = pick.iter().map(|&i| self.points[i].as_slice()).collect();
            if barycentric(&verts, slope).is_some_and(|l| l.iter().all(|&w| w >= -HULL_TOLERANCE)) {
                return Some(pick);
            }
            if !next_combination(&mut combo, order.len()) {
                return None;
            }
        }
    }

    /// Whether `slope` is a convex combination of the points: `λ ≥ 0`,
    /// `Σλ = 1`, `Σ λᵢ pᵢ = slope`, each equality widened by
    /// [`HULL_TOLERANCE`].
    fn hull_contains(&self, slope: &[f64]) -> bool {
        let k = self.points.len();
        // `λᵢ ≥ 0` as `−λᵢ ≤ 0`; below, each equality as two inequalities.
        let nonnegative = |i: usize| (0..k).map(|j| if i == j { -1.0 } else { 0.0 }).collect();
        let mut rows: Vec<Vec<f64>> = (0..k).map(nonnegative).collect();
        let mut rhs = vec![0.0; k];
        let coordinates =
            (0..self.dim - 1).map(|j| (self.points.iter().map(|p| p[j]).collect(), slope[j]));
        for (row, value) in std::iter::once((vec![1.0; k], 1.0)).chain(coordinates) {
            rows.extend([row.iter().map(|a| -a).collect(), row]);
            rhs.extend([HULL_TOLERANCE - value, value + HULL_TOLERANCE]);
        }
        simplex::feasible_point(k, &rows, &rhs).is_some()
    }
}

impl SlopePoints {
    /// `true` when the set was built by [`grid`](Self::grid), enabling the
    /// d-dimensional technique T2.
    pub fn is_grid(&self) -> bool {
        self.grid_axes.is_some()
    }

    /// Index of the grid point whose (box) Voronoi cell contains `slope`;
    /// `None` outside the hull (the grid bounding box) and for non-grid sets.
    pub fn nearest_grid(&self, slope: &[f64]) -> Option<usize> {
        let axes = self.grid_axes.as_ref()?;
        let mut index = 0usize;
        let mut stride = 1usize;
        for (axis, &v) in axes.iter().zip(slope) {
            if v < axis[0] - 1e-12 || v > axis[axis.len() - 1] + 1e-12 {
                return None;
            }
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (i, &c) in axis.iter().enumerate() {
                let d = (c - v).abs();
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            index += best * stride;
            stride *= axis.len();
        }
        Some(index)
    }

    /// The `2^{d-1}` corners of grid point `i`'s cell: per axis, the
    /// midpoints toward the neighbouring coordinates (clipped to the hull at
    /// the boundary).
    pub fn cell_corners(&self, i: usize) -> Option<Vec<Vec<f64>>> {
        let ranges = self.cell_ranges(i)?;
        // Odometer over the corner choices.
        let d1 = ranges.len();
        let mut corners = Vec::with_capacity(1 << d1);
        for mask in 0..(1usize << d1) {
            corners.push(
                ranges
                    .iter()
                    .enumerate()
                    .map(|(j, &(lo, hi))| if mask & (1 << j) != 0 { hi } else { lo })
                    .collect(),
            );
        }
        Some(corners)
    }

    /// Per-axis slope-space extent of grid point `i`'s Voronoi cell — the
    /// band the whole-cell handicaps over-cover by. Boundary cells are
    /// clipped to the hull, so their widths (and the planner's estimated
    /// T2 overshoot) are smaller.
    pub fn cell_widths(&self, i: usize) -> Option<Vec<f64>> {
        Some(
            self.cell_ranges(i)?
                .iter()
                .map(|(lo, hi)| hi - lo)
                .collect(),
        )
    }

    /// Per-axis `[lo, hi]` bounds of grid point `i`'s Voronoi cell: the
    /// midpoints toward the neighbouring coordinates, clipped to the hull
    /// at the boundary.
    fn cell_ranges(&self, i: usize) -> Option<Vec<(f64, f64)>> {
        let axes = self.grid_axes.as_ref()?;
        let mut ranges: Vec<(f64, f64)> = Vec::with_capacity(axes.len());
        let mut rest = i;
        for axis in axes {
            let per = axis.len();
            let mi = rest % per;
            rest /= per;
            let lo = if mi == 0 {
                axis[0]
            } else {
                (axis[mi - 1] + axis[mi]) / 2.0
            };
            let hi = if mi + 1 == per {
                axis[per - 1]
            } else {
                (axis[mi] + axis[mi + 1]) / 2.0
            };
            ranges.push((lo, hi));
        }
        Some(ranges)
    }
}

/// Barycentric coordinates of `p` w.r.t. `verts` (`n` points in `E^{n-1}`),
/// or `None` if degenerate.
#[allow(clippy::needless_range_loop)] // dense Gaussian elimination
fn barycentric(verts: &[&[f64]], p: &[f64]) -> Option<Vec<f64>> {
    let n = verts.len();
    debug_assert_eq!(p.len(), n - 1);
    // Solve [v1 … vn; 1 … 1] λ = [p; 1].
    let mut m: Vec<Vec<f64>> = Vec::with_capacity(n);
    for r in 0..(n - 1) {
        let mut row: Vec<f64> = verts.iter().map(|v| v[r]).collect();
        row.push(p[r]);
        m.push(row);
    }
    let mut last = vec![1.0; n + 1];
    last[n] = 1.0;
    m.push(last);
    // Gaussian elimination with partial pivoting.
    for col in 0..n {
        let piv = (col..n).max_by(|&i, &j| {
            m[i][col]
                .abs()
                .partial_cmp(&m[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if m[piv][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, piv);
        let p0 = m[col][col];
        for r in 0..n {
            if r != col {
                let f = m[r][col] / p0;
                if f != 0.0 {
                    for c in col..=n {
                        m[r][c] -= f * m[col][c];
                    }
                }
            }
        }
    }
    Some((0..n).map(|i| m[i][n] / m[i][i]).collect())
}

/// Advances `idx`, a `k`-subset of `0..n` in ascending order, to the next
/// one in smallest-index-first order; `false` after the last.
fn next_combination(idx: &mut [usize], n: usize) -> bool {
    let k = idx.len();
    let Some(i) = (0..k).rfind(|&i| idx[i] != i + n - k) else {
        return false;
    };
    idx[i] += 1;
    for j in (i + 1)..k {
        idx[j] = idx[j - 1] + 1;
    }
    true
}

impl SlopeGeometry for SlopePoints {
    fn elements(&self) -> impl Iterator<Item = &[f64]> {
        self.points.iter().map(Vec::as_slice)
    }

    /// A grid point answers for its whole (box) Voronoi cell, in the
    /// `low_prev`/`high_prev` leaf slots.
    fn regions(&self, i: usize) -> Vec<Region> {
        let cell = self.cell_corners(i).map(|corners| (Side::Prev, corners));
        cell.into_iter().collect()
    }

    fn routes(case: &PlanCase) -> bool {
        use PlanCase::*;
        matches!(case, MemberPoint { .. } | GridCell(_) | SimplexCovering(_))
    }
}

/// The dual index over a d-dimensional generalized relation: the same
/// index as in 2-D, keyed by slope points and routed by Section 4.4.
pub type DualIndexD = DualIndex<SlopePoints>;

impl DualIndex<SlopePoints> {
    /// The slope-point set `S`.
    pub fn points(&self) -> &SlopePoints {
        &self.geometry
    }

    /// The routing table of Section 4.4: a member slope point is searched
    /// exactly; on a grid set the box Voronoi cell around the query slope
    /// takes the d-dimensional technique T2 (single tree, two
    /// handicap-guided sweeps, duplicate-free); any other set covers the
    /// slope with a simplex of `d` points (generalized T1).
    ///
    /// # Errors
    /// The [`Rejection`]: a query of another dimension, or a slope outside
    /// the hull of `S` — on a grid set that is the grid box, so no simplex
    /// is searched for.
    pub fn route(&self, sel: &Selection) -> Result<PlanCase, Rejection> {
        Rejection::dimension(self.geometry.dim(), sel)?;
        let slope = &sel.halfplane.slope;
        let outside = || Rejection::OutsideHull(slope.clone());
        if let Some(i) = self.points().position(slope) {
            Ok(PlanCase::MemberPoint {
                i,
                slope: slope.clone(),
            })
        } else if self.points().is_grid() {
            let cell = self.points().nearest_grid(slope).ok_or_else(outside)?;
            Ok(PlanCase::GridCell(cell))
        } else {
            let vertices = self
                .points()
                .containing_simplex(slope)
                .ok_or_else(outside)?;
            Ok(PlanCase::SimplexCovering(vertices))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::error::CdbError;
    use crate::index::Exact;
    use crate::plan::TreeAt;
    use crate::query::{QueryResult, SelectionKind};
    use cdb_geometry::constraint::{LinearConstraint, RelOp};
    use cdb_geometry::halfplane::HalfPlane;
    use cdb_geometry::predicates;
    use cdb_geometry::tuple::GeneralizedTuple;
    use cdb_prng::StdRng;
    use cdb_storage::{MemPager, PageReader};

    /// Random axis-aligned boxes in E^d (satisfiable, bounded).
    pub(crate) fn random_boxes(dim: usize, n: usize, seed: u64) -> Vec<(u32, GeneralizedTuple)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let mut cs = Vec::new();
                for k in 0..dim {
                    let lo: f64 = rng.gen_range(-50.0..45.0);
                    let hi = lo + rng.gen_range(0.5..5.0);
                    let mut a = vec![0.0; dim];
                    a[k] = 1.0;
                    cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
                    cs.push(LinearConstraint::new(a, -hi, RelOp::Le));
                }
                (i as u32, GeneralizedTuple::new(cs))
            })
            .collect()
    }

    fn oracle(pairs: &[(u32, GeneralizedTuple)], sel: &Selection) -> Vec<u32> {
        pairs
            .iter()
            .filter(|(_, t)| match sel.kind {
                SelectionKind::All => predicates::all(&sel.halfplane, t),
                SelectionKind::Exist => predicates::exist(&sel.halfplane, t),
            })
            .map(|(id, _)| *id)
            .collect()
    }

    fn run(
        idx: &DualIndexD,
        pager: &MemPager,
        pairs: &[(u32, GeneralizedTuple)],
        sel: &Selection,
    ) -> QueryResult {
        let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs.iter().cloned().collect();
        let fetch = move |_: &dyn PageReader, id: u32| lookup[&id].clone();
        let case = idx.route(sel).expect("in-hull slope");
        idx.run(pager, sel, &case, Exact::Selection, &fetch)
            .expect("query")
    }

    #[test]
    fn grid_generation() {
        let g = SlopePoints::grid(3, 3, 1.0);
        assert_eq!(g.dim(), 3);
        assert_eq!(g.len(), 9);
        assert!(g.position(&[0.0, 0.0]).is_some());
        assert!(g.position(&[-1.0, 1.0]).is_some());
        assert!(g.position(&[0.3, 0.0]).is_none());
    }

    #[test]
    fn simplex_containment() {
        let g = SlopePoints::grid(3, 3, 1.0);
        let s = g.containing_simplex(&[0.2, -0.3]).expect("inside hull");
        assert_eq!(s.len(), 3);
        assert!(g.containing_simplex(&[5.0, 0.0]).is_none(), "outside hull");
    }

    #[test]
    fn barycentric_simple() {
        let verts: Vec<&[f64]> = vec![&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]];
        let l = barycentric(&verts, &[0.25, 0.25]).unwrap();
        assert!((l[0] - 0.5).abs() < 1e-9);
        assert!((l[1] - 0.25).abs() < 1e-9);
        assert!((l[2] - 0.25).abs() < 1e-9);
        // Degenerate (collinear) vertices.
        let degen: Vec<&[f64]> = vec![&[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0]];
        assert!(barycentric(&degen, &[0.5, 0.5]).is_none());
    }

    #[test]
    fn member_slope_queries_are_exact_3d() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(3, 150, 5);
        let idx = DualIndexD::build(&mut pager, SlopePoints::grid(3, 3, 1.0), &pairs).unwrap();
        for slope in [vec![0.0, 0.0], vec![1.0, -1.0], vec![0.0, 1.0]] {
            for kind in [SelectionKind::All, SelectionKind::Exist] {
                for op in [RelOp::Ge, RelOp::Le] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new(slope.clone(), 3.0, op),
                    };
                    let got = run(&idx, &pager, &pairs, &sel);
                    assert_eq!(got.ids(), oracle(&pairs, &sel), "{kind:?} {op:?} {slope:?}");
                }
            }
        }
    }

    #[test]
    fn simplex_covering_matches_oracle_3d() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(3, 200, 7);
        let idx = DualIndexD::build(&mut pager, SlopePoints::grid(3, 3, 1.5), &pairs).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..12 {
            let slope = vec![rng.gen_range(-1.2..1.2), rng.gen_range(-1.2..1.2)];
            let b = rng.gen_range(-40.0..40.0);
            for kind in [SelectionKind::All, SelectionKind::Exist] {
                for op in [RelOp::Ge, RelOp::Le] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new(slope.clone(), b, op),
                    };
                    let got = run(&idx, &pager, &pairs, &sel);
                    assert_eq!(
                        got.ids(),
                        oracle(&pairs, &sel),
                        "{kind:?} {op:?} {slope:?} {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn four_dimensional_queries() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(4, 80, 9);
        let idx = DualIndexD::build(&mut pager, SlopePoints::grid(4, 2, 1.0), &pairs).unwrap();
        let sel = Selection::exist(HalfPlane::new(vec![0.3, -0.2, 0.5], 0.0, RelOp::Ge));
        let got = run(&idx, &pager, &pairs, &sel);
        assert_eq!(got.ids(), oracle(&pairs, &sel));
        let sel2 = Selection::all(HalfPlane::new(vec![0.0, 0.0, 0.0], 100.0, RelOp::Le));
        let got2 = run(&idx, &pager, &pairs, &sel2);
        assert_eq!(got2.len(), 80, "everything is below w = 100");
    }

    #[test]
    fn outside_hull_is_rejected() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(3, 20, 13);
        let idx = DualIndexD::build(&mut pager, SlopePoints::grid(3, 2, 1.0), &pairs).unwrap();
        let sel = Selection::exist(HalfPlane::new(vec![3.0, 0.0], 0.0, RelOp::Ge));
        assert_eq!(idx.route(&sel), Err(Rejection::OutsideHull(vec![3.0, 0.0])));
        // A case another index routed is refused, not run.
        let fetch = |_: &dyn PageReader, _: u32| -> GeneralizedTuple { unreachable!() };
        assert!(matches!(
            idx.run(
                &pager,
                &sel,
                &PlanCase::FullScan(20),
                Exact::Selection,
                &fetch
            ),
            Err(CdbError::UnsupportedQuery(_))
        ));
    }

    /// Regression: an out-of-box slope on a grid set used to fall through
    /// to `containing_simplex`, which materialised all `C(k, d)` subsets —
    /// 88 M `Vec`s for this 4-D grid of 216 points, enough to abort the
    /// process. The grid box is the hull: the slope is rejected at once.
    #[test]
    fn out_of_box_slope_on_a_grid_is_rejected_without_a_simplex_search() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(4, 10, 41);
        let idx = DualIndexD::build(&mut pager, SlopePoints::grid(4, 6, 1.0), &pairs).unwrap();
        let slope = vec![0.2, -1.5, 0.3];
        let sel = Selection::exist(HalfPlane::new(slope.clone(), 0.0, RelOp::Ge));
        let (routed, peak) = cdb_storage::conformance::peak_during(|| idx.route(&sel));
        assert_eq!(routed, Err(Rejection::OutsideHull(slope)));
        assert!(peak < 4096, "allocated {peak} bytes to reject a slope");
    }

    /// A non-grid set still searches for a simplex, one subset at a time —
    /// and only inside the hull. Regression: outside it, all C(64, 4) =
    /// 635 376 subsets of this set were tried (a quarter second per
    /// query); one feasibility LP now refuses the slope.
    #[test]
    fn simplex_search_holds_one_subset_at_a_time() {
        use cdb_storage::conformance::{allocations_during, peak_during};
        let mut rng = StdRng::seed_from_u64(43);
        let points: Vec<Vec<f64>> = (0..64)
            .map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let free = SlopePoints::new(4, points);
        let outside = [5.0, 5.0, 0.0];
        let (found, calls) = allocations_during(|| free.containing_simplex(&outside));
        assert_eq!(found, None);
        assert!(calls < 1000, "{calls} allocations to refuse a slope");
        let (_, peak) = peak_during(|| free.containing_simplex(&outside));
        assert!(peak < 4096, "held {peak} bytes at once");
        let inside = free.containing_simplex(&[0.0, 0.0, 0.0]).expect("inside");
        let verts: Vec<&[f64]> = inside
            .iter()
            .map(|&i| free.as_slice()[i].as_slice())
            .collect();
        let weights = barycentric(&verts, &[0.0, 0.0, 0.0]).unwrap();
        assert!(weights.iter().all(|&w| w >= -1e-9), "{weights:?}");
    }

    /// `run` is public and takes any case a caller builds: elements of
    /// `S` the forest does not have are an error like any foreign case —
    /// a case of the 2-D routing table (run, a `Between` would read cell
    /// handicaps as strips), a grid cell on a point set that has none.
    #[test]
    fn a_case_naming_a_tree_the_forest_lacks_is_an_error_not_a_panic() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(3, 10, 5);
        let idx = DualIndexD::build(&mut pager, SlopePoints::grid(3, 2, 1.0), &pairs).unwrap();
        let fetch = |_: &dyn PageReader, _: u32| -> GeneralizedTuple { unreachable!() };
        let sel = Selection::exist(HalfPlane::new(vec![0.1, 0.2], 0.0, RelOp::Ge));
        let k = idx.points().len();
        for case in [
            PlanCase::GridCell(k),
            PlanCase::SimplexCovering(vec![0, 1, k + 7]),
            PlanCase::MemberPoint {
                i: usize::MAX,
                slope: vec![0.1, 0.2],
            },
            PlanCase::FullScan(10),
            PlanCase::Between {
                lo: 0.0,
                hi: 1.0,
                near: TreeAt { i: 0, slope: 0.0 },
                side: Side::Prev,
            },
            PlanCase::AppQueries([(TreeAt { i: 0, slope: 0.0 }, RelOp::Ge); 2]),
        ] {
            let got = idx.run(&pager, &sel, &case, Exact::Selection, &fetch);
            assert!(
                matches!(got, Err(CdbError::UnsupportedQuery(_))),
                "{case}: {got:?}"
            );
        }
        let bare = SlopePoints::new(3, vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
        let idx = DualIndexD::build(&mut pager, bare, &pairs).unwrap();
        let got = idx.run(
            &pager,
            &sel,
            &PlanCase::GridCell(0),
            Exact::Selection,
            &fetch,
        );
        assert!(matches!(got, Err(CdbError::UnsupportedQuery(_))), "{got:?}");
    }

    #[test]
    fn t2d_and_simplex_agree_with_oracle() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(3, 250, 31);
        let idx = DualIndexD::build(&mut pager, SlopePoints::grid(3, 3, 1.5), &pairs).unwrap();
        let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs.iter().cloned().collect();
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..10 {
            let slope = vec![rng.gen_range(-1.3..1.3), rng.gen_range(-1.3..1.3)];
            let b = rng.gen_range(-45.0..45.0);
            for kind in [SelectionKind::All, SelectionKind::Exist] {
                for op in [RelOp::Ge, RelOp::Le] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new(slope.clone(), b, op),
                    };
                    let want = oracle(&pairs, &sel);
                    let l1 = lookup.clone();
                    let f1 = move |_: &dyn PageReader, id: u32| l1[&id].clone();
                    let cell = idx.route(&sel).unwrap();
                    assert!(matches!(cell, PlanCase::GridCell(_)), "{cell:?}");
                    let t2 = idx.run(&pager, &sel, &cell, Exact::Selection, &f1).unwrap();
                    let l2 = lookup.clone();
                    let f2 = move |_: &dyn PageReader, id: u32| l2[&id].clone();
                    // The forced-simplex ablation: same entry point, another case.
                    let vertices = idx.points().containing_simplex(&slope).unwrap();
                    let simplex = PlanCase::SimplexCovering(vertices);
                    let t1 = idx
                        .run(&pager, &sel, &simplex, Exact::Selection, &f2)
                        .unwrap();
                    assert_eq!(t2.ids(), want.as_slice(), "T2-d {kind:?} {op:?} {slope:?}");
                    assert_eq!(
                        t1.ids(),
                        want.as_slice(),
                        "simplex {kind:?} {op:?} {slope:?}"
                    );
                    // T2-d is duplicate-free; the simplex covering may not be.
                    assert_eq!(t2.stats.duplicates, 0);
                }
            }
        }
    }

    #[test]
    fn cell_geometry() {
        let g = SlopePoints::grid(3, 3, 1.0); // axes: [-1, 0, 1] x [-1, 0, 1]
        assert!(g.is_grid());
        // Point 4 is the centre (0,0); its cell is [-0.5,0.5]^2.
        assert_eq!(g.as_slice()[4], vec![0.0, 0.0]);
        let corners = g.cell_corners(4).unwrap();
        assert_eq!(corners.len(), 4);
        for c in &corners {
            assert!(c[0].abs() == 0.5 && c[1].abs() == 0.5, "{c:?}");
        }
        // Corner point 0 = (-1,-1): cell clipped at the hull.
        let corners0 = g.cell_corners(0).unwrap();
        for c in &corners0 {
            assert!((-1.0..=-0.5).contains(&c[0]) && (-1.0..=-0.5).contains(&c[1]));
        }
        // Nearest-cell lookup.
        assert_eq!(g.nearest_grid(&[0.2, -0.1]), Some(4));
        assert_eq!(g.nearest_grid(&[-0.9, -0.8]), Some(0));
        assert_eq!(g.nearest_grid(&[2.0, 0.0]), None, "outside hull");
        // Non-grid sets have no cells.
        let free = SlopePoints::new(3, vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert!(!free.is_grid());
        assert!(free.cell_corners(0).is_none());
        assert!(free.nearest_grid(&[0.1, 0.1]).is_none());
    }

    #[test]
    fn unbounded_tuples_in_3d() {
        let mut pager = MemPager::paper_1999();
        // A slab 0 <= z <= 1 (unbounded in x, y) plus a box.
        let slab = GeneralizedTuple::new(vec![
            LinearConstraint::new(vec![0.0, 0.0, 1.0], 0.0, RelOp::Ge),
            LinearConstraint::new(vec![0.0, 0.0, 1.0], -1.0, RelOp::Le),
        ]);
        let mut pairs = random_boxes(3, 10, 21);
        pairs.push((100, slab));
        let idx = DualIndexD::build(&mut pager, SlopePoints::grid(3, 3, 1.0), &pairs).unwrap();
        // z >= 0 contains the slab? The slab extends from z=0 to z=1: yes.
        let sel = Selection::all(HalfPlane::new(vec![0.0, 0.0], 0.0, RelOp::Ge));
        let got = run(&idx, &pager, &pairs, &sel);
        assert!(got.ids().contains(&100));
        // Any tilted half-space z >= 0.5x intersects the slab but cannot
        // contain it.
        let tilted = HalfPlane::new(vec![0.5, 0.0], 0.0, RelOp::Ge);
        let got = run(&idx, &pager, &pairs, &Selection::exist(tilted.clone()));
        assert!(got.ids().contains(&100));
        let got = run(&idx, &pager, &pairs, &Selection::all(tilted));
        assert!(!got.ids().contains(&100));
    }
}
