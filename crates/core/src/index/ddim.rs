//! The d-dimensional extension (Section 4.4): [`SlopePoints`], the
//! geometry of the one [`DualIndex`](super::DualIndex) in `E^d`, and its
//! routing table.
//!
//! In `E^d` the predefined set `S` becomes a set of *slope points* in
//! `E^{d-1}`; every point carries a `B^up`/`B^down` tree pair keyed by
//! `TOP_P`/`BOT_P` evaluated at that point. Queries whose slope is in `S`
//! are exact, exactly as in 2-D.
//!
//! Any other slope in the bounding box of `S` takes the d-dimensional
//! **technique T2**, routed "via the Voronoi partition of S": to its
//! nearest element, whose handicaps answer for that element's Voronoi cell
//! clipped to the box. A tuple's *reach* over the cell is the maximum of
//! `TOP_P` (resp. minimum of `BOT_P`) over the cell's vertices — exact
//! because the surfaces are convex/concave and the cell is the convex hull
//! of its vertices. One low/high handicap pair per leaf then drives the
//! same two-sweep, duplicate-free search as in 2-D. Each cell is cut once
//! per index from the box by the bisectors of the `3(d−1)` nearest other
//! elements: a superset of the true cell (so the reaches stay correct, if
//! looser), and on a grid ([`SlopePoints::grid`]) exactly its box. The
//! paper's finer per-Voronoi-edge handicaps (`4e` per leaf) are not built.
//!
//! Slopes outside the box are rejected — choose `S` to cover the query
//! workload's slope region. The paper's other route, "d searches against d
//! different B⁺-trees", is no route of the index: the ablations compose it
//! of restricted searches at the vertices [`containing_simplex`] finds.
//!
//! [`containing_simplex`]: SlopePoints::containing_simplex

use cdb_geometry::vertex_enum::{self, Combinations};
use cdb_geometry::{scalar, simplex};
use cdb_storage::codec::Finite;
use cdb_storage::{CodecError, RecordReader, RecordWriter, Wire};

use crate::plan::{PlanCase, Rejection};
use crate::query::Selection;

/// How far outside a simplex (in barycentric weight) or the hull of `S`
/// (in slope coordinates) a slope may lie and still count as covered.
const HULL_TOLERANCE: f64 = 1e-9;

/// How far outside the bounding box of `S` a slope may lie and still be
/// routed to a cell.
const BOX_TOLERANCE: f64 = 1e-12;

/// Per slope axis, the nearest other elements whose bisectors cut a cell:
/// `3(d−1)` of them, beside the `2(d−1)` box facets.
const NEIGHBOURS_PER_AXIS: usize = 3;

/// The most region work a slope-point set may ask for, `k·(k + C(5(d−1),
/// d−1))`: each of the `k` cells ranks the other elements, then solves
/// every `(d−1)`-subset of its `5(d−1)` rows.
const MAX_REGION_WORK: usize = 1 << 22;

/// A predefined set of slope points in `E^{d-1}`.
#[derive(Clone, Debug, PartialEq)]
pub struct SlopePoints {
    dim: usize, // ambient space dimension d
    points: Vec<Vec<f64>>,
}

/// The dimension, the point count, then `dim − 1` coordinates per point;
/// refused where [`SlopePoints::new`] would panic — a count it would refuse
/// before a point is read.
impl Wire for SlopePoints {
    fn put(&self, w: &mut RecordWriter) {
        (self.dim, self.points.len()).put(w);
        for p in &self.points {
            w.put_seq(p);
        }
    }
    fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
        let dim = usize::get(r)?;
        if dim < 2 {
            // Zero-coordinate points would read no bytes: nothing would
            // bound a forged count.
            return Err(CodecError::Invalid("slope points dimension"));
        }
        let k = usize::get(r)?;
        check_region_work(dim, k).map_err(CodecError::Invalid)?;
        let mut points = Vec::new();
        for _ in 0..k {
            points.push(r.get_seq(dim - 1)?);
        }
        Self::try_from_parts(dim, points).map_err(CodecError::Invalid)
    }
}

/// Refuses `k` slope points in `E^{dim−1}` whose cells would cost more
/// than [`MAX_REGION_WORK`], or need more rows than
/// [`vertex_enum::MAX_ROWS`] (`d ≤ 7`) — before anything sized by either
/// is allocated. A slope set is bounded as `k` slope points at `d = 2`.
pub(crate) fn check_region_work(dim: usize, k: usize) -> Result<(), &'static str> {
    let axes = dim - 1;
    let rows = (2 + NEIGHBOURS_PER_AXIS).saturating_mul(axes);
    if rows > vertex_enum::MAX_ROWS {
        return Err("the d-dimensional dual index serves d <= 7");
    }
    let subsets = (0..axes).try_fold(1usize, |c, j| Some(c.checked_mul(rows - j)? / (j + 1)));
    match subsets.and_then(|c| k.checked_add(c)?.checked_mul(k)) {
        Some(work) if work <= MAX_REGION_WORK => Ok(()),
        _ => Err("too many slope points for their dimension"),
    }
}

impl SlopePoints {
    /// Builds a set of slope points for a `dim`-dimensional space; each
    /// point must have `dim − 1` coordinates.
    ///
    /// # Panics
    /// Panics on `dim < 2`, more cell work than `d ≤ 7` and
    /// `k·(k + C(5(d−1), d−1)) ≤ 2²²` allow, a point outside `E^(d-1)`, a
    /// non-finite coordinate, or fewer than `d` points.
    pub fn new(dim: usize, points: Vec<Vec<f64>>) -> Self {
        Self::try_from_parts(dim, points).unwrap_or_else(|why| panic!("{why}"))
    }

    /// The one place a slope-point set is validated — for parts from
    /// outside the program (a log record, the catalog) too.
    ///
    /// # Errors
    /// The reason: `dim < 2`, more cell work than [`MAX_REGION_WORK`], a
    /// point outside `E^(d-1)`, a non-finite coordinate, or fewer than `d`
    /// points.
    pub(crate) fn try_from_parts(dim: usize, points: Vec<Vec<f64>>) -> Result<Self, &'static str> {
        if dim < 2 {
            return Err("dimension must be at least 2");
        }
        check_region_work(dim, points.len())?;
        if points.iter().any(|p| p.len() != dim - 1) {
            return Err("slope points live in E^(d-1)");
        }
        if points.len() < dim {
            return Err("need at least d slope points");
        }
        if !points.all_finite() {
            return Err("slope coordinates must be finite");
        }
        Ok(SlopePoints { dim, points })
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
    /// finite number, or more cell work than [`new`](Self::new) allows —
    /// refused before anything is sized by the point count.
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
        let cells = u32::try_from(dim - 1)
            .ok()
            .and_then(|e| per_axis.checked_pow(e));
        let cells = cells.ok_or("grid has too many points")?;
        check_region_work(dim, cells)?;
        let axis: Vec<f64> = (0..per_axis)
            .map(|i| -range + 2.0 * range * i as f64 / (per_axis - 1) as f64)
            .collect();
        // Point `i` has multi-index `(i / per^j) % per` on axis `j`.
        let points = (0..cells)
            .map(|i| {
                (0..dim - 1)
                    .map(|j| axis[i / per_axis.pow(j as u32) % per_axis])
                    .collect()
            })
            .collect();
        Self::try_from_parts(dim, points)
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

    /// Squared distance from point `i` to `slope`.
    fn distance(&self, i: usize, slope: &[f64]) -> f64 {
        let to = self.points[i].iter().zip(slope);
        to.map(|(a, b)| (a - b) * (a - b)).sum()
    }

    /// The extent `(min, max)` of `S` along slope axis `j`.
    fn bounds(&self, j: usize) -> (f64, f64) {
        let along = self.points.iter().map(|p| p[j]);
        along.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        })
    }

    /// The element of `S` nearest to `slope` (the first on ties), whose
    /// Voronoi cell therefore holds it; `None` outside the bounding box of
    /// `S`.
    pub(crate) fn nearest(&self, slope: &[f64]) -> Option<usize> {
        let inside = |(j, v): (usize, &f64)| {
            let (lo, hi) = self.bounds(j);
            *v >= lo - BOX_TOLERANCE && *v <= hi + BOX_TOLERANCE
        };
        if !slope.iter().enumerate().all(inside) {
            return None;
        }
        let by_distance =
            |&i: &usize, &j: &usize| self.distance(i, slope).total_cmp(&self.distance(j, slope));
        (0..self.points.len()).min_by(by_distance)
    }

    /// The vertices of element `i`'s Voronoi cell, clipped to the bounding
    /// box of `S` — the element's one handicap region: the box facets cut
    /// by the bisectors of the `3(d−1)` nearest other elements (first
    /// index on ties), each row scaled so its largest coefficient is `±1`. The vertices come in the order of their
    /// coordinates, last axis first, with `-0.0` read as `0.0` — on a grid,
    /// the box corners bit for bit, in the order a corner mask counts them.
    pub(super) fn cell(&self, i: usize) -> Vec<Vec<f64>> {
        let (p, axes) = (&self.points[i], self.dim - 1);
        let (mut rows, mut rhs) = (Vec::new(), Vec::new());
        for j in 0..axes {
            let (lo, hi) = self.bounds(j);
            let unit = |sign: f64| (0..axes).map(|a| if a == j { sign } else { 0.0 }).collect();
            rows.extend([unit(-1.0), unit(1.0)]);
            rhs.extend([-lo, hi]);
        }
        let mut others: Vec<(f64, usize)> = (0..self.points.len())
            .filter(|&q| q != i)
            .map(|q| (self.distance(q, p), q))
            .collect();
        others.sort_by(|a, b| a.0.total_cmp(&b.0)); // stable: first index on ties
        for (_, q) in others.into_iter().take(NEIGHBOURS_PER_AXIS * axes) {
            let q = &self.points[q];
            let scale = q
                .iter()
                .zip(p)
                .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
            if scale == 0.0 {
                continue; // a repeated point: no bisector
            }
            let row: Vec<f64> = q.iter().zip(p).map(|(a, b)| (a - b) / scale).collect();
            let mid = q.iter().zip(p).map(|(a, b)| (a + b) / 2.0);
            rhs.push(row.iter().zip(mid).map(|(r, m)| r * m).sum());
            rows.push(row);
        }
        let mut vertices = vertex_enum::vertices(&rows, &rhs, axes);
        for v in vertices.iter_mut().flatten() {
            *v += 0.0; // -0.0 + 0.0 is 0.0; every other value is unchanged
        }
        let last_axis_first = |a: &Vec<f64>, b: &Vec<f64>| {
            let pairs = a.iter().rev().zip(b.iter().rev());
            pairs.fold(std::cmp::Ordering::Equal, |o, (x, y)| {
                o.then(x.total_cmp(y))
            })
        };
        vertices.sort_by(last_axis_first);
        vertices
    }

    /// Finds `d` member points whose simplex contains `slope`, preferring
    /// nearby points — the vertices of the simplex covering the ablations
    /// compose. Returns the member indices. A slope outside
    /// the hull of `S` is refused by one feasibility LP before any of the
    /// `C(k, d)` subsets is tried.
    pub fn containing_simplex(&self, slope: &[f64]) -> Option<Vec<usize>> {
        if !self.hull_contains(slope) {
            return None;
        }
        let mut order: Vec<usize> = (0..self.points.len()).collect();
        let dist = |i: usize| self.distance(i, slope);
        order.sort_by(|&i, &j| dist(i).total_cmp(&dist(j)));
        // Try combinations of the nearest points first, one at a time:
        // there are C(k, d) of them.
        let mut subsets = Combinations::new(order.len(), self.dim);
        while let Some(combo) = subsets.advance() {
            let pick: Vec<usize> = combo.iter().map(|&c| order[c]).collect();
            let verts: Vec<&[f64]> = pick.iter().map(|&i| self.points[i].as_slice()).collect();
            if barycentric(&verts, slope).is_some_and(|l| l.iter().all(|&w| w >= -HULL_TOLERANCE)) {
                return Some(pick);
            }
        }
        None
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

    /// The routing table of Section 4.4: a member slope point is searched
    /// exactly; any other slope in the bounding box of `S` takes the
    /// d-dimensional technique T2 (single tree, two handicap-guided
    /// sweeps, duplicate-free) over the cell of its nearest element.
    ///
    /// # Errors
    /// The [`Rejection`]: a query of another dimension, or a slope outside
    /// the bounding box of `S`.
    pub(super) fn route(&self, sel: &Selection) -> Result<PlanCase, Rejection> {
        Rejection::dimension(self.dim, sel)?;
        let slope = &sel.halfplane.slope;
        if let Some(i) = self.position(slope) {
            let slope = self.points[i].clone();
            return Ok(PlanCase::Member { i, slope });
        }
        let cell = self.nearest(slope);
        cell.map(PlanCase::Cell)
            .ok_or_else(|| Rejection::OutsideBox(slope.clone()))
    }
}

/// Barycentric coordinates of `p` w.r.t. `verts` (`n` points in
/// `E^{n-1}`), or `None` if degenerate: `[v1 … vn; 1 … 1] λ = [p; 1]`.
fn barycentric(verts: &[&[f64]], p: &[f64]) -> Option<Vec<f64>> {
    let coordinate = |r: usize| verts.iter().map(|v| v[r]).collect();
    let mut rows: Vec<Vec<f64>> = (0..p.len()).map(coordinate).collect();
    rows.push(vec![1.0; verts.len()]);
    let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let rhs: Vec<f64> = p.iter().copied().chain([1.0]).collect();
    vertex_enum::solve_square(&rows, &rhs)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::error::CdbError;
    use crate::index::{DualIndex, Exact};
    use crate::plan::TreeAt;
    use crate::query::Side;
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
        idx: &DualIndex,
        pager: &MemPager,
        pairs: &[(u32, GeneralizedTuple)],
        sel: &Selection,
    ) -> QueryResult {
        let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs.iter().cloned().collect();
        let fetch = move |_: &dyn PageReader, id: u32| lookup[&id].clone();
        let case = idx.route(sel).expect("in-box slope");
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
        let idx = DualIndex::build(&mut pager, SlopePoints::grid(3, 3, 1.0), &pairs).unwrap();
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
    fn four_dimensional_queries() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(4, 80, 9);
        let idx = DualIndex::build(&mut pager, SlopePoints::grid(4, 2, 1.0), &pairs).unwrap();
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
        let idx = DualIndex::build(&mut pager, SlopePoints::grid(3, 2, 1.0), &pairs).unwrap();
        let sel = Selection::exist(HalfPlane::new(vec![3.0, 0.0], 0.0, RelOp::Ge));
        assert_eq!(idx.route(&sel), Err(Rejection::OutsideBox(vec![3.0, 0.0])));
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
    /// process. Outside the bounding box the slope is rejected at once.
    #[test]
    fn out_of_box_slope_on_a_grid_is_rejected_without_a_simplex_search() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(4, 10, 41);
        let idx = DualIndex::build(&mut pager, SlopePoints::grid(4, 6, 1.0), &pairs).unwrap();
        let slope = vec![0.2, -1.5, 0.3];
        let sel = Selection::exist(HalfPlane::new(slope.clone(), 0.0, RelOp::Ge));
        let (routed, peak) = cdb_storage::conformance::peak_during(|| idx.route(&sel));
        assert_eq!(routed, Err(Rejection::OutsideBox(slope)));
        assert!(peak < 4096, "allocated {peak} bytes to reject a slope");
    }

    /// The ablations' simplex search goes one subset at a time — and only
    /// inside the hull. Regression: outside it, all C(64, 4) =
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
    /// handicaps as strips), a cell one past the last point of a bare set
    /// (which, since every point set has cells, is what a grid cell on a
    /// bare set became).
    #[test]
    fn a_case_naming_a_tree_the_forest_lacks_is_an_error_not_a_panic() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(3, 10, 5);
        let idx = DualIndex::build(&mut pager, SlopePoints::grid(3, 2, 1.0), &pairs).unwrap();
        let fetch = |_: &dyn PageReader, _: u32| -> GeneralizedTuple { unreachable!() };
        let sel = Selection::exist(HalfPlane::new(vec![0.1, 0.2], 0.0, RelOp::Ge));
        let k = idx.points().unwrap().len();
        for case in [
            PlanCase::Cell(k),
            PlanCase::Member {
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
        ] {
            let got = idx.run(&pager, &sel, &case, Exact::Selection, &fetch);
            assert!(
                matches!(got, Err(CdbError::UnsupportedQuery(_))),
                "{case}: {got:?}"
            );
        }
        let bare = SlopePoints::new(3, vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
        let idx = DualIndex::build(&mut pager, bare, &pairs).unwrap();
        let got = idx.run(&pager, &sel, &PlanCase::Cell(3), Exact::Selection, &fetch);
        assert!(matches!(got, Err(CdbError::UnsupportedQuery(_))), "{got:?}");
    }

    #[test]
    fn t2d_agrees_with_oracle() {
        let mut pager = MemPager::paper_1999();
        let pairs = random_boxes(3, 250, 31);
        let idx = DualIndex::build(&mut pager, SlopePoints::grid(3, 3, 1.5), &pairs).unwrap();
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
                    assert!(matches!(cell, PlanCase::Cell(_)), "{cell:?}");
                    let t2 = idx.run(&pager, &sel, &cell, Exact::Selection, &f1).unwrap();
                    assert_eq!(t2.ids(), want.as_slice(), "T2-d {kind:?} {op:?} {slope:?}");
                    assert_eq!(t2.stats.duplicates, 0);
                }
            }
        }
    }

    #[test]
    fn cell_geometry() {
        // Axes [-1, 0, 1] x [-1, 0, 1]: point 4 is the centre (0,0), and
        // its cell is [-0.5,0.5]^2.
        let g = SlopePoints::grid(3, 3, 1.0);
        assert_eq!(g.as_slice()[4], vec![0.0, 0.0]);
        let corners = g.cell(4);
        assert_eq!(corners.len(), 4);
        for c in &corners {
            assert!(c[0].abs() == 0.5 && c[1].abs() == 0.5, "{c:?}");
        }
        // Corner point 0 = (-1,-1): cell clipped at the box.
        for c in &g.cell(0) {
            assert!((-1.0..=-0.5).contains(&c[0]) && (-1.0..=-0.5).contains(&c[1]));
        }
        // Nearest-element lookup.
        assert_eq!(g.nearest(&[0.2, -0.1]), Some(4));
        assert_eq!(g.nearest(&[-0.9, -0.8]), Some(0));
        assert_eq!(g.nearest(&[2.0, 0.0]), None, "outside the box");
        // A bare set has cells too: the right angle's is the square its two
        // bisectors cut from the box; the others are cut by a diagonal.
        let free = SlopePoints::new(3, vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
        let cell = |i: usize| free.cell(i);
        assert_eq!(cell(0), [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]]);
        assert_eq!(cell(1), [[0.5, 0.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1.0]]);
        assert_eq!(free.nearest(&[0.8, 0.8]), Some(1), "first index on ties");
    }

    /// On a grid the Voronoi cells are the boxes the grid's axis midpoints
    /// bound, clipped to the grid box, bit for bit; and routing to the
    /// nearest point is routing per axis, first index on ties.
    #[test]
    fn grid_cells_and_routes_are_the_boxes_of_the_axis_midpoints() {
        let grids = [
            (2, 4, 2.0),
            (3, 3, 1.0),
            (3, 4, 1.0),
            (3, 5, 0.2),
            (4, 2, 1.0),
            (4, 3, 1.0),
            (4, 6, 1.0),
            (5, 3, 1.0),
        ];
        let mut rng = StdRng::seed_from_u64(0x6E1D);
        for (dim, per, range) in grids {
            let g = SlopePoints::grid(dim, per, range);
            let idx = DualIndex::build(&mut MemPager::paper_1999(), g.clone(), &[]).unwrap();
            let axis: Vec<f64> = (0..per).map(|m| g.as_slice()[m][0]).collect();
            // Per axis: the cell's [lo, hi] around multi-index `m`.
            let span = |m: usize| {
                let lo = if m == 0 {
                    axis[0]
                } else {
                    (axis[m - 1] + axis[m]) / 2.0
                };
                let hi = if m + 1 == per {
                    axis[per - 1]
                } else {
                    (axis[m] + axis[m + 1]) / 2.0
                };
                (lo, hi)
            };
            let bits = |c: &Vec<f64>| c.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            for i in 0..g.len() {
                let spans: Vec<(f64, f64)> = (0..dim - 1)
                    .map(|j| span(i / per.pow(j as u32) % per))
                    .collect();
                let corners = (0..1usize << (dim - 1)).map(|mask| {
                    let pick = |(j, &(lo, hi)): (usize, &(f64, f64))| {
                        if mask & (1 << j) != 0 {
                            hi
                        } else {
                            lo
                        }
                    };
                    spans.iter().enumerate().map(pick).collect::<Vec<f64>>()
                });
                let want: std::collections::BTreeSet<Vec<u64>> =
                    corners.map(|c| bits(&c)).collect();
                let got: std::collections::BTreeSet<Vec<u64>> =
                    g.cell(i).iter().map(bits).collect();
                assert_eq!(got, want, "grid({dim}, {per}, {range}) cell {i}");
            }
            for _ in 0..1000 {
                let slope: Vec<f64> = (1..dim).map(|_| rng.gen_range(-range..range)).collect();
                let per_axis = slope.iter().enumerate().map(|(j, &v)| {
                    let near = |m: &usize| (axis[*m] - v).abs();
                    let m = (0..per).min_by(|a, b| near(a).total_cmp(&near(b))).unwrap();
                    m * per.pow(j as u32)
                });
                let sel = Selection::exist(HalfPlane::new(slope.clone(), 0.0, RelOp::Ge));
                let want = PlanCase::Cell(per_axis.sum());
                assert_eq!(idx.route(&sel), Ok(want), "grid({dim}, {per}, {range})");
            }
        }
    }

    /// Cell work is bounded as a function of `(d, k)` before anything is
    /// sized by either. At the parent the first two aborted the process
    /// on a 12 GB allocation and in the box-corner enumeration (2¹³ cells
    /// × 2¹³ corners), the third on a 32 GB allocation.
    #[test]
    fn region_work_is_refused_before_it_is_allocated() {
        use cdb_storage::conformance::peak_during;
        for (dim, per) in [(30, 2), (14, 2), (2, 4_000_000_000)] {
            let (got, peak) = peak_during(|| SlopePoints::try_grid(dim, per, 1.0));
            assert!(got.is_err(), "grid({dim}, {per})");
            assert!(peak < 1 << 16, "grid({dim}, {per}): {peak} bytes at once");
        }
        let points = vec![vec![0.0; 7]; 8];
        assert!(SlopePoints::try_from_parts(8, points).is_err(), "d = 8");
        // Every geometry the workspace builds is admitted.
        for (dim, per) in [(2, 4), (3, 5), (4, 6), (5, 3)] {
            assert!(
                SlopePoints::try_grid(dim, per, 1.0).is_ok(),
                "grid({dim}, {per})"
            );
        }
        assert!(SlopePoints::try_from_parts(4, vec![vec![0.5; 3]; 64]).is_ok());
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
        let idx = DualIndex::build(&mut pager, SlopePoints::grid(3, 3, 1.0), &pairs).unwrap();
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
