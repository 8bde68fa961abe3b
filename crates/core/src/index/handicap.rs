//! Handicap computation for technique T2 (Section 4.2, Steps 1–2).
//!
//! For a B⁺-tree at slope `aᵢ` and a neighbouring slope strip
//! `[aᵢ, a_mid]`, every tuple has a *reach* per tree and direction: the
//! extremum over the strip of the surface that tree is keyed by (§4.2's
//! "the extremum of its surface over the strip") — `TOP_P` for `B^up`,
//! `BOT_P` for `B^down`:
//!
//! * `low` handicaps (second sweep descends): `reach = max` of the
//!   surface, handicap = **min key** per leaf;
//! * `high` handicaps (second sweep ascends): `reach = min` of the
//!   surface, handicap = **max key** per leaf.
//!
//! `TOP_P` is convex and `BOT_P` concave along the strip, so `B^up`'s max
//! and `B^down`'s min are endpoint evaluations. `B^up`'s min and `B^down`'s
//! max are not: they can lie inside the strip, and the index bounds them
//! from the two strip ends' tangents (`strip_extremum` in the parent
//! module); any bound past the extremum is as sound, only looser. Over a
//! slope point's Voronoi cell both trees take the shared `(max TOP_P, min
//! BOT_P)` over the cell's vertices (§4.3's approximation).
//!
//! Each tuple is bucketed into the leaf whose key interval its reach falls
//! in. The bucket rule must be *sweep-compatible*: any tuple with
//! `reach ≥ b` (for low) must land in a leaf the upward sweep from `b`
//! visits, i.e. the **first leaf whose max key is ≥ reach** (clamped to the
//! last non-empty leaf); symmetrically for high. The correctness proof is in
//! this module's tests (`missed_tuples_are_recoverable_*`, the ALL cases
//! with an interior extremum included) and exercised end-to-end by the T2
//! oracle property tests.

use cdb_btree::{Direction, LeafInfo};

/// For each leaf, the handicap guiding the return sweep of searches whose
/// first sweep goes `dir`: the key that sweep must get back to — the first
/// one `dir` meets, i.e. the minimum for `Up` (`low`), the maximum for
/// `Down` (`high`) — among tuples whose reach
/// buckets into that leaf ([`Direction::end`], the neutral `±∞`, when no
/// tuple does). Bucket rule: the first non-empty leaf on the way of `dir`
/// whose far edge is not before the reach, clamped to the last one.
///
/// `pairs` is `(reach, key)` per tuple, in any order: the far edges of the
/// non-empty leaves follow `dir`'s order, so each reach finds its leaf by
/// a binary search. (A leaf keeps the least or greatest key, so the order
/// of the tuples is irrelevant.)
pub fn assign(
    dir: Direction,
    leaves: &[LeafInfo],
    pairs: impl IntoIterator<Item = (f64, f64)>,
) -> Vec<f64> {
    let mut out = vec![dir.end(); leaves.len()];
    // Non-empty leaves, in the order `dir` meets them.
    let mut idx: Vec<usize> = (0..leaves.len()).filter(|&i| leaves[i].count > 0).collect();
    if dir == Direction::Down {
        idx.reverse();
    }
    let Some(last) = idx.len().checked_sub(1) else {
        return out;
    };
    // Their far edges, and each one's slot: the least key going up, the
    // greatest going down.
    let edges: Vec<f64> = (idx.iter())
        .map(|&leaf| dir.of((leaves[leaf].max_key, leaves[leaf].min_key)))
        .collect();
    let mut slots = vec![dir.end(); idx.len()];
    for (reach, key) in pairs {
        assert!(!reach.is_nan(), "NaN reach");
        let (at, slot) = match dir {
            Direction::Up => {
                let at = edges.partition_point(|&edge| edge < reach).min(last);
                (at, key.min(slots[at]))
            }
            Direction::Down => {
                let at = edges.partition_point(|&edge| edge > reach).min(last);
                (at, key.max(slots[at]))
            }
        };
        slots[at] = slot;
    }
    for (leaf, slot) in idx.into_iter().zip(slots) {
        out[leaf] = slot;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(page: u32, min: f64, max: f64, count: usize) -> LeafInfo {
        LeafInfo {
            page,
            min_key: min,
            max_key: max,
            count,
        }
    }

    /// Three leaves covering keys 0-9, 10-19, 20-29.
    fn chain() -> Vec<LeafInfo> {
        vec![
            leaf(1, 0.0, 9.0, 10),
            leaf(2, 10.0, 19.0, 10),
            leaf(3, 20.0, 29.0, 10),
        ]
    }

    #[test]
    fn low_buckets_by_reach() {
        // Tuple with key 2 but reach 15: buckets into the middle leaf,
        // whose low handicap becomes 2.
        let h = assign(
            Direction::Up,
            &chain(),
            [(15.0, 2.0), (25.0, 21.0), (5.0, 4.0)],
        );
        assert_eq!(h, vec![4.0, 2.0, 21.0]);
    }

    #[test]
    fn low_clamps_to_extremes() {
        // Reach beyond the last leaf clamps there; reach below the first
        // clamps to the first.
        let h = assign(Direction::Up, &chain(), [(100.0, 0.5), (-50.0, 7.0)]);
        assert_eq!(h, vec![7.0, f64::INFINITY, 0.5]);
    }

    #[test]
    fn low_takes_minimum_per_bucket() {
        let h = assign(
            Direction::Up,
            &chain(),
            [(12.0, 8.0), (13.0, 3.0), (14.0, 6.0)],
        );
        assert_eq!(h[1], 3.0);
    }

    #[test]
    fn high_buckets_by_reach() {
        // Tuple with key 27 but reach 12: buckets into the middle leaf,
        // whose high handicap becomes 27.
        let h = assign(Direction::Down, &chain(), [(12.0, 27.0), (3.0, 9.0)]);
        assert_eq!(h, vec![9.0, 27.0, f64::NEG_INFINITY]);
    }

    #[test]
    fn high_clamps_to_extremes() {
        let h = assign(Direction::Down, &chain(), [(-100.0, 5.0), (200.0, 1.0)]);
        assert_eq!(h, vec![5.0, f64::NEG_INFINITY, 1.0]);
    }

    #[test]
    fn empty_leaves_are_skipped() {
        let leaves = vec![
            leaf(1, 0.0, 9.0, 10),
            leaf(2, f64::NAN, f64::NAN, 0), // emptied by deletions
            leaf(3, 20.0, 29.0, 10),
        ];
        let h = assign(Direction::Up, &leaves, [(15.0, 2.0)]);
        // Reach 15: first non-empty leaf with max >= 15 is the third.
        assert_eq!(h, vec![f64::INFINITY, f64::INFINITY, 2.0]);
        let h2 = assign(Direction::Down, &leaves, [(15.0, 28.0)]);
        // Last non-empty leaf with min <= 15 is the first.
        assert_eq!(h2, vec![28.0, f64::NEG_INFINITY, f64::NEG_INFINITY]);
    }

    #[test]
    fn infinite_reaches() {
        let h = assign(Direction::Up, &chain(), [(f64::INFINITY, 1.0)]);
        assert_eq!(h[2], 1.0, "+inf reach clamps to the last leaf");
        let h2 = assign(Direction::Down, &chain(), [(f64::NEG_INFINITY, 22.0)]);
        assert_eq!(h2[0], 22.0, "-inf reach clamps to the first leaf");
    }

    /// The sweep-compatibility property behind T2's correctness (low side):
    /// for any threshold `b`, a tuple with `reach ≥ b` buckets into a leaf
    /// at or after the first leaf with `max_key ≥ b` — which the upward
    /// sweep from `b` visits — and the leaf's handicap is ≤ the tuple's key.
    #[test]
    fn missed_tuples_are_recoverable_low() {
        let leaves = chain();
        let pairs: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let reach = (i as f64 * 7.3) % 35.0 - 2.0;
                let key = (i as f64 * 3.1) % 30.0;
                (reach, key)
            })
            .collect();
        let h = assign(Direction::Up, &leaves, pairs.iter().copied());
        for b in [0.0, 5.0, 12.0, 19.5, 28.0] {
            let first_visited = (0..leaves.len())
                .find(|&i| leaves[i].max_key >= b)
                .unwrap_or(leaves.len() - 1);
            // low(q) folded over visited leaves.
            let low_q = (first_visited..leaves.len())
                .map(|i| h[i])
                .fold(f64::INFINITY, f64::min);
            for &(reach, key) in &pairs {
                if reach >= b {
                    assert!(
                        low_q <= key,
                        "tuple key {key} (reach {reach}) unreachable: low({b}) = {low_q}"
                    );
                }
            }
        }
        // ALL(q(≥)) on B^down: BOT_P peaks inside the strip, and its own
        // reach, the max BOT_P, still recovers every answer there.
        recovers_interior_all(Direction::Up);
    }

    /// Symmetric property for the high side.
    #[test]
    fn missed_tuples_are_recoverable_high() {
        let leaves = chain();
        let pairs: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let reach = (i as f64 * 5.7) % 35.0 - 2.0;
                let key = (i as f64 * 2.3) % 30.0;
                (reach, key)
            })
            .collect();
        let h = assign(Direction::Down, &leaves, pairs.iter().copied());
        for b in [1.0, 8.0, 14.0, 22.0, 29.0] {
            let last_visited = (0..leaves.len())
                .rev()
                .find(|&i| leaves[i].min_key <= b)
                .unwrap_or(0);
            let high_q = (0..=last_visited)
                .map(|i| h[i])
                .fold(f64::NEG_INFINITY, f64::max);
            for &(reach, key) in &pairs {
                if reach <= b {
                    assert!(
                        high_q >= key,
                        "tuple key {key} (reach {reach}) unreachable: high({b}) = {high_q}"
                    );
                }
            }
        }
        // ALL(q(≤)) on B^up: TOP_P dips inside the strip, and its own
        // reach, the min TOP_P, still recovers every answer there.
        recovers_interior_all(Direction::Down);
    }

    /// The ALL cases of the recovery property, whose surface turns inside
    /// the strip `[0, 1]` of the slope `0`: trapezoids `cx − w ≤ x ≤ cx + w`,
    /// `c + a₀·(x − cx) ≤ y ≤ c + h + a₁·(x − cx)` with `|cx| < w`, whose
    /// `BOT_P(a) = c − a·cx − w·|a − a₀|` peaks at `a₀` and whose `TOP_P`
    /// dips at `a₁`. Going `dir` first is ALL(q(≥)) on `B^down` (up) or
    /// ALL(q(≤)) on `B^up` (down): each tuple is keyed by its surface at `0`
    /// and bucketed by that surface's own reach over the strip
    /// (`strip_reaches`), which is past the surface at every slope of the
    /// strip and short of the shared `(max TOP_P, min BOT_P)` one. At each
    /// such slope and threshold, every answer is recovered: the return
    /// sweep's bound, folded over the leaves the first sweep visits, gets
    /// to its key.
    fn recovers_interior_all(dir: Direction) {
        use super::super::strip_reaches;
        use crate::slopes::StripEnd;
        use cdb_geometry::constraint::{LinearConstraint, RelOp};
        use cdb_geometry::dual::PlanarSurfaces;
        use cdb_geometry::tuple::GeneralizedTuple;

        let leaves = chain();
        let up = dir == Direction::Up;
        // Per tuple: its own surface (BOT going up, TOP going down) at 11
        // slopes of the strip, its key and its reach.
        let tuples: Vec<(Vec<f64>, f64, f64)> = (0..60)
            .map(|i| {
                let i = f64::from(i);
                let (w, a0, a1) = (
                    4.0 + i % 7.0,
                    0.15 + (i * 0.37) % 0.7,
                    0.8 - (i * 0.29) % 0.6,
                );
                let cx = w * (((i * 0.61) % 1.6) - 0.8);
                let c = (i * 3.1) % 25.0 + w * a0;
                let h = (a0 - a1).abs() * w + 1.0;
                let rows = [
                    ([1.0, 0.0], w - cx, RelOp::Ge),
                    ([1.0, 0.0], -(cx + w), RelOp::Le),
                    ([-a0, 1.0], a0 * cx - c, RelOp::Ge),
                    ([-a1, 1.0], a1 * cx - c - h, RelOp::Le),
                ];
                let rows =
                    rows.map(|(coeffs, c, op)| LinearConstraint::new(coeffs.to_vec(), c, op));
                let tuple = GeneralizedTuple::new(rows.to_vec());
                let surfaces = PlanarSurfaces::new(&tuple);
                let at = |a: f64| surfaces.at(a).expect("a trapezoid is not empty");
                let own = |a: f64| if up { at(a).0.value } else { at(a).1.value };
                let reaches = strip_reaches(at(0.0), at(1.0), StripEnd::Slope(1.0), 0.0);
                let (reach, shared) = if up {
                    (reaches[1].0, reaches[0].0)
                } else {
                    (reaches[0].1, reaches[1].1)
                };
                let strip: Vec<f64> = (0..=10).map(|j| own(f64::from(j) / 10.0)).collect();
                let turn = if up { a0 } else { a1 };
                assert!(
                    dir.before(strip[0], own(turn)) && dir.before(strip[10], own(turn)),
                    "the surface turns inside the strip"
                );
                assert!(
                    strip.iter().all(|&v| !dir.before(reach, v)) && dir.before(reach, shared),
                    "own reach {reach} bounds the surface {strip:?} inside the shared {shared}"
                );
                (strip, own(0.0), reach)
            })
            .collect();
        let pairs: Vec<(f64, f64)> = tuples.iter().map(|&(_, key, reach)| (reach, key)).collect();
        let h = assign(dir, &leaves, pairs.iter().copied());
        for b in (0..=32).map(|j| f64::from(j) - 1.5) {
            // The leaves the first sweep from b visits, and the bound it
            // folds for the return sweep.
            let visited = (0..leaves.len())
                .filter(|&l| !dir.before(dir.of((leaves[l].max_key, leaves[l].min_key)), b));
            let visited: Vec<usize> = if up {
                let first = visited.min().unwrap_or(leaves.len() - 1);
                (first..leaves.len()).collect()
            } else {
                let last = visited.max().unwrap_or(0);
                (0..=last).collect()
            };
            let bound = visited
                .iter()
                .map(|&l| h[l])
                .fold(dir.end(), |x, y| dir.earlier(x, y));
            for (strip, key, reach) in &tuples {
                // An answer at some slope of the strip: its surface is at or
                // past b there.
                if strip.iter().any(|&v| !dir.before(v, b)) {
                    assert!(
                        !dir.before(*key, bound),
                        "{dir:?}: key {key} (reach {reach}) unreachable from {b}: {bound}"
                    );
                }
            }
        }
    }
}
