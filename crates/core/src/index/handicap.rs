//! Handicap computation for technique T2 (Section 4.2, Steps 1–2).
//!
//! For a B⁺-tree at slope `aᵢ` and a neighbouring slope strip
//! `[aᵢ, a_mid]`, every tuple has a *reach*: the extremum of one of its
//! dual surfaces over the strip. Because `TOP_P` is convex and `BOT_P`
//! concave along the strip, the reach is an endpoint evaluation:
//!
//! * `low` handicaps (second sweep descends):
//!   `reach = max(TOP_P(aᵢ), TOP_P(a_mid))`, handicap = **min key** per leaf;
//! * `high` handicaps (second sweep ascends):
//!   `reach = min(BOT_P(aᵢ), BOT_P(a_mid))`, handicap = **max key** per leaf.
//!
//! Each tuple is bucketed into the leaf whose key interval its reach falls
//! in. The bucket rule must be *sweep-compatible*: any tuple with
//! `reach ≥ b` (for low) must land in a leaf the upward sweep from `b`
//! visits, i.e. the **first leaf whose max key is ≥ reach** (clamped to the
//! last non-empty leaf); symmetrically for high. The correctness proof is in
//! this module's tests (`missed_tuples_are_recoverable_*`) and exercised
//! end-to-end by the T2 oracle property tests.

use cdb_btree::{Direction, LeafInfo};

/// For each leaf, the handicap guiding the return sweep of searches whose
/// first sweep goes `dir`: the key that sweep must get back to — the first
/// one `dir` meets, i.e. the minimum for `Up` (`low`), the maximum for
/// `Down` (`high`) — among tuples whose reach
/// buckets into that leaf ([`Direction::end`], the neutral `±∞`, when no
/// tuple does). Bucket rule: the first non-empty leaf on the way of `dir`
/// whose far edge is not before the reach, clamped to the last one.
///
/// `pairs` is `(reach, key)` per tuple, ascending by reach — sorted once
/// by the caller for both trees of an element, which share the reaches.
/// (Which leaf a reach falls into depends on the reach alone, and a leaf
/// keeps the least or greatest key, so the order of ties is irrelevant.)
pub fn assign(dir: Direction, leaves: &[LeafInfo], pairs: &[(f64, f64)]) -> Vec<f64> {
    debug_assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0), "reaches ascend");
    let mut out = vec![dir.end(); leaves.len()];
    // Non-empty leaves and reaches, both in the order `dir` meets them.
    let mut idx: Vec<usize> = (0..leaves.len()).filter(|&i| leaves[i].count > 0).collect();
    if idx.is_empty() {
        return out;
    }
    let down = dir == Direction::Down;
    if down {
        idx.reverse();
    }
    let far_edge = |leaf: usize| dir.of((leaves[leaf].max_key, leaves[leaf].min_key));
    let mut li = 0usize; // position in idx
    let mut bucket = |&(reach, key): &(f64, f64)| {
        while li + 1 < idx.len() && dir.before(far_edge(idx[li]), reach) {
            li += 1;
        }
        if dir.before(key, out[idx[li]]) {
            out[idx[li]] = key;
        }
    };
    if down {
        pairs.iter().rev().for_each(&mut bucket);
    } else {
        pairs.iter().for_each(&mut bucket);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`assign`] over `pairs` in any order.
    fn assign(dir: Direction, leaves: &[LeafInfo], pairs: &[(f64, f64)]) -> Vec<f64> {
        let mut sorted = pairs.to_vec();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        super::assign(dir, leaves, &sorted)
    }

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
            &[(15.0, 2.0), (25.0, 21.0), (5.0, 4.0)],
        );
        assert_eq!(h, vec![4.0, 2.0, 21.0]);
    }

    #[test]
    fn low_clamps_to_extremes() {
        // Reach beyond the last leaf clamps there; reach below the first
        // clamps to the first.
        let h = assign(Direction::Up, &chain(), &[(100.0, 0.5), (-50.0, 7.0)]);
        assert_eq!(h, vec![7.0, f64::INFINITY, 0.5]);
    }

    #[test]
    fn low_takes_minimum_per_bucket() {
        let h = assign(
            Direction::Up,
            &chain(),
            &[(12.0, 8.0), (13.0, 3.0), (14.0, 6.0)],
        );
        assert_eq!(h[1], 3.0);
    }

    #[test]
    fn high_buckets_by_reach() {
        // Tuple with key 27 but reach 12: buckets into the middle leaf,
        // whose high handicap becomes 27.
        let h = assign(Direction::Down, &chain(), &[(12.0, 27.0), (3.0, 9.0)]);
        assert_eq!(h, vec![9.0, 27.0, f64::NEG_INFINITY]);
    }

    #[test]
    fn high_clamps_to_extremes() {
        let h = assign(Direction::Down, &chain(), &[(-100.0, 5.0), (200.0, 1.0)]);
        assert_eq!(h, vec![5.0, f64::NEG_INFINITY, 1.0]);
    }

    #[test]
    fn empty_leaves_are_skipped() {
        let leaves = vec![
            leaf(1, 0.0, 9.0, 10),
            leaf(2, f64::NAN, f64::NAN, 0), // emptied by deletions
            leaf(3, 20.0, 29.0, 10),
        ];
        let h = assign(Direction::Up, &leaves, &[(15.0, 2.0)]);
        // Reach 15: first non-empty leaf with max >= 15 is the third.
        assert_eq!(h, vec![f64::INFINITY, f64::INFINITY, 2.0]);
        let h2 = assign(Direction::Down, &leaves, &[(15.0, 28.0)]);
        // Last non-empty leaf with min <= 15 is the first.
        assert_eq!(h2, vec![28.0, f64::NEG_INFINITY, f64::NEG_INFINITY]);
    }

    #[test]
    fn infinite_reaches() {
        let h = assign(Direction::Up, &chain(), &[(f64::INFINITY, 1.0)]);
        assert_eq!(h[2], 1.0, "+inf reach clamps to the last leaf");
        let h2 = assign(Direction::Down, &chain(), &[(f64::NEG_INFINITY, 22.0)]);
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
        let h = assign(Direction::Up, &leaves, &pairs);
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
        let h = assign(Direction::Down, &leaves, &pairs);
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
    }
}
