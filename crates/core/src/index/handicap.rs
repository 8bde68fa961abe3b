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

use cdb_btree::LeafInfo;

/// For each leaf, the `low` handicap: the minimum key among tuples whose
/// reach buckets into that leaf (`+∞` when no tuple does).
///
/// `pairs` is `(reach, key)` per tuple; order is irrelevant.
pub fn assign_low(leaves: &[LeafInfo], pairs: &[(f64, f64)]) -> Vec<f64> {
    let mut out = vec![f64::INFINITY; leaves.len()];
    // Non-empty leaves in chain order.
    let idx: Vec<usize> = (0..leaves.len()).filter(|&i| leaves[i].count > 0).collect();
    if idx.is_empty() {
        return out;
    }
    let mut sorted: Vec<(f64, f64)> = pairs.to_vec();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN reach"));
    let mut li = 0usize; // position in idx
    for &(reach, key) in &sorted {
        // Advance to the first non-empty leaf with max_key >= reach.
        while li + 1 < idx.len() && leaves[idx[li]].max_key < reach {
            li += 1;
        }
        let leaf = idx[li];
        if out[leaf] > key {
            out[leaf] = key;
        }
    }
    out
}

/// For each leaf, the `high` handicap: the maximum key among tuples whose
/// reach buckets into that leaf (`−∞` when no tuple does). Bucket rule:
/// the **last** non-empty leaf whose min key is `≤ reach`, clamped to the
/// first non-empty leaf.
pub fn assign_high(leaves: &[LeafInfo], pairs: &[(f64, f64)]) -> Vec<f64> {
    let mut out = vec![f64::NEG_INFINITY; leaves.len()];
    let idx: Vec<usize> = (0..leaves.len()).filter(|&i| leaves[i].count > 0).collect();
    if idx.is_empty() {
        return out;
    }
    let mut sorted: Vec<(f64, f64)> = pairs.to_vec();
    sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN reach"));
    let mut li = idx.len() - 1;
    for &(reach, key) in &sorted {
        while li > 0 && leaves[idx[li]].min_key > reach {
            li -= 1;
        }
        let leaf = idx[li];
        if out[leaf] < key {
            out[leaf] = key;
        }
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
        let h = assign_low(&chain(), &[(15.0, 2.0), (25.0, 21.0), (5.0, 4.0)]);
        assert_eq!(h, vec![4.0, 2.0, 21.0]);
    }

    #[test]
    fn low_clamps_to_extremes() {
        // Reach beyond the last leaf clamps there; reach below the first
        // clamps to the first.
        let h = assign_low(&chain(), &[(100.0, 0.5), (-50.0, 7.0)]);
        assert_eq!(h, vec![7.0, f64::INFINITY, 0.5]);
    }

    #[test]
    fn low_takes_minimum_per_bucket() {
        let h = assign_low(&chain(), &[(12.0, 8.0), (13.0, 3.0), (14.0, 6.0)]);
        assert_eq!(h[1], 3.0);
    }

    #[test]
    fn high_buckets_by_reach() {
        // Tuple with key 27 but reach 12: buckets into the middle leaf,
        // whose high handicap becomes 27.
        let h = assign_high(&chain(), &[(12.0, 27.0), (3.0, 9.0)]);
        assert_eq!(h, vec![9.0, 27.0, f64::NEG_INFINITY]);
    }

    #[test]
    fn high_clamps_to_extremes() {
        let h = assign_high(&chain(), &[(-100.0, 5.0), (200.0, 1.0)]);
        assert_eq!(h, vec![5.0, f64::NEG_INFINITY, 1.0]);
    }

    #[test]
    fn empty_leaves_are_skipped() {
        let leaves = vec![
            leaf(1, 0.0, 9.0, 10),
            leaf(2, f64::NAN, f64::NAN, 0), // emptied by deletions
            leaf(3, 20.0, 29.0, 10),
        ];
        let h = assign_low(&leaves, &[(15.0, 2.0)]);
        // Reach 15: first non-empty leaf with max >= 15 is the third.
        assert_eq!(h, vec![f64::INFINITY, f64::INFINITY, 2.0]);
        let h2 = assign_high(&leaves, &[(15.0, 28.0)]);
        // Last non-empty leaf with min <= 15 is the first.
        assert_eq!(h2, vec![28.0, f64::NEG_INFINITY, f64::NEG_INFINITY]);
    }

    #[test]
    fn infinite_reaches() {
        let h = assign_low(&chain(), &[(f64::INFINITY, 1.0)]);
        assert_eq!(h[2], 1.0, "+inf reach clamps to the last leaf");
        let h2 = assign_high(&chain(), &[(f64::NEG_INFINITY, 22.0)]);
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
        let h = assign_low(&leaves, &pairs);
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
        let h = assign_high(&leaves, &pairs);
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
