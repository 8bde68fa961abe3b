//! Sections 4.2–4.3: technique T2 — one tree, two disjoint sweeps guided by
//! precomputed per-leaf handicaps; duplicate-free by construction.

use std::io;

use cdb_btree::{key_slack, BTree, Handicaps, SweepControl};
use cdb_storage::PageReader;

use super::forest::Forest;
use super::{refine, Exact, TupleSource};
use crate::error::CdbError;
use crate::query::{tree_and_direction, QueryResult, QueryStats, Selection, Side};

impl Forest {
    /// The handicap-guided search in the trees of element `near`, whose
    /// handicaps on `side` cover the query slope, then exact refinement.
    pub(crate) fn guided(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        near: usize,
        side: Side,
        exact: Exact,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        let before = pager.stats();
        let (use_up, upward) = tree_and_direction(sel.kind, sel.halfplane.op);
        let tree = self.routed(near, use_up)?;
        let raw = handicap_guided_candidates(tree, pager, sel.halfplane.intercept, upward, side)?;
        let mut stats = QueryStats {
            candidates: raw.len() as u64,
            ..QueryStats::default()
        };
        stats.index_io = pager.stats().since(&before);
        // The two sweeps visit disjoint leaf sets and every tuple occurs
        // once per tree: no duplicates by construction.
        debug_assert!(
            {
                let mut v = raw.clone();
                v.sort_unstable();
                v.windows(2).all(|w| w[0] != w[1])
            },
            "T2 must not produce duplicates"
        );
        let heap_before = pager.stats();
        let ids = refine(pager, sel, exact, raw, fetch, &mut stats)?;
        stats.heap_io = pager.stats().since(&heap_before);
        Ok(QueryResult::new(ids, stats))
    }
}

fn side_low(h: &Handicaps, side: Side) -> f64 {
    match side {
        Side::Prev => h.low_prev,
        Side::Next => h.low_next,
    }
}

fn side_high(h: &Handicaps, side: Side) -> f64 {
    match side {
        Side::Prev => h.high_prev,
        Side::Next => h.high_next,
    }
}

/// The two handicap-guided sweeps of technique T2 (Section 4.2 Step 3),
/// reading the handicaps of one `side`.
///
/// First sweep: from `b` in the query direction, collecting candidates and
/// folding the relevant handicap of every visited leaf into the bound for
/// the second, opposite sweep. The sweeps cover disjoint key ranges, so the
/// result is duplicate-free by construction.
fn handicap_guided_candidates(
    tree: &BTree,
    pager: &dyn PageReader,
    b: f64,
    upward: bool,
    side: Side,
) -> io::Result<Vec<u32>> {
    let mut raw: Vec<u32> = Vec::new();
    if upward {
        // First sweep: upward from b, folding the low handicap.
        let start = b - key_slack(b);
        let mut low_q = f64::INFINITY;
        let mut visited = false;
        tree.sweep_up(pager, start, |snap| {
            visited = true;
            low_q = low_q.min(side_low(&snap.handicaps, side));
            raw.extend(snap.entries.iter().map(|e| e.1));
            SweepControl::Continue
        })?;
        if !visited {
            // b beyond every key: bucketed reaches clamp to the last leaf,
            // whose handicap must still be honoured.
            let h = tree.read_handicaps(pager, tree.last_leaf())?;
            low_q = side_low(&h, side);
        }
        // Second sweep: downward, disjoint from the first, to low(q).
        if low_q < f64::INFINITY {
            let bound = low_q - key_slack(low_q);
            let from = start.next_down();
            tree.sweep_down(pager, from, |snap| {
                for &(k, v) in &snap.entries {
                    if k < bound {
                        return SweepControl::Stop;
                    }
                    raw.push(v);
                }
                SweepControl::Continue
            })?;
        }
    } else {
        // Mirror image: downward first, folding the high handicap.
        let start = b + key_slack(b);
        let mut high_q = f64::NEG_INFINITY;
        let mut visited = false;
        tree.sweep_down(pager, start, |snap| {
            visited = true;
            high_q = high_q.max(side_high(&snap.handicaps, side));
            raw.extend(snap.entries.iter().map(|e| e.1));
            SweepControl::Continue
        })?;
        if !visited {
            let h = tree.read_handicaps(pager, tree.first_leaf())?;
            high_q = side_high(&h, side);
        }
        if high_q > f64::NEG_INFINITY {
            let bound = high_q + key_slack(high_q);
            let from = start.next_up();
            tree.sweep_up(pager, from, |snap| {
                for &(k, v) in &snap.entries {
                    if k > bound {
                        return SweepControl::Stop;
                    }
                    raw.push(v);
                }
                SweepControl::Continue
            })?;
        }
    }
    Ok(raw)
}
