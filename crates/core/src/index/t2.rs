//! Sections 4.2–4.3: technique T2 — one tree, two disjoint sweeps guided by
//! precomputed per-leaf handicaps; duplicate-free by construction.

use std::io;

use cdb_btree::{key_slack, BTree, Direction, SweepControl};
use cdb_storage::PageReader;

use super::forest::Forest;
use super::Candidates;
use crate::error::CdbError;
use crate::query::{tree_and_direction, Selection, Side};

impl Forest {
    /// The handicap-guided search in the trees of element `near`, whose
    /// handicaps on `side` cover the query slope.
    pub(crate) fn guided(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        near: usize,
        side: Side,
    ) -> Result<Candidates, CdbError> {
        let (use_up, dir) = tree_and_direction(sel.kind, sel.halfplane.op);
        let tree = self.routed(near, use_up)?;
        let raw = handicap_guided_candidates(tree, pager, sel.halfplane.intercept, dir, side)?;
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
        Ok(Candidates::check(raw))
    }
}

/// The two handicap-guided sweeps of technique T2 (Section 4.2 Step 3),
/// reading the handicaps of one `side`.
///
/// First sweep: from `b` in the query direction `dir`, collecting
/// candidates and folding the handicap of every visited leaf — `low` going
/// up, `high` going down — into the bound for the second, opposite sweep.
/// The sweeps cover disjoint key ranges, so the result is duplicate-free by
/// construction.
fn handicap_guided_candidates(
    tree: &BTree,
    pager: &dyn PageReader,
    b: f64,
    dir: Direction,
    side: Side,
) -> io::Result<Vec<u32>> {
    let back = dir.reversed();
    // The sweeps are disjoint, so the tree's entries bound the candidates:
    // one allocation, whatever the selectivity.
    let mut raw: Vec<u32> = Vec::with_capacity(tree.len() as usize);
    let start = back.advance(b, key_slack(b));
    let mut handicap = dir.end();
    let mut visited = false;
    tree.sweep(dir, pager, start, |leaf| {
        visited = true;
        handicap = dir.earlier(handicap, leaf.handicaps().get(dir, side));
        leaf.extend_ids(0..leaf.len(), &mut raw);
        SweepControl::Continue
    })?;
    if !visited {
        // b beyond every key: bucketed reaches clamp to the last leaf on
        // the way, whose handicap must still be honoured.
        let h = tree.read_handicaps(pager, tree.end_leaf(dir))?;
        handicap = h.get(dir, side);
    }
    // Second sweep: backward, disjoint from the first, to the handicap.
    if dir.before(handicap, dir.end()) {
        let bound = back.advance(handicap, key_slack(handicap));
        tree.sweep(back, pager, back.next_after(start), |leaf| {
            // In sweep order keys only move on: those up to the bound first.
            let wanted = leaf.partition_point(|k| !back.before(bound, k));
            leaf.extend_ids(0..wanted, &mut raw);
            if wanted < leaf.len() {
                SweepControl::Stop
            } else {
                SweepControl::Continue
            }
        })?;
    }
    Ok(raw)
}
