//! Section 3: the restricted technique — exact answers for query slopes in
//! the predefined set `S` via one tree search plus a leaf sweep.

use std::io;

use cdb_btree::{key_slack, BTree, Direction, SweepControl};
use cdb_storage::PageReader;

use super::forest::Forest;
use super::Candidates;
use crate::error::CdbError;
use crate::query::{tree_and_direction, Selection};

impl Forest {
    /// Section 3: one tree search plus a leaf sweep in the trees of
    /// element `slope_idx`, whose slope is the query's. With the paper's
    /// 4-byte stored keys the entries within one `f32` quantum of the
    /// threshold cannot be decided from the page alone: those few are the
    /// candidates to check, every other entry is decided by its key. The
    /// boundary-band predicate at the tree's own slope equals the exact
    /// selection predicate, so refinement decides the band exactly.
    pub(crate) fn restricted(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        slope_idx: usize,
    ) -> Result<Candidates, CdbError> {
        let (use_up, dir) = tree_and_direction(sel.kind, sel.halfplane.op);
        let tree = self.routed(slope_idx, use_up)?;
        let (sure, check) = sweep_candidates(tree, pager, sel.halfplane.intercept, dir)?;
        Ok(Candidates {
            sure,
            check,
            duplicates: 0,
        })
    }
}

/// One-direction threshold sweep with `f32`-rounding bands: returns
/// `(sure, boundary)` ids — `sure` certainly satisfy the key test (their
/// keys are past `b` by more than a rounding quantum), the boundary band is
/// within one of `b`.
fn sweep_candidates(
    tree: &BTree,
    pager: &dyn PageReader,
    b: f64,
    dir: Direction,
) -> io::Result<(Vec<u32>, Vec<u32>)> {
    let slack = key_slack(b);
    let (from, clear) = (dir.reversed().advance(b, slack), dir.advance(b, slack));
    let mut sure = Vec::new();
    let mut band = Vec::new();
    tree.sweep(dir, pager, from, |leaf| {
        // In sweep order keys only move away from `b`: the band comes first.
        let in_band = leaf.partition_point(|k| !dir.before(clear, k));
        leaf.extend_ids(0..in_band, &mut band);
        leaf.extend_ids(in_band..leaf.len(), &mut sure);
        SweepControl::Continue
    })?;
    Ok((sure, band))
}
