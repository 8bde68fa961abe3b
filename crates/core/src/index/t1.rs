//! Section 4.1: technique T1 — approximate an arbitrary-slope query with
//! two app-queries at neighbouring slopes of `S` (Table 1), then refine.

use cdb_geometry::constraint::RelOp;
use cdb_storage::PageReader;

use super::forest::Forest;
use super::{refine, sweep_candidates, DualIndex, Exact, TupleSource};
use crate::error::CdbError;
use crate::plan::Leg;
use crate::query::{
    order_ids, tree_and_direction, QueryResult, QueryStats, Selection, SelectionKind,
};

impl Forest {
    /// Answers `sel` by app-queries — `(element, operator, intercept)`
    /// legs, each an exact sweep at its own slope — whose union covers
    /// the original, then refines exactly. An ALL original keeps
    /// ALL on its first leg only; the others must be EXIST (Figure 4: two
    /// ALL app-queries are incorrect). Legs may overlap, so candidates are
    /// deduplicated (T1's duplication problem).
    pub(crate) fn covering(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        legs: impl IntoIterator<Item = (usize, RelOp, f64)>,
        exact: Exact,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        let before = pager.stats();
        let mut raw: Vec<u32> = Vec::new();
        for (li, (si, th, bi)) in legs.into_iter().enumerate() {
            let kind = if li == 0 {
                sel.kind
            } else {
                SelectionKind::Exist
            };
            let (use_up, upward) = tree_and_direction(kind, th);
            let (sure, check) = sweep_candidates(self.routed(si, use_up)?, pager, bi, upward)?;
            raw.extend(sure);
            raw.extend(check);
        }
        let mut stats = QueryStats {
            candidates: raw.len() as u64,
            ..QueryStats::default()
        };
        stats.index_io = pager.stats().since(&before);
        stats.duplicates = order_ids(&mut raw) as u64;
        let heap_before = pager.stats();
        let ids = refine(pager, sel, exact, raw, fetch, &mut stats)?;
        stats.heap_io = pager.stats().since(&heap_before);
        Ok(QueryResult::new(ids, stats))
    }
}

impl DualIndex {
    /// Section 4.1: approximate an arbitrary-slope query with the two
    /// app-queries `legs` (Table 1), then refine exactly.
    pub(super) fn t1(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        legs: &[Leg; 2],
        exact: Exact,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        // Both app-query lines pass through P = (anchor_x, a·anchor_x + b).
        let py = sel.halfplane.slope2d() * self.anchor_x() + sel.halfplane.intercept;
        let legs = legs.map(|(tree, th)| (tree.i, th, py - tree.slope * self.anchor_x()));
        self.forest.covering(pager, sel, legs, exact, fetch)
    }
}
