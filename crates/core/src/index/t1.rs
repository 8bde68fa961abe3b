//! Section 4.1: technique T1 — approximate an arbitrary-slope query with
//! two app-queries at neighbouring slopes of `S` (Table 1), then refine.

use cdb_geometry::constraint::RelOp;
use cdb_storage::PageReader;

use super::{refine, sweep_candidates, DualIndex, Exact, TupleSource};
use crate::error::CdbError;
use crate::query::{
    order_ids, tree_and_direction, QueryResult, QueryStats, Selection, SelectionKind,
};
use crate::slopes::Bracket;

impl DualIndex {
    /// Section 4.1: approximate an arbitrary-slope query with two
    /// app-queries (Table 1), then refine exactly.
    pub(super) fn t1(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        fetch: &dyn TupleSource,
        exact: &Exact<'_>,
    ) -> Result<QueryResult, CdbError> {
        let before = pager.stats();
        let a = sel.halfplane.slope2d();
        let b = sel.halfplane.intercept;
        let theta = sel.halfplane.op;
        let (i1, i2, th1, th2) = self.app_query_plan(a, theta);
        // Both app-query lines pass through P = (anchor_x, a·anchor_x + b).
        let py = a * self.anchor_x() + b;
        let legs = [(i1, th1), (i2, th2)];
        let mut raw: Vec<u32> = Vec::new();
        for (li, (si, th)) in legs.into_iter().enumerate() {
            let s = self.slopes().get(si);
            let bi = py - s * self.anchor_x();
            // ALL original: first leg keeps ALL, second leg must be EXIST
            // (Figure 4: two ALL app-queries are incorrect).
            let kind = match (sel.kind, li) {
                (SelectionKind::All, 0) => SelectionKind::All,
                (SelectionKind::All, _) => SelectionKind::Exist,
                (SelectionKind::Exist, _) => SelectionKind::Exist,
            };
            let (use_up, upward) = tree_and_direction(kind, th);
            let tree = self.tree(si, use_up);
            let (sure, check) = sweep_candidates(tree, pager, bi, upward)?;
            raw.extend(sure);
            raw.extend(check);
        }
        let mut stats = QueryStats {
            candidates: raw.len() as u64,
            ..QueryStats::default()
        };
        stats.index_io = pager.stats().since(&before);
        // Dedupe (T1's duplication problem), then exact refinement.
        stats.duplicates = order_ids(&mut raw) as u64;
        let heap_before = pager.stats();
        let ids = refine(pager, exact.keep, raw, fetch, &mut stats)?;
        stats.heap_io = pager.stats().since(&heap_before);
        Ok(QueryResult::new(ids, stats))
    }

    /// Table 1: picks the app-query slopes (clockwise/anticlockwise
    /// neighbours) and operators for an original operator `θ`.
    fn app_query_plan(&self, a: f64, theta: RelOp) -> (usize, usize, RelOp, RelOp) {
        match self.slopes().bracket(a) {
            Bracket::Member(i) => (i, i, theta, theta),
            // a1 < a < a2: both operators keep θ.
            Bracket::Between(i, j) => (i, j, theta, theta),
            Bracket::Wrapped(cw, acw) => {
                if a > self.slopes().get(cw) {
                    // a beyond max(S): a1 = max (clockwise), a2 = min; both
                    // smaller than a — Table 1 row 2: θ1 = θ, θ2 = ¬θ.
                    (cw, acw, theta, theta.negated())
                } else {
                    // a below min(S) — Table 1 row 3: θ1 = ¬θ, θ2 = θ,
                    // with a1 the clockwise (here: max) neighbour.
                    (cw, acw, theta.negated(), theta)
                }
            }
        }
    }
}
