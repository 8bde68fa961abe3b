//! Section 4.1: technique T1 — approximate an arbitrary-slope query with
//! two app-queries at neighbouring slopes of `S` (Table 1), then refine.

use cdb_geometry::constraint::RelOp;
use cdb_storage::PageReader;

use super::forest::Forest;
use super::{refine, sweep_candidates, DualIndex, Exact, TupleSource};
use crate::error::CdbError;
use crate::query::{
    order_ids, tree_and_direction, QueryResult, QueryStats, Selection, SelectionKind,
};
use crate::slopes::Bracket;

impl Forest {
    /// Answers a selection by app-queries — `(element, operator,
    /// intercept)` legs, each an exact sweep at its own slope — whose union
    /// covers the original, then refines exactly. An ALL original keeps
    /// ALL on its first leg only; the others must be EXIST (Figure 4: two
    /// ALL app-queries are incorrect). Legs may overlap, so candidates are
    /// deduplicated (T1's duplication problem).
    pub(crate) fn covering(
        &self,
        pager: &dyn PageReader,
        kind: SelectionKind,
        legs: impl IntoIterator<Item = (usize, RelOp, f64)>,
        fetch: &dyn TupleSource,
        exact: &Exact<'_>,
    ) -> Result<QueryResult, CdbError> {
        let before = pager.stats();
        let mut raw: Vec<u32> = Vec::new();
        for (li, (si, th, bi)) in legs.into_iter().enumerate() {
            let kind = if li == 0 { kind } else { SelectionKind::Exist };
            let (use_up, upward) = tree_and_direction(kind, th);
            let (sure, check) = sweep_candidates(self.tree(si, use_up), pager, bi, upward)?;
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
        let ids = refine(pager, exact.keep, raw, fetch, &mut stats)?;
        stats.heap_io = pager.stats().since(&heap_before);
        Ok(QueryResult::new(ids, stats))
    }
}

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
        let a = sel.halfplane.slope2d();
        let (i1, i2, th1, th2) = self.app_query_plan(a, sel.halfplane.op);
        // Both app-query lines pass through P = (anchor_x, a·anchor_x + b).
        let py = a * self.anchor_x() + sel.halfplane.intercept;
        let legs = [(i1, th1), (i2, th2)]
            .map(|(si, th)| (si, th, py - self.slopes().get(si) * self.anchor_x()));
        self.forest.covering(pager, sel.kind, legs, fetch, exact)
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
