//! Section 4.1: technique T1 — approximate an arbitrary-slope query with
//! two app-queries at neighbouring slopes of `S` (Table 1).

use cdb_geometry::constraint::RelOp;
use cdb_storage::PageReader;

use super::forest::Forest;
use super::{sweep_candidates, Candidates};
use crate::error::CdbError;
use crate::query::{order_ids, tree_and_direction, Selection, SelectionKind};

impl Forest {
    /// The candidates of `sel` by app-queries — `(element, operator)`
    /// legs, each an exact sweep at its own slope — whose union covers
    /// the original. Every leg keeps the query's intercept `b`: the
    /// app-query lines then meet the query's at `P = (0, …, 0, b)`, and
    /// any point of it makes them covering (Table 1; Section 4.4 for `d`
    /// legs). An ALL original keeps ALL on its first leg only; the others
    /// must be EXIST (Figure 4: two ALL app-queries are incorrect). Legs
    /// may overlap, so candidates are deduplicated (T1's duplication
    /// problem).
    pub(crate) fn covering(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        legs: impl IntoIterator<Item = (usize, RelOp)>,
    ) -> Result<Candidates, CdbError> {
        let mut raw: Vec<u32> = Vec::new();
        let b = sel.halfplane.intercept;
        for (li, (si, th)) in legs.into_iter().enumerate() {
            let kind = if li == 0 {
                sel.kind
            } else {
                SelectionKind::Exist
            };
            let (use_up, dir) = tree_and_direction(kind, th);
            let (sure, check) = sweep_candidates(self.routed(si, use_up)?, pager, b, dir)?;
            raw.extend(sure);
            raw.extend(check);
        }
        let duplicates = order_ids(&mut raw) as u64;
        Ok(Candidates {
            duplicates,
            ..Candidates::check(raw)
        })
    }
}
