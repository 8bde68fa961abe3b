//! The Section 5 baseline as a relation-level index.

use std::io;

use cdb_geometry::halfplane::HalfPlane;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_geometry::Rect;
use cdb_rplustree::RPlusTree;
use cdb_storage::{PageReader, Pager};

use super::Candidates;

/// A packed R⁺-tree over the MBRs of *bounded* tuples, plus an overflow
/// list of unbounded tuple ids (no finite MBR exists for those — they are
/// always refined). It is packed once and never maintained: a write to the
/// relation drops it, and building it again re-packs the live tuples.
#[derive(Clone)]
pub struct RPlusIndex {
    /// The packed tree.
    pub tree: RPlusTree,
    /// Ids of unbounded tuples, kept outside the tree.
    pub unbounded: Vec<u32>,
    /// The fill factor the tree was packed at (persisted so a reopened
    /// database reports the same build parameters).
    pub fill: f64,
}

/// The MBR of a bounded 2-D tuple.
fn mbr(tuple: &GeneralizedTuple) -> Option<Rect> {
    let (lo, hi) = tuple.bounding_box()?;
    Some(Rect::new(lo[0], lo[1], hi[0], hi[1]))
}

impl RPlusIndex {
    /// Bulk-packs the bounded tuples' MBRs at `fill` (which the caller has
    /// checked to lie in `[0.5, 1]`); unbounded tuples go to the overflow
    /// list.
    pub(crate) fn build(
        pager: &mut dyn Pager,
        fill: f64,
        tuples: &[(u32, GeneralizedTuple)],
    ) -> io::Result<Self> {
        let mut entries = Vec::new();
        let mut unbounded = Vec::new();
        for (id, t) in tuples {
            match mbr(t) {
                Some(rect) => entries.push((rect, *id)),
                None => unbounded.push(*id),
            }
        }
        Ok(RPlusIndex {
            tree: RPlusTree::pack(pager, &entries, fill)?,
            unbounded,
            fill,
        })
    }

    /// The candidate superset of a half-plane selection: the EXIST search
    /// over MBRs (valid for ALL too, since `ALL(q) ⊆ EXIST(q)` over
    /// satisfiable tuples) plus the overflow list. The tree's hits are
    /// distinct and the overflow ids are not in the tree.
    pub(crate) fn candidates(
        &self,
        pager: &dyn PageReader,
        q: &HalfPlane,
    ) -> io::Result<Candidates> {
        let (mut check, search) = self.tree.search_halfplane(pager, q)?;
        check.extend_from_slice(&self.unbounded);
        Ok(Candidates {
            duplicates: search.duplicates,
            ..Candidates::check(check)
        })
    }
}
