//! The forest every dual index is made of: one `(B^up, B^down)` pair of
//! B⁺-trees per element of the predefined set `S`, keyed by `TOP_P` and
//! `BOT_P` evaluated there (Section 3; Section 4.4 only changes what an
//! element of `S` is — a slope in 2-D, a slope point in `E^{d-1}`).
//!
//! What differs between [`super::DualIndex`] and
//! [`super::ddim::DualIndexD`] — the slope-set type, the handicap geometry,
//! the query techniques — stays with them; building, key maintenance,
//! verification, accounting, teardown and the persisted form of the trees
//! are written here once.

use std::io;

use cdb_btree::{BTree, Handicaps};
use cdb_geometry::dual;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_storage::{CodecError, PageReader, Pager, RecordReader, RecordWriter, Wire};

use super::handicap::{assign_high, assign_low};
use crate::error::CdbError;
use crate::query::Side;

/// `(TOP_P, BOT_P)` of an indexed tuple at one element of `S`; panics on
/// unsatisfiable tuples (the relation layer rejects them at insert).
pub(crate) fn keys_at(t: &GeneralizedTuple, slope: &[f64]) -> (f64, f64) {
    (
        dual::top(t, slope).expect("indexed tuples are satisfiable"),
        dual::bot(t, slope).expect("indexed tuples are satisfiable"),
    )
}

/// The `(B^up, B^down)` tree pairs of one dual index, in the order of `S`.
#[derive(Clone, Debug)]
pub(crate) struct Forest {
    pairs: Vec<(BTree, BTree)>,
}

impl Forest {
    /// Bulk-loads one tree pair per element of `slopes`, `B^up` before
    /// `B^down`, over `(id, tuple)` pairs.
    ///
    /// # Errors
    /// The pager's error when writing tree pages fails.
    pub(crate) fn build<'s>(
        pager: &mut dyn Pager,
        slopes: impl Iterator<Item = &'s [f64]>,
        tuples: &[(u32, GeneralizedTuple)],
    ) -> io::Result<Self> {
        let mut pairs = Vec::new();
        for slope in slopes {
            let (mut up, mut down): (Vec<_>, Vec<_>) = tuples
                .iter()
                .map(|(id, t)| {
                    let (top, bot) = keys_at(t, slope);
                    ((top, *id), (bot, *id))
                })
                .unzip();
            let by_key = |a: &(f64, u32), b: &(f64, u32)| a.0.partial_cmp(&b.0).expect("NaN key");
            up.sort_by(by_key);
            down.sort_by(by_key);
            pairs.push((
                BTree::bulk_load(pager, &up, 1.0)?,
                BTree::bulk_load(pager, &down, 1.0)?,
            ));
        }
        Ok(Forest { pairs })
    }

    /// `B^up` (`up`) or `B^down` of element `i`.
    pub(crate) fn tree(&self, i: usize, up: bool) -> &BTree {
        if up {
            &self.pairs[i].0
        } else {
            &self.pairs[i].1
        }
    }

    /// [`tree`](Self::tree) for the query side, where `i` comes out of a
    /// [`PlanCase`](crate::plan::PlanCase) a caller may have built by hand:
    /// an element this forest does not have is an error, not a panic.
    pub(crate) fn routed(&self, i: usize, up: bool) -> Result<&BTree, CdbError> {
        if i >= self.pairs.len() {
            let k = self.pairs.len();
            return Err(CdbError::UnsupportedQuery(format!(
                "internal: routed to tree pair {i} of a forest of {k}"
            )));
        }
        Ok(self.tree(i, up))
    }

    /// Adds `id` to both trees of element `i`, whose slope is `slope`;
    /// returns the `(TOP_P, BOT_P)` keys it went in under, which the
    /// caller folds into its handicaps.
    pub(crate) fn insert(
        &mut self,
        pager: &mut dyn Pager,
        i: usize,
        slope: &[f64],
        id: u32,
        tuple: &GeneralizedTuple,
    ) -> io::Result<(f64, f64)> {
        let (top, bot) = keys_at(tuple, slope);
        self.pairs[i].0.insert(pager, top, id)?;
        self.pairs[i].1.insert(pager, bot, id)?;
        Ok((top, bot))
    }

    /// Removes `id` from every tree; `false` when some tree did not hold
    /// the entry it should.
    pub(crate) fn remove<'s>(
        &mut self,
        pager: &mut dyn Pager,
        slopes: impl Iterator<Item = &'s [f64]>,
        id: u32,
        tuple: &GeneralizedTuple,
    ) -> io::Result<bool> {
        let mut found = true;
        for ((up, down), slope) in self.pairs.iter_mut().zip(slopes) {
            let (top, bot) = keys_at(tuple, slope);
            found &= up.delete(pager, top, id)?;
            found &= down.delete(pager, bot, id)?;
        }
        Ok(found)
    }

    /// Recomputes the handicaps of every leaf of both trees of element `i`
    /// (Section 4.2 Steps 1–2) from every tuple's `keys` there and, per
    /// side, its `(low, high)` reaches over the part of slope space that
    /// side's handicaps answer for (`None`: nothing on that side, the
    /// handicaps stay at their neutral `±∞`).
    pub(crate) fn assign_handicaps(
        &self,
        pager: &mut dyn Pager,
        i: usize,
        keys: &[(f64, f64)],
        reaches: [Option<&[(f64, f64)]>; 2],
    ) -> io::Result<()> {
        for up in [true, false] {
            let tree = self.tree(i, up);
            let leaves = tree.leaves(&*pager)?;
            let mut low = [(); 2].map(|_| vec![f64::INFINITY; leaves.len()]);
            let mut high = [(); 2].map(|_| vec![f64::NEG_INFINITY; leaves.len()]);
            for (side, reach) in reaches.iter().enumerate() {
                let Some(reach) = reach else { continue };
                // (reach, key) per tuple, keyed as this tree is.
                let (lows, highs): (Vec<_>, Vec<_>) = reach
                    .iter()
                    .zip(keys)
                    .map(|(&(low, high), &(top, bot))| {
                        let key = if up { top } else { bot };
                        ((low, key), (high, key))
                    })
                    .unzip();
                low[side] = assign_low(&leaves, &lows);
                high[side] = assign_high(&leaves, &highs);
            }
            for (li, leaf) in leaves.iter().enumerate() {
                let handicaps = Handicaps {
                    low_prev: low[0][li],
                    low_next: low[1][li],
                    high_prev: high[0][li],
                    high_next: high[1][li],
                };
                tree.set_handicaps(pager, leaf.page, handicaps)?;
            }
        }
        Ok(())
    }

    /// Folds one inserted tuple's `(low, high)` reaches on `side` into the
    /// bucket leaves of both trees of element `i`, under its `keys` there.
    pub(crate) fn fold_handicaps(
        &self,
        pager: &mut dyn Pager,
        i: usize,
        side: Side,
        keys: (f64, f64),
        reach: (f64, f64),
    ) -> io::Result<()> {
        for (up, key) in [(true, keys.0), (false, keys.1)] {
            fold_low(pager, self.tree(i, up), side, reach.0, key)?;
            fold_high(pager, self.tree(i, up), side, reach.1, key)?;
        }
        Ok(())
    }

    /// Reads every page of every tree through `pager`; under a
    /// checksumming pager any torn or stale page surfaces here.
    pub(crate) fn verify(&self, pager: &dyn PageReader) -> io::Result<()> {
        for (up, down) in &self.pairs {
            up.collect_pages(pager)?;
            down.collect_pages(pager)?;
        }
        Ok(())
    }

    /// Pages owned by the forest (the space metric of Figure 10).
    pub(crate) fn page_count(&self) -> u64 {
        self.pairs
            .iter()
            .map(|(up, down)| up.page_count() + down.page_count())
            .sum()
    }

    /// Height of the first `B^up` tree — every tree of the forest has the
    /// same height, so this is the per-search descent cost in pages.
    pub(crate) fn height(&self) -> usize {
        self.pairs.first().map_or(0, |(up, _)| up.height())
    }

    /// Frees every page of every tree back to the pager.
    ///
    /// # Errors
    /// The pager's error when collecting the pages to free fails; pages
    /// already freed stay freed.
    pub(crate) fn destroy(self, pager: &mut dyn Pager) -> io::Result<()> {
        for (up, down) in self.pairs {
            up.destroy(pager)?;
            down.destroy(pager)?;
        }
        Ok(())
    }

    /// The catalog form: the pairs back to back as [`TreeMeta`]s — scalars
    /// only, because node contents (handicaps included) live in their
    /// pages. Their number is the index's slope count, which precedes them.
    pub(crate) fn put_trees(&self, w: &mut RecordWriter) {
        for (up, down) in &self.pairs {
            (TreeMeta::of(up), TreeMeta::of(down)).put(w);
        }
    }

    /// Mirror of [`put_trees`](Self::put_trees) for a forest of `k` pairs.
    pub(crate) fn get_trees(
        r: &mut RecordReader<'_>,
        k: usize,
        page_size: usize,
    ) -> Result<Self, CodecError> {
        let metas = r.get_seq::<(TreeMeta, TreeMeta)>(k)?;
        Ok(Forest {
            pairs: metas
                .into_iter()
                .map(|(up, down)| (up.attach(page_size), down.attach(page_size)))
                .collect(),
        })
    }
}

/// Folds one `(reach, key)` pair into the low handicap of its bucket leaf:
/// the leaf holding the first entry `≥ reach` (clamped to the last leaf).
fn fold_low(
    pager: &mut dyn Pager,
    tree: &BTree,
    side: Side,
    reach: f64,
    key: f64,
) -> io::Result<()> {
    let page = tree
        .find_first_geq(&*pager, reach)?
        .map(|(p, _)| p)
        .unwrap_or_else(|| tree.last_leaf());
    let mut h = tree.read_handicaps(&*pager, page)?;
    let slot = match side {
        Side::Prev => &mut h.low_prev,
        Side::Next => &mut h.low_next,
    };
    if key < *slot {
        *slot = key;
        tree.set_handicaps(pager, page, h)?;
    }
    Ok(())
}

/// Folds one `(reach, key)` pair into the high handicap of its bucket leaf:
/// the leaf holding the last entry `≤ reach` (clamped to the first leaf).
fn fold_high(
    pager: &mut dyn Pager,
    tree: &BTree,
    side: Side,
    reach: f64,
    key: f64,
) -> io::Result<()> {
    let page = tree
        .find_last_leq(&*pager, reach)?
        .map(|(p, _)| p)
        .unwrap_or_else(|| tree.first_leaf());
    let mut h = tree.read_handicaps(&*pager, page)?;
    let slot = match side {
        Side::Prev => &mut h.high_prev,
        Side::Next => &mut h.high_next,
    };
    if key > *slot {
        *slot = key;
        tree.set_handicaps(pager, page, h)?;
    }
    Ok(())
}

/// A B⁺-tree's persisted scalars.
struct TreeMeta {
    root: u32,
    height: usize,
    len: u64,
    first: u32,
    last: u32,
    pages: u64,
}

cdb_storage::wire_struct!(TreeMeta {
    root,
    height,
    len,
    first,
    last,
    pages
});

impl TreeMeta {
    fn of(t: &BTree) -> Self {
        TreeMeta {
            root: t.root(),
            height: t.height(),
            len: t.len(),
            first: t.first_leaf(),
            last: t.last_leaf(),
            pages: t.page_count(),
        }
    }

    fn attach(self, page_size: usize) -> BTree {
        BTree::from_parts(
            page_size,
            self.root,
            self.height,
            self.len,
            self.first,
            self.last,
            self.pages,
        )
    }
}
