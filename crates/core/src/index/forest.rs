//! The forest the dual index is made of: one `(B^up, B^down)` pair of
//! B⁺-trees per element of the predefined set `S`, keyed by `TOP_P` and
//! `BOT_P` evaluated there (Section 3; Section 4.4 only changes what an
//! element of `S` is — a slope in 2-D, a slope point in `E^{d-1}`).
//!
//! [`super::DualIndex`] knows which elements there are and which regions
//! of slope space their handicaps answer for (its
//! [`SlopeGeometry`](super::SlopeGeometry)) and computes every tuple's
//! keys; building, key and handicap
//! maintenance, the two searches (`restricted`, `guided`),
//! verification, accounting, teardown and the persisted form of the trees
//! are written here once, up and down alike (over a [`Direction`]).

use std::io;

use cdb_btree::{BTree, Direction, Handicaps};
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_storage::{CodecError, PageReader, Pager, RecordReader, RecordWriter, Wire};

use super::handicap::assign;
use crate::error::CdbError;
use crate::query::Side;

/// A tuple's reaches over one handicap region, per tree of an element —
/// `B^up` first: the `(max, min)` of the surface that tree is keyed by
/// (`TOP_P` for `B^up`, `BOT_P` for `B^down`), or a bound past each on
/// its own side. A search whose first sweep goes up buckets by the max,
/// one going down by the min ([`Direction::of`]).
pub(crate) type Reaches = [(f64, f64); 2];

/// The `(B^up, B^down)` tree pairs of one dual index, in the order of `S`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Forest {
    pairs: Vec<(BTree, BTree)>,
}

impl Forest {
    /// Bulk-loads one tree pair per element of `S`, `B^up` before
    /// `B^down`, over `(id, tuple)` pairs whose `(TOP_P, BOT_P)` keys at
    /// element `i` are `keys[i]`, aligned with `tuples`.
    ///
    /// # Errors
    /// The pager's error when writing tree pages fails.
    pub(crate) fn build(
        pager: &mut dyn Pager,
        tuples: &[(u32, GeneralizedTuple)],
        keys: &[Vec<(f64, f64)>],
    ) -> io::Result<Self> {
        let mut pairs = Vec::new();
        for keys in keys {
            let (mut up, mut down): (Vec<_>, Vec<_>) = tuples
                .iter()
                .zip(keys)
                .map(|((id, _), &(top, bot))| ((top, *id), (bot, *id)))
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

    /// Adds `id` to both trees of element `i` under its `(TOP_P, BOT_P)`
    /// `keys` there and folds, per side that answers for a region of slope
    /// space, each tree's own `(max, min)` reach over that region into the
    /// tree's handicaps, in one descent per tree.
    pub(crate) fn insert(
        &mut self,
        pager: &mut dyn Pager,
        i: usize,
        id: u32,
        keys: (f64, f64),
        reaches: &[(Side, Reaches)],
    ) -> io::Result<()> {
        let (up, down) = &mut self.pairs[i];
        for (t, (tree, key)) in [(up, keys.0), (down, keys.1)].into_iter().enumerate() {
            let folds: Vec<_> = reaches
                .iter()
                .flat_map(|&(side, reach)| {
                    Direction::BOTH.map(|dir| (dir, dir.of(reach[t]), side, key))
                })
                .collect();
            tree.fold_handicaps(pager, Some((key, id)), &folds)?;
        }
        Ok(())
    }

    /// Removes `id`, whose `(TOP_P, BOT_P)` keys are `keys` in the order
    /// of `S`, from every tree; `false` when some tree did not hold the
    /// entry it should.
    pub(crate) fn remove(
        &mut self,
        pager: &mut dyn Pager,
        keys: &[(f64, f64)],
        id: u32,
    ) -> io::Result<bool> {
        let mut found = true;
        for ((up, down), &(top, bot)) in self.pairs.iter_mut().zip(keys) {
            found &= up.delete(pager, top, id)?;
            found &= down.delete(pager, bot, id)?;
        }
        Ok(found)
    }

    /// Recomputes the handicaps of every leaf of both trees of element `i`
    /// (Section 4.2 Steps 1–2) from every tuple's `keys` there and, per
    /// side that answers for a region of slope space, its [`Reaches`] over
    /// that region (a side not listed keeps the neutral `±∞`). Each tree
    /// buckets by its own reaches.
    pub(crate) fn assign_handicaps(
        &self,
        pager: &mut dyn Pager,
        i: usize,
        keys: &[(f64, f64)],
        reaches: &[(Side, Vec<Reaches>)],
    ) -> io::Result<()> {
        for (t, up) in [true, false].into_iter().enumerate() {
            let tree = self.tree(i, up);
            let leaves = tree.leaves(&*pager)?;
            let mut handicaps = vec![Handicaps::default(); leaves.len()];
            for (side, reach) in reaches {
                for dir in Direction::BOTH {
                    // (reach, key) per tuple, keyed as this tree is: a
                    // search going up first must get back down to every
                    // tuple whose surface reaches its start, and vice versa.
                    let pairs = (reach.iter().zip(keys))
                        .map(|(r, k)| (dir.of(r[t]), if up { k.0 } else { k.1 }));
                    for (h, value) in handicaps.iter_mut().zip(assign(dir, &leaves, pairs)) {
                        *h.slot(dir, *side) = value;
                    }
                }
            }
            for (leaf, h) in leaves.iter().zip(handicaps) {
                tree.set_handicaps(pager, leaf.page, h)?;
            }
        }
        Ok(())
    }

    /// Reads every page of every tree through `pager`; under a
    /// checksumming pager any torn or stale page surfaces here. Every leaf
    /// entry read is shown to `entry` as `(element, up, key, id)`.
    pub(crate) fn verify(
        &self,
        pager: &dyn PageReader,
        mut entry: impl FnMut(usize, bool, f64, u32),
    ) -> io::Result<()> {
        for (i, (up, down)) in self.pairs.iter().enumerate() {
            up.walk(pager, |key, id| entry(i, true, key, id))?;
            down.walk(pager, |key, id| entry(i, false, key, id))?;
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
            first: t.end_leaf(Direction::Down),
            last: t.end_leaf(Direction::Up),
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cdb_btree::{LeafView, SweepControl};
    use cdb_storage::{MemPager, PageId};

    /// The reference [`Forest::insert`] is checked against, one search per
    /// target: both entries by [`BTree::insert`], then per region, tree and
    /// direction a `find`, a `read_handicaps` and, when the fold loosens
    /// the slot, a `set_handicaps` — one descent and up to three reads of
    /// the bucket leaf per fold.
    pub(crate) fn insert_per_fold(
        forest: &mut Forest,
        pager: &mut dyn Pager,
        i: usize,
        id: u32,
        keys: (f64, f64),
        reaches: &[(Side, Reaches)],
    ) {
        forest.pairs[i].0.insert(pager, keys.0, id).unwrap();
        forest.pairs[i].1.insert(pager, keys.1, id).unwrap();
        for &(side, reach) in reaches {
            for (t, (up, key)) in [(true, keys.0), (false, keys.1)].into_iter().enumerate() {
                let tree = forest.tree(i, up);
                for dir in Direction::BOTH {
                    let page = tree
                        .find(dir, &*pager, dir.of(reach[t]))
                        .unwrap()
                        .map_or_else(|| tree.end_leaf(dir), |(page, _)| page);
                    let mut h = tree.read_handicaps(&*pager, page).unwrap();
                    let slot = h.slot(dir, side);
                    if dir.before(key, *slot) {
                        *slot = key;
                        tree.set_handicaps(pager, page, h).unwrap();
                    }
                }
            }
        }
    }

    const PAGE: usize = 128; // 10 entries per leaf

    fn bulk(pager: &mut MemPager, keys: impl Iterator<Item = f64>) -> BTree {
        let mut entries: Vec<(f64, u32)> = keys.zip(0u32..).collect();
        entries.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        BTree::bulk_load(pager, &entries, 1.0).unwrap()
    }

    type Swept = (PageId, Vec<(f64, u32)>);

    /// Each visited leaf's page and `(key, id)` entries, in sweep order.
    fn swept(tree: &BTree, pager: &MemPager, dir: Direction, from: f64) -> Vec<Swept> {
        let mut leaves = Vec::new();
        let visit = |leaf: &LeafView<'_>| {
            let entries = (0..leaf.len()).map(|j| (leaf.key(j), leaf.id(j)));
            leaves.push((leaf.page(), entries.collect()));
            SweepControl::Continue
        };
        tree.sweep(dir, pager, from, visit).unwrap();
        leaves
    }

    /// Up ≡ mirrored down: whatever is found, swept, assigned or folded in
    /// one direction over keys `K` is, negated, what the other direction
    /// does over `−K` — entry for entry and handicap for handicap.
    #[test]
    fn up_is_mirrored_down() {
        let finite = (0..28).map(|i| (i * 37 % 28) as f64 * 1.5 - 20.0);
        let with_infinities: Vec<f64> = finite.chain([f64::INFINITY, f64::NEG_INFINITY]).collect();
        for keys in [Vec::new(), with_infinities] {
            for dir in Direction::BOTH {
                mirrored(&keys, dir);
            }
        }
    }

    /// [`Forest::insert`]'s folds without its entry: `keys` folded into
    /// both trees of element `i` from each tree's `(up, down)` `reach` on
    /// `side`.
    fn fold(
        forest: &mut Forest,
        pager: &mut MemPager,
        i: usize,
        side: Side,
        keys: (f64, f64),
        reach: Reaches,
    ) {
        let (up, down) = &mut forest.pairs[i];
        for (t, (tree, key)) in [(up, keys.0), (down, keys.1)].into_iter().enumerate() {
            let folds = Direction::BOTH.map(|dir| (dir, dir.of(reach[t]), side, key));
            tree.fold_handicaps(pager, None, &folds).unwrap();
        }
    }

    fn mirrored(keys: &[f64], dir: Direction) {
        let back = dir.reversed();
        let mut pager = MemPager::new(PAGE);
        // Element 0's `B^up` holds K and its `B^down` −K; element 1 is its
        // mirror image, tree for tree.
        let k = bulk(&mut pager, keys.iter().copied());
        let neg = bulk(&mut pager, keys.iter().map(|k| -k));
        let mirror = (
            bulk(&mut pager, keys.iter().copied()),
            bulk(&mut pager, keys.iter().map(|k| -k)),
        );
        let mut forest = Forest {
            pairs: vec![(k, neg), mirror],
        };
        let (tree, image) = (forest.tree(0, true), forest.tree(0, false));

        // Found and swept: from beyond both ends, between keys, on a key.
        for from in [
            f64::NEG_INFINITY,
            -1e9,
            -20.0,
            -3.3,
            0.0,
            1.0,
            20.5,
            1e9,
            f64::INFINITY,
        ] {
            let (here, there) = (
                swept(tree, &pager, dir, from),
                swept(image, &pager, back, -from),
            );
            let negated = |(_, entries): &Swept| -> Vec<(f64, u32)> {
                entries.iter().map(|&(k, v)| (-k, v)).collect()
            };
            assert_eq!(here.len(), there.len(), "{dir:?} from {from}");
            for (a, b) in here.iter().zip(&there) {
                assert_eq!(a.1, negated(b), "{dir:?} from {from}");
            }
            let found = tree.find(dir, &pager, from).unwrap();
            assert_eq!(found.is_some(), !here.is_empty(), "{dir:?} from {from}");
            if let Some((page, slots)) = found {
                assert_eq!((page, slots.len()), (here[0].0, here[0].1.len()));
            }
        }

        // Assigned: the image's leaves are the tree's, negated, in reverse.
        let (leaves, image_leaves) = (tree.leaves(&pager).unwrap(), image.leaves(&pager).unwrap());
        let pairs: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                (
                    (i * 13 % 40) as f64 * 1.25 - 25.0,
                    (i * 7 % 40) as f64 - 20.0,
                )
            })
            .chain([(f64::INFINITY, 3.0), (f64::NEG_INFINITY, -4.0)])
            .collect();
        let negated = pairs.iter().map(|&(r, k)| (-r, -k));
        let mut there = assign(back, &image_leaves, negated);
        there.reverse();
        let there: Vec<f64> = there.into_iter().map(|h| -h).collect();
        let here = assign(dir, &leaves, pairs.iter().copied());
        assert_eq!(here, there, "{dir:?} assign");

        // Folded: the same tuples into element 0 and, mirrored, element 1.
        for (side, &(top, bot)) in [Side::Prev, Side::Next].into_iter().cycle().zip(&pairs) {
            let keys = (top.clamp(-1e3, 1e3), bot);
            // Each tree its own reach: B^down's about half B^up's.
            let reach = [
                (top.max(bot), top.min(bot)),
                (top.max(bot) / 2.0, top.min(bot)),
            ];
            fold(&mut forest, &mut pager, 0, side, keys, reach);
            let mirror = |(max, min): (f64, f64)| (-min, -max);
            let (keys, reach) = ((-keys.1, -keys.0), [mirror(reach[1]), mirror(reach[0])]);
            fold(&mut forest, &mut pager, 1, side, keys, reach);
        }
        for up in [true, false] {
            let (here, there) = (forest.tree(0, up), forest.tree(1, !up));
            let mut image_leaves = there.leaves(&pager).unwrap();
            image_leaves.reverse();
            for (a, b) in here.leaves(&pager).unwrap().iter().zip(&image_leaves) {
                let a = here.read_handicaps(&pager, a.page).unwrap();
                let b = there.read_handicaps(&pager, b.page).unwrap();
                for side in [Side::Prev, Side::Next] {
                    assert_eq!(a.get(dir, side), -b.get(back, side), "{dir:?} fold");
                }
            }
        }
    }
}
