//! The B⁺-tree proper: search, insert, delete, bulk load and leaf sweeps.
//!
//! Trees do not own their pager — many trees (the `2k` `B^up`/`B^down`
//! forests of Section 3) share one, so the pager's live-page count is the
//! space metric of Figure 10. Mutating operations take `&mut dyn Pager`
//! explicitly; searches and sweeps only need a `&dyn PageReader`, so a
//! built tree can serve concurrent queries. Page accesses are counted in
//! the pager either way.
//!
//! Every operation that touches pages is fallible (`io::Result`): the pager
//! underneath may be a real file, a fault-injected wrapper, or a quarantined
//! device. Errors propagate; panics are reserved for caller bugs (`NaN`
//! keys, unsorted bulk loads) and for invariant violations in [`BTree::validate`].
//!
//! **Deletion policy.** Entries are removed in place; leaves are never
//! merged (the PostgreSQL-style relaxed deletion): an emptied leaf stays in
//! the chain and is skipped by sweeps. Space therefore tracks the high-water
//! mark; an index is compacted by building it again from the heap with
//! its own parameters (`cdb-core`'s `ConstraintDb::build_index` with the
//! index's `Index::spec`). This keeps the duplicate-heavy delete path
//! simple and does not affect any experiment (the paper's workloads are
//! build-then-query); the paper's `O(log_B n)` amortized update bound
//! still holds since no operation exceeds one root-to-leaf path plus
//! splits.

use std::io;
use std::ops::Range;

use cdb_storage::{PageId, PageReader, Pager};

use crate::layout::{
    internal_capacity, key_slack, leaf_capacity, Direction, Handicaps, Side, NULL_PAGE,
};
use crate::node::{is_leaf, Internal, Leaf};

/// Flow control for leaf sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepControl {
    /// Keep sweeping into the next leaf.
    Continue,
    /// Stop after this leaf.
    Stop,
}

/// What a sweep callback sees for each visited leaf: a borrowed view of
/// the page the sweep has just read, over the leaf's entries at or past the
/// sweep's start in sweep order (ascending keys for upward sweeps,
/// descending for downward). Position `j` is the `j`-th entry the sweep
/// meets in this leaf; nothing is decoded until it is asked for.
pub struct LeafView<'a> {
    page: PageId,
    leaf: Leaf<'a>,
    /// The swept slots, in stored (ascending) order.
    slots: Range<usize>,
    dir: Direction,
}

impl LeafView<'_> {
    /// Page id of the leaf (one page access per visit).
    pub fn page(&self) -> PageId {
        self.page
    }

    /// The leaf's handicap slots.
    pub fn handicaps(&self) -> Handicaps {
        self.leaf.handicaps()
    }

    /// Number of swept entries in this leaf.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if no entry of this leaf is swept (an emptied leaf).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The stored slot of sweep position `j`.
    fn slot(&self, j: usize) -> usize {
        assert!(j < self.len(), "sweep position {j} past {}", self.len());
        match self.dir {
            Direction::Up => self.slots.start + j,
            Direction::Down => self.slots.end - 1 - j,
        }
    }

    /// Key of the `j`-th swept entry (as stored: `f32` widened to `f64`).
    pub fn key(&self, j: usize) -> f64 {
        self.leaf.key(self.slot(j))
    }

    /// Value (tuple id) of the `j`-th swept entry.
    pub fn id(&self, j: usize) -> u32 {
        self.leaf.value(self.slot(j))
    }

    /// The number of leading swept entries whose key satisfies `pred`,
    /// which must hold for a prefix of the sweep order and for nothing
    /// after it (as [`slice::partition_point`]).
    pub fn partition_point(&self, mut pred: impl FnMut(f64) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.key(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Appends the ids of sweep positions `range` to `out`, in sweep order.
    pub fn extend_ids(&self, range: Range<usize>, out: &mut Vec<u32>) {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "sweep positions {range:?} past {}",
            self.len()
        );
        let (start, end) = (self.slots.start, self.slots.end);
        match self.dir {
            Direction::Up => out.extend(self.leaf.values(start + range.start..start + range.end)),
            Direction::Down => {
                out.extend(self.leaf.values(end - range.end..end - range.start).rev())
            }
        }
    }
}

/// A decoded [`LeafView`]: what [`BTree::sweep_up`] shows its visitor.
#[derive(Clone, Debug)]
pub struct LeafSnapshot {
    /// Page id of the leaf (one page access per visit).
    pub page: PageId,
    /// The leaf's handicap slots.
    pub handicaps: Handicaps,
    /// Entries within the sweep range, in sweep order
    /// (ascending keys for upward sweeps, descending for downward).
    pub entries: Vec<(f64, u32)>,
}

/// Summary of one leaf, in chain order (for handicap rebuilds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeafInfo {
    /// Page id.
    pub page: PageId,
    /// Smallest key stored (`NaN`-free; `f64::NAN` never enters the tree).
    pub min_key: f64,
    /// Largest key stored.
    pub max_key: f64,
    /// Number of entries.
    pub count: usize,
}

/// The pages one operation works on, each read from the pager at most
/// once: descents find nodes here first, changes land in these buffers,
/// and [`write_back`](Self::write_back) writes each changed page once.
struct Pages {
    size: usize,
    /// The pages held, in the order they came in, and whether they changed.
    held: Vec<(PageId, bool)>,
    /// Their bytes, back to back.
    bytes: Vec<u8>,
}

impl Pages {
    /// Room for a root-to-leaf path of `tree` and a few pages more.
    fn of(tree: &BTree) -> Self {
        let (size, room) = (tree.page_size, tree.height + 4);
        let (held, bytes) = (Vec::with_capacity(room), Vec::with_capacity(room * size));
        Pages { size, held, bytes }
    }

    /// `page`'s bytes, read on first use.
    fn node(&mut self, pager: &dyn PageReader, page: PageId) -> io::Result<&mut [u8]> {
        let at = match self.held.iter().position(|&(p, _)| p == page) {
            Some(at) => at,
            None => {
                let at = self.held.len();
                self.bytes.resize((at + 1) * self.size, 0);
                pager.read(page, &mut self.bytes[at * self.size..])?;
                self.held.push((page, false));
                at
            }
        };
        Ok(&mut self.bytes[at * self.size..][..self.size])
    }

    /// Holds `buf` as the changed bytes of the newly allocated `page`.
    fn store(&mut self, page: PageId, buf: &[u8]) {
        self.held.push((page, true));
        self.bytes.extend_from_slice(buf);
    }

    /// Marks the held `page` for writing back.
    fn changed(&mut self, page: PageId) {
        for (_, changed) in self.held.iter_mut().filter(|(p, _)| *p == page) {
            *changed = true;
        }
    }

    fn write_back(&self, pager: &mut dyn Pager) -> io::Result<()> {
        for (&(page, changed), bytes) in self.held.iter().zip(self.bytes.chunks(self.size)) {
            if changed {
                pager.write(page, bytes)?;
            }
        }
        Ok(())
    }
}

/// A disk-based B⁺-tree multi-map from `f64` keys (stored as `f32`) to
/// `u32` values.
///
/// ```
/// use cdb_btree::{BTree, SweepControl};
/// use cdb_storage::{MemPager, Pager};
///
/// let mut pager = MemPager::paper_1999();
/// let mut tree = BTree::new(&mut pager).unwrap();
/// for (k, v) in [(3.5, 1), (-2.0, 2), (f64::INFINITY, 3), (3.5, 4)] {
///     tree.insert(&mut pager, k, v).unwrap();
/// }
/// // Range scan: duplicates kept, infinities ordered last.
/// let hits = tree.range(&mut pager, 0.0, 10.0).unwrap();
/// assert_eq!(hits.len(), 2);
/// // Leaf sweep with early stop.
/// let mut seen = 0;
/// tree.sweep_up(&mut pager, -10.0, |leaf| {
///     seen += leaf.entries.len();
///     SweepControl::Continue
/// })
/// .unwrap();
/// assert_eq!(seen, 4);
/// ```
#[derive(Clone, Debug)]
pub struct BTree {
    page_size: usize,
    root: PageId,
    height: usize, // 0 = root is a leaf
    len: u64,
    first_leaf: PageId,
    last_leaf: PageId,
    pages: u64,
}

impl BTree {
    /// Creates an empty tree, allocating its root leaf from `pager`.
    pub fn new(pager: &mut dyn Pager) -> io::Result<Self> {
        let page_size = pager.page_size();
        let root = pager.allocate()?;
        let mut buf = vec![0u8; page_size];
        Leaf::init(&mut buf);
        pager.write(root, &buf)?;
        Ok(BTree {
            page_size,
            root,
            height: 0,
            len: 0,
            first_leaf: root,
            last_leaf: root,
            pages: 1,
        })
    }

    /// Re-attaches a tree from persisted metadata without touching the
    /// pager: the node pages (and any handicap slots stored in the leaves)
    /// are already on disk, so scalar roots are all a catalog needs to save.
    ///
    /// The caller is responsible for passing values that describe a tree
    /// previously built over the same pager; the structure is trusted, and
    /// a wrong root surfaces as a read of an unallocated page.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        page_size: usize,
        root: PageId,
        height: usize,
        len: u64,
        first_leaf: PageId,
        last_leaf: PageId,
        pages: u64,
    ) -> Self {
        BTree {
            page_size,
            root,
            height,
            len,
            first_leaf,
            last_leaf,
            pages,
        }
    }

    /// Root page id (persisted by the catalog).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Number of stored entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (`0` when the root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pages owned by this tree (leaves + internals).
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    // ------------------------------------------------------------- insert --

    /// Inserts `(key, value)`. Duplicate keys are allowed; `NaN` is not.
    ///
    /// # Errors
    /// Propagates pager I/O failures. A failed insert may leave a split
    /// half-propagated; rebuild from the heap in that case.
    ///
    /// # Panics
    /// Panics on a `NaN` key.
    pub fn insert(&mut self, pager: &mut dyn Pager, key: f64, value: u32) -> io::Result<()> {
        let (mut tree, mut pages) = (self.clone(), Pages::of(self));
        tree.put(pager, &mut pages, key, value)?;
        pages.write_back(pager)?;
        *self = tree;
        Ok(())
    }

    /// [Inserts](Self::insert) `entry`, if any, then folds each `(dir,
    /// from, side, key)` of `folds` into the leaf a sweep in `dir` from
    /// `from` starts in (the last on its way if none): its `(dir, side)`
    /// handicap slot takes `key` if that loosens it. One descent serves
    /// them all: each page is read once and each changed one written once.
    /// On an error the tree's metadata stays as it was.
    pub fn fold_handicaps(
        &mut self,
        pager: &mut dyn Pager,
        entry: Option<(f64, u32)>,
        folds: &[(Direction, f64, Side, f64)],
    ) -> io::Result<()> {
        let (mut tree, mut pages) = (self.clone(), Pages::of(self));
        if let Some((key, value)) = entry {
            tree.put(pager, &mut pages, key, value)?;
        }
        for &(dir, from, side, key) in folds {
            let page = tree
                .locate(dir, &*pager, &mut pages, from)?
                .map_or_else(|| tree.end_leaf(dir), |(page, _)| page);
            let mut leaf = Leaf::new(pages.node(&*pager, page)?);
            let mut h = leaf.handicaps();
            let slot = h.slot(dir, side);
            if dir.before(key, *slot) {
                *slot = key;
                leaf.set_handicaps(h);
                pages.changed(page);
            }
        }
        pages.write_back(pager)?;
        *self = tree;
        Ok(())
    }

    /// Inserts `(key, value)` into `pages`, splitting as far up as needed.
    fn put(
        &mut self,
        pager: &mut dyn Pager,
        pages: &mut Pages,
        key: f64,
        value: u32,
    ) -> io::Result<()> {
        assert!(!key.is_nan(), "NaN keys are not allowed");
        // Descend, remembering the path.
        let mut path: Vec<(PageId, usize)> = Vec::with_capacity(self.height);
        let mut page = self.root;
        for _ in 0..self.height {
            let node = Internal::new(pages.node(&*pager, page)?);
            let idx = node.rank(Direction::Down, key);
            path.push((page, idx));
            page = node.child(idx);
        }
        self.len += 1;
        let mut leaf = Leaf::new(pages.node(&*pager, page)?);
        if leaf.count() < leaf_capacity(self.page_size) {
            leaf.insert(self.page_size, key, value);
            pages.changed(page);
            return Ok(());
        }
        // Split the leaf. Both halves inherit the original handicap values:
        // a handicap is a conservative sweep bound, and keeping the
        // pre-split bound in both halves can only widen (never corrupt) the
        // second sweep of technique T2 — incremental index updates rely on
        // this (they re-tighten lazily via a rebuild).
        let new_page = pager.allocate()?;
        self.pages += 1;
        // Fix the chain.
        let old_next = leaf.next();
        if old_next == NULL_PAGE {
            self.last_leaf = new_page;
        } else {
            Leaf::new(pages.node(&*pager, old_next)?).set_prev(new_page);
            pages.changed(old_next);
        }
        let mut rbuf = vec![0u8; self.page_size];
        let mut right = Leaf::init(&mut rbuf);
        let mut leaf = Leaf::new(pages.node(&*pager, page)?);
        right.set_handicaps(leaf.handicaps());
        let sep = leaf.split_into(&mut right);
        leaf.set_next(new_page);
        right.set_prev(page);
        right.set_next(old_next);
        // Insert into the correct half. Duplicates of `sep` may span the
        // boundary; route by comparison with the separator.
        if key < sep {
            leaf.insert(self.page_size, key, value);
        } else {
            right.insert(self.page_size, key, value);
        }
        pages.changed(page);
        pages.store(new_page, &rbuf);
        self.insert_separator(pager, pages, path, sep, new_page)
    }

    /// Propagates a split upward: inserts `(sep, right_child)` along `path`.
    fn insert_separator(
        &mut self,
        pager: &mut dyn Pager,
        pages: &mut Pages,
        mut path: Vec<(PageId, usize)>,
        mut sep: f64,
        mut right_child: PageId,
    ) -> io::Result<()> {
        while let Some((page, idx)) = path.pop() {
            let mut node = Internal::new(pages.node(&*pager, page)?);
            if node.count() < internal_capacity(self.page_size) {
                node.insert_at(self.page_size, idx, sep, right_child);
                pages.changed(page);
                return Ok(());
            }
            // Split this internal node. Insert first into a widened copy is
            // avoided by splitting first, then placing into the proper half.
            let new_page = pager.allocate()?;
            self.pages += 1;
            let mut rbuf = vec![0u8; self.page_size];
            let mut right = Internal::init(&mut rbuf, 0);
            let promoted = node.split_into(&mut right);
            let half = if sep < promoted {
                &mut node
            } else {
                &mut right
            };
            let pos = half.rank(Direction::Down, sep);
            half.insert_at(self.page_size, pos, sep, right_child);
            pages.changed(page);
            pages.store(new_page, &rbuf);
            sep = promoted;
            right_child = new_page;
        }
        // Root split.
        let new_root = pager.allocate()?;
        self.pages += 1;
        let mut buf = vec![0u8; self.page_size];
        let mut root = Internal::init(&mut buf, self.root);
        root.insert_at(self.page_size, 0, sep, right_child);
        pages.store(new_root, &buf);
        self.root = new_root;
        self.height += 1;
        Ok(())
    }

    // ------------------------------------------------------------- delete --

    /// Removes the entry `(key, value)`. Returns `true` if found.
    ///
    /// The stored key is matched within [`key_slack`]`(key)` of `key`, not
    /// bit for bit: callers recompute the key of the entry they delete, and
    /// a recomputation that lands one ulp away across an `f32` rounding
    /// boundary (another binary, another evaluator) must still find the
    /// entry it wrote. Among several entries carrying `value` inside the
    /// band the one whose stored key is nearest wins, so an exact match is
    /// always preferred.
    pub fn delete(&mut self, pager: &mut dyn Pager, key: f64, value: u32) -> io::Result<bool> {
        assert!(!key.is_nan(), "NaN keys are not allowed");
        let k32 = key as f32 as f64;
        let slack = key_slack(key);
        // The band's leaves, from the search on, are read once each.
        let mut pages = Pages::of(self);
        let Some((mut page, band)) =
            self.locate(Direction::Up, &*pager, &mut pages, k32 - slack)?
        else {
            return Ok(false);
        };
        let mut slot = band.start;
        let mut hit: Option<(PageId, usize, f64)> = None;
        'band: loop {
            let leaf = Leaf::new(pages.node(&*pager, page)?);
            while slot < leaf.count() {
                let k = leaf.key(slot);
                if k > k32 + slack {
                    break 'band;
                }
                // Equal infinities are an exact match (∞ − ∞ is NaN).
                let off = if k == k32 { 0.0 } else { (k - k32).abs() };
                if leaf.value(slot) == value && hit.is_none_or(|(_, _, best)| off < best) {
                    hit = Some((page, slot, off));
                }
                slot += 1;
            }
            page = leaf.next();
            if page == NULL_PAGE {
                break;
            }
            slot = 0;
        }
        let Some((page, slot, _)) = hit else {
            return Ok(false);
        };
        let mut leaf = Leaf::new(pages.node(&*pager, page)?);
        leaf.remove(slot);
        let emptied = leaf.count() == 0;
        let (links, h) = (Direction::BOTH.map(|dir| leaf.link(dir)), leaf.handicaps());
        pages.changed(page);
        if emptied {
            // Preserve handicap reachability: an emptied leaf may be skipped
            // by future sweep starts, so the bounds guiding upward-first
            // searches migrate upward (next leaf) and those guiding
            // downward-first ones downward (previous leaf). Folding is
            // conservative (min/max), cascading through later deletions,
            // so technique T2 stays correct without a rebuild.
            for (dir, neighbour) in Direction::BOTH.into_iter().zip(links) {
                if neighbour == NULL_PAGE {
                    continue;
                }
                let mut nleaf = Leaf::new(pages.node(&*pager, neighbour)?);
                let mut nh = nleaf.handicaps();
                for side in [Side::Prev, Side::Next] {
                    let slot = nh.slot(dir, side);
                    *slot = dir.earlier(*slot, h.get(dir, side));
                }
                nleaf.set_handicaps(nh);
                pages.changed(neighbour);
            }
        }
        pages.write_back(pager)?;
        self.len -= 1;
        Ok(true)
    }

    // ------------------------------------------------------------- search --

    /// Where a sweep in `dir` from `key` starts: the first leaf on its way
    /// holding an entry at or past `key` — the first with key `≥ key` going
    /// up, the last with key `≤ key` going down — and the slots of that
    /// leaf's entries that are. `None` when every key is before `key`.
    pub fn find(
        &self,
        dir: Direction,
        pager: &dyn PageReader,
        key: f64,
    ) -> io::Result<Option<(PageId, Range<usize>)>> {
        self.locate(dir, pager, &mut Pages::of(self), key)
    }

    /// [`find`](Self::find), reading nodes through `pages`.
    fn locate(
        &self,
        dir: Direction,
        pager: &dyn PageReader,
        pages: &mut Pages,
        key: f64,
    ) -> io::Result<Option<(PageId, Range<usize>)>> {
        let mut page = self.root;
        for _ in 0..self.height {
            let node = Internal::new(pages.node(pager, page)?);
            page = node.child(node.rank(dir, key));
        }
        loop {
            let leaf = Leaf::new(pages.node(pager, page)?);
            let slots = dir.slots(leaf.rank(dir, key), leaf.count());
            if !slots.is_empty() {
                return Ok(Some((page, slots)));
            }
            page = leaf.link(dir);
            if page == NULL_PAGE {
                return Ok(None);
            }
        }
    }

    /// Collects all values whose key lies in `[lo, hi]` (both inclusive).
    pub fn range(&self, pager: &dyn PageReader, lo: f64, hi: f64) -> io::Result<Vec<(f64, u32)>> {
        let mut out = Vec::new();
        self.sweep(Direction::Up, pager, lo, |leaf| {
            let within = leaf.partition_point(|k| !Direction::Up.before(hi, k));
            out.extend((0..within).map(|j| (leaf.key(j), leaf.id(j))));
            if within < leaf.len() {
                SweepControl::Stop
            } else {
                SweepControl::Continue
            }
        })?;
        Ok(out)
    }

    // ------------------------------------------------------------- sweeps --

    /// Sweeps leaves in `dir` starting where [`find`](Self::find) says —
    /// upward from the first entry with key `≥ from`, downward from the
    /// last with key `≤ from` — invoking `visit` once per leaf with a view
    /// of its entries at or past `from`, in sweep order. Each leaf is read
    /// once: the start leaf is the one the search has just read.
    pub fn sweep<F>(
        &self,
        dir: Direction,
        pager: &dyn PageReader,
        from: f64,
        mut visit: F,
    ) -> io::Result<()>
    where
        F: FnMut(&LeafView<'_>) -> SweepControl,
    {
        let mut pages = Pages::of(self);
        let Some((mut page, first)) = self.locate(dir, pager, &mut pages, from)? else {
            return Ok(());
        };
        let mut buf = pages.node(pager, page)?.to_vec();
        let mut first = Some(first);
        loop {
            let leaf = Leaf::new(&mut buf);
            let slots = first.take().unwrap_or(0..leaf.count());
            let view = LeafView {
                page,
                leaf,
                slots,
                dir,
            };
            if visit(&view) == SweepControl::Stop {
                return Ok(());
            }
            page = view.leaf.link(dir);
            if page == NULL_PAGE {
                return Ok(());
            }
            pager.read(page, &mut buf)?;
        }
    }

    /// [`sweep`](Self::sweep) upward, each leaf decoded into a
    /// [`LeafSnapshot`].
    pub fn sweep_up<F>(&self, pager: &dyn PageReader, from: f64, mut visit: F) -> io::Result<()>
    where
        F: FnMut(&LeafSnapshot) -> SweepControl,
    {
        self.sweep(Direction::Up, pager, from, |leaf| {
            visit(&LeafSnapshot {
                page: leaf.page(),
                handicaps: leaf.handicaps(),
                entries: (0..leaf.len()).map(|j| (leaf.key(j), leaf.id(j))).collect(),
            })
        })
    }

    // ---------------------------------------------------------- bulk load --

    /// Builds a tree from entries **sorted by key** (duplicates allowed).
    /// Leaves are filled to `fill` (0.5–1.0) of capacity.
    ///
    /// # Panics
    /// Panics if the input is unsorted or `fill` is out of range.
    pub fn bulk_load(pager: &mut dyn Pager, entries: &[(f64, u32)], fill: f64) -> io::Result<Self> {
        assert!((0.5..=1.0).contains(&fill), "fill factor out of range");
        let page_size = pager.page_size();
        if entries.is_empty() {
            return BTree::new(pager);
        }
        let per_leaf = ((leaf_capacity(page_size) as f64 * fill) as usize).max(1);
        let mut buf = vec![0u8; page_size];
        let mut leaves: Vec<(PageId, f64)> = Vec::new(); // (page, first key)
        let mut pages = 0u64;
        let mut prev_key = f64::NEG_INFINITY;
        let mut prev_page = NULL_PAGE;
        for chunk in entries.chunks(per_leaf) {
            let page = pager.allocate()?;
            pages += 1;
            let mut leaf = Leaf::init(&mut buf);
            for &(k, v) in chunk {
                assert!(!k.is_nan(), "NaN keys are not allowed");
                assert!(
                    k >= prev_key || (k as f32 as f64) >= prev_key,
                    "unsorted bulk load"
                );
                prev_key = k as f32 as f64;
                leaf.insert(page_size, k, v);
            }
            leaf.set_prev(prev_page);
            pager.write(page, &buf)?;
            if prev_page != NULL_PAGE {
                let mut pbuf = vec![0u8; page_size];
                pager.read(prev_page, &mut pbuf)?;
                Leaf::new(&mut pbuf).set_next(page);
                pager.write(prev_page, &pbuf)?;
            }
            leaves.push((page, chunk[0].0 as f32 as f64));
            prev_page = page;
        }
        let first_leaf = leaves[0].0;
        let last_leaf = leaves[leaves.len() - 1].0;

        // Build internal levels bottom-up.
        let mut level: Vec<(PageId, f64)> = leaves;
        let mut height = 0usize;
        let per_node = internal_capacity(page_size); // keys per node
        while level.len() > 1 {
            height += 1;
            let mut next_level = Vec::new();
            // Each node takes up to per_node+1 children; a trailing group of
            // a single child would make a keyless internal node, so borrow
            // one child from its left neighbour in that case.
            let cap = per_node + 1;
            let mut bounds: Vec<usize> = (0..level.len()).step_by(cap).collect();
            bounds.push(level.len());
            if bounds.len() >= 3 && bounds[bounds.len() - 1] - bounds[bounds.len() - 2] == 1 {
                let n = bounds.len();
                bounds[n - 2] -= 1;
            }
            let groups = bounds.windows(2).map(|w| &level[w[0]..w[1]]);
            for group in groups {
                let page = pager.allocate()?;
                pages += 1;
                let mut node = Internal::init(&mut buf, group[0].0);
                for (i, &(child, first_key)) in group.iter().enumerate().skip(1) {
                    node.insert_at(page_size, i - 1, first_key, child);
                }
                pager.write(page, &buf)?;
                next_level.push((page, group[0].1));
            }
            level = next_level;
        }
        Ok(BTree {
            page_size,
            root: level[0].0,
            height,
            len: entries.len() as u64,
            first_leaf,
            last_leaf,
            pages,
        })
    }

    /// All page ids owned by the tree (BFS). The walk reads every page —
    /// internal nodes to find their children, leaves for integrity alone —
    /// so under a checksumming pager it doubles as a full-tree
    /// verification pass.
    pub fn collect_pages(&self, pager: &dyn PageReader) -> io::Result<Vec<PageId>> {
        self.walk(pager, |_, _| {})
    }

    /// [`collect_pages`](Self::collect_pages), showing every leaf entry
    /// it reads to `entry` as `(key as stored, value)`.
    pub fn walk(
        &self,
        pager: &dyn PageReader,
        mut entry: impl FnMut(f64, u32),
    ) -> io::Result<Vec<PageId>> {
        let mut out = Vec::new();
        let mut queue = vec![self.root];
        let mut buf = vec![0u8; self.page_size];
        while let Some(page) = queue.pop() {
            out.push(page);
            pager.read(page, &mut buf)?;
            if is_leaf(&buf) {
                let leaf = Leaf::new(&mut buf);
                for i in 0..leaf.count() {
                    entry(leaf.key(i), leaf.value(i));
                }
            } else {
                let node = Internal::new(&mut buf);
                for i in 0..=node.count() {
                    queue.push(node.child(i));
                }
            }
        }
        Ok(out)
    }

    /// Frees every page of the tree.
    pub fn destroy(self, pager: &mut dyn Pager) -> io::Result<()> {
        for p in self.collect_pages(&*pager)? {
            pager.free(p);
        }
        Ok(())
    }

    // ----------------------------------------------------------- handicaps --

    /// Walks the leaf chain left to right.
    pub fn leaves(&self, pager: &dyn PageReader) -> io::Result<Vec<LeafInfo>> {
        let mut out = Vec::new();
        let mut page = self.first_leaf;
        let mut buf = vec![0u8; self.page_size];
        loop {
            pager.read(page, &mut buf)?;
            let leaf = Leaf::new(&mut buf);
            let count = leaf.count();
            out.push(LeafInfo {
                page,
                min_key: if count > 0 { leaf.key(0) } else { f64::NAN },
                max_key: if count > 0 {
                    leaf.key(count - 1)
                } else {
                    f64::NAN
                },
                count,
            });
            let next = leaf.next();
            if next == NULL_PAGE {
                return Ok(out);
            }
            page = next;
        }
    }

    /// The leaf every sweep in `dir` ends in: the last of the chain going
    /// up, the first going down.
    pub fn end_leaf(&self, dir: Direction) -> PageId {
        match dir {
            Direction::Up => self.last_leaf,
            Direction::Down => self.first_leaf,
        }
    }

    /// Reads the handicap slots of a leaf page (one page access).
    pub fn read_handicaps(&self, pager: &dyn PageReader, page: PageId) -> io::Result<Handicaps> {
        let mut buf = vec![0u8; self.page_size];
        pager.read(page, &mut buf)?;
        Ok(Leaf::new(&mut buf).handicaps())
    }

    /// Overwrites the handicap slots of `page` (must be a leaf of this tree).
    pub fn set_handicaps(
        &self,
        pager: &mut dyn Pager,
        page: PageId,
        h: Handicaps,
    ) -> io::Result<()> {
        let mut buf = vec![0u8; self.page_size];
        pager.read(page, &mut buf)?;
        let mut leaf = Leaf::new(&mut buf);
        leaf.set_handicaps(h);
        pager.write(page, &buf)
    }

    // ----------------------------------------------------------- validation --

    /// Exhaustively checks structural invariants (tests/debugging):
    /// key order within and across leaves, chain consistency, separator
    /// bounds, entry count. Returns I/O errors; panics with a description
    /// on an invariant violation (a bug, not a device failure).
    pub fn validate(&self, pager: &dyn PageReader) -> io::Result<()> {
        // Leaf chain: ordered keys, consistent prev links, count total.
        let mut total = 0u64;
        let mut prev_page = NULL_PAGE;
        let mut prev_key = f64::NEG_INFINITY;
        let mut page = self.first_leaf;
        let mut buf = vec![0u8; self.page_size];
        loop {
            pager.read(page, &mut buf)?;
            let leaf = Leaf::new(&mut buf);
            assert_eq!(leaf.prev(), prev_page, "broken prev link at {page}");
            for i in 0..leaf.count() {
                let k = leaf.key(i);
                assert!(k >= prev_key, "key order violation at page {page} slot {i}");
                prev_key = k;
            }
            total += leaf.count() as u64;
            let next = leaf.next();
            if next == NULL_PAGE {
                assert_eq!(page, self.last_leaf, "last_leaf out of date");
                break;
            }
            prev_page = page;
            page = next;
        }
        assert_eq!(total, self.len, "len out of sync");
        // Separator sanity: every key reachable by a `find` of itself.
        self.check_node(
            pager,
            self.root,
            self.height,
            f64::NEG_INFINITY,
            f64::INFINITY,
        )
    }

    fn check_node(
        &self,
        pager: &dyn PageReader,
        page: PageId,
        depth: usize,
        lo: f64,
        hi: f64,
    ) -> io::Result<()> {
        let mut buf = vec![0u8; self.page_size];
        pager.read(page, &mut buf)?;
        if depth == 0 {
            let leaf = Leaf::new(&mut buf);
            for i in 0..leaf.count() {
                let k = leaf.key(i);
                assert!(k >= lo && k <= hi, "leaf key {k} outside [{lo}, {hi}]");
            }
            return Ok(());
        }
        let node = Internal::new(&mut buf);
        assert!(node.count() >= 1, "empty internal node {page}");
        let mut prev = lo;
        for i in 0..node.count() {
            let k = node.key(i);
            assert!(k >= prev && k <= hi, "separator {k} outside [{prev}, {hi}]");
            prev = k;
        }
        let n = node.count();
        let children: Vec<PageId> = (0..=n).map(|i| node.child(i)).collect();
        let keys: Vec<f64> = (0..n).map(|i| node.key(i)).collect();
        drop(buf);
        for (i, &child) in children.iter().enumerate() {
            let clo = if i == 0 { lo } else { keys[i - 1] };
            let chi = if i == n { hi } else { keys[i] };
            self.check_node(pager, child, depth - 1, clo, chi)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_storage::MemPager;

    const P: usize = 128; // 10 leaf entries -> forces splits quickly

    fn collect_all(tree: &BTree, pager: &mut dyn Pager) -> Vec<(f64, u32)> {
        let mut out = Vec::new();
        tree.sweep_up(pager, f64::NEG_INFINITY, |s| {
            out.extend_from_slice(&s.entries);
            SweepControl::Continue
        })
        .unwrap();
        out
    }

    #[test]
    fn insert_and_range() {
        let mut pager = MemPager::new(P);
        let mut t = BTree::new(&mut pager).unwrap();
        for i in 0..100u32 {
            t.insert(&mut pager, (i * 7 % 100) as f64, i).unwrap();
        }
        assert_eq!(t.len(), 100);
        t.validate(&pager).unwrap();
        let all = collect_all(&t, &mut pager);
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0), "sorted output");
        let r = t.range(&pager, 10.0, 19.0).unwrap();
        assert_eq!(r.len(), 10);
        assert!(r.iter().all(|&(k, _)| (10.0..=19.0).contains(&k)));
    }

    #[test]
    fn duplicates_are_kept() {
        let mut pager = MemPager::new(P);
        let mut t = BTree::new(&mut pager).unwrap();
        for v in 0..50u32 {
            t.insert(&mut pager, 1.0, v).unwrap();
        }
        for v in 0..50u32 {
            t.insert(&mut pager, 2.0, v + 100).unwrap();
        }
        t.validate(&pager).unwrap();
        let r = t.range(&pager, 1.0, 1.0).unwrap();
        assert_eq!(r.len(), 50);
        let r2 = t.range(&pager, 2.0, 2.0).unwrap();
        assert_eq!(r2.len(), 50);
    }

    #[test]
    fn descending_insert_order() {
        let mut pager = MemPager::new(P);
        let mut t = BTree::new(&mut pager).unwrap();
        for i in (0..200u32).rev() {
            t.insert(&mut pager, i as f64, i).unwrap();
        }
        t.validate(&pager).unwrap();
        assert_eq!(t.len(), 200);
        assert!(t.height() >= 1);
        let all = collect_all(&t, &mut pager);
        assert_eq!(all.first().unwrap().1, 0);
        assert_eq!(all.last().unwrap().1, 199);
    }

    #[test]
    fn infinite_keys() {
        let mut pager = MemPager::new(P);
        let mut t = BTree::new(&mut pager).unwrap();
        t.insert(&mut pager, f64::INFINITY, 1).unwrap();
        t.insert(&mut pager, f64::NEG_INFINITY, 2).unwrap();
        t.insert(&mut pager, 0.0, 3).unwrap();
        let all = collect_all(&t, &mut pager);
        assert_eq!(all[0], (f64::NEG_INFINITY, 2));
        assert_eq!(all[2], (f64::INFINITY, 1));
        // Sweep from a finite key sees only the +inf and finite entries.
        let r = t.range(&pager, -10.0, f64::INFINITY).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn delete_specific_duplicate() {
        let mut pager = MemPager::new(P);
        let mut t = BTree::new(&mut pager).unwrap();
        for v in 0..30u32 {
            t.insert(&mut pager, 5.0, v).unwrap();
        }
        assert!(t.delete(&mut pager, 5.0, 17).unwrap());
        assert!(!t.delete(&mut pager, 5.0, 17).unwrap(), "already gone");
        assert!(!t.delete(&mut pager, 6.0, 0).unwrap(), "absent key");
        assert_eq!(t.len(), 29);
        let vals: Vec<u32> = t
            .range(&pager, 5.0, 5.0)
            .unwrap()
            .iter()
            .map(|e| e.1)
            .collect();
        assert!(!vals.contains(&17));
        assert_eq!(vals.len(), 29);
        t.validate(&pager).unwrap();
    }

    /// Regression: a key recomputed one ulp away from the one that was
    /// inserted — across an `f32` rounding boundary, so the rounded keys
    /// differ by one `f32` step — used to miss the entry and leave a
    /// dangling id in the tree.
    #[test]
    fn delete_finds_keys_recomputed_a_rounding_step_away() {
        let mut pager = MemPager::new(P);
        let mut t = BTree::new(&mut pager).unwrap();
        // Midpoints between adjacent f32 values: ±1 ulp (f64) rounds to
        // different f32 neighbours.
        let boundary = |lo: f32| (lo as f64 + lo.next_up() as f64) / 2.0;
        let keys: Vec<f64> = [-37.25f32, -1e-3, 0.5, 12.75, 48.0, 1.9e4]
            .into_iter()
            .map(boundary)
            .collect();
        // Filler on both sides of every key, one f32 step away and further,
        // with other values: must never be taken instead.
        let mut filler = 1000u32;
        for &k in &keys {
            let k32 = k as f32;
            for near in [k32.next_down().next_down(), k32.next_up().next_up(), k32] {
                t.insert(&mut pager, near as f64, filler).unwrap();
                filler += 1;
            }
        }
        type Perturb = fn(f64) -> f64;
        let perturbations: [(&str, Perturb); 5] = [
            ("exact", |k| k),
            ("+1 ulp", |k| k.next_up()),
            ("-1 ulp", |k| k.next_down()),
            ("+1 f32 step", |k| (k as f32).next_up() as f64),
            ("-1 f32 step", |k| (k as f32).next_down() as f64),
        ];
        for (name, perturb) in perturbations {
            for (v, &k) in keys.iter().enumerate() {
                t.insert(&mut pager, k, v as u32).unwrap();
            }
            let before = t.len();
            for (v, &k) in keys.iter().enumerate() {
                assert!(
                    t.delete(&mut pager, perturb(k), v as u32).unwrap(),
                    "{name}: key {k} not found"
                );
            }
            assert_eq!(t.len(), before - keys.len() as u64, "{name}");
            t.validate(&pager).unwrap();
        }
        // Outside the slack band nothing matches, and infinities are exact.
        t.insert(&mut pager, 100.0, 7).unwrap();
        t.insert(&mut pager, f64::INFINITY, 8).unwrap();
        assert!(!t.delete(&mut pager, 100.0 + 1e-3, 7).unwrap());
        assert!(!t.delete(&mut pager, 1e30, 8).unwrap());
        assert!(t.delete(&mut pager, f64::INFINITY, 8).unwrap());
        // Two entries of one value inside the band: the nearest key goes.
        let (a, b) = (100.0f32, 100.0f32.next_up());
        t.insert(&mut pager, b as f64, 7).unwrap();
        assert!(t.delete(&mut pager, b as f64, 7).unwrap());
        assert_eq!(
            t.range(&pager, a as f64, b as f64).unwrap(),
            vec![(a as f64, 7)]
        );
        assert_eq!(t.len(), 1 + (filler - 1000) as u64);
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let mut pager = MemPager::new(P);
        let mut t = BTree::new(&mut pager).unwrap();
        for i in 0..100u32 {
            t.insert(&mut pager, i as f64, i).unwrap();
        }
        for i in 0..100u32 {
            assert!(t.delete(&mut pager, i as f64, i).unwrap(), "delete {i}");
        }
        assert_eq!(t.len(), 0);
        t.validate(&pager).unwrap();
        for i in 0..50u32 {
            t.insert(&mut pager, i as f64, i + 1000).unwrap();
        }
        t.validate(&pager).unwrap();
        assert_eq!(collect_all(&t, &mut pager).len(), 50);
    }

    #[test]
    fn find_up_and_down() {
        let mut pager = MemPager::new(P);
        let mut t = BTree::new(&mut pager).unwrap();
        for i in 0..50 {
            t.insert(&mut pager, (i * 2) as f64, i as u32).unwrap(); // evens 0..98
        }
        let (page, slots) = t.find(Direction::Up, &pager, 51.0).unwrap().unwrap();
        let mut buf = vec![0u8; P];
        pager.read(page, &mut buf).unwrap();
        let leaf = Leaf::new(&mut buf);
        assert_eq!(leaf.key(slots.start), 52.0);
        assert_eq!(slots.end, leaf.count());
        let (page, slots) = t.find(Direction::Down, &pager, 51.0).unwrap().unwrap();
        pager.read(page, &mut buf).unwrap();
        let leaf = Leaf::new(&mut buf);
        assert_eq!(leaf.key(slots.end - 1), 50.0);
        assert_eq!(slots.start, 0);
        assert!(t.find(Direction::Up, &pager, 99.0).unwrap().is_none());
        assert!(t.find(Direction::Down, &pager, -1.0).unwrap().is_none());
    }

    #[test]
    fn sweep_down_descends() {
        let mut pager = MemPager::new(P);
        let mut t = BTree::new(&mut pager).unwrap();
        for i in 0..100u32 {
            t.insert(&mut pager, i as f64, i).unwrap();
        }
        let mut seen = Vec::new();
        t.sweep(Direction::Down, &pager, 42.5, |leaf| {
            seen.extend((0..leaf.len()).map(|j| leaf.key(j)));
            SweepControl::Continue
        })
        .unwrap();
        assert_eq!(seen.len(), 43); // keys 0..=42
        assert!(seen.windows(2).all(|w| w[0] >= w[1]), "descending order");
        assert_eq!(seen[0], 42.0);
        assert_eq!(*seen.last().unwrap(), 0.0);
    }

    #[test]
    fn sweep_stop_is_respected() {
        let mut pager = MemPager::new(P);
        let mut t = BTree::new(&mut pager).unwrap();
        for i in 0..500u32 {
            t.insert(&mut pager, i as f64, i).unwrap();
        }
        let mut leaves = 0;
        t.sweep_up(&pager, 0.0, |_| {
            leaves += 1;
            if leaves == 3 {
                SweepControl::Stop
            } else {
                SweepControl::Continue
            }
        })
        .unwrap();
        assert_eq!(leaves, 3);
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let mut pager = MemPager::new(P);
        let entries: Vec<(f64, u32)> = (0..1000).map(|i| (i as f64 / 3.0, i as u32)).collect();
        let t = BTree::bulk_load(&mut pager, &entries, 1.0).unwrap();
        t.validate(&pager).unwrap();
        assert_eq!(t.len(), 1000);
        let all = collect_all(&t, &mut pager);
        assert_eq!(all.len(), 1000);
        // Same multiset of values as a tree built by inserts.
        let mut pager2 = MemPager::new(P);
        let mut t2 = BTree::new(&mut pager2).unwrap();
        for &(k, v) in &entries {
            t2.insert(&mut pager2, k, v).unwrap();
        }
        let mut a: Vec<u32> = all.iter().map(|e| e.1).collect();
        let mut b: Vec<u32> = collect_all(&t2, &mut pager2).iter().map(|e| e.1).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let mut pager = MemPager::new(P);
        let t = BTree::bulk_load(&mut pager, &[], 1.0).unwrap();
        assert!(t.is_empty());
        let t2 = BTree::bulk_load(&mut pager, &[(1.5, 9)], 0.7).unwrap();
        assert_eq!(t2.len(), 1);
        assert_eq!(t2.range(&pager, 1.0, 2.0).unwrap(), vec![(1.5, 9)]);
    }

    #[test]
    #[should_panic]
    fn bulk_load_unsorted_panics() {
        let mut pager = MemPager::new(P);
        let _ = BTree::bulk_load(&mut pager, &[(2.0, 0), (1.0, 1)], 1.0);
    }

    #[test]
    fn handicaps_round_trip_through_sweeps() {
        let mut pager = MemPager::new(P);
        let entries: Vec<(f64, u32)> = (0..100).map(|i| (i as f64, i as u32)).collect();
        let t = BTree::bulk_load(&mut pager, &entries, 1.0).unwrap();
        let leaves = t.leaves(&pager).unwrap();
        assert!(leaves.len() > 3);
        for (i, l) in leaves.iter().enumerate() {
            t.set_handicaps(
                &mut pager,
                l.page,
                Handicaps {
                    low_prev: i as f64,
                    low_next: i as f64 + 0.25,
                    high_prev: -(i as f64),
                    high_next: f64::NEG_INFINITY,
                },
            )
            .unwrap();
        }
        let mut seen = Vec::new();
        t.sweep_up(&pager, f64::NEG_INFINITY, |snap| {
            seen.push(snap.handicaps.low_prev);
            SweepControl::Continue
        })
        .unwrap();
        assert_eq!(
            seen,
            (0..leaves.len()).map(|i| i as f64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn leaves_report_ranges() {
        let mut pager = MemPager::new(P);
        let entries: Vec<(f64, u32)> = (0..95).map(|i| (i as f64, i as u32)).collect();
        let t = BTree::bulk_load(&mut pager, &entries, 1.0).unwrap();
        let leaves = t.leaves(&pager).unwrap();
        assert_eq!(leaves.iter().map(|l| l.count).sum::<usize>(), 95);
        assert_eq!(leaves[0].min_key, 0.0);
        assert_eq!(leaves.last().unwrap().max_key, 94.0);
        // Ranges are increasing and non-overlapping.
        for w in leaves.windows(2) {
            assert!(w[0].max_key <= w[1].min_key);
        }
    }

    #[test]
    fn destroy_frees_all_pages() {
        let mut pager = MemPager::new(P);
        let mut t = BTree::new(&mut pager).unwrap();
        for i in 0..500u32 {
            t.insert(&mut pager, i as f64, i).unwrap();
        }
        assert!(pager.live_pages() > 10);
        t.destroy(&mut pager).unwrap();
        assert_eq!(pager.live_pages(), 0);
    }

    #[test]
    fn page_count_tracks_allocations() {
        let mut pager = MemPager::new(P);
        let mut t = BTree::new(&mut pager).unwrap();
        for i in 0..500u32 {
            t.insert(&mut pager, i as f64, i).unwrap();
        }
        assert_eq!(t.page_count() as usize, pager.live_pages());
    }

    #[test]
    fn randomized_against_btreemap() {
        use std::collections::BTreeMap;
        let mut pager = MemPager::new(P);
        let mut t = BTree::new(&mut pager).unwrap();
        let mut oracle: BTreeMap<(i64, u32), ()> = BTreeMap::new();
        let mut seed = 0x12345678u64;
        let mut rand = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        for step in 0..3000u32 {
            let k = (rand() % 200) as f64 - 100.0;
            if rand() % 4 == 0 {
                // Delete a random oracle entry with this key if present.
                let lo = (k as i64, 0u32);
                let hi = (k as i64, u32::MAX);
                if let Some(&(ok, ov)) = oracle.range(lo..=hi).next().map(|(kv, _)| kv) {
                    assert!(t.delete(&mut pager, ok as f64, ov).unwrap());
                    oracle.remove(&(ok, ov));
                }
            } else {
                t.insert(&mut pager, k, step).unwrap();
                oracle.insert((k as i64, step), ());
            }
            if step % 500 == 0 {
                t.validate(&pager).unwrap();
            }
        }
        t.validate(&pager).unwrap();
        assert_eq!(t.len() as usize, oracle.len());
        let all = collect_all(&t, &mut pager);
        let mut got: Vec<(i64, u32)> = all.iter().map(|&(k, v)| (k as i64, v)).collect();
        got.sort_unstable();
        let mut want: Vec<(i64, u32)> = oracle.keys().copied().collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    /// One visit of a sweep: the leaf's page, its handicaps and its swept
    /// `(key bits, id)` entries in sweep order.
    type Visit = (PageId, Handicaps, Vec<(u64, u32)>);

    /// The reference sweep: starts where `find` says, walks the leaves by
    /// their links and decodes each one's swept entries into a vector.
    fn reference(tree: &BTree, pager: &dyn PageReader, dir: Direction, from: f64) -> Vec<Visit> {
        let mut visits = Vec::new();
        let Some((mut page, first)) = tree.find(dir, pager, from).unwrap() else {
            return visits;
        };
        let mut first = Some(first);
        let mut buf = vec![0u8; pager.page_size()];
        loop {
            pager.read(page, &mut buf).unwrap();
            let leaf = Leaf::new(&mut buf);
            let slots = first.take().unwrap_or(0..leaf.count());
            let mut entries: Vec<(u64, u32)> = slots
                .map(|i| (leaf.key(i).to_bits(), leaf.value(i)))
                .collect();
            if dir == Direction::Down {
                entries.reverse();
            }
            visits.push((page, leaf.handicaps(), entries));
            page = leaf.link(dir);
            if page == NULL_PAGE {
                return visits;
            }
        }
    }

    /// What `sweep` shows, read through the view, for at most `visits`
    /// leaves; checks the view's `partition_point` and `extend_ids` against
    /// the same entries on the way.
    fn viewed(
        tree: &BTree,
        pager: &dyn PageReader,
        dir: Direction,
        from: f64,
        visits: usize,
    ) -> Vec<Visit> {
        let mut seen = Vec::new();
        tree.sweep(dir, pager, from, |leaf| {
            let entries: Vec<(u64, u32)> = (0..leaf.len())
                .map(|j| (leaf.key(j).to_bits(), leaf.id(j)))
                .collect();
            assert_eq!(leaf.is_empty(), entries.is_empty());
            let ids: Vec<u32> = entries.iter().map(|e| e.1).collect();
            let bounds = entries.iter().map(|e| f64::from_bits(e.0));
            for bound in bounds.chain([f64::NEG_INFINITY, f64::INFINITY]) {
                let within = |k: f64| !dir.before(bound, k);
                let split = leaf.partition_point(within);
                let want = entries.partition_point(|e| within(f64::from_bits(e.0)));
                assert_eq!(split, want, "{dir:?} from {from}, bound {bound}");
                let (mut near, mut far) = (vec![7], Vec::new());
                leaf.extend_ids(0..split, &mut near);
                leaf.extend_ids(split..leaf.len(), &mut far);
                assert_eq!((&near[1..], &far[..]), ids.split_at(split));
            }
            seen.push((leaf.page(), leaf.handicaps(), entries));
            if seen.len() == visits {
                SweepControl::Stop
            } else {
                SweepControl::Continue
            }
        })
        .unwrap();
        seen
    }

    /// `n` keys over few distinct values — runs of equal keys longer than
    /// a leaf — with an occasional `±∞`.
    fn random_keys(rng: &mut cdb_prng::StdRng, n: usize) -> Vec<f64> {
        let distinct = rng.gen_range(1..40u32);
        (0..n)
            .map(|_| match rng.gen_range(0..20u32) {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                _ => rng.gen_range(0..distinct) as f64 - 10.0,
            })
            .collect()
    }

    /// The view shows, leaf for leaf, what the decoded snapshot of the
    /// parent's sweep showed — page, handicaps and `(key, id)` sequence —
    /// over bulk-loaded and insert/delete-built trees (emptied leaves, runs
    /// of equal keys across leaves, `±∞` keys, the empty tree), in both
    /// directions, from every kind of start, with visitors that stop
    /// early; `range` and `sweep_up` agree with the same reference.
    #[test]
    fn leaf_views_show_what_the_snapshot_showed() {
        let mut emptied = 0;
        for seed in 0..40u64 {
            let mut rng = cdb_prng::StdRng::seed_from_u64(seed);
            let mut pager = MemPager::new(P);
            let n = if seed < 2 {
                0
            } else {
                rng.gen_range(1..300usize)
            };
            let keys = random_keys(&mut rng, n);
            let tree = if seed % 2 == 0 {
                let mut entries: Vec<(f64, u32)> = keys.iter().copied().zip(0u32..).collect();
                entries.sort_by(|a, b| a.0.total_cmp(&b.0));
                let fill = rng.gen_range(0.5..1.0);
                BTree::bulk_load(&mut pager, &entries, fill).unwrap()
            } else {
                let mut t = BTree::new(&mut pager).unwrap();
                for (id, &k) in keys.iter().enumerate() {
                    t.insert(&mut pager, k, id as u32).unwrap();
                }
                // A band of keys wholly deleted empties the leaves holding
                // only it; a few more go at random.
                let band = rng.gen_range(-10.0..10.0);
                for (id, &k) in keys.iter().enumerate() {
                    if (band..band + 8.0).contains(&k) || rng.gen_range(0..10u32) == 0 {
                        assert!(t.delete(&mut pager, k, id as u32).unwrap());
                    }
                }
                t
            };
            let leaves = tree.leaves(&pager).unwrap();
            emptied += leaves.iter().filter(|l| l.count == 0).count();
            for leaf in &leaves {
                let h = Handicaps {
                    low_prev: rng.gen_range(-20.0..20.0),
                    low_next: f64::NEG_INFINITY,
                    high_prev: rng.gen_range(-20.0..20.0),
                    high_next: f64::INFINITY,
                };
                tree.set_handicaps(&mut pager, leaf.page, h).unwrap();
            }
            let on_key = keys.get(rng.gen_range(0..n.max(1))).copied().unwrap_or(0.0);
            for from in [
                f64::NEG_INFINITY,
                -1e9,
                on_key,
                on_key + 0.5,
                on_key - 0.5,
                1e9,
                f64::INFINITY,
            ] {
                for dir in Direction::BOTH {
                    let want = reference(&tree, &pager, dir, from);
                    for visits in [1, 2, usize::MAX] {
                        let got = viewed(&tree, &pager, dir, from, visits);
                        let prefix = &want[..want.len().min(visits)];
                        assert_eq!(got, prefix, "seed {seed}, {dir:?} from {from}");
                    }
                }
                let want = reference(&tree, &pager, Direction::Up, from);
                let mut got = Vec::new();
                tree.sweep_up(&pager, from, |snap| {
                    let entries = snap.entries.iter().map(|&(k, v)| (k.to_bits(), v));
                    got.push((snap.page, snap.handicaps, entries.collect()));
                    SweepControl::Continue
                })
                .unwrap();
                assert_eq!(got, want, "seed {seed}, sweep_up from {from}");
                for hi in [from, on_key, on_key + 0.5, 1e9, f64::INFINITY] {
                    let entries = want.iter().flat_map(|visit| &visit.2);
                    let within = entries.map(|&(k, v)| (f64::from_bits(k), v));
                    let want: Vec<(f64, u32)> = within.take_while(|e| e.0 <= hi).collect();
                    let got = tree.range(&pager, from, hi).unwrap();
                    assert_eq!(got, want, "seed {seed}, range [{from}, {hi}]");
                }
            }
        }
        assert!(emptied > 0, "no tree had an emptied leaf");
    }
}
