//! R⁺-tree operations: bulk packing, search, and the page walks behind
//! verification and destruction.
//!
//! All page-touching operations are fallible (`io::Result`): the pager may
//! be file-backed, fault-injected, or quarantined, and errors propagate.

use std::io;

use cdb_geometry::{HalfPlane, Rect};
use cdb_storage::{PageId, PageReader, Pager};

use crate::node::{capacity, Node, KIND_INTERNAL, KIND_LEAF};

/// Per-query search counters (the duplication metric of Section 4.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Leaf entries matching the query region, duplicates included.
    pub raw_hits: u64,
    /// Of those, hits for objects already reported (clipping duplicates).
    pub duplicates: u64,
    /// Tree nodes visited (equals index page reads for the query).
    pub nodes_visited: u64,
}

/// A 2-D R⁺-tree storing `(Rect, oid)` objects.
///
/// ```
/// use cdb_geometry::{HalfPlane, Rect};
/// use cdb_rplustree::RPlusTree;
/// use cdb_storage::MemPager;
///
/// let mut pager = MemPager::paper_1999();
/// let items = vec![
///     (Rect::new(0.0, 0.0, 2.0, 2.0), 1),
///     (Rect::new(10.0, 10.0, 12.0, 14.0), 2),
/// ];
/// let tree = RPlusTree::pack(&mut pager, &items, 1.0).unwrap();
/// let (hits, stats) = tree
///     .search_halfplane(&mut pager, &HalfPlane::above(0.0, 9.0))
///     .unwrap();
/// assert_eq!(hits, vec![2]);
/// assert!(stats.nodes_visited >= 1);
/// ```
#[derive(Clone, Debug)]
pub struct RPlusTree {
    page_size: usize,
    root: PageId,
    height: usize, // 0 = root is a leaf
    len: u64,
    pages: u64,
}

impl RPlusTree {
    /// An empty tree: one empty leaf, what [`pack`](Self::pack) builds from
    /// no items.
    fn new(pager: &mut dyn Pager) -> io::Result<Self> {
        let page_size = pager.page_size();
        let root = pager.allocate()?;
        let mut buf = vec![0u8; page_size];
        Node::init(&mut buf, KIND_LEAF);
        pager.write(root, &buf)?;
        Ok(RPlusTree {
            page_size,
            root,
            height: 0,
            len: 0,
            pages: 1,
        })
    }

    /// Re-attaches a tree from persisted metadata without touching the
    /// pager: node pages are already on disk, so the catalog only needs
    /// these scalars. The values must describe a tree previously built
    /// over the same pager.
    pub fn from_parts(page_size: usize, root: PageId, height: usize, len: u64, pages: u64) -> Self {
        RPlusTree {
            page_size,
            root,
            height,
            len,
            pages,
        }
    }

    /// Root page id (persisted by the catalog).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Number of distinct objects packed.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (`0` when the root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pages owned by the tree — the space metric of Figure 10.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    // -------------------------------------------------------------- pack --

    /// Bulk-builds a tree from `(object MBR, oid)` pairs.
    ///
    /// Leaf groups come from recursive binary cuts (median centre on the
    /// wider axis); objects straddling a cut are *clipped* into both sides —
    /// the R⁺-tree way — as long as the duplication stays modest. On dense
    /// data, where the number of objects covering a single point exceeds the
    /// leaf fan-out, strict disjointness is unattainable for *any* R⁺-tree;
    /// the cut then assigns straddlers by centre instead (the degradation
    /// mode Sellis et al. describe for their splitting algorithm). Upper
    /// levels are packed STR-style, so sibling directory rectangles may
    /// overlap there. What the pack does guarantee: every object is covered
    /// by the union of its stored (possibly clipped) pieces, and (what
    /// [`validate`](Self::validate) checks) every entry lies inside its
    /// parent's rectangle and all leaves share one depth. Searches visit
    /// every intersecting child, so they never depend on disjointness.
    ///
    /// `fill` (0.5–1.0) is the target node occupancy.
    pub fn pack(pager: &mut dyn Pager, items: &[(Rect, u32)], fill: f64) -> io::Result<Self> {
        assert!((0.5..=1.0).contains(&fill), "fill factor out of range");
        let page_size = pager.page_size();
        if items.is_empty() {
            return RPlusTree::new(pager);
        }
        let cap = ((capacity(page_size) as f64 * fill) as usize).max(2);
        // Leaf grouping.
        let mut groups: Vec<Vec<(Rect, u32)>> = Vec::new();
        partition_leaves(items.to_vec(), cap, &mut groups);
        // Materialize leaves.
        let mut pages = 0u64;
        let mut buf = vec![0u8; page_size];
        let mut level: Vec<(Rect, PageId)> = Vec::with_capacity(groups.len());
        for g in groups {
            let page = pager.allocate()?;
            pages += 1;
            let mut node = Node::init(&mut buf, KIND_LEAF);
            for (r, p) in &g {
                node.push(page_size, r, *p);
            }
            level.push((node.mbr(), page));
            pager.write(page, &buf)?;
        }
        // Upper levels: STR packing of the child list.
        let mut height = 0usize;
        while level.len() > 1 {
            height += 1;
            let chunks = str_chunks(level, cap);
            let mut next = Vec::with_capacity(chunks.len());
            for group in chunks {
                let page = pager.allocate()?;
                pages += 1;
                let mut node = Node::init(&mut buf, KIND_INTERNAL);
                for (r, p) in &group {
                    node.push(page_size, r, *p);
                }
                next.push((node.mbr(), page));
                pager.write(page, &buf)?;
            }
            level = next;
        }
        Ok(RPlusTree {
            page_size,
            root: level[0].1,
            height,
            len: items.len() as u64,
            pages,
        })
    }

    // ------------------------------------------------------------- search --

    /// EXIST candidates for a half-plane query: unique oids whose stored
    /// (possibly clipped) rectangle intersects `q`. The caller refines
    /// against exact geometry; ALL selections use the same candidates
    /// (Section 1: the R⁺-tree approximates ALL by EXIST).
    pub fn search_halfplane(
        &self,
        pager: &dyn PageReader,
        q: &HalfPlane,
    ) -> io::Result<(Vec<u32>, SearchStats)> {
        self.search_by(pager, |r| r.intersects_halfplane(q))
    }

    /// Window query: unique oids whose rectangle intersects `window`.
    pub fn search_rect(
        &self,
        pager: &dyn PageReader,
        window: &Rect,
    ) -> io::Result<(Vec<u32>, SearchStats)> {
        self.search_by(pager, |r| r.intersects(window))
    }

    fn search_by<F: Fn(&Rect) -> bool>(
        &self,
        pager: &dyn PageReader,
        pred: F,
    ) -> io::Result<(Vec<u32>, SearchStats)> {
        let mut stats = SearchStats::default();
        let mut hits: Vec<u32> = Vec::new();
        let mut stack = vec![(self.root, self.height)];
        let mut buf = vec![0u8; self.page_size];
        while let Some((page, depth)) = stack.pop() {
            pager.read(page, &mut buf)?;
            stats.nodes_visited += 1;
            let node = Node::new(&mut buf);
            for i in 0..node.count() {
                if pred(&node.rect(i)) {
                    if depth == 0 {
                        stats.raw_hits += 1;
                        hits.push(node.ptr(i));
                    } else {
                        stack.push((node.ptr(i), depth - 1));
                    }
                }
            }
        }
        hits.sort_unstable();
        let before = hits.len();
        hits.dedup();
        stats.duplicates = (before - hits.len()) as u64;
        Ok((hits, stats))
    }

    // --------------------------------------------------------- validation --

    /// Checks structural invariants: every node's kind matches its depth,
    /// and every entry lies inside its parent's rectangle.
    pub fn validate(&self, pager: &dyn PageReader) -> io::Result<()> {
        self.validate_rec(pager, self.root, self.height, None)
    }

    fn validate_rec(
        &self,
        pager: &dyn PageReader,
        page: PageId,
        depth: usize,
        bound: Option<Rect>,
    ) -> io::Result<()> {
        let mut buf = vec![0u8; self.page_size];
        pager.read(page, &mut buf)?;
        let node = Node::new(&mut buf);
        assert_eq!(node.is_leaf(), depth == 0, "kind/depth mismatch at {page}");
        let entries = node.entries();
        if let Some(b) = bound {
            for (r, _) in &entries {
                assert!(
                    b.contains_rect(r) || r.is_empty(),
                    "entry {r:?} escapes parent {b:?}"
                );
            }
        }
        if depth > 0 {
            for (r, p) in &entries {
                self.validate_rec(pager, *p, depth - 1, Some(*r))?;
            }
        }
        Ok(())
    }

    /// All page ids owned by the tree. The walk reads every page —
    /// internal nodes to find their children, leaves for integrity alone —
    /// so under a checksumming pager it doubles as a full-tree
    /// verification pass.
    pub fn collect_pages(&self, pager: &dyn PageReader) -> io::Result<Vec<PageId>> {
        let mut out = Vec::new();
        let mut stack = vec![(self.root, self.height)];
        let mut buf = vec![0u8; self.page_size];
        while let Some((page, depth)) = stack.pop() {
            pager.read(page, &mut buf)?;
            if depth > 0 {
                let node = Node::new(&mut buf);
                for i in 0..node.count() {
                    stack.push((node.ptr(i), depth - 1));
                }
            }
            out.push(page);
        }
        Ok(out)
    }

    /// Frees all pages of the tree.
    pub fn destroy(self, pager: &mut dyn Pager) -> io::Result<()> {
        for p in self.collect_pages(&*pager)? {
            pager.free(p);
        }
        Ok(())
    }
}

/// Recursively cuts `items` into leaf groups of at most `cap`, each cut at
/// the median centre on the wider axis of the group's MBR. Straddlers are clipped into both sides (disjoint regions) while
/// that keeps duplication modest (< 25 % of the group); on denser data they
/// go by centre, trading disjointness for convergence. A cut that makes no
/// progress falls back to a count split.
fn partition_leaves(items: Vec<(Rect, u32)>, cap: usize, out: &mut Vec<Vec<(Rect, u32)>>) {
    if items.len() <= cap {
        out.push(items);
        return;
    }
    let mbr = items.iter().fold(Rect::empty(), |m, (r, _)| m.union(r));
    let x_axis = mbr.width() >= mbr.height();
    let center = |r: &Rect| {
        if x_axis {
            (r.x0 + r.x1) / 2.0
        } else {
            (r.y0 + r.y1) / 2.0
        }
    };
    let mut centers: Vec<f64> = items.iter().map(|(r, _)| center(r)).collect();
    centers.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Snap to the f32 grid so clipped edges serialize exactly.
    let cut = centers[centers.len() / 2] as f32 as f64;
    let mut straddlers = 0usize;
    for (r, _) in &items {
        let (lo, hi) = if x_axis { (r.x0, r.x1) } else { (r.y0, r.y1) };
        if lo < cut && hi > cut {
            straddlers += 1;
        }
    }
    let clip = straddlers * 4 < items.len();
    let mut low = Vec::new();
    let mut high = Vec::new();
    for (r, p) in &items {
        let (lo, hi) = if x_axis { (r.x0, r.x1) } else { (r.y0, r.y1) };
        if hi <= cut {
            low.push((*r, *p));
        } else if lo >= cut {
            high.push((*r, *p));
        } else if clip {
            let (mut a, mut b) = (*r, *r);
            if x_axis {
                a.x1 = cut;
                b.x0 = cut;
            } else {
                a.y1 = cut;
                b.y0 = cut;
            }
            low.push((a, *p));
            high.push((b, *p));
        } else if center(r) <= cut {
            low.push((*r, *p));
        } else {
            high.push((*r, *p));
        }
    }
    if low.len() >= items.len() || high.len() >= items.len() || low.is_empty() || high.is_empty() {
        // No progress (identical rectangles/centres): count split.
        let mut items = items;
        let rest = items.split_off(items.len() / 2);
        partition_leaves(items, cap, out);
        partition_leaves(rest, cap, out);
        return;
    }
    partition_leaves(low, cap, out);
    partition_leaves(high, cap, out);
}

/// Sort-Tile-Recursive grouping of one tree level into parents of at most
/// `cap` children: sort by centre x, slice into vertical runs, sort each
/// run by centre y, chunk.
fn str_chunks(mut level: Vec<(Rect, PageId)>, cap: usize) -> Vec<Vec<(Rect, PageId)>> {
    let n = level.len();
    let node_count = n.div_ceil(cap);
    let slices = (node_count as f64).sqrt().ceil() as usize;
    let per_slice = n.div_ceil(slices);
    level.sort_by(|a, b| {
        let ca = (a.0.x0 + a.0.x1) / 2.0;
        let cb = (b.0.x0 + b.0.x1) / 2.0;
        ca.partial_cmp(&cb).unwrap()
    });
    let mut out = Vec::with_capacity(node_count);
    for run in level.chunks_mut(per_slice) {
        run.sort_by(|a, b| {
            let ca = (a.0.y0 + a.0.y1) / 2.0;
            let cb = (b.0.y0 + b.0.y1) / 2.0;
            ca.partial_cmp(&cb).unwrap()
        });
        for chunk in run.chunks(cap) {
            out.push(chunk.to_vec());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_storage::MemPager;

    /// Deterministic LCG for reproducible random rectangles.
    struct Lcg(u64);
    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
        fn rect(&mut self, span: f64, size: f64) -> Rect {
            let x = (self.next_f64() - 0.5) * span;
            let y = (self.next_f64() - 0.5) * span;
            let w = self.next_f64() * size + 0.01;
            let h = self.next_f64() * size + 0.01;
            Rect::new(x, y, x + w, y + h)
        }
    }

    fn oracle_hits(items: &[(Rect, u32)], pred: impl Fn(&Rect) -> bool) -> Vec<u32> {
        let mut v: Vec<u32> = items
            .iter()
            .filter(|(r, _)| pred(r))
            .map(|(_, p)| *p)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn pack_and_window_query() {
        let mut pager = MemPager::new(256);
        let mut rng = Lcg(42);
        let items: Vec<(Rect, u32)> = (0..300).map(|i| (rng.rect(100.0, 5.0), i)).collect();
        let tree = RPlusTree::pack(&mut pager, &items, 1.0).unwrap();
        tree.validate(&pager).unwrap();
        assert_eq!(tree.len(), 300);
        let window = Rect::new(-20.0, -20.0, 20.0, 20.0);
        let (got, stats) = tree.search_rect(&pager, &window).unwrap();
        // Oracle over the true (unclipped) rectangles.
        let want = oracle_hits(&items, |r| r.intersects(&window));
        assert_eq!(got, want);
        assert!(stats.nodes_visited > 0);
    }

    #[test]
    fn pack_halfplane_query_matches_oracle() {
        let mut pager = MemPager::new(256);
        let mut rng = Lcg(7);
        let items: Vec<(Rect, u32)> = (0..500).map(|i| (rng.rect(100.0, 8.0), i)).collect();
        let tree = RPlusTree::pack(&mut pager, &items, 1.0).unwrap();
        tree.validate(&pager).unwrap();
        for (a, b) in [(0.5, 3.0), (-1.2, -10.0), (0.0, 0.0), (4.0, 20.0)] {
            for q in [HalfPlane::above(a, b), HalfPlane::below(a, b)] {
                let (got, _) = tree.search_halfplane(&pager, &q).unwrap();
                let want = oracle_hits(&items, |r| r.intersects_halfplane(&q));
                assert_eq!(got, want, "query {q}");
            }
        }
    }

    #[test]
    fn clipping_produces_duplicates_that_are_deduped() {
        // Sparse objects + tiny fan-out: many cut lines, modest straddler
        // ratios, so the packer clips (the R+ way) and duplicates appear.
        let mut pager = MemPager::new(64); // capacity 3
        let mut rng = Lcg(3);
        let items: Vec<(Rect, u32)> = (0..60).map(|i| (rng.rect(100.0, 6.0), i)).collect();
        let tree = RPlusTree::pack(&mut pager, &items, 1.0).unwrap();
        let all = Rect::new(-200.0, -200.0, 200.0, 200.0);
        let (got, stats) = tree.search_rect(&pager, &all).unwrap();
        assert_eq!(got.len(), 60, "every object reported once");
        assert!(stats.duplicates > 0, "clipping must create duplicates");
        assert_eq!(stats.raw_hits, 60 + stats.duplicates);
    }

    #[test]
    fn empty_tree_queries() {
        let mut pager = MemPager::new(256);
        let tree = RPlusTree::new(&mut pager).unwrap();
        assert!(tree.is_empty());
        let (got, stats) = tree
            .search_rect(&pager, &Rect::new(0.0, 0.0, 1.0, 1.0))
            .unwrap();
        assert!(got.is_empty());
        assert_eq!(stats.nodes_visited, 1);
    }

    #[test]
    fn single_object() {
        let mut pager = MemPager::new(256);
        let tree = RPlusTree::pack(&mut pager, &[(Rect::new(0.0, 0.0, 1.0, 1.0), 5)], 1.0).unwrap();
        let (got, _) = tree
            .search_halfplane(&pager, &HalfPlane::above(0.0, 0.5))
            .unwrap();
        assert_eq!(got, vec![5]);
        let (got, _) = tree
            .search_halfplane(&pager, &HalfPlane::above(0.0, 1.5))
            .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn identical_rectangles_do_not_loop() {
        let mut pager = MemPager::new(64); // tiny fan-out
        let items: Vec<(Rect, u32)> = (0..30)
            .map(|i| (Rect::new(1.0, 1.0, 2.0, 2.0), i))
            .collect();
        let tree = RPlusTree::pack(&mut pager, &items, 1.0).unwrap();
        let (got, _) = tree
            .search_rect(&pager, &Rect::new(0.0, 0.0, 3.0, 3.0))
            .unwrap();
        assert_eq!(got.len(), 30);
    }

    #[test]
    fn destroy_frees_pages() {
        let mut pager = MemPager::new(256);
        let mut rng = Lcg(1);
        let items: Vec<(Rect, u32)> = (0..200).map(|i| (rng.rect(50.0, 5.0), i)).collect();
        let tree = RPlusTree::pack(&mut pager, &items, 1.0).unwrap();
        assert_eq!(tree.page_count() as usize, pager.live_pages());
        tree.destroy(&mut pager).unwrap();
        assert_eq!(pager.live_pages(), 0);
    }

    #[test]
    fn node_accesses_scale_sublinearly() {
        let mut pager = MemPager::new(1024);
        let mut rng = Lcg(11);
        let items: Vec<(Rect, u32)> = (0..5000).map(|i| (rng.rect(100.0, 0.5), i)).collect();
        let tree = RPlusTree::pack(&mut pager, &items, 1.0).unwrap();
        tree.validate(&pager).unwrap();
        // A tiny window should touch a handful of nodes, not thousands.
        let (_, stats) = tree
            .search_rect(&pager, &Rect::new(0.0, 0.0, 1.0, 1.0))
            .unwrap();
        assert!(
            stats.nodes_visited < 30,
            "selective query visited {} nodes",
            stats.nodes_visited
        );
    }
}
