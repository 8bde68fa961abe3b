//! Typed accessors over raw page images.
//!
//! [`Leaf`] and [`Internal`] wrap a page-sized byte buffer and expose the
//! fields of the layouts in [`crate::layout`]. They own no storage: the tree
//! reads a page into a scratch buffer, manipulates it through these views and
//! writes it back.

use std::ops::Range;

use cdb_storage::codec::{get_f32, get_f64, get_u16, get_u32, put_f32, put_f64, put_u16, put_u32};

use crate::layout::{
    internal_capacity, leaf_capacity, Direction, Handicaps, INTERNAL_ENTRY, INTERNAL_HDR,
    KIND_INTERNAL, KIND_LEAF, LEAF_ENTRY, LEAF_HDR,
};

/// Returns `true` if the page image is a leaf.
pub fn is_leaf(page: &[u8]) -> bool {
    page[0] == KIND_LEAF
}

/// Where a sweep in `dir` from `k` splits `n` ascending keys (read through
/// `key`): how many lie below its first one — those `< k` going up (it
/// starts at the first key `≥ k`), those `≤ k` going down (it starts at the
/// last key `≤ k`).
#[inline]
fn rank(n: usize, key: impl Fn(usize) -> f64, dir: Direction, k: f64) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        let below = match dir {
            Direction::Up => key(mid) < k,
            Direction::Down => key(mid) <= k,
        };
        if below {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Mutable leaf view.
pub struct Leaf<'a> {
    buf: &'a mut [u8],
}

impl<'a> Leaf<'a> {
    /// Wraps an existing leaf page.
    ///
    /// # Panics
    /// Panics if the page is not a leaf.
    pub fn new(buf: &'a mut [u8]) -> Self {
        assert_eq!(buf[0], KIND_LEAF, "not a leaf page");
        Leaf { buf }
    }

    /// Formats `buf` as an empty leaf and wraps it.
    pub fn init(buf: &'a mut [u8]) -> Self {
        buf.fill(0);
        buf[0] = KIND_LEAF;
        put_u32(buf, 4, crate::layout::NULL_PAGE);
        put_u32(buf, 8, crate::layout::NULL_PAGE);
        let mut leaf = Leaf { buf };
        leaf.set_handicaps(Handicaps::default());
        leaf
    }

    /// Number of entries.
    pub fn count(&self) -> usize {
        get_u16(self.buf, 2) as usize
    }

    fn set_count(&mut self, n: usize) {
        put_u16(self.buf, 2, n as u16);
    }

    /// Previous-leaf link.
    pub fn prev(&self) -> u32 {
        get_u32(self.buf, 4)
    }

    /// Sets the previous-leaf link.
    pub fn set_prev(&mut self, p: u32) {
        put_u32(self.buf, 4, p);
    }

    /// Next-leaf link.
    pub fn next(&self) -> u32 {
        get_u32(self.buf, 8)
    }

    /// Sets the next-leaf link.
    pub fn set_next(&mut self, p: u32) {
        put_u32(self.buf, 8, p);
    }

    /// The leaf a sweep in `dir` continues in.
    pub fn link(&self, dir: Direction) -> u32 {
        match dir {
            Direction::Up => self.next(),
            Direction::Down => self.prev(),
        }
    }

    /// The four handicap slots.
    pub fn handicaps(&self) -> Handicaps {
        Handicaps {
            low_prev: get_f64(self.buf, 12),
            low_next: get_f64(self.buf, 20),
            high_prev: get_f64(self.buf, 28),
            high_next: get_f64(self.buf, 36),
        }
    }

    /// Writes the four handicap slots.
    pub fn set_handicaps(&mut self, h: Handicaps) {
        put_f64(self.buf, 12, h.low_prev);
        put_f64(self.buf, 20, h.low_next);
        put_f64(self.buf, 28, h.high_prev);
        put_f64(self.buf, 36, h.high_next);
    }

    /// Key of entry `i` (as stored: `f32` widened to `f64`).
    pub fn key(&self, i: usize) -> f64 {
        debug_assert!(i < self.count());
        get_f32(self.buf, LEAF_HDR + i * LEAF_ENTRY) as f64
    }

    /// Value (tuple id) of entry `i`.
    pub fn value(&self, i: usize) -> u32 {
        debug_assert!(i < self.count());
        get_u32(self.buf, LEAF_HDR + i * LEAF_ENTRY + 4)
    }

    /// Values (tuple ids) of the entries in `slots`, in slot order.
    pub fn values(&self, slots: Range<usize>) -> impl DoubleEndedIterator<Item = u32> + '_ {
        let entries =
            &self.buf[LEAF_HDR + slots.start * LEAF_ENTRY..LEAF_HDR + slots.end * LEAF_ENTRY];
        entries
            .chunks_exact(LEAF_ENTRY)
            .map(|e| u32::from_le_bytes([e[4], e[5], e[6], e[7]]))
    }

    /// Where a sweep in `dir` from `k` splits the entries: the first slot
    /// with key `≥ k` going up, one past the last with key `≤ k` going
    /// down (see [`Direction::slots`]).
    pub fn rank(&self, dir: Direction, k: f64) -> usize {
        rank(self.count(), |i| self.key(i), dir, k)
    }

    /// Inserts `(k, v)` keeping key order (after equal keys). Returns the
    /// slot used.
    ///
    /// # Panics
    /// Panics if the leaf is full.
    pub fn insert(&mut self, page_size: usize, k: f64, v: u32) -> usize {
        let n = self.count();
        assert!(n < leaf_capacity(page_size), "leaf overflow");
        // After all keys <= k: keeps insertion stable.
        let pos = self.rank(Direction::Down, k);
        let start = LEAF_HDR + pos * LEAF_ENTRY;
        let end = LEAF_HDR + n * LEAF_ENTRY;
        self.buf.copy_within(start..end, start + LEAF_ENTRY);
        put_f32(self.buf, start, k as f32);
        put_u32(self.buf, start + 4, v);
        self.set_count(n + 1);
        pos
    }

    /// Removes entry `i`.
    pub fn remove(&mut self, i: usize) {
        let n = self.count();
        assert!(i < n, "remove out of range");
        let start = LEAF_HDR + (i + 1) * LEAF_ENTRY;
        let end = LEAF_HDR + n * LEAF_ENTRY;
        self.buf.copy_within(start..end, start - LEAF_ENTRY);
        self.set_count(n - 1);
    }

    /// Moves the upper half of the entries into `right` (an empty leaf).
    /// Returns the first key of `right` (the separator to promote).
    pub fn split_into(&mut self, right: &mut Leaf<'_>) -> f64 {
        let n = self.count();
        let mid = n / 2;
        for i in mid..n {
            let k = self.key(i);
            let v = self.value(i);
            let j = i - mid;
            let off = LEAF_HDR + j * LEAF_ENTRY;
            put_f32(right.buf, off, k as f32);
            put_u32(right.buf, off + 4, v);
        }
        right.set_count(n - mid);
        self.set_count(mid);
        right.key(0)
    }
}

/// Mutable internal-node view.
pub struct Internal<'a> {
    buf: &'a mut [u8],
}

impl<'a> Internal<'a> {
    /// Wraps an existing internal page.
    ///
    /// # Panics
    /// Panics if the page is not internal.
    pub fn new(buf: &'a mut [u8]) -> Self {
        assert_eq!(buf[0], KIND_INTERNAL, "not an internal page");
        Internal { buf }
    }

    /// Formats `buf` as an internal node with a single child.
    pub fn init(buf: &'a mut [u8], child0: u32) -> Self {
        buf.fill(0);
        buf[0] = KIND_INTERNAL;
        put_u32(buf, 4, child0);
        Internal { buf }
    }

    /// Number of separator keys (children = count + 1).
    pub fn count(&self) -> usize {
        get_u16(self.buf, 2) as usize
    }

    fn set_count(&mut self, n: usize) {
        put_u16(self.buf, 2, n as u16);
    }

    /// Separator key `i`.
    pub fn key(&self, i: usize) -> f64 {
        debug_assert!(i < self.count());
        get_f32(self.buf, INTERNAL_HDR + i * INTERNAL_ENTRY) as f64
    }

    /// Child pointer `i` (`0 ..= count()`).
    pub fn child(&self, i: usize) -> u32 {
        debug_assert!(i <= self.count());
        if i == 0 {
            get_u32(self.buf, 4)
        } else {
            get_u32(self.buf, INTERNAL_HDR + (i - 1) * INTERNAL_ENTRY + 4)
        }
    }

    /// Sets child pointer `i`.
    pub fn set_child(&mut self, i: usize, c: u32) {
        if i == 0 {
            put_u32(self.buf, 4, c);
        } else {
            put_u32(self.buf, INTERNAL_HDR + (i - 1) * INTERNAL_ENTRY + 4, c);
        }
    }

    /// Child index to descend into toward where a sweep in `dir` from `k`
    /// starts: going down (and for inserts) the child after the last
    /// separator `≤ k`, so duplicates of a separator key land right of it;
    /// going up the leftmost child whose subtree may hold keys `≥ k`, i.e.
    /// the *first* occurrence of a duplicated key.
    pub fn rank(&self, dir: Direction, k: f64) -> usize {
        rank(self.count(), |i| self.key(i), dir, k)
    }

    /// Inserts separator `k` with right child `c` at position `pos`.
    ///
    /// # Panics
    /// Panics if full.
    pub fn insert_at(&mut self, page_size: usize, pos: usize, k: f64, c: u32) {
        let n = self.count();
        assert!(n < internal_capacity(page_size), "internal overflow");
        assert!(pos <= n);
        let start = INTERNAL_HDR + pos * INTERNAL_ENTRY;
        let end = INTERNAL_HDR + n * INTERNAL_ENTRY;
        self.buf.copy_within(start..end, start + INTERNAL_ENTRY);
        put_f32(self.buf, start, k as f32);
        put_u32(self.buf, start + 4, c);
        self.set_count(n + 1);
    }

    /// Splits around the median: upper entries move to `right` (empty
    /// internal node); returns the median key to promote. `right`'s child 0
    /// becomes the child right of the median.
    pub fn split_into(&mut self, right: &mut Internal<'_>) -> f64 {
        let n = self.count();
        let mid = n / 2;
        let promoted = self.key(mid);
        right.set_child(0, self.child(mid + 1));
        for i in (mid + 1)..n {
            let j = i - mid - 1;
            let off = INTERNAL_HDR + j * INTERNAL_ENTRY;
            put_f32(right.buf, off, self.key(i) as f32);
            put_u32(right.buf, off + 4, self.child(i + 1));
        }
        right.set_count(n - mid - 1);
        self.set_count(mid);
        promoted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: usize = 256;

    #[test]
    fn leaf_insert_ordered() {
        let mut buf = vec![0u8; P];
        let mut leaf = Leaf::init(&mut buf);
        leaf.insert(P, 5.0, 50);
        leaf.insert(P, 1.0, 10);
        leaf.insert(P, 3.0, 30);
        leaf.insert(P, 3.0, 31); // duplicate goes after
        assert_eq!(leaf.count(), 4);
        let keys: Vec<f64> = (0..4).map(|i| leaf.key(i)).collect();
        assert_eq!(keys, vec![1.0, 3.0, 3.0, 5.0]);
        assert_eq!(leaf.value(1), 30);
        assert_eq!(leaf.value(2), 31, "stable duplicate order");
    }

    #[test]
    fn leaf_rank() {
        let mut buf = vec![0u8; P];
        let mut leaf = Leaf::init(&mut buf);
        for (k, v) in [(1.0, 1), (3.0, 2), (3.0, 3), (7.0, 4)] {
            leaf.insert(P, k, v);
        }
        assert_eq!(leaf.rank(Direction::Up, 0.0), 0);
        assert_eq!(leaf.rank(Direction::Up, 3.0), 1);
        assert_eq!(leaf.rank(Direction::Up, 4.0), 3);
        assert_eq!(leaf.rank(Direction::Up, 8.0), 4);
    }

    #[test]
    fn leaf_remove() {
        let mut buf = vec![0u8; P];
        let mut leaf = Leaf::init(&mut buf);
        for (k, v) in [(1.0, 1), (2.0, 2), (3.0, 3)] {
            leaf.insert(P, k, v);
        }
        leaf.remove(1);
        assert_eq!(leaf.count(), 2);
        assert_eq!(leaf.key(0), 1.0);
        assert_eq!(leaf.key(1), 3.0);
    }

    #[test]
    fn leaf_split() {
        let mut buf = vec![0u8; P];
        let mut leaf = Leaf::init(&mut buf);
        for i in 0..10 {
            leaf.insert(P, i as f64, i);
        }
        let mut rbuf = vec![0u8; P];
        let mut right = Leaf::init(&mut rbuf);
        let sep = leaf.split_into(&mut right);
        assert_eq!(sep, 5.0);
        assert_eq!(leaf.count(), 5);
        assert_eq!(right.count(), 5);
        assert_eq!(right.key(0), 5.0);
    }

    #[test]
    fn leaf_handicaps_round_trip() {
        let mut buf = vec![0u8; P];
        let mut leaf = Leaf::init(&mut buf);
        assert_eq!(leaf.handicaps(), Handicaps::default());
        let h = Handicaps {
            low_prev: -3.5,
            low_next: 2.25,
            high_prev: 10.0,
            high_next: f64::NEG_INFINITY,
        };
        leaf.set_handicaps(h);
        assert_eq!(leaf.handicaps(), h);
    }

    #[test]
    fn leaf_infinite_keys_order() {
        let mut buf = vec![0u8; P];
        let mut leaf = Leaf::init(&mut buf);
        leaf.insert(P, f64::INFINITY, 1);
        leaf.insert(P, 0.0, 2);
        leaf.insert(P, f64::NEG_INFINITY, 3);
        assert_eq!(leaf.key(0), f64::NEG_INFINITY);
        assert_eq!(leaf.key(1), 0.0);
        assert_eq!(leaf.key(2), f64::INFINITY);
    }

    #[test]
    fn internal_descend() {
        let mut buf = vec![0u8; P];
        let mut node = Internal::init(&mut buf, 100);
        node.insert_at(P, 0, 10.0, 101);
        node.insert_at(P, 1, 20.0, 102);
        assert_eq!(node.count(), 2);
        assert_eq!(node.rank(Direction::Down, 5.0), 0);
        assert_eq!(node.rank(Direction::Down, 10.0), 1, "equal key goes right");
        assert_eq!(node.rank(Direction::Up, 10.0), 0, "going up stays left");
        assert_eq!(node.rank(Direction::Down, 15.0), 1);
        assert_eq!(node.rank(Direction::Down, 25.0), 2);
        assert_eq!(node.child(0), 100);
        assert_eq!(node.child(1), 101);
        assert_eq!(node.child(2), 102);
    }

    #[test]
    fn internal_split() {
        let mut buf = vec![0u8; P];
        let mut node = Internal::init(&mut buf, 0);
        for i in 0..9 {
            node.insert_at(P, i, (i as f64 + 1.0) * 10.0, (i + 1) as u32);
        }
        let mut rbuf = vec![0u8; P];
        let mut right = Internal::init(&mut rbuf, 0);
        let promoted = node.split_into(&mut right);
        assert_eq!(promoted, 50.0);
        assert_eq!(node.count(), 4);
        assert_eq!(right.count(), 4);
        assert_eq!(right.child(0), 5, "child right of the median");
        assert_eq!(right.key(0), 60.0);
    }

    #[test]
    fn kind_detection() {
        let mut buf = vec![0u8; P];
        Leaf::init(&mut buf);
        assert!(is_leaf(&buf));
        Internal::init(&mut buf, 0);
        assert!(!is_leaf(&buf));
    }
}
