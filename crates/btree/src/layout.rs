//! On-page layouts and sizing.
//!
//! ```text
//! Leaf page:
//!   0  u8   kind = 0
//!   1  u8   (unused)
//!   2  u16  entry count
//!   4  u32  prev leaf (NULL_PAGE if first)
//!   8  u32  next leaf (NULL_PAGE if last)
//!  12  f64  handicap low_prev
//!  20  f64  handicap low_next
//!  28  f64  handicap high_prev
//!  36  f64  handicap high_next
//!  44  ...  entries: (f32 key, u32 value) × count
//!
//! Internal page:
//!   0  u8   kind = 1
//!   1  u8   (unused)
//!   2  u16  key count
//!   4  u32  child 0
//!   8  ...  (f32 separator, u32 child) × count
//! ```
//!
//! With the paper's 1024-byte pages this gives 122 leaf entries and 127
//! internal separators per page (the paper's idealized `B = 1024/8 = 128`
//! minus header overhead).

use std::ops::Range;

/// Sentinel for "no page" in leaf links.
pub const NULL_PAGE: u32 = u32::MAX;

/// Page kind tags.
pub const KIND_LEAF: u8 = 0;
/// Page kind tag for internal nodes.
pub const KIND_INTERNAL: u8 = 1;

/// Byte offset where leaf entries begin.
pub const LEAF_HDR: usize = 44;
/// Bytes per leaf entry (`f32` key + `u32` value).
pub const LEAF_ENTRY: usize = 8;
/// Byte offset where internal entries begin (after child 0).
pub const INTERNAL_HDR: usize = 8;
/// Bytes per internal entry (`f32` separator + `u32` child).
pub const INTERNAL_ENTRY: usize = 8;

/// Maximum leaf entries for a page size.
pub const fn leaf_capacity(page_size: usize) -> usize {
    (page_size - LEAF_HDR) / LEAF_ENTRY
}

/// Maximum internal separators for a page size.
pub const fn internal_capacity(page_size: usize) -> usize {
    (page_size - INTERNAL_HDR) / INTERNAL_ENTRY
}

/// Which neighbour of a slope a strip extends toward.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// Toward the previous (smaller) slope in `S`.
    Prev,
    /// Toward the next (larger) slope in `S`.
    Next,
}

/// The direction of a leaf sweep — where technique T2 makes two, of the
/// *first*. "Up" and "down" are mirror images; everything they differ in
/// is one of the primitives below, and the searches are written against
/// those: which leaf link continues the sweep ([`Leaf::link`]), which side
/// of a bound is past it ([`before`](Self::before)), and which handicap
/// pair guides the return sweep ([`Handicaps::slot`]).
///
/// [`Leaf::link`]: crate::node::Leaf::link
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward larger keys.
    Up,
    /// Toward smaller keys.
    Down,
}

impl Direction {
    /// Both directions, `Up` first.
    pub const BOTH: [Direction; 2] = [Direction::Up, Direction::Down];

    /// The opposite direction (that of T2's second sweep).
    pub fn reversed(self) -> Self {
        match self {
            Direction::Up => Direction::Down,
            Direction::Down => Direction::Up,
        }
    }

    /// `true` when a sweep in this direction meets `a` strictly before `b`.
    #[inline]
    pub fn before(self, a: f64, b: f64) -> bool {
        match self {
            Direction::Up => a < b,
            Direction::Down => a > b,
        }
    }

    /// Whichever of `a` and `b` a sweep in this direction meets first.
    pub fn earlier(self, a: f64, b: f64) -> f64 {
        match self {
            Direction::Up => a.min(b),
            Direction::Down => a.max(b),
        }
    }

    /// Where every sweep in this direction ends: no key is past it, so it
    /// is also the neutral handicap.
    pub fn end(self) -> f64 {
        match self {
            Direction::Up => f64::INFINITY,
            Direction::Down => f64::NEG_INFINITY,
        }
    }

    /// `x` moved `by` further along.
    pub fn advance(self, x: f64, by: f64) -> f64 {
        match self {
            Direction::Up => x + by,
            Direction::Down => x - by,
        }
    }

    /// The nearest value strictly past `x`.
    pub fn next_after(self, x: f64) -> f64 {
        match self {
            Direction::Up => x.next_up(),
            Direction::Down => x.next_down(),
        }
    }

    /// Of `count` ascending slots split at `rank`, those a sweep in this
    /// direction covers (in ascending order either way).
    pub fn slots(self, rank: usize, count: usize) -> Range<usize> {
        match self {
            Direction::Up => rank..count,
            Direction::Down => 0..rank,
        }
    }

    /// This direction's component of an `(up, down)` pair.
    pub fn of<T>(self, pair: (T, T)) -> T {
        match self {
            Direction::Up => pair.0,
            Direction::Down => pair.1,
        }
    }
}

/// The four per-leaf handicap values of technique T2 (Sections 4.2–4.3).
///
/// `low_*` guide the second (downward) sweep of upward-first queries —
/// `EXIST(q(≥))` on `B^up` trees, `ALL(q(≥))` on `B^down` trees; `high_*`
/// guide the second (upward) sweep of downward-first queries. The `prev`
/// slot covers query slopes between this tree's slope and its predecessor in
/// `S`, the `next` slot slopes toward its successor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Handicaps {
    /// Min bucketed key for slopes toward the previous slope in `S`.
    pub low_prev: f64,
    /// Min bucketed key for slopes toward the next slope in `S`.
    pub low_next: f64,
    /// Max bucketed key for slopes toward the previous slope in `S`.
    pub high_prev: f64,
    /// Max bucketed key for slopes toward the next slope in `S`.
    pub high_next: f64,
}

impl Handicaps {
    /// The handicap guiding the return sweep of a search whose first sweep
    /// goes `dir`, for query slopes on `side`: the `low` pair when it goes
    /// up, the `high` pair when it goes down.
    pub fn slot(&mut self, dir: Direction, side: Side) -> &mut f64 {
        match (dir, side) {
            (Direction::Up, Side::Prev) => &mut self.low_prev,
            (Direction::Up, Side::Next) => &mut self.low_next,
            (Direction::Down, Side::Prev) => &mut self.high_prev,
            (Direction::Down, Side::Next) => &mut self.high_next,
        }
    }

    /// The value in [`slot`](Self::slot).
    pub fn get(mut self, dir: Direction, side: Side) -> f64 {
        *self.slot(dir, side)
    }
}

impl Default for Handicaps {
    /// Neutral handicaps: `low = +∞` (never forces a descent),
    /// `high = −∞` (never forces an ascent).
    fn default() -> Self {
        Handicaps {
            low_prev: f64::INFINITY,
            low_next: f64::INFINITY,
            high_prev: f64::NEG_INFINITY,
            high_next: f64::NEG_INFINITY,
        }
    }
}

/// Upper bound on the absolute error introduced by storing an `f64` key as
/// `f32`, for a key of magnitude `|k|`.
///
/// `f32` has a 24-bit significand, so the relative rounding error is at most
/// `2⁻²⁴`; the bound is padded by a binade and an absolute floor to stay
/// conservative. Query code widens scan boundaries by this slack and lets
/// the exact refinement step discard the extra candidates.
pub fn key_slack(k: f64) -> f64 {
    if !k.is_finite() {
        return 0.0;
    }
    k.abs() * (2.0 / 16_777_216.0) + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_page_capacities() {
        assert_eq!(leaf_capacity(1024), 122);
        assert_eq!(internal_capacity(1024), 127);
    }

    #[test]
    fn small_page_capacities() {
        // 128-byte pages (used by the stress tests to force deep trees).
        assert_eq!(leaf_capacity(128), 10);
        assert_eq!(internal_capacity(128), 15);
    }

    #[test]
    fn slack_covers_f32_rounding() {
        for k in [0.0, 1.0, -3.75, 123.456, -9876.5, 1e6, -1e8] {
            let rounded = k as f32 as f64;
            assert!(
                (rounded - k).abs() <= key_slack(k),
                "slack too small for {k}: err {} > slack {}",
                (rounded - k).abs(),
                key_slack(k)
            );
        }
    }

    #[test]
    fn slack_of_infinity_is_zero() {
        assert_eq!(key_slack(f64::INFINITY), 0.0);
        assert_eq!(key_slack(f64::NEG_INFINITY), 0.0);
    }

    #[test]
    fn default_handicaps_are_neutral() {
        let h = Handicaps::default();
        assert_eq!(h.low_prev, f64::INFINITY);
        assert_eq!(h.high_next, f64::NEG_INFINITY);
    }
}
