//! Query model: selections, strategies, results and cost accounting.

pub use cdb_btree::{Direction, Side};
use cdb_geometry::constraint::RelOp;
use cdb_geometry::dual::DualSurfaces;
use cdb_geometry::halfplane::HalfPlane;
use cdb_geometry::predicates;
use cdb_storage::IoStats;

use crate::plan::MethodKind;

/// ALL (containment) or EXIST (intersection) selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SelectionKind {
    /// Retrieve tuples whose extension is contained in the query half-plane.
    All,
    /// Retrieve tuples whose extension intersects the query half-plane.
    Exist,
}

cdb_storage::wire_enum!(SelectionKind { 0 => Exist, 1 => All });

/// A half-plane selection.
#[derive(Clone, Debug, PartialEq)]
pub struct Selection {
    /// Selection type.
    pub kind: SelectionKind,
    /// The query half-plane.
    pub halfplane: HalfPlane,
}

cdb_storage::wire_struct!(Selection { kind, halfplane as crate::wire::halfplane });

impl Selection {
    /// `ALL(q)` — containment selection.
    pub fn all(halfplane: HalfPlane) -> Self {
        Selection {
            kind: SelectionKind::All,
            halfplane,
        }
    }

    /// `EXIST(q)` — intersection selection.
    pub fn exist(halfplane: HalfPlane) -> Self {
        Selection {
            kind: SelectionKind::Exist,
            halfplane,
        }
    }

    /// The half-plane superset of the equality query `y = a·x + c`
    /// (footnote 2 of the paper): a tuple meets the line iff
    /// `BOT ≤ c ≤ TOP`, so the candidates of `EXIST(y ≥ a·x + c)`
    /// (`TOP ≥ c`) contain every answer; one refinement pass with
    /// [`Exact::Line`](crate::index::Exact::Line) applies the hyperplane
    /// predicate to them.
    pub fn line_superset(a: f64, c: f64) -> Self {
        Selection::exist(HalfPlane::new2d(a, c, RelOp::Ge))
    }

    /// The exact predicate of Proposition 2.2: does `tuple` (owned, or a
    /// view of its encoded bytes) satisfy this selection?
    pub fn holds<P: DualSurfaces + ?Sized>(&self, tuple: &P) -> bool {
        match self.kind {
            SelectionKind::All => predicates::all(&self.halfplane, tuple),
            SelectionKind::Exist => predicates::exist(&self.halfplane, tuple),
        }
    }
}

/// A request's hint at which access method to use: what callers and the
/// wire name. The engine works in [`MethodKind`]s;
/// [`forced`](Strategy::forced) is the one conversion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The planner's choice: the dual index wherever it routes the slope,
    /// else the scan (the paper's intended deployment).
    Auto,
    /// Forces the dual index: Section 3's exact search when the slope is
    /// in `S`, otherwise Sections 4.2–4.4's single handicap-guided search,
    /// duplicate-free, at any slope the index routes — a 2-D one wrapped
    /// through the vertical included, the case the paper leaves to
    /// "similar handling".
    T2,
    /// Sequential scan with exact predicates (the no-index baseline and
    /// correctness oracle).
    Scan,
    /// The packed R⁺-tree over tuple bounding boxes (Section 5's baseline
    /// structure), served as the planner's `AccessMethod::RPlus`.
    RPlus,
}

cdb_storage::wire_enum!(Strategy {
    0 => Auto,
    3 => T2,
    4 => Scan,
    5 => RPlus,
});

impl Strategy {
    /// The access method this hint forces on the planner; `None` leaves
    /// the choice to it.
    pub fn forced(self) -> Option<MethodKind> {
        match self {
            Strategy::Auto => None,
            Strategy::T2 => Some(MethodKind::Dual),
            Strategy::Scan => Some(MethodKind::SeqScan),
            Strategy::RPlus => Some(MethodKind::RPlus),
        }
    }
}

/// Sweep/tree selection shared by all techniques (the table of Section 3).
///
/// Returns `(use_up_tree, direction of the sweep)`:
/// * `ALL(q(≥))`   → `B^down`, upward;
/// * `ALL(q(≤))`   → `B^up`, downward;
/// * `EXIST(q(≥))` → `B^up`, upward;
/// * `EXIST(q(≤))` → `B^down`, downward.
pub fn tree_and_direction(kind: SelectionKind, op: RelOp) -> (bool, Direction) {
    match (kind, op) {
        (SelectionKind::All, RelOp::Ge) => (false, Direction::Up),
        (SelectionKind::All, RelOp::Le) => (true, Direction::Down),
        (SelectionKind::Exist, RelOp::Ge) => (true, Direction::Up),
        (SelectionKind::Exist, RelOp::Le) => (false, Direction::Down),
    }
}

/// Cost and quality accounting for one query execution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Page accesses in index structures (tree descents + leaf sweeps).
    pub index_io: IoStats,
    /// Page accesses fetching candidate tuples for refinement.
    pub heap_io: IoStats,
    /// Candidate tuples produced by the index phase (before refinement),
    /// duplicates included.
    pub candidates: u64,
    /// Candidates that appeared more than once: the R⁺-tree's clipping
    /// puts a tuple in every leaf its box overlaps; the dual index's
    /// searches never repeat one.
    pub duplicates: u64,
    /// Candidates the exact refinement step fetched and discarded.
    pub false_hits: u64,
    /// Candidates a 2-D dual index's key columns rejected unfetched.
    pub rejected_by_key: u64,
    /// Candidates accepted without fetching the tuple: exact-by-key in the
    /// restricted search, and on a 2-D dual index's routes those its
    /// key columns accept.
    pub accepted_by_key: u64,
    /// The access method that ran ([`crate::plan::QueryPlan::method`];
    /// its plan's case names the search), stamped on every planned query;
    /// `None` only when an index was executed directly, with no plan.
    pub method: Option<MethodKind>,
}

cdb_storage::wire_struct!(QueryStats {
    index_io,
    heap_io,
    candidates,
    duplicates,
    false_hits,
    rejected_by_key,
    accepted_by_key,
    method,
});

impl QueryStats {
    /// Total page accesses charged to the query.
    pub fn total_accesses(&self) -> u64 {
        self.index_io.accesses() + self.heap_io.accesses()
    }

    /// Adds every counter of `other` into `self` — the one sum behind a
    /// plan's scan nodes. `method` describes one execution and is left
    /// alone.
    pub fn accumulate(&mut self, other: &QueryStats) {
        self.index_io = self.index_io.plus(&other.index_io);
        self.heap_io = self.heap_io.plus(&other.heap_io);
        self.candidates += other.candidates;
        self.duplicates += other.duplicates;
        self.false_hits += other.false_hits;
        self.rejected_by_key += other.rejected_by_key;
        self.accepted_by_key += other.accepted_by_key;
    }
}

/// The outcome of a query: matching tuple ids plus cost accounting.
#[derive(Clone, Debug, Default)]
pub struct QueryResult {
    ids: Vec<u32>,
    /// Execution statistics.
    pub stats: QueryStats,
}

impl QueryResult {
    /// Builds a result: ids ascending ([`order_ids`]), asserted unique.
    pub fn new(mut ids: Vec<u32>, stats: QueryStats) -> Self {
        let duplicates = order_ids(&mut ids);
        debug_assert!(duplicates == 0, "duplicate result id");
        QueryResult { ids, stats }
    }

    /// The ascending ids and the stats, by move.
    pub fn into_parts(self) -> (Vec<u32>, QueryStats) {
        (self.ids, self.stats)
    }

    /// Matching tuple ids, ascending.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of matches.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when nothing matched.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Orders tuple ids ascending and drops repeats, returning how many were
/// dropped — the one ordering step behind every result and candidate list.
///
/// Ids that already ascend return at once. Ids that cover a fair share of
/// their own range (a bitmap over `0..=max` takes no more words than the
/// list has ids — slot ids swept out of a B⁺-tree do) are ordered in
/// linear time by setting and reading back bits; anything sparser is
/// comparison-sorted, so three ids near `u32::MAX` never allocate 64 MiB.
pub fn order_ids(ids: &mut Vec<u32>) -> usize {
    if ids.windows(2).all(|w| w[0] < w[1]) {
        return 0;
    }
    let before = ids.len();
    let max = ids.iter().copied().max().expect("an empty list ascends");
    let words = max as usize / 64 + 1;
    if words <= before {
        let mut bits = vec![0u64; words];
        for &id in ids.iter() {
            bits[id as usize / 64] |= 1 << (id % 64);
        }
        ids.clear();
        for (at, mut word) in bits.into_iter().enumerate() {
            while word != 0 {
                ids.push(at as u32 * 64 + word.trailing_zeros());
                word &= word - 1;
            }
        }
    } else {
        ids.sort_unstable();
        ids.dedup();
    }
    before - ids.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_direction_table() {
        use RelOp::*;
        use SelectionKind::*;
        assert_eq!(tree_and_direction(All, Ge), (false, Direction::Up));
        assert_eq!(tree_and_direction(All, Le), (true, Direction::Down));
        assert_eq!(tree_and_direction(Exist, Ge), (true, Direction::Up));
        assert_eq!(tree_and_direction(Exist, Le), (false, Direction::Down));
    }

    #[test]
    fn forced_names_each_method_once() {
        let hints = [Strategy::T2, Strategy::Scan, Strategy::RPlus];
        let forced: Vec<MethodKind> = hints.iter().filter_map(|s| s.forced()).collect();
        assert_eq!(forced.len(), hints.len());
        for (i, m) in forced.iter().enumerate() {
            assert!(!forced[..i].contains(m), "{m} is forced by two hints");
        }
        assert_eq!(Strategy::Auto.forced(), None);
        assert_eq!(Strategy::T2.forced(), Some(MethodKind::Dual));
        assert_eq!(Strategy::Scan.forced(), Some(MethodKind::SeqScan));
    }

    /// The request enums' wire tags (no catalog stores them): each value
    /// round-trips, and a retired or unknown tag is refused.
    #[test]
    fn enum_tags_conform_and_unknown_tags_fail() {
        use cdb_storage::codec::decode;
        use cdb_storage::conformance::wire_conformance;
        wire_conformance(&[
            Strategy::Auto,
            Strategy::T2,
            Strategy::Scan,
            Strategy::RPlus,
        ]);
        wire_conformance(&[MethodKind::Dual, MethodKind::SeqScan, MethodKind::RPlus]);
        wire_conformance(&[SelectionKind::Exist, SelectionKind::All]);
        // Strategy tag 2 and MethodKind tag 1 named T1, MethodKind tag 3
        // the d-dimensional index; Strategy tag 1 and MethodKind tags 0
        // and 2 named the restricted search and T2 apart from the dual
        // index they run in.
        for tag in [1, 2, 99] {
            assert!(decode::<Strategy>(&[tag]).is_err(), "Strategy tag {tag}");
        }
        for tag in [0, 1, 2, 3, 6, 99] {
            assert!(
                decode::<MethodKind>(&[tag]).is_err(),
                "MethodKind tag {tag}"
            );
        }
        assert!(decode::<SelectionKind>(&[2]).is_err());
    }

    #[test]
    fn result_sorts_ids() {
        let r = QueryResult::new(vec![5, 1, 3], QueryStats::default());
        assert_eq!(r.ids(), &[1, 3, 5]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    /// `order_ids` against `sort_unstable` + `dedup`, ids and count alike.
    fn check_order(ids: Vec<u32>, what: &str) {
        let mut want = ids.clone();
        want.sort_unstable();
        want.dedup();
        let mut got = ids.clone();
        let removed = order_ids(&mut got);
        assert_eq!(got, want, "{what}");
        assert_eq!(
            removed,
            ids.len() - want.len(),
            "{what}: duplicates removed"
        );
    }

    #[test]
    fn order_ids_equals_sort_and_dedup() {
        let mut rng = cdb_prng::StdRng::seed_from_u64(0x1D5);
        for round in 0..64 {
            // Dense: slot ids of a relation, some repeated (clipped leaves).
            let n = rng.gen_range(1..3000usize);
            let dense: Vec<u32> = (0..n).map(|_| rng.gen_range(0..12_000u32)).collect();
            check_order(dense, &format!("dense round {round}"));
            // Sparse: far fewer ids than their range has words.
            let sparse: Vec<u32> = (0..rng.gen_range(2..40usize))
                .map(|_| rng.gen_range(0..=u32::MAX))
                .collect();
            check_order(sparse, &format!("sparse round {round}"));
        }
        check_order((0..500).collect(), "ascending");
        check_order((0..500).rev().collect(), "descending");
        check_order(vec![7; 300], "all equal");
        check_order(vec![0, 0, 1, 1, 2, 2], "ascending with repeats");
        check_order(vec![], "empty");
        check_order(vec![42], "single");
        check_order(vec![u32::MAX, 0], "both ends of the range");
    }

    /// Three ids near `u32::MAX` must be comparison-sorted: a bitmap over
    /// their range would be 64 MiB.
    #[test]
    fn order_ids_never_sizes_a_bitmap_from_a_sparse_range() {
        let mut ids = vec![u32::MAX, u32::MAX - 9, u32::MAX - 4];
        let (removed, peak) = cdb_storage::conformance::peak_during(|| order_ids(&mut ids));
        assert_eq!(ids, [u32::MAX - 9, u32::MAX - 4, u32::MAX]);
        assert_eq!(removed, 0);
        assert!(peak < 4096, "allocated {peak} bytes at once to order 3 ids");
    }

    #[test]
    fn stats_total() {
        let mut s = QueryStats::default();
        s.index_io.reads = 7;
        s.heap_io.reads = 3;
        s.heap_io.writes = 1;
        assert_eq!(s.total_accesses(), 11);
    }

    #[test]
    fn accumulate_sums_every_counter() {
        let io = |k: u64| IoStats {
            reads: k,
            writes: k + 1,
            allocations: k + 2,
            frees: k + 3,
        };
        let part = QueryStats {
            index_io: io(1),
            heap_io: io(10),
            candidates: 20,
            duplicates: 21,
            false_hits: 22,
            rejected_by_key: 24,
            accepted_by_key: 23,
            method: Some(MethodKind::Dual),
        };
        let mut sum = QueryStats {
            method: Some(MethodKind::SeqScan),
            ..QueryStats::default()
        };
        sum.accumulate(&part);
        sum.accumulate(&part);
        assert_eq!(
            sum,
            QueryStats {
                index_io: io(1).plus(&io(1)),
                heap_io: io(10).plus(&io(10)),
                candidates: 40,
                duplicates: 42,
                false_hits: 44,
                rejected_by_key: 48,
                accepted_by_key: 46,
                method: Some(MethodKind::SeqScan),
            }
        );
        assert_eq!(sum.index_io.frees, 8);
        assert_eq!(sum.heap_io.allocations, 24);
    }

    #[test]
    fn selection_constructors() {
        let q = HalfPlane::above(1.0, 0.0);
        assert_eq!(Selection::all(q.clone()).kind, SelectionKind::All);
        assert_eq!(Selection::exist(q).kind, SelectionKind::Exist);
    }
}
