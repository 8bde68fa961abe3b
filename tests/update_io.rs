//! Update I/O pinned as counts: the page reads, writes and allocations a
//! dual-index insert and delete cost on `update_cost`'s bed, exactly.
//!
//! What an update leaves on the pager — the distinct pages it writes and
//! the pages it allocates — is the paper's update; reads are what it costs
//! to find where. An insert descends each tree once, carrying its entry
//! and every handicap fold, and a delete edits the leaf its search read. A
//! change that brings back a descent, a leaf re-read or an extra write
//! fails here with the counts it measured.

use std::collections::HashSet;

use constraint_db::prelude::*;
use constraint_db::storage::{PageId, SnapshotReader};

/// A [`MemPager`] that also counts, per operation, the distinct pages
/// written: a page rewritten within one operation is one page on disk.
struct DistinctWrites {
    inner: MemPager,
    written: HashSet<PageId>,
    distinct: u64,
}

impl DistinctWrites {
    /// Closes one operation's window of written pages.
    fn end_op(&mut self) {
        self.distinct += self.written.len() as u64;
        self.written.clear();
    }
}

impl PageReader for DistinctWrites {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn read(&self, id: PageId, buf: &mut [u8]) -> std::io::Result<()> {
        self.inner.read(id, buf)
    }
    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
}

impl Pager for DistinctWrites {
    fn allocate(&mut self) -> std::io::Result<PageId> {
        self.inner.allocate()
    }
    fn write(&mut self, id: PageId, data: &[u8]) -> std::io::Result<()> {
        self.written.insert(id);
        self.inner.write(id, data)
    }
    fn free(&mut self, id: PageId) {
        self.inner.free(id)
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.distinct = 0;
    }
    fn commit_meta(&mut self, meta: &[u8]) -> std::io::Result<()> {
        self.inner.commit_meta(meta)
    }
    fn publish_view(&mut self) -> std::io::Result<Box<dyn SnapshotReader>> {
        self.inner.publish_view()
    }
    fn read_meta(&self) -> std::io::Result<Option<Vec<u8>>> {
        self.inner.read_meta()
    }
}

/// Totals over 100 operations of one kind.
#[derive(Debug, PartialEq)]
struct Counts {
    reads: u64,
    write_calls: u64,
    pages_written: u64,
    allocations: u64,
}

/// `(inserts, deletes)`: 100 tuples into `update_cost`'s index at `k`,
/// then the same 100 out again.
fn measure(k: usize) -> (Counts, Counts) {
    let n = 4000;
    let tuples = DatasetSpec::paper_1999(n, ObjectSize::Small, n as u64).generate();
    let pairs: Vec<(u32, GeneralizedTuple)> = (0u32..).zip(tuples).collect();
    let mut pager = DistinctWrites {
        inner: MemPager::paper_1999(),
        written: HashSet::new(),
        distinct: 0,
    };
    let mut idx = DualIndex::build(&mut pager, SlopeSet::uniform_tan(k), &pairs).unwrap();
    let mut gen = TupleGen::new(99, Rect::paper_window(), ObjectSize::Small);
    let batch: Vec<GeneralizedTuple> = (0..100).map(|_| gen.bounded_tuple()).collect();
    let totals = |pager: &DistinctWrites| {
        let s = pager.stats();
        Counts {
            reads: s.reads,
            write_calls: s.writes,
            pages_written: pager.distinct,
            allocations: s.allocations,
        }
    };

    pager.end_op();
    pager.reset_stats();
    for (id, t) in (n as u32..).zip(&batch) {
        idx.insert(&mut pager, id, t).unwrap();
        pager.end_op();
    }
    let inserts = totals(&pager);
    pager.reset_stats();
    for (id, t) in (n as u32..).zip(&batch) {
        assert!(idx.remove(&mut pager, id, t).unwrap());
        pager.end_op();
    }
    (inserts, totals(&pager))
}

/// `Counts` from its four fields, in declaration order.
fn counts(reads: u64, write_calls: u64, pages_written: u64, allocations: u64) -> Counts {
    Counts {
        reads,
        write_calls,
        pages_written,
        allocations,
    }
}

// One write per page an operation changes: `write_calls` equals
// `pages_written`. Per operation, an insert reads 33.2 pages at k = 4 and
// 41.5 at k = 5; a delete 16.1 and 20.2. An insert read 34.6 and 44.6, and
// wrote 15.3 and 19.3 pages, before the end trees of S held handicaps for
// the strip through the vertical: two more regions to fold into. It read
// 38.6 and 48.6 (3861 and 4861, with 1538 and 1941 writes) while both
// trees of an element folded one shared `(max TOP, min BOT)` reach: each
// tree's own lands nearer its key, in leaves its entry's descent has read.
// A delete wrote 800 and 1000 pages until one that takes a leaf's first or
// last key handed that leaf's handicaps on to the next leaf holding a key
// (4 and 5 of these deletes loosen a slot there).

#[test]
fn update_io_at_k4() {
    let (inserts, deletes) = measure(4);
    assert_eq!(inserts, counts(3316, 1539, 1539, 239), "100 inserts");
    assert_eq!(deletes, counts(1607, 804, 804, 0), "100 deletes");
}

#[test]
fn update_io_at_k5() {
    let (inserts, deletes) = measure(5);
    assert_eq!(inserts, counts(4150, 1939, 1939, 304), "100 inserts");
    assert_eq!(deletes, counts(2015, 1005, 1005, 0), "100 deletes");
}
