//! The pager abstraction and the in-memory implementation.
//!
//! The interface is split into a read half ([`PageReader`]) and a write half
//! ([`Pager`]). Reads take `&self` — I/O accounting uses interior mutability
//! — so an immutable index can be shared across query threads; structure
//! *modification* still requires `&mut` exclusivity through [`Pager`].
//!
//! # Errors vs. invariants
//!
//! Every operation that can touch a device returns [`std::io::Result`]: a
//! failed read, a failed write, a checksum mismatch on a durable pager, or
//! an injected fault from [`FaultPager`](crate::fault::FaultPager) all
//! surface as errors the caller must handle. *Contract violations* — a
//! wrong-sized buffer, an access to a page id that was never allocated —
//! remain panics: they are bugs in the calling structure, not conditions a
//! production system can encounter on a healthy code path, and turning them
//! into errors would only teach callers to ignore them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::epoch::{EpochHub, EpochStats, PinGuard, SnapshotReader};
use crate::stats::IoStats;

/// Page identifier. `u32` keeps on-page child pointers at 4 bytes, matching
/// the paper's "each stored value takes 4 bytes".
pub type PageId = u32;

/// The paper's page size: 1024 bytes.
pub const DEFAULT_PAGE_SIZE: usize = 1024;

/// The read half of a fixed-page storage device, with access accounting.
///
/// Every `read` counts one page access in [`IoStats`]; the index structures
/// funnel all node visits through this interface so that the experiment
/// harness can report I/O exactly. Reading takes `&self`, so a `PageReader`
/// can serve many concurrent queries over one shared structure snapshot.
pub trait PageReader {
    /// Size in bytes of every page.
    fn page_size(&self) -> usize;

    /// Reads page `id` into `buf` (`buf.len() == page_size()`).
    ///
    /// # Errors
    /// Device failures and integrity failures (a page whose checksum does
    /// not verify reads as [`std::io::ErrorKind::InvalidData`]).
    ///
    /// # Panics
    /// Panics if `id` is not an allocated page or `buf` has the wrong size
    /// — both are caller bugs, not runtime conditions.
    fn read(&self, id: PageId, buf: &mut [u8]) -> std::io::Result<()>;

    /// Number of live (allocated, not freed) pages — the space metric.
    fn live_pages(&self) -> usize;

    /// Access counters since creation or the last
    /// [`reset_stats`](Pager::reset_stats).
    fn stats(&self) -> IoStats;
}

/// The write half: allocation, mutation and accounting control.
///
/// `Send + Sync` are supertraits so a `Box<dyn Pager>` (and the structures
/// built over it) can be handed to `std::thread::scope` workers as a shared
/// read-only snapshot between write phases.
pub trait Pager: PageReader + Send + Sync {
    /// Allocates a zeroed page and returns its id.
    fn allocate(&mut self) -> std::io::Result<PageId>;

    /// Writes `data` (`data.len() == page_size()`) to page `id`.
    ///
    /// # Panics
    /// Panics if `id` is not an allocated page or `data` has the wrong size.
    fn write(&mut self, id: PageId, data: &[u8]) -> std::io::Result<()>;

    /// Frees page `id`, making it available for reallocation.
    ///
    /// Freeing is pure bookkeeping in every implementation — no device
    /// access — so it is infallible.
    ///
    /// # Panics
    /// Panics on a double free or an id that was never allocated.
    fn free(&mut self, id: PageId);

    /// Zeroes the access counters (not the space usage).
    fn reset_stats(&mut self);

    /// Flushes buffered page data to stable storage without publishing a
    /// new metadata blob. The default is a no-op for volatile pagers.
    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    /// Durably installs `meta` as the pager's metadata blob.
    ///
    /// The blob is the database catalog: it must become the value returned
    /// by [`read_meta`](Self::read_meta) atomically — after a crash, a
    /// reader sees either the previous committed blob or this one, never a
    /// mixture. Durable implementations sync page data before publishing
    /// the new blob, so a successful return means both the blob *and* all
    /// preceding page writes are on stable storage.
    fn commit_meta(&mut self, meta: &[u8]) -> std::io::Result<()>;

    /// Freezes the current page table into an immutable
    /// [`SnapshotReader`] usable from any thread, and starts a new
    /// generation: later writes never disturb a page the view maps, and
    /// pages freed afterwards are quarantined until the view (and every
    /// older one) is dropped.
    fn publish_view(&mut self) -> std::io::Result<Box<dyn SnapshotReader>>;

    /// Live epoch counters: current generation, pinned views, quarantined
    /// pages. All zero for pagers that never published a view.
    fn epoch_stats(&self) -> EpochStats {
        EpochStats::default()
    }

    /// Cross-checks the deferred-reclaim bookkeeping: `Some(true)` when
    /// every quarantined physical page is genuinely non-live (referenced
    /// by no page-table entry and no committed chain), `Some(false)` when
    /// the invariant is violated, `None` for pagers without a durable
    /// quarantine (in-memory pagers reclaim by refcount).
    fn quarantine_clean(&self) -> Option<bool> {
        None
    }

    /// Returns the most recently committed metadata blob, if any.
    ///
    /// A checksum or structural failure while reading the current blob is
    /// reported as [`std::io::ErrorKind::InvalidData`] — corruption is an
    /// error, never an empty database.
    fn read_meta(&self) -> std::io::Result<Option<Vec<u8>>>;
}

/// Interior-mutable [`IoStats`]: reads bump a counter behind `&self`.
#[derive(Debug, Default)]
pub(crate) struct AtomicStats {
    reads: AtomicU64,
    writes: AtomicU64,
    allocations: AtomicU64,
    frees: AtomicU64,
}

impl AtomicStats {
    pub(crate) fn bump_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_allocation(&self) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_free(&self) {
        self.frees.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.allocations.store(0, Ordering::Relaxed);
        self.frees.store(0, Ordering::Relaxed);
    }
}

/// In-memory pager: the experiment substrate.
///
/// Memory cannot fail, so every operation returns `Ok`; the fallible
/// signatures exist so the same structures run unchanged over
/// [`FilePager`](crate::FilePager) and under
/// [`FaultPager`](crate::fault::FaultPager) fault injection.
///
/// Pages are reference-counted so [`publish_view`](Pager::publish_view)
/// is a shallow clone: a published view shares the page images, and a
/// later write to a shared page copies it first (`Arc::make_mut`), leaving
/// every view's image untouched. GC is automatic — a page's memory is
/// released when the last view sharing it drops — so the quarantine
/// machinery reports no backlog for this pager.
#[derive(Debug)]
pub struct MemPager {
    page_size: usize,
    pages: Vec<Option<Arc<Vec<u8>>>>,
    free_list: Vec<PageId>,
    meta: Option<Vec<u8>>,
    hub: EpochHub,
    stats: AtomicStats,
}

impl MemPager {
    /// Creates a pager with the given page size.
    ///
    /// # Panics
    /// Panics if `page_size < 64` (too small for any node header).
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size {page_size} too small");
        MemPager {
            page_size,
            pages: Vec::new(),
            free_list: Vec::new(),
            meta: None,
            hub: EpochHub::new(),
            stats: AtomicStats::default(),
        }
    }

    /// Creates a pager with the paper's 1024-byte pages.
    pub fn paper_1999() -> Self {
        Self::new(DEFAULT_PAGE_SIZE)
    }
}

impl Default for MemPager {
    fn default() -> Self {
        Self::paper_1999()
    }
}

impl PageReader for MemPager {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> std::io::Result<()> {
        // Invariant, not I/O: a mis-sized buffer or an unallocated id is a
        // bug in the calling structure and must fail loudly in every build.
        assert_eq!(buf.len(), self.page_size, "read buffer size mismatch");
        let page = self
            .pages
            .get(id as usize)
            .and_then(|p| p.as_ref())
            .unwrap_or_else(|| panic!("read of unallocated page {id}"));
        buf.copy_from_slice(page);
        self.stats.bump_read();
        Ok(())
    }

    fn live_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }
}

impl Pager for MemPager {
    fn allocate(&mut self) -> std::io::Result<PageId> {
        self.stats.bump_allocation();
        if let Some(id) = self.free_list.pop() {
            self.pages[id as usize] = Some(Arc::new(vec![0u8; self.page_size]));
            return Ok(id);
        }
        let id = self.pages.len() as PageId;
        self.pages.push(Some(Arc::new(vec![0u8; self.page_size])));
        Ok(id)
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> std::io::Result<()> {
        // Invariant, not I/O: see `read`.
        assert_eq!(data.len(), self.page_size, "write size mismatch");
        let page = self
            .pages
            .get_mut(id as usize)
            .and_then(|p| p.as_mut())
            .unwrap_or_else(|| panic!("write of unallocated page {id}"));
        // Copy-on-write: a page shared with a published view is replaced,
        // not mutated, so the view keeps its frozen image.
        Arc::make_mut(page).copy_from_slice(data);
        self.stats.bump_write();
        Ok(())
    }

    fn free(&mut self, id: PageId) {
        let slot = self
            .pages
            .get_mut(id as usize)
            .unwrap_or_else(|| panic!("free of unknown page {id}"));
        assert!(slot.is_some(), "double free of page {id}");
        *slot = None;
        self.free_list.push(id);
        self.stats.bump_free();
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn commit_meta(&mut self, meta: &[u8]) -> std::io::Result<()> {
        self.meta = Some(meta.to_vec());
        Ok(())
    }

    fn read_meta(&self) -> std::io::Result<Option<Vec<u8>>> {
        Ok(self.meta.clone())
    }

    fn publish_view(&mut self) -> std::io::Result<Box<dyn SnapshotReader>> {
        // Reference counting is the GC: nothing to sweep, but the
        // generation bump and pin keep the epoch counters honest.
        let _ = self.hub.sweep();
        self.hub.publish();
        Ok(Box::new(MemView {
            page_size: self.page_size,
            pages: self.pages.clone(),
            hub: self.hub.clone(),
            _pin: self.hub.pin(),
            stats: AtomicStats::default(),
        }))
    }

    fn epoch_stats(&self) -> EpochStats {
        self.hub.stats()
    }
}

/// A frozen [`MemPager`] view: shares the page images it was published
/// with; the writer's later copy-on-write updates never touch them.
#[derive(Debug)]
struct MemView {
    page_size: usize,
    pages: Vec<Option<Arc<Vec<u8>>>>,
    hub: EpochHub,
    _pin: PinGuard,
    stats: AtomicStats,
}

impl PageReader for MemView {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> std::io::Result<()> {
        assert_eq!(buf.len(), self.page_size, "read buffer size mismatch");
        let page = self
            .pages
            .get(id as usize)
            .and_then(|p| p.as_ref())
            .unwrap_or_else(|| panic!("read of page {id} not in this view"));
        buf.copy_from_slice(page);
        self.stats.bump_read();
        Ok(())
    }

    fn live_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }
}

impl SnapshotReader for MemView {
    fn epoch_stats(&self) -> EpochStats {
        self.hub.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_write_round_trip() {
        let mut p = MemPager::new(128);
        let a = p.allocate().unwrap();
        let mut data = vec![0u8; 128];
        data[0] = 42;
        data[127] = 7;
        p.write(a, &data).unwrap();
        let mut buf = vec![0u8; 128];
        p.read(a, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(p.stats().reads, 1);
        assert_eq!(p.stats().writes, 1);
        assert_eq!(p.stats().allocations, 1);
    }

    #[test]
    fn fresh_pages_are_zeroed() {
        let mut p = MemPager::new(64);
        let a = p.allocate().unwrap();
        let mut buf = vec![1u8; 64];
        p.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn free_and_reuse() {
        let mut p = MemPager::new(64);
        let a = p.allocate().unwrap();
        let _b = p.allocate().unwrap();
        assert_eq!(p.live_pages(), 2);
        // Dirty the page, free, reallocate: must come back zeroed.
        p.write(a, &[9u8; 64]).unwrap();
        p.free(a);
        assert_eq!(p.live_pages(), 1);
        let c = p.allocate().unwrap();
        assert_eq!(c, a, "free list reuses page ids");
        let mut buf = vec![1u8; 64];
        p.read(c, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "recycled page must be zeroed");
    }

    #[test]
    fn stats_reset() {
        let mut p = MemPager::new(64);
        let a = p.allocate().unwrap();
        let mut buf = vec![0u8; 64];
        p.read(a, &mut buf).unwrap();
        p.reset_stats();
        assert_eq!(p.stats(), IoStats::default());
        assert_eq!(p.live_pages(), 1, "reset does not touch space usage");
    }

    #[test]
    fn concurrent_shared_reads() {
        let mut p = MemPager::new(64);
        let a = p.allocate().unwrap();
        p.write(a, &[3u8; 64]).unwrap();
        let reader: &(dyn PageReader + Sync) = &p;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    let mut buf = vec![0u8; 64];
                    for _ in 0..25 {
                        reader.read(a, &mut buf).unwrap();
                        assert_eq!(buf[0], 3);
                    }
                });
            }
        });
        assert_eq!(p.stats().reads, 100, "every thread's reads accounted");
    }

    #[test]
    fn meta_round_trips() {
        let mut p = MemPager::new(64);
        assert_eq!(p.read_meta().unwrap(), None);
        p.commit_meta(b"catalog v1").unwrap();
        assert_eq!(p.read_meta().unwrap().as_deref(), Some(&b"catalog v1"[..]));
        p.commit_meta(b"catalog v2").unwrap();
        assert_eq!(p.read_meta().unwrap().as_deref(), Some(&b"catalog v2"[..]));
    }

    #[test]
    #[should_panic]
    fn read_unallocated_panics() {
        let mut p = MemPager::new(64);
        let a = p.allocate().unwrap();
        p.free(a);
        let mut buf = vec![0u8; 64];
        let _ = p.read(5, &mut buf);
    }

    #[test]
    #[should_panic]
    fn double_free_panics() {
        let mut p = MemPager::new(64);
        let a = p.allocate().unwrap();
        p.free(a);
        p.free(a);
    }

    #[test]
    #[should_panic]
    fn wrong_buffer_size_panics() {
        let mut p = MemPager::new(64);
        let a = p.allocate().unwrap();
        let mut buf = vec![0u8; 32];
        let _ = p.read(a, &mut buf);
    }

    #[test]
    fn published_view_is_isolated_from_later_writes() {
        let mut p = MemPager::new(64);
        let a = p.allocate().unwrap();
        p.write(a, &[1u8; 64]).unwrap();
        let view = p.publish_view().unwrap();
        p.write(a, &[2u8; 64]).unwrap();
        let mut buf = vec![0u8; 64];
        view.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 1), "view keeps its frozen image");
        p.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 2), "writer sees the new bytes");
        assert_eq!(p.epoch_stats().pinned_epochs, 1);
        drop(view);
        assert_eq!(p.epoch_stats().pinned_epochs, 0);
    }

    #[test]
    fn view_keeps_freed_pages_readable() {
        let mut p = MemPager::new(64);
        let a = p.allocate().unwrap();
        p.write(a, &[7u8; 64]).unwrap();
        let view = p.publish_view().unwrap();
        p.free(a);
        let mut buf = vec![0u8; 64];
        view.read(a, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&x| x == 7),
            "freed page must stay readable through the pinned view"
        );
    }

    #[test]
    fn concurrent_view_reads_during_writes() {
        let mut p = MemPager::new(64);
        let a = p.allocate().unwrap();
        p.write(a, &[1u8; 64]).unwrap();
        let view = p.publish_view().unwrap();
        std::thread::scope(|s| {
            let view = &view;
            for _ in 0..4 {
                s.spawn(move || {
                    let mut buf = vec![0u8; 64];
                    for _ in 0..50 {
                        view.read(a, &mut buf).unwrap();
                        assert_eq!(buf[0], 1);
                    }
                });
            }
            for round in 2..50u8 {
                p.write(a, &[round; 64]).unwrap();
            }
        });
    }
}
