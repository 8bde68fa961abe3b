//! File-backed pager with shadow paging and torn-page detection.
//!
//! Same page contract as [`MemPager`](crate::MemPager) but persisted to a
//! real file — and, unlike the in-memory pager, built to survive crashes
//! and detect media corruption:
//!
//! * **Every page is sealed.** A physical page on disk is the logical page
//!   plus an 8-byte [`codec`](crate::codec) trailer `[epoch][crc32]`. A
//!   torn write, a bit flip, or a stale page replayed from an older epoch
//!   fails verification and reads as
//!   [`std::io::ErrorKind::InvalidData`] — never as silently wrong data.
//!   The trailer is out of band (physical pages are `page_size + 8` bytes),
//!   so logical page size, node fan-out, and the experiments' I/O counts
//!   are unchanged by checksumming.
//! * **Writes are copy-on-write.** A logical→physical map indirects every
//!   page. Writing a page whose current image belongs to the committed
//!   epoch allocates a *fresh* physical page; the committed image is only
//!   recycled after the next commit is durable. A crash at any moment —
//!   even between the catalog commit and the data sync — therefore leaves
//!   the previous commit's pages byte-identical on disk: old and new trees
//!   can never mix.
//! * **Commits alternate between two fixed header slots.** The file starts
//!   with two 512-byte header slots at byte offsets 0 and 512; data pages
//!   follow from byte 1024. A commit serializes the page map and the user
//!   metadata blob into a chain of sealed pages, syncs, then overwrites the
//!   *older* header slot with the new epoch and syncs again. Opening picks
//!   the highest-epoch slot that fully verifies (header CRC, chain seals,
//!   blob CRC); if the newest commit is damaged, open falls back to the
//!   previous one and reports it in [`PagerRecovery`].
//!
//! Dropping the pager without [`close`](FilePager::close) persists nothing
//! beyond the last commit — deliberately: an unclean drop is
//! indistinguishable from a crash, and both roll back to the last durable
//! epoch.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use crate::codec::{
    check_page, crc32, get_u32, put_u32, seal_page, RecordReader, RecordWriter, PAGE_TRAILER,
};
use crate::epoch::{EpochHub, EpochStats, PinGuard, SnapshotReader};
use crate::pager::{AtomicStats, PageId, PageReader, Pager};
use crate::stats::IoStats;

const MAGIC: u32 = 0x4344_4233; // "CDB3"

/// Fixed size of each header slot; slot 0 at byte 0, slot 1 at byte 512.
const HEADER_SLOT: usize = 512;
/// Byte offset where physical data pages begin.
const HEADER_AREA: u64 = 2 * HEADER_SLOT as u64;
/// Bytes of the header slot covered by its CRC.
const HEADER_LEN: usize = 24;

/// Map sentinel: the logical page is allocated but was never written, so it
/// has no physical image and reads as zeros.
const PHYS_NONE: u32 = u32::MAX;

fn invalid_data(msg: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

fn read_only_err() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::PermissionDenied,
        "pager opened read-only",
    )
}

/// What [`FilePager::open`] had to do to reach a consistent state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PagerRecovery {
    /// The newest commit verified end to end.
    Clean,
    /// The newest commit's header or chain was damaged; the pager fell back
    /// to the previous durable commit. Everything after `recovered_epoch`
    /// is lost (it was either never fully durable or has since rotted).
    FellBack {
        /// Epoch the database actually opened at.
        recovered_epoch: u32,
        /// Epoch of the damaged commit that could not be used.
        lost_epoch: u32,
    },
}

crate::wire_enum!(PagerRecovery { 0 => Clean, 1 => FellBack { recovered_epoch, lost_epoch } });

/// A committed map entry: where the logical page lives and which epoch
/// sealed its current image.
#[derive(Clone, Copy, Debug)]
struct Entry {
    phys: u32,
    epoch: u32,
    /// Publish generation the image was written under (not persisted; 0
    /// after open). An image from an older generation may be mapped by a
    /// published view, so overwriting it in place is forbidden — the
    /// in-place fast path requires `seq` to match the pager's current
    /// generation on top of the durable `epoch` check.
    seq: u64,
}

/// One parsed header slot.
#[derive(Clone, Copy, Debug)]
struct Slot {
    page_size: usize,
    epoch: u32,
    chain_first: u32,
    chain_len: u32,
    blob_crc: u32,
}

/// Everything a verified commit describes.
struct Loaded {
    map: BTreeMap<PageId, Entry>,
    logical_high: u32,
    user_meta: Option<Vec<u8>>,
    chain: Vec<u32>,
    /// Freed physical pages the committing process still had in reader
    /// quarantine: valid images of superseded epochs, referenced by no
    /// live page, excluded from the free pool until swept.
    quarantine: Vec<u32>,
}

/// A pager persisting pages to a file, with shadow-paged commits and
/// per-page integrity seals.
///
/// The `Debug` form is a summary (sizes and epochs), not a page dump.
pub struct FilePager {
    /// Shared with published epoch views, which read pages positionally
    /// through their own frozen maps.
    file: Arc<File>,
    page_size: usize,
    /// Last durably committed epoch; in-flight writes are sealed at
    /// `epoch + 1`.
    epoch: u32,
    /// Header slot (0/1) holding the committed epoch.
    slot: usize,
    map: BTreeMap<PageId, Entry>,
    logical_high: u32,
    free_logical: Vec<PageId>,
    phys_high: u32,
    /// Physical pages referenced by no commit: reusable immediately.
    free_phys: Vec<u32>,
    /// Physical pages holding the *committed* images of pages since
    /// rewritten or freed. They become reusable only once the next commit
    /// is durable — until then a crash rolls back to content that still
    /// lives in them. Once that commit lands they move to the reader
    /// quarantine (see [`EpochHub`]) and return to `free_phys` after every
    /// older pinned view drains.
    deferred_phys: Vec<u32>,
    /// Chain pages backing each header slot's commit; protected from
    /// reallocation while the slot may still be a fallback target.
    chains: [Vec<u32>; 2],
    user_meta: Option<Vec<u8>>,
    recovery: PagerRecovery,
    read_only: bool,
    /// Epoch bookkeeping shared with published views: pins, quarantine,
    /// reclaimable pool.
    hub: EpochHub,
    /// Current publish generation (mirror of the hub's counter, owned by
    /// the writer so the hot write path avoids the hub lock).
    seq: u64,
    stats: AtomicStats,
}

impl std::fmt::Debug for FilePager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilePager")
            .field("page_size", &self.page_size)
            .field("epoch", &self.epoch)
            .field("pages", &self.map.len())
            .field("read_only", &self.read_only)
            .finish_non_exhaustive()
    }
}

impl FilePager {
    /// Creates a new paged file, truncating any existing content, and
    /// durably commits an empty epoch so the file opens cleanly from the
    /// first byte on.
    ///
    /// # Panics
    /// Panics if `page_size < 64`.
    pub fn create(path: &Path, page_size: usize) -> std::io::Result<Self> {
        assert!(page_size >= 64, "page size too small");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut p = FilePager {
            file: Arc::new(file),
            page_size,
            epoch: 0,
            slot: 0,
            map: BTreeMap::new(),
            logical_high: 1,
            free_logical: Vec::new(),
            phys_high: 1,
            free_phys: Vec::new(),
            deferred_phys: Vec::new(),
            chains: [Vec::new(), Vec::new()],
            user_meta: None,
            recovery: PagerRecovery::Clean,
            read_only: false,
            hub: EpochHub::new(),
            seq: 0,
            stats: AtomicStats::default(),
        };
        p.commit_state()?;
        Ok(p)
    }

    /// Opens an existing paged file created by [`create`](Self::create).
    ///
    /// The newest fully verifiable commit wins; a damaged newest commit
    /// falls back to the previous one (see [`recovery`](Self::recovery)).
    /// A file with no verifiable commit at all surfaces as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn open(path: &Path) -> std::io::Result<Self> {
        Self::open_impl(path, false)
    }

    /// Opens the file for reading only: every mutating operation fails with
    /// [`std::io::ErrorKind::PermissionDenied`] instead of touching disk.
    pub fn open_read_only(path: &Path) -> std::io::Result<Self> {
        Self::open_impl(path, true)
    }

    fn open_impl(path: &Path, read_only: bool) -> std::io::Result<Self> {
        let mut file = OpenOptions::new().read(true).write(!read_only).open(path)?;
        let mut head = vec![0u8; 2 * HEADER_SLOT];
        let got = {
            // Short files still may hold one valid slot; read what exists.
            let mut filled = 0;
            loop {
                match file.read(&mut head[filled..]) {
                    Ok(0) => break,
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            filled
        };
        let file_len = file.metadata()?.len();
        // Classify each slot: parsed, never used (all zeros — normal for a
        // young database), or damaged (nonzero bytes that do not verify —
        // evidence of a torn or rotted commit).
        let mut slots: [Option<Slot>; 2] = [None, None];
        let mut damaged = [false, false];
        for i in 0..2 {
            let lo = i * HEADER_SLOT;
            let hi = (lo + HEADER_SLOT).min(got);
            let bytes = if lo < got { &head[lo..hi] } else { &[][..] };
            if bytes.len() >= HEADER_LEN + 4 {
                slots[i] = Self::parse_slot(bytes);
            }
            if slots[i].is_none() && bytes.iter().any(|&b| b != 0) {
                damaged[i] = true;
            }
        }
        // Try candidates from the highest epoch down.
        let mut order: Vec<usize> = (0..2).filter(|&i| slots[i].is_some()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(slots[i].map(|s| s.epoch).unwrap_or(0)));
        if order.is_empty() {
            return Err(invalid_data("no valid database header"));
        }
        let mut chosen: Option<(usize, Loaded)> = None;
        for &i in &order {
            let slot = slots[i].expect("candidate parsed");
            if let Ok(state) = Self::load_commit(&file, file_len, &slot) {
                chosen = Some((i, state));
                break;
            }
        }
        let Some((idx, state)) = chosen else {
            return Err(invalid_data("no verifiable commit in either header"));
        };
        let slot = slots[idx].expect("chosen slot parsed");
        let newest = slots[order[0]].expect("ordered slot parsed").epoch;
        let recovery = if slot.epoch < newest {
            // The newest header parsed but its chain did not verify.
            PagerRecovery::FellBack {
                recovered_epoch: slot.epoch,
                lost_epoch: newest,
            }
        } else if damaged[1 - idx] {
            // The other header holds garbage: a commit was torn mid-header
            // (or the slot rotted). Its epoch is unknowable.
            PagerRecovery::FellBack {
                recovered_epoch: slot.epoch,
                lost_epoch: 0,
            }
        } else {
            PagerRecovery::Clean
        };

        // Protect the other slot's chain too if it verifies — it is the
        // fallback commit. A broken other-chain belongs to an interrupted
        // or superseded commit and its pages are junk, hence reusable.
        let other = 1 - idx;
        let other_chain = slots[other]
            .filter(|s| s.epoch < slot.epoch && s.page_size == slot.page_size)
            .and_then(|s| Self::load_commit(&file, file_len, &s).ok())
            .map(|st| st.chain)
            .unwrap_or_default();

        let page_size = slot.page_size;
        let phys_size = (page_size + PAGE_TRAILER) as u64;
        let phys_high = 1 + ((file_len.saturating_sub(HEADER_AREA)) / phys_size) as u32;
        let mut used: BTreeSet<u32> = state.map.values().map(|e| e.phys).collect();
        used.remove(&PHYS_NONE);
        used.extend(state.chain.iter().copied());
        used.extend(other_chain.iter().copied());
        // Quarantined pages re-enter circulation through the hub's sweep,
        // not the free pool — double-listing them would hand one physical
        // page out twice.
        used.extend(state.quarantine.iter().copied());
        let mut free_phys: Vec<u32> = (1..phys_high).filter(|p| !used.contains(p)).collect();
        free_phys.sort_unstable_by_key(|&p| std::cmp::Reverse(p)); // pop() yields lowest
        let in_map: BTreeSet<PageId> = state.map.keys().copied().collect();
        let mut free_logical: Vec<PageId> = (1..state.logical_high)
            .filter(|l| !in_map.contains(l))
            .collect();
        free_logical.sort_unstable_by_key(|&l| std::cmp::Reverse(l));

        let mut chains = [Vec::new(), Vec::new()];
        chains[idx] = state.chain;
        chains[other] = other_chain;

        // No reader from the committing process survives a reopen, so the
        // persisted quarantine is immediately sweepable — it stays visible
        // as backlog until the writer's next sweep point.
        let hub = EpochHub::new();
        hub.load_quarantine(state.quarantine);

        Ok(FilePager {
            file: Arc::new(file),
            page_size,
            epoch: slot.epoch,
            slot: idx,
            map: state.map,
            logical_high: state.logical_high,
            free_logical,
            phys_high,
            free_phys,
            deferred_phys: Vec::new(),
            chains,
            user_meta: state.user_meta,
            recovery,
            read_only,
            hub,
            seq: 0,
            stats: AtomicStats::default(),
        })
    }

    fn parse_slot(buf: &[u8]) -> Option<Slot> {
        if get_u32(buf, 0) != MAGIC {
            return None;
        }
        if crc32(&buf[..HEADER_LEN]) != get_u32(buf, HEADER_LEN) {
            return None;
        }
        let page_size = get_u32(buf, 4) as usize;
        if !(64..=1 << 24).contains(&page_size) {
            return None;
        }
        let epoch = get_u32(buf, 8);
        if epoch == 0 {
            return None;
        }
        Some(Slot {
            page_size,
            epoch,
            chain_first: get_u32(buf, 12),
            chain_len: get_u32(buf, 16),
            blob_crc: get_u32(buf, 20),
        })
    }

    /// Walks and fully verifies one commit: every chain page's seal, the
    /// blob checksum, and every structural invariant of the page map.
    fn load_commit(file: &File, file_len: u64, slot: &Slot) -> std::io::Result<Loaded> {
        let phys_size = slot.page_size + PAGE_TRAILER;
        let per = phys_size - 4 - PAGE_TRAILER;
        let n = (slot.chain_len as usize).div_ceil(per);
        let mut chain = Vec::with_capacity(n);
        let mut blob = Vec::with_capacity(slot.chain_len as usize);
        let mut cur = slot.chain_first;
        let mut page = vec![0u8; phys_size];
        for _ in 0..n {
            let off = Self::phys_offset(slot.page_size, cur);
            if cur == 0 || off + phys_size as u64 > file_len || chain.contains(&cur) {
                return Err(invalid_data("metadata chain out of bounds"));
            }
            file.read_exact_at(&mut page, off)?;
            let sealed = check_page(&page).map_err(|_| invalid_data("metadata chain seal"))?;
            if sealed != slot.epoch {
                return Err(invalid_data("metadata chain from a different epoch"));
            }
            chain.push(cur);
            let take = per.min(slot.chain_len as usize - blob.len());
            blob.extend_from_slice(&page[4..4 + take]);
            cur = get_u32(&page, 0);
        }
        if cur != 0 || blob.len() != slot.chain_len as usize || crc32(&blob) != slot.blob_crc {
            return Err(invalid_data("metadata blob checksum mismatch"));
        }

        let mut r = RecordReader::new(&blob);
        let fail = |_| invalid_data("metadata blob truncated");
        let logical_high = r.get_u32().map_err(fail)?;
        let user_meta = if r.get_u8().map_err(fail)? != 0 {
            Some(r.get_bytes().map_err(fail)?.to_vec())
        } else {
            None
        };
        let count = r.get_u32().map_err(fail)?;
        let phys_high = 1 + ((file_len.saturating_sub(HEADER_AREA)) / phys_size as u64) as u32;
        let mut map = BTreeMap::new();
        let mut phys_seen = BTreeSet::new();
        let mut last_logical = 0u32;
        for _ in 0..count {
            let logical = r.get_u32().map_err(fail)?;
            let phys = r.get_u32().map_err(fail)?;
            let epoch = r.get_u32().map_err(fail)?;
            if logical == 0 || logical >= logical_high || logical <= last_logical {
                return Err(invalid_data("page map entry out of order"));
            }
            last_logical = logical;
            if phys != PHYS_NONE {
                if phys == 0 || phys >= phys_high || chain.contains(&phys) {
                    return Err(invalid_data("page map physical id out of range"));
                }
                if !phys_seen.insert(phys) {
                    return Err(invalid_data("page map physical id duplicated"));
                }
                if epoch == 0 || epoch > slot.epoch {
                    return Err(invalid_data("page map epoch out of range"));
                }
            }
            map.insert(
                logical,
                Entry {
                    phys,
                    epoch,
                    seq: 0,
                },
            );
        }
        // Quarantine section (absent in blobs from before the epoch-view
        // format): freed pages the committing process still held for
        // pinned readers. They must reference no live page.
        let quarantine = if r.remaining() != 0 {
            let count = r.get_u32().map_err(fail)?;
            let mut q = Vec::with_capacity(count as usize);
            let mut seen = BTreeSet::new();
            for _ in 0..count {
                let p = r.get_u32().map_err(fail)?;
                if p == 0 || p == PHYS_NONE || p >= phys_high {
                    return Err(invalid_data("quarantined page out of range"));
                }
                if phys_seen.contains(&p) || chain.contains(&p) {
                    return Err(invalid_data("quarantined page is live"));
                }
                if !seen.insert(p) {
                    return Err(invalid_data("quarantined page duplicated"));
                }
                q.push(p);
            }
            q
        } else {
            Vec::new()
        };
        if r.remaining() != 0 {
            return Err(invalid_data("metadata blob has trailing bytes"));
        }
        Ok(Loaded {
            map,
            logical_high,
            user_meta,
            chain,
            quarantine,
        })
    }

    /// How [`open`](Self::open) reached the current state.
    pub fn recovery(&self) -> PagerRecovery {
        self.recovery
    }

    /// Whether the pager rejects mutations.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Physical size of an on-disk page image (logical size + seal trailer).
    pub fn disk_page_len(&self) -> usize {
        self.page_size + PAGE_TRAILER
    }

    /// Byte offset in the file of the physical image currently backing
    /// logical page `id`, or `None` if the page was never written (it reads
    /// as zeros and has no on-disk image). Exposed so corruption-injection
    /// tests and `fsck` can aim at exact on-disk bytes.
    pub fn page_disk_offset(&self, id: PageId) -> Option<u64> {
        let e = self.map.get(&id)?;
        (e.phys != PHYS_NONE).then(|| Self::phys_offset(self.page_size, e.phys))
    }

    /// Byte offsets of the chain pages holding the current commit's
    /// metadata, in blob order. For corruption-injection tests.
    pub fn meta_chain_offsets(&self) -> Vec<u64> {
        self.chains[self.slot]
            .iter()
            .map(|&p| Self::phys_offset(self.page_size, p))
            .collect()
    }

    /// Logical page ids currently allocated, in ascending order.
    pub fn allocated_pages(&self) -> Vec<PageId> {
        self.map.keys().copied().collect()
    }

    /// Physical pages currently in reader quarantine: freed or superseded
    /// images kept readable for pinned views. `fsck` cross-checks that none
    /// of them backs a live logical page (the load path enforces the same
    /// invariant for the persisted list).
    pub fn quarantined_phys(&self) -> Vec<u32> {
        self.hub.quarantined()
    }

    /// Whether physical page `phys` currently backs a live logical page or
    /// a commit-metadata chain page.
    pub fn phys_is_live(&self, phys: u32) -> bool {
        self.map.values().any(|e| e.phys == phys) || self.chains.iter().any(|c| c.contains(&phys))
    }

    fn phys_offset(page_size: usize, phys: u32) -> u64 {
        debug_assert!(phys != 0 && phys != PHYS_NONE);
        HEADER_AREA + (phys as u64 - 1) * (page_size + PAGE_TRAILER) as u64
    }

    /// Allocation without a quarantine sweep: used while a commit is being
    /// serialized, when the quarantine list captured in the blob must not
    /// change underneath it.
    fn alloc_phys_raw(&mut self) -> u32 {
        self.free_phys.pop().unwrap_or_else(|| {
            let p = self.phys_high;
            self.phys_high += 1;
            p
        })
    }

    fn alloc_phys(&mut self) -> u32 {
        if self.free_phys.is_empty() {
            // Writer-side GC: pages whose pinned readers have drained
            // rejoin the pool before the file grows.
            self.free_phys.extend(self.hub.sweep());
        }
        self.alloc_phys_raw()
    }

    /// Seals `data` at `epoch` and writes the physical image.
    fn write_phys(&self, phys: u32, data: &[u8], epoch: u32) -> std::io::Result<()> {
        let mut page = vec![0u8; self.disk_page_len()];
        page[..data.len()].copy_from_slice(data);
        seal_page(&mut page, epoch);
        self.file
            .write_all_at(&page, Self::phys_offset(self.page_size, phys))
    }

    /// Serializes the page map + user metadata and durably commits it as a
    /// new epoch via the alternating-header protocol.
    fn commit_state(&mut self) -> std::io::Result<()> {
        if self.read_only {
            return Err(read_only_err());
        }
        // Sweep before serializing: the quarantine list captured below
        // must stay exactly as written until the header flips (chain
        // allocation goes through the non-sweeping path for the same
        // reason).
        let swept = self.hub.sweep();
        self.free_phys.extend(swept);
        let new_epoch = self.epoch + 1;
        let target = if self.epoch == 0 { 0 } else { 1 - self.slot };
        // The target slot's old chain is two commits stale once we succeed,
        // and worthless if we crash (the slot is being overwritten either
        // way) — recycle it for the new chain.
        let stale = std::mem::take(&mut self.chains[target]);
        self.free_phys.extend(stale);

        let mut w = RecordWriter::new();
        w.put_u32(self.logical_high);
        match &self.user_meta {
            Some(m) => {
                w.put_u8(1);
                w.put_bytes(m);
            }
            None => w.put_u8(0),
        }
        w.put_u32(self.map.len() as u32);
        for (&logical, e) in &self.map {
            w.put_u32(logical);
            w.put_u32(e.phys);
            w.put_u32(e.epoch);
        }
        // Persist the reader quarantine across the flip: the still-pinned
        // backlog plus the committed images this commit supersedes (which
        // join the quarantine the moment the flip lands). A reopen must
        // not treat them as free until its own sweep reclaims them.
        let mut quarantined = self.hub.quarantined();
        quarantined.extend(self.deferred_phys.iter().copied());
        w.put_u32(quarantined.len() as u32);
        for p in &quarantined {
            w.put_u32(*p);
        }
        let blob = w.into_bytes();

        let per = self.page_size - 4;
        let n = blob.len().div_ceil(per);
        let pages: Vec<u32> = (0..n).map(|_| self.alloc_phys_raw()).collect();
        let phys_size = self.disk_page_len();
        let result = (|| {
            for (i, chunk) in blob.chunks(per).enumerate() {
                let mut page = vec![0u8; phys_size - PAGE_TRAILER];
                put_u32(&mut page, 0, pages.get(i + 1).copied().unwrap_or(0));
                page[4..4 + chunk.len()].copy_from_slice(chunk);
                self.write_phys(pages[i], &page, new_epoch)?;
            }
            // Data pages and the new chain must be durable before any
            // header can name them.
            self.file.sync_all()?;
            let mut slot_buf = vec![0u8; HEADER_SLOT];
            put_u32(&mut slot_buf, 0, MAGIC);
            put_u32(&mut slot_buf, 4, self.page_size as u32);
            put_u32(&mut slot_buf, 8, new_epoch);
            put_u32(&mut slot_buf, 12, pages.first().copied().unwrap_or(0));
            put_u32(&mut slot_buf, 16, blob.len() as u32);
            put_u32(&mut slot_buf, 20, crc32(&blob));
            let hcrc = crc32(&slot_buf[..HEADER_LEN]);
            put_u32(&mut slot_buf, HEADER_LEN, hcrc);
            self.file
                .write_all_at(&slot_buf, (target * HEADER_SLOT) as u64)?;
            self.file.sync_all()
        })();
        match result {
            Ok(()) => {
                self.epoch = new_epoch;
                self.slot = target;
                self.chains[target] = pages;
                // Superseded images from the previous epoch are no longer
                // a rollback target — but a pinned reader may still map
                // them, so they pass through the quarantine instead of
                // returning to the free pool directly.
                let deferred = std::mem::take(&mut self.deferred_phys);
                self.hub.quarantine(deferred);
                Ok(())
            }
            Err(e) => {
                // The failed commit's chain pages reference nothing durable.
                self.free_phys.extend(pages);
                Err(e)
            }
        }
    }

    /// Flushes everything and closes the file, reporting any I/O error that
    /// a silent `Drop` would have swallowed. (Dropping without closing is
    /// equivalent to a crash: the file reverts to the last commit.)
    pub fn close(mut self) -> std::io::Result<()> {
        if !self.read_only {
            self.commit_state()?;
        }
        Ok(())
    }
}

/// The page read behind the pager and its epoch views alike: the image
/// `e` maps for logical page `id`, out of `file` into `buf`, verified
/// against the epoch `e` was sealed at and counted in `stats`. A page never
/// written reads as zeros. A failed check names the page and tells bit rot
/// (the checksum fails) from a stale image (intact, sealed at another epoch).
fn read_image(
    file: &File,
    page_size: usize,
    id: PageId,
    e: Entry,
    stats: &AtomicStats,
    buf: &mut [u8],
) -> std::io::Result<()> {
    // An invariant (caller bug), not an I/O error: structures own their
    // page ids and never present a foreign id or a mis-sized buffer.
    assert_eq!(buf.len(), page_size);
    if e.phys == PHYS_NONE {
        buf.fill(0);
        stats.bump_read();
        return Ok(());
    }
    let mut page = vec![0u8; page_size + PAGE_TRAILER];
    // Positioned read: no shared cursor, so concurrent query threads
    // can read through `&self` without racing on the file offset.
    file.read_exact_at(&mut page, FilePager::phys_offset(page_size, e.phys))?;
    let sealed = get_u32(&page, page_size);
    let problem = match check_page(&page) {
        Ok(_) if sealed == e.epoch => {
            buf.copy_from_slice(&page[..page_size]);
            stats.bump_read();
            return Ok(());
        }
        Ok(_) => "stale image sealed at",
        Err(_) => "checksum mismatch, trailer says",
    };
    Err(invalid_data(format!(
        "page {id} (physical {}): {problem} epoch {sealed}, mapped at epoch {}",
        e.phys, e.epoch
    )))
}

impl PageReader for FilePager {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> std::io::Result<()> {
        let e = self
            .map
            .get(&id)
            .unwrap_or_else(|| panic!("read of unallocated page {id}"));
        read_image(&self.file, self.page_size, id, *e, &self.stats, buf)
    }

    fn live_pages(&self) -> usize {
        self.map.len()
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }
}

impl Pager for FilePager {
    fn allocate(&mut self) -> std::io::Result<PageId> {
        if self.read_only {
            return Err(read_only_err());
        }
        self.stats.bump_allocation();
        let id = self.free_logical.pop().unwrap_or_else(|| {
            let id = self.logical_high;
            self.logical_high += 1;
            id
        });
        // No physical page yet: the image materializes on first write, and
        // until then the page reads as zeros.
        self.map.insert(
            id,
            Entry {
                phys: PHYS_NONE,
                epoch: self.epoch + 1,
                seq: self.seq,
            },
        );
        Ok(id)
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> std::io::Result<()> {
        if self.read_only {
            return Err(read_only_err());
        }
        // Invariants, not I/O errors: see `read`.
        assert_eq!(data.len(), self.page_size);
        let working = self.epoch + 1;
        let e = *self
            .map
            .get(&id)
            .unwrap_or_else(|| panic!("write of unallocated page {id}"));
        let phys = if e.phys != PHYS_NONE && e.epoch == working && e.seq == self.seq {
            // Already shadowed this epoch *and* this publish generation —
            // no commit and no published view maps the image: write in
            // place.
            e.phys
        } else {
            // Copy-on-write: the committed image must stay intact until the
            // next commit is durable — and a published view's image until
            // its readers drain — so the new bytes land elsewhere.
            let p = self.alloc_phys();
            if e.phys != PHYS_NONE {
                if e.epoch == working {
                    // Uncommitted (no rollback cares about it) but written
                    // before the last publish: a live view may map it.
                    self.hub.quarantine(vec![e.phys]);
                } else {
                    self.deferred_phys.push(e.phys);
                }
            }
            p
        };
        self.write_phys(phys, data, working)?;
        self.map.insert(
            id,
            Entry {
                phys,
                epoch: working,
                seq: self.seq,
            },
        );
        self.stats.bump_write();
        Ok(())
    }

    fn free(&mut self, id: PageId) {
        assert!(!self.read_only, "free on a read-only pager");
        let e = self
            .map
            .remove(&id)
            .unwrap_or_else(|| panic!("free of unallocated page {id}"));
        if e.phys != PHYS_NONE {
            if e.epoch > self.epoch {
                if e.seq == self.seq {
                    // Never committed, never published: nothing can roll
                    // back to it and no view maps it.
                    self.free_phys.push(e.phys);
                } else {
                    // Uncommitted but captured by a published view.
                    self.hub.quarantine(vec![e.phys]);
                }
            } else {
                self.deferred_phys.push(e.phys);
            }
        }
        self.free_logical.push(id);
        self.stats.bump_free();
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.commit_state()
    }

    fn commit_meta(&mut self, meta: &[u8]) -> std::io::Result<()> {
        if self.read_only {
            return Err(read_only_err());
        }
        let previous = self.user_meta.replace(meta.to_vec());
        match self.commit_state() {
            Ok(()) => Ok(()),
            Err(e) => {
                // The commit never became durable; keep advertising the
                // blob that is actually on disk.
                self.user_meta = previous;
                Err(e)
            }
        }
    }

    fn read_meta(&self) -> std::io::Result<Option<Vec<u8>>> {
        Ok(self.user_meta.clone())
    }

    fn publish_view(&mut self) -> std::io::Result<Box<dyn SnapshotReader>> {
        // Reclaim whatever drained before pinning the new generation.
        let swept = self.hub.sweep();
        self.free_phys.extend(swept);
        self.seq = self.hub.publish();
        Ok(Box::new(FileEpochView {
            file: Arc::clone(&self.file),
            page_size: self.page_size,
            map: self.map.clone(),
            hub: self.hub.clone(),
            _pin: self.hub.pin(),
            stats: AtomicStats::default(),
        }))
    }

    fn epoch_stats(&self) -> EpochStats {
        self.hub.stats()
    }

    fn quarantine_clean(&self) -> Option<bool> {
        Some(
            self.quarantined_phys()
                .iter()
                .all(|&p| !self.phys_is_live(p)),
        )
    }
}

/// A frozen read view of one published generation of a [`FilePager`].
///
/// Holds the page table as it stood at the publish point and reads page
/// images positionally through a shared file handle — no lock anywhere on
/// the read path, so any number of threads can query one view (or many
/// views of different generations) while the writer keeps mutating. The
/// pin it holds keeps every physical page the table references out of the
/// free pool until the view is dropped.
struct FileEpochView {
    file: Arc<File>,
    page_size: usize,
    map: BTreeMap<PageId, Entry>,
    hub: EpochHub,
    _pin: PinGuard,
    stats: AtomicStats,
}

impl PageReader for FileEpochView {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> std::io::Result<()> {
        let e = self
            .map
            .get(&id)
            .unwrap_or_else(|| panic!("read of page {id} not in this epoch view"));
        read_image(&self.file, self.page_size, id, *e, &self.stats, buf)
    }

    fn live_pages(&self) -> usize {
        self.map.len()
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }
}

impl SnapshotReader for FileEpochView {
    fn epoch_stats(&self) -> EpochStats {
        self.hub.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cdb_filepager_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn round_trip() {
        let path = tmp("rt");
        let mut p = FilePager::create(&path, 128).unwrap();
        let a = p.allocate().unwrap();
        let mut data = vec![0u8; 128];
        data[3] = 99;
        p.write(a, &data).unwrap();
        let mut buf = vec![0u8; 128];
        p.read(a, &mut buf).unwrap();
        assert_eq!(buf, data);
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn persistence_across_reopen() {
        let path = tmp("persist");
        let (a, b);
        {
            let mut p = FilePager::create(&path, 128).unwrap();
            a = p.allocate().unwrap();
            b = p.allocate().unwrap();
            p.write(a, &[7u8; 128]).unwrap();
            p.free(b);
            p.sync().unwrap();
        }
        {
            let mut p = FilePager::open(&path).unwrap();
            assert_eq!(p.page_size(), 128);
            assert_eq!(p.recovery(), PagerRecovery::Clean);
            assert_eq!(p.live_pages(), 1);
            let mut buf = vec![0u8; 128];
            p.read(a, &mut buf).unwrap();
            assert!(buf.iter().all(|&x| x == 7));
            // The freed logical id is reused.
            let c = p.allocate().unwrap();
            assert_eq!(c, b);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn uncommitted_writes_vanish_on_reopen() {
        let path = tmp("crashdrop");
        let a;
        {
            let mut p = FilePager::create(&path, 128).unwrap();
            a = p.allocate().unwrap();
            p.write(a, &[1u8; 128]).unwrap();
            p.sync().unwrap();
            // Not synced: must not survive the (simulated) crash below.
            p.write(a, &[2u8; 128]).unwrap();
            drop(p); // no close — crash semantics
        }
        let p = FilePager::open(&path).unwrap();
        let mut buf = vec![0u8; 128];
        p.read(a, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&x| x == 1),
            "un-synced write must roll back to the committed image"
        );
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, vec![1u8; 2048]).unwrap();
        let err = FilePager::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_newest_header_falls_back_to_previous_commit() {
        let path = tmp("torn_fallback");
        let a;
        {
            let mut p = FilePager::create(&path, 128).unwrap();
            a = p.allocate().unwrap();
            p.write(a, &[1u8; 128]).unwrap();
            p.commit_meta(b"old").unwrap(); // epoch 2, slot 1
            p.write(a, &[2u8; 128]).unwrap();
            p.commit_meta(b"new").unwrap(); // epoch 3, slot 0
            drop(p); // everything committed; drop leaves the file untouched
        }
        // Tear the newest header slot (slot 0 holds the odd epoch 3).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let p = FilePager::open(&path).unwrap();
        assert_eq!(
            p.recovery(),
            PagerRecovery::FellBack {
                recovered_epoch: 2,
                lost_epoch: 0, // the torn slot no longer parses at all
            },
            "recovery must report the fallback"
        );
        assert_eq!(p.read_meta().unwrap().as_deref(), Some(&b"old"[..]));
        let mut buf = vec![0u8; 128];
        p.read(a, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&x| x == 1),
            "fallback must see the epoch-2 image, not the newer bytes"
        );
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn both_headers_torn_is_invalid_data() {
        let path = tmp("torn_both");
        {
            let p = FilePager::create(&path, 128).unwrap();
            drop(p);
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[1] ^= 0xFF;
        if bytes.len() > HEADER_SLOT {
            bytes[HEADER_SLOT + 1] ^= 0xFF;
        }
        std::fs::write(&path, &bytes).unwrap();
        let err = FilePager::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recycled_page_is_zeroed() {
        let path = tmp("zero");
        let mut p = FilePager::create(&path, 128).unwrap();
        let a = p.allocate().unwrap();
        p.write(a, &[5u8; 128]).unwrap();
        p.free(a);
        let b = p.allocate().unwrap();
        assert_eq!(a, b);
        let mut buf = vec![9u8; 128];
        p.read(b, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn close_reports_success_and_reopens() {
        let path = tmp("close");
        let mut p = FilePager::create(&path, 128).unwrap();
        let a = p.allocate().unwrap();
        p.write(a, &[1u8; 128]).unwrap();
        p.close().unwrap();
        let p = FilePager::open(&path).unwrap();
        let mut buf = vec![0u8; 128];
        p.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 1));
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_data_page_reads_as_invalid_data() {
        let path = tmp("rot");
        let a;
        {
            let mut p = FilePager::create(&path, 128).unwrap();
            a = p.allocate().unwrap();
            p.write(a, &[6u8; 128]).unwrap();
            p.close().unwrap();
        }
        let (off, disk_len) = {
            let p = FilePager::open(&path).unwrap();
            (p.page_disk_offset(a).unwrap(), p.disk_page_len())
        };
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[off as usize + 17] ^= 0x20; // flip a body bit
        std::fs::write(&path, &bytes).unwrap();
        let p = FilePager::open(&path).unwrap();
        let mut buf = vec![0u8; 128];
        let err = p.read(a, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(disk_len, 128 + PAGE_TRAILER);
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_failures_name_the_page_and_tell_rot_from_stale() {
        let path = tmp("named");
        let a;
        let old_image;
        {
            let mut p = FilePager::create(&path, 128).unwrap();
            a = p.allocate().unwrap();
            p.write(a, &[6u8; 128]).unwrap();
            p.sync().unwrap();
            let off = p.page_disk_offset(a).unwrap() as usize;
            old_image = std::fs::read(&path).unwrap()[off..off + p.disk_page_len()].to_vec();
            p.write(a, &[7u8; 128]).unwrap();
            p.close().unwrap();
        }
        let (off, e) = {
            let p = FilePager::open(&path).unwrap();
            (p.page_disk_offset(a).unwrap() as usize, p.map[&a])
        };
        let old_epoch = get_u32(&old_image, 128);
        assert!(old_epoch < e.epoch);
        let read_err = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let p = FilePager::open(&path).unwrap();
            let err = p.read(a, &mut [0u8; 128]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            err.to_string()
        };
        let intact = std::fs::read(&path).unwrap();

        let mut rotted = intact.clone();
        rotted[off + 17] ^= 0x20;
        assert_eq!(
            read_err(&rotted),
            format!(
                "page {a} (physical {}): checksum mismatch, trailer says epoch {}, \
                 mapped at epoch {}",
                e.phys, e.epoch, e.epoch
            )
        );

        let mut stale = intact;
        stale[off..off + old_image.len()].copy_from_slice(&old_image);
        assert_eq!(
            read_err(&stale),
            format!(
                "page {a} (physical {}): stale image sealed at epoch {old_epoch}, \
                 mapped at epoch {}",
                e.phys, e.epoch
            )
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn many_freed_pages_survive_reopen_without_double_allocation() {
        let path = tmp("manyfree");
        let total = 400usize;
        let ids: Vec<PageId>;
        {
            let mut p = FilePager::create(&path, 64).unwrap();
            ids = (0..total).map(|_| p.allocate().unwrap()).collect();
            let keep = ids[0];
            p.write(keep, &[42u8; 64]).unwrap();
            for &id in &ids[1..] {
                p.free(id);
            }
            p.sync().unwrap();
        }
        {
            let mut p = FilePager::open(&path).unwrap();
            let mut buf = vec![0u8; 64];
            p.read(ids[0], &mut buf).unwrap();
            assert!(buf.iter().all(|&x| x == 42));
            let reused: std::collections::BTreeSet<PageId> =
                (0..total - 1).map(|_| p.allocate().unwrap()).collect();
            assert_eq!(reused.len(), total - 1, "no page handed out twice");
            assert!(
                reused.iter().all(|id| ids[1..].contains(id)),
                "every freed logical id must be recycled before growing"
            );
            p.close().unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn repeated_sync_is_space_stable() {
        let path = tmp("sync_stable");
        let mut p = FilePager::create(&path, 64).unwrap();
        let ids: Vec<PageId> = (0..100).map(|_| p.allocate().unwrap()).collect();
        for &id in &ids {
            p.write(id, &[3u8; 64]).unwrap();
        }
        for _ in 0..5 {
            p.sync().unwrap();
        }
        let len_before = std::fs::metadata(&path).unwrap().len();
        for _ in 0..5 {
            p.sync().unwrap();
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            len_before,
            "alternating commits must recycle chain pages, not grow the file"
        );
        p.close().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn meta_round_trips_across_reopen() {
        let path = tmp("meta");
        let blob: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
        {
            let mut p = FilePager::create(&path, 128).unwrap();
            assert_eq!(p.read_meta().unwrap(), None);
            p.commit_meta(b"first").unwrap();
            assert_eq!(p.read_meta().unwrap().as_deref(), Some(&b"first"[..]));
            p.commit_meta(&blob).unwrap();
            p.close().unwrap();
        }
        let p = FilePager::open(&path).unwrap();
        assert_eq!(p.read_meta().unwrap().as_deref(), Some(&blob[..]));
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sole_commit_with_corrupt_chain_is_invalid_data() {
        let path = tmp("meta_corrupt");
        let blob = vec![0xABu8; 500];
        let offsets;
        {
            let mut p = FilePager::create(&path, 128).unwrap();
            p.commit_meta(&blob).unwrap();
            offsets = p.meta_chain_offsets();
            drop(p); // keeps the exact committed bytes
        }
        // Flip a payload byte mid-chain. The epoch-1 create commit's slot
        // was overwritten by... no: create used slot 0 (epoch 1), the blob
        // commit used slot 1 (epoch 2). Corrupting epoch 2's chain makes
        // open fall back to epoch 1 — whose meta is empty. To exercise the
        // no-fallback path, corrupt the epoch-1 slot header as well.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offsets[1] as usize + 60] ^= 0x01;
        bytes[1] ^= 0xFF; // slot 0 header (epoch 1) no longer parses
        std::fs::write(&path, &bytes).unwrap();
        let err = FilePager::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_newest_chain_falls_back_to_previous_meta() {
        let path = tmp("meta_fallback");
        let offsets;
        {
            let mut p = FilePager::create(&path, 128).unwrap();
            p.commit_meta(b"genesis").unwrap();
            p.commit_meta(b"doomed").unwrap();
            offsets = p.meta_chain_offsets();
            drop(p);
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offsets[0] as usize + 40] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let p = FilePager::open(&path).unwrap();
        assert!(matches!(p.recovery(), PagerRecovery::FellBack { .. }));
        assert_eq!(p.read_meta().unwrap().as_deref(), Some(&b"genesis"[..]));
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_append_leaves_prior_meta_readable() {
        let path = tmp("meta_torn");
        {
            let mut p = FilePager::create(&path, 128).unwrap();
            p.commit_meta(b"committed state").unwrap();
            p.close().unwrap();
        }
        // Simulate a crash mid-commit: garbage lands past the committed
        // region, but no header was flipped.
        {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.extend_from_slice(&[0x5Au8; 300]);
            std::fs::write(&path, &bytes).unwrap();
        }
        let p = FilePager::open(&path).unwrap();
        assert_eq!(
            p.read_meta().unwrap().as_deref(),
            Some(&b"committed state"[..]),
            "the prior commit must survive a torn append"
        );
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn alternating_commits_do_not_leak_space() {
        let path = tmp("meta_alt");
        let mut p = FilePager::create(&path, 128).unwrap();
        let data = p.allocate().unwrap();
        p.write(data, &[9u8; 128]).unwrap();
        for round in 0u8..6 {
            p.commit_meta(&vec![round; 300]).unwrap();
            assert_eq!(p.read_meta().unwrap().as_deref(), Some(&[round; 300][..]));
        }
        let len_before = std::fs::metadata(&path).unwrap().len();
        for round in 6u8..12 {
            p.commit_meta(&vec![round; 300]).unwrap();
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            len_before,
            "stale meta chains must be recycled, not leaked"
        );
        p.close().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cow_protects_committed_images_until_next_commit() {
        let path = tmp("cow");
        let a;
        {
            let mut p = FilePager::create(&path, 128).unwrap();
            a = p.allocate().unwrap();
            p.write(a, &[1u8; 128]).unwrap();
            p.sync().unwrap();
            let committed_off = p.page_disk_offset(a).unwrap();
            // Overwrite after the commit: must land on a different physical
            // page, leaving the committed image untouched.
            p.write(a, &[2u8; 128]).unwrap();
            assert_ne!(
                p.page_disk_offset(a).unwrap(),
                committed_off,
                "post-commit write must be copy-on-write"
            );
            // A second write within the same epoch may go in place.
            let shadow_off = p.page_disk_offset(a).unwrap();
            p.write(a, &[3u8; 128]).unwrap();
            assert_eq!(p.page_disk_offset(a).unwrap(), shadow_off);
            drop(p); // crash
        }
        let p = FilePager::open(&path).unwrap();
        let mut buf = vec![0u8; 128];
        p.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 1), "committed image intact");
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn published_view_is_isolated_from_later_writes() {
        let path = tmp("view_iso");
        let mut p = FilePager::create(&path, 128).unwrap();
        let a = p.allocate().unwrap();
        p.write(a, &[1u8; 128]).unwrap();
        let view = p.publish_view().unwrap();
        // Mutate past the publish point: in-place is now forbidden, so the
        // view's image survives on its original physical page.
        p.write(a, &[2u8; 128]).unwrap();
        p.sync().unwrap();
        p.write(a, &[3u8; 128]).unwrap();
        let mut buf = vec![0u8; 128];
        view.read(a, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&x| x == 1),
            "view must see the publish-time image"
        );
        p.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 3), "writer sees its latest write");
        drop(view);
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn freed_page_stays_readable_through_view_until_drop() {
        let path = tmp("view_gc");
        let mut p = FilePager::create(&path, 128).unwrap();
        let a = p.allocate().unwrap();
        p.write(a, &[7u8; 128]).unwrap();
        p.sync().unwrap();
        let view = p.publish_view().unwrap();
        p.free(a);
        p.sync().unwrap(); // deferred → quarantine
        assert!(p.epoch_stats().quarantined_pages >= 1);
        // Churn allocations to force the pool empty and tempt a sweep: the
        // pinned view must keep its page out of reuse.
        for _ in 0..20 {
            let id = p.allocate().unwrap();
            p.write(id, &[0xEE; 128]).unwrap();
        }
        let mut buf = vec![0u8; 128];
        view.read(a, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&x| x == 7),
            "quarantined image must stay intact while the view is pinned"
        );
        drop(view);
        // With the pin gone the next sweep reclaims the backlog.
        let _ = p.publish_view().unwrap();
        assert_eq!(p.epoch_stats().quarantined_pages, 0);
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn quarantine_persists_across_reopen_and_is_reclaimed() {
        let path = tmp("view_persist");
        let a;
        {
            let mut p = FilePager::create(&path, 128).unwrap();
            a = p.allocate().unwrap();
            p.write(a, &[5u8; 128]).unwrap();
            p.sync().unwrap();
            let view = p.publish_view().unwrap();
            p.write(a, &[6u8; 128]).unwrap();
            p.sync().unwrap(); // old image lands in quarantine, view pinned
            assert!(p.epoch_stats().quarantined_pages >= 1);
            p.sync().unwrap(); // persists the still-pinned quarantine list
            drop(view);
            drop(p); // crash: quarantine list is on disk
        }
        {
            let mut p = FilePager::open(&path).unwrap();
            assert_eq!(p.recovery(), PagerRecovery::Clean);
            let backlog = p.epoch_stats().quarantined_pages;
            assert!(backlog >= 1, "persisted quarantine must be visible");
            let mut buf = vec![0u8; 128];
            p.read(a, &mut buf).unwrap();
            assert!(buf.iter().all(|&x| x == 6));
            // No reader survived the reopen: the backlog is sweepable, and
            // reclaimed pages must be handed out again without corruption.
            let before = std::fs::metadata(&path).unwrap().len();
            let id = p.allocate().unwrap();
            p.write(id, &[8u8; 128]).unwrap();
            p.sync().unwrap();
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                before,
                "reclaimed quarantine pages should be reused, not grow the file"
            );
            assert_eq!(p.epoch_stats().quarantined_pages, 0);
            p.close().unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_view_reads_during_writer_churn() {
        let path = tmp("view_threads");
        let mut p = FilePager::create(&path, 128).unwrap();
        let ids: Vec<PageId> = (0..16).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, &[i as u8; 128]).unwrap();
        }
        p.sync().unwrap();
        let view = p.publish_view().unwrap();
        let view = &*view;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut buf = vec![0u8; 128];
                    for _ in 0..50 {
                        for (i, &id) in ids.iter().enumerate() {
                            view.read(id, &mut buf).unwrap();
                            assert!(buf.iter().all(|&x| x == i as u8));
                        }
                    }
                });
            }
            // Writer churns the same pages while the readers run.
            for round in 0..30u8 {
                for &id in &ids {
                    p.write(id, &[100 + round; 128]).unwrap();
                }
                if round % 10 == 0 {
                    p.sync().unwrap();
                }
            }
        });
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_only_open_serves_reads_and_rejects_writes() {
        let path = tmp("ro");
        let a;
        {
            let mut p = FilePager::create(&path, 128).unwrap();
            a = p.allocate().unwrap();
            p.write(a, &[4u8; 128]).unwrap();
            p.close().unwrap();
        }
        let mut p = FilePager::open_read_only(&path).unwrap();
        assert!(p.is_read_only());
        let mut buf = vec![0u8; 128];
        p.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 4));
        let err = p.write(a, &[5u8; 128]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
        let err = p.allocate().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
        let err = p.commit_meta(b"nope").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
        p.close().unwrap();
        // Nothing was written: the file still opens with the old content.
        let p = FilePager::open(&path).unwrap();
        p.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 4));
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }
}
