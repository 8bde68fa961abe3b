//! A slotted-page heap file for variable-length records.
//!
//! Tuple payloads (the serialized constraint conjunctions) live here; the
//! refinement step of the approximate query techniques fetches candidate
//! tuples through this file, so those page accesses are part of the measured
//! query cost.
//!
//! Page layout:
//!
//! ```text
//! [u16 slot_count][u16 free_off] [slot0: u16 off, u16 len] [slot1] ...
//!                                              ... data grows downward ...
//! ```
//!
//! Deleted slots keep their directory entry with `len = 0xFFFF` (tombstone)
//! so record ids remain stable.
//!
//! Every operation that touches a page is fallible: over a durable pager a
//! read can fail with an I/O error or a checksum mismatch, and the heap
//! propagates it instead of panicking — a foreign page id still panics,
//! because it is a caller bug rather than a storage condition. A record id
//! naming a slot past its page's directory reads as a tombstone, and a
//! slot whose extent does not lie inside its page as a record of no bytes
//! (which no record decodes from), so what the caller makes of them is a
//! typed error, not an abort. The foreign-page check is paid once per page
//! loaded (a binary search of the sorted page set), never per record.

use crate::codec::{get_u16, put_u16};
use crate::pager::{PageId, PageReader, Pager};

const HDR: usize = 4;
const SLOT: usize = 4;
const TOMBSTONE: u16 = u16::MAX;

/// Stable identifier of a record: `(page, slot)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

crate::wire_struct!(RecordId { page, slot });

/// A heap file over a pager. Pages are owned exclusively by the heap.
#[derive(Clone, Debug)]
pub struct HeapFile {
    pages: Vec<PageId>,
    /// `pages`, ascending: the membership test behind the foreign-page
    /// check.
    sorted: Vec<PageId>,
    page_size: usize,
}

impl HeapFile {
    /// Creates an empty heap file allocating from `pager`.
    pub fn new(pager: &mut dyn Pager) -> Self {
        let _ = pager; // first page allocated lazily
        HeapFile {
            pages: Vec::new(),
            sorted: Vec::new(),
            page_size: pager.page_size(),
        }
    }

    /// Re-attaches a heap from its persisted page list (the pages must
    /// already be allocated in the pager and hold valid slotted content).
    pub fn from_pages(page_size: usize, pages: Vec<PageId>) -> Self {
        let mut sorted = pages.clone();
        sorted.sort_unstable();
        HeapFile {
            pages,
            sorted,
            page_size,
        }
    }

    /// The page ids owned by the heap, in insertion order. This list is what
    /// the catalog persists so a reopened database can re-attach the heap
    /// without rescanning.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Largest record storable on a page of this heap.
    pub fn max_record_len(&self) -> usize {
        self.page_size - HDR - SLOT
    }

    /// Number of pages owned by the heap (the space metric).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Inserts a record and returns its id.
    ///
    /// # Panics
    /// Panics if `data.len() > max_record_len()` or `data` is empty.
    pub fn insert(&mut self, pager: &mut dyn Pager, data: &[u8]) -> std::io::Result<RecordId> {
        assert!(!data.is_empty(), "empty records are not supported");
        assert!(
            data.len() <= self.max_record_len(),
            "record of {} bytes exceeds page capacity {}",
            data.len(),
            self.max_record_len()
        );
        let mut buf = vec![0u8; self.page_size];
        // Try the last page first (append-mostly workloads).
        if let Some(&last) = self.pages.last() {
            pager.read(last, &mut buf)?;
            if let Some(slot) = try_insert(&mut buf, data, self.page_size) {
                pager.write(last, &buf)?;
                return Ok(RecordId { page: last, slot });
            }
        }
        // Fresh page.
        let id = pager.allocate()?;
        buf.fill(0);
        put_u16(&mut buf, 2, self.page_size as u16); // free_off = page end
        let slot = try_insert(&mut buf, data, self.page_size).expect("fits in a fresh page");
        pager.write(id, &buf)?;
        self.pages.push(id);
        let at = self.sorted.partition_point(|&p| p < id);
        self.sorted.insert(at, id);
        Ok(RecordId { page: id, slot })
    }

    /// Whether `page` is one of the heap's pages.
    pub fn owns(&self, page: PageId) -> bool {
        self.sorted.binary_search(&page).is_ok()
    }

    /// Loads a heap page into `buf`.
    ///
    /// # Panics
    /// Panics if `page` is not one of the heap's pages.
    fn load(&self, pager: &dyn PageReader, page: PageId, buf: &mut [u8]) -> std::io::Result<()> {
        assert!(self.owns(page), "foreign page in RecordId");
        pager.read(page, buf)
    }

    /// Shows many records to `visit` with one page access per *distinct
    /// page*: the batched fetch used by query refinement. Records are
    /// visited in `(page, slot)` order as `(position in ids, bytes)`, the
    /// bytes lent straight out of the page buffer — no per-record copy;
    /// tombstoned slots, and slots past the page's directory, are shown as
    /// `None`, a slot whose extent overruns the page as no bytes. The first
    /// error `visit` returns ends the walk.
    pub fn visit_many<E: From<std::io::Error>>(
        &self,
        pager: &dyn PageReader,
        ids: &[RecordId],
        mut visit: impl FnMut(usize, Option<&[u8]>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut order: Vec<usize> = (0..ids.len()).collect();
        order.sort_unstable_by_key(|&i| ids[i]);
        let mut buf = vec![0u8; self.page_size];
        let mut loaded: Option<PageId> = None;
        for i in order {
            let id = ids[i];
            if loaded != Some(id.page) {
                self.load(pager, id.page, &mut buf)?;
                loaded = Some(id.page);
            }
            visit(i, record(&buf, id.slot))?;
        }
        Ok(())
    }

    /// [`visit_many`](Self::visit_many) collecting owned copies. Results
    /// align with `ids`; tombstoned slots yield `None`.
    pub fn get_many(
        &self,
        pager: &dyn PageReader,
        ids: &[RecordId],
    ) -> std::io::Result<Vec<Option<Vec<u8>>>> {
        let mut out: Vec<Option<Vec<u8>>> = vec![None; ids.len()];
        self.visit_many(pager, ids, |i, bytes| {
            out[i] = bytes.map(<[u8]>::to_vec);
            Ok::<(), std::io::Error>(())
        })?;
        Ok(out)
    }

    /// Tombstones a record. Returns `true` if it was live.
    pub fn delete(&mut self, pager: &mut dyn Pager, id: RecordId) -> std::io::Result<bool> {
        let mut buf = vec![0u8; self.page_size];
        self.load(&*pager, id.page, &mut buf)?;
        if record(&buf, id.slot).is_none() {
            return Ok(false);
        }
        put_u16(&mut buf, HDR + id.slot as usize * SLOT + 2, TOMBSTONE);
        pager.write(id.page, &buf)?;
        Ok(true)
    }

    /// Frees every heap page back to the pager.
    pub fn destroy(self, pager: &mut dyn Pager) {
        for page in self.pages {
            pager.free(page);
        }
    }
}

/// The live record in `slot` of the page image: `None` for a tombstone or
/// a slot the page's directory does not have, no bytes for an extent that
/// does not lie inside the page.
fn record(page: &[u8], slot: u16) -> Option<&[u8]> {
    if slot >= get_u16(page, 0) {
        return None;
    }
    let off = get_u16(page, HDR + slot as usize * SLOT) as usize;
    let len = get_u16(page, HDR + slot as usize * SLOT + 2);
    (len != TOMBSTONE).then(|| page.get(off..off + len as usize).unwrap_or_default())
}

/// Tries to append `data` to the page image; returns the new slot on success.
fn try_insert(buf: &mut [u8], data: &[u8], page_size: usize) -> Option<u16> {
    let n = get_u16(buf, 0) as usize;
    let free_off = {
        let f = get_u16(buf, 2) as usize;
        if f == 0 {
            page_size
        } else {
            f
        }
    };
    let dir_end = HDR + (n + 1) * SLOT;
    if dir_end + data.len() > free_off {
        return None; // no room for slot + data
    }
    let new_off = free_off - data.len();
    buf[new_off..free_off].copy_from_slice(data);
    put_u16(buf, HDR + n * SLOT, new_off as u16);
    put_u16(buf, HDR + n * SLOT + 2, data.len() as u16);
    put_u16(buf, 0, (n + 1) as u16);
    put_u16(buf, 2, new_off as u16);
    Some(n as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    /// One record through the batched read.
    fn get(heap: &HeapFile, pager: &dyn PageReader, id: RecordId) -> Option<Vec<u8>> {
        let mut got = heap.get_many(pager, &[id]).unwrap();
        got.pop().expect("one result per id")
    }

    #[test]
    fn insert_and_get() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let a = heap.insert(&mut pager, b"hello").unwrap();
        let b = heap.insert(&mut pager, b"world!").unwrap();
        assert_eq!(get(&heap, &pager, a).unwrap(), b"hello");
        assert_eq!(get(&heap, &pager, b).unwrap(), b"world!");
        assert_eq!(heap.page_count(), 1);
    }

    #[test]
    fn spills_to_new_pages() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let payload = vec![7u8; 40];
        let ids: Vec<_> = (0..10)
            .map(|_| heap.insert(&mut pager, &payload).unwrap())
            .collect();
        assert!(heap.page_count() > 1, "should overflow a 128-byte page");
        for id in ids {
            assert_eq!(get(&heap, &pager, id).unwrap(), payload);
        }
    }

    #[test]
    fn delete_tombstones() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let a = heap.insert(&mut pager, b"abc").unwrap();
        let b = heap.insert(&mut pager, b"def").unwrap();
        assert!(heap.delete(&mut pager, a).unwrap());
        assert!(
            !heap.delete(&mut pager, a).unwrap(),
            "second delete is a no-op"
        );
        assert!(get(&heap, &pager, a).is_none());
        assert_eq!(get(&heap, &pager, b).unwrap(), b"def");
    }

    #[test]
    fn max_record_roundtrips() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let big = vec![1u8; heap.max_record_len()];
        let id = heap.insert(&mut pager, &big).unwrap();
        assert_eq!(get(&heap, &pager, id).unwrap(), big);
    }

    #[test]
    #[should_panic]
    fn oversized_record_panics() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let _ = heap.insert(&mut pager, &vec![0u8; 1000]);
    }

    #[test]
    fn destroy_frees_pages() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        for i in 0..20u8 {
            heap.insert(&mut pager, &[i; 30]).unwrap();
        }
        let pages = heap.page_count();
        assert!(pages > 0);
        heap.destroy(&mut pager);
        assert_eq!(pager.live_pages(), 0);
    }

    #[test]
    fn get_many_batches_page_reads() {
        let mut pager = MemPager::new(256);
        let mut heap = HeapFile::new(&mut pager);
        let ids: Vec<_> = (0..30u8)
            .map(|i| heap.insert(&mut pager, &[i; 10]).unwrap())
            .collect();
        heap.delete(&mut pager, ids[7]).unwrap();
        pager.reset_stats();
        // Fetch everything in a scrambled order.
        let mut order: Vec<RecordId> = ids.clone();
        order.reverse();
        let got = heap.get_many(&pager, &order).unwrap();
        assert_eq!(got.len(), 30);
        assert_eq!(got[29], Some(vec![0u8; 10]), "alignment with input order");
        assert_eq!(got[30 - 1 - 7], None, "tombstone yields None");
        assert_eq!(
            pager.stats().reads as usize,
            heap.page_count(),
            "one read per distinct page"
        );
    }

    #[test]
    fn visit_many_lends_page_bytes_in_page_order() {
        let mut pager = MemPager::new(256);
        let mut heap = HeapFile::new(&mut pager);
        let ids: Vec<_> = (0..30u8)
            .map(|i| heap.insert(&mut pager, &[i; 10]).unwrap())
            .collect();
        heap.delete(&mut pager, ids[7]).unwrap();
        let mut asked: Vec<RecordId> = ids.clone();
        asked.reverse();
        asked.push(ids[3]); // the same record twice is two visits
        pager.reset_stats();
        let mut seen: Vec<(usize, Option<Vec<u8>>)> = Vec::new();
        heap.visit_many(&pager, &asked, |i, bytes| {
            seen.push((i, bytes.map(<[u8]>::to_vec)));
            Ok::<(), std::io::Error>(())
        })
        .unwrap();
        assert_eq!(
            pager.stats().reads as usize,
            heap.page_count(),
            "one read per distinct page"
        );
        // (page, slot) order, every position exactly once.
        let visited: Vec<RecordId> = seen.iter().map(|(i, _)| asked[*i]).collect();
        assert!(visited.windows(2).all(|w| w[0] <= w[1]), "{visited:?}");
        let mut positions: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
        positions.sort_unstable();
        assert_eq!(positions, (0..asked.len()).collect::<Vec<_>>());
        // Same bytes as the copying wrapper, tombstone included.
        let copied = heap.get_many(&pager, &asked).unwrap();
        for (i, bytes) in &seen {
            assert_eq!(&copied[*i], bytes, "position {i}");
        }
        assert_eq!(copied[30 - 1 - 7], None);
        // The visitor's first error ends the walk and is returned as is.
        let mut calls = 0;
        let err = heap
            .visit_many(&pager, &asked, |_, _| {
                calls += 1;
                if calls == 3 {
                    Err(std::io::Error::other("stop"))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert_eq!((calls, err.to_string().as_str()), (3, "stop"));
    }

    /// A record id past its page's slot directory reads as no record, and
    /// a slot whose extent overruns the page as no bytes: damage the
    /// caller reports, never an abort.
    #[test]
    fn damaged_slots_read_as_no_record_or_no_bytes() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let kept = heap.insert(&mut pager, b"kept").unwrap();
        let victim = heap.insert(&mut pager, b"victim").unwrap();
        let past = RecordId {
            page: victim.page,
            slot: 999,
        };
        assert_eq!(get(&heap, &pager, past), None);
        assert!(!heap.delete(&mut pager, past).unwrap());
        let mut page = vec![0u8; 128];
        pager.read(victim.page, &mut page).unwrap();
        put_u16(&mut page, HDR + victim.slot as usize * SLOT + 2, 0x0FFF);
        pager.write(victim.page, &page).unwrap();
        assert_eq!(get(&heap, &pager, victim), Some(Vec::new()));
        assert_eq!(get(&heap, &pager, kept).unwrap(), b"kept");
    }

    #[test]
    fn foreign_pages_are_rejected_by_every_reader() {
        let mut pager = MemPager::new(128);
        let mut other = HeapFile::new(&mut pager);
        let foreign = other.insert(&mut pager, b"not yours").unwrap();
        let mut heap = HeapFile::new(&mut pager);
        let own: Vec<RecordId> = (0..12u8)
            .map(|i| heap.insert(&mut pager, &[i; 30]).unwrap())
            .collect();
        // A heap re-attached from an unsorted page list knows its pages too.
        let mut shuffled = heap.pages().to_vec();
        shuffled.reverse();
        let reattached = HeapFile::from_pages(128, shuffled);
        assert_eq!(
            reattached.get_many(&pager, &own).unwrap(),
            heap.get_many(&pager, &own).unwrap()
        );
        assert!(own
            .iter()
            .all(|id| heap.owns(id.page) && reattached.owns(id.page)));
        assert!(!heap.owns(foreign.page) && !reattached.owns(foreign.page));
        let panics = |f: &mut dyn FnMut()| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
        };
        assert!(panics(&mut || drop(get(&heap, &pager, foreign))));
        assert!(panics(&mut || drop(get(&reattached, &pager, foreign))));
        assert!(panics(&mut || drop(
            heap.get_many(&pager, &[own[0], foreign])
        )));
        assert!(panics(&mut || drop(
            heap.clone().delete(&mut pager, foreign)
        )));
        assert_eq!(get(&other, &pager, foreign).unwrap(), b"not yours");
    }

    #[test]
    fn reads_cost_io() {
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let id = heap.insert(&mut pager, b"x").unwrap();
        pager.reset_stats();
        get(&heap, &pager, id).unwrap();
        assert_eq!(pager.stats().reads, 1, "each fetch is one page read");
    }
}
