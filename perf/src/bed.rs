//! Test beds: the engine loaded with generated relations, in memory or
//! file-backed, and the *trace bed* — the same relation assembled from the
//! layers' public constructors so the harness can time each layer from
//! outside.

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::time::Instant;

use cdb_core::index::TupleSource;
use cdb_core::{CdbError, ConstraintDb, DbConfig, DualIndex};
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_storage::{HeapFile, IoStats, MemPager, PageId, PageReader, RecordId};

use crate::inputs::slope_set;
use crate::Run;

/// The relation queries read.
pub const READ_REL: &str = "r";
/// The sibling relation writers mutate (same pager, log and writer lane).
pub const WRITE_REL: &str = "w";

/// Creates `name`, loads `tuples` (ids `0..len`) and builds its dual index.
pub fn load_indexed(
    db: &mut ConstraintDb,
    name: &str,
    tuples: &[GeneralizedTuple],
) -> Result<(), CdbError> {
    db.create_relation(name, 2)?;
    for t in tuples {
        db.insert(name, t.clone())?;
    }
    db.build_dual_index(name, slope_set())
}

/// In-memory engine holding `r` (read) and `w` (written), both indexed.
pub fn memory_bed(
    read: &[GeneralizedTuple],
    write: &[GeneralizedTuple],
) -> Result<ConstraintDb, CdbError> {
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    load_indexed(&mut db, READ_REL, read)?;
    load_indexed(&mut db, WRITE_REL, write)?;
    Ok(db)
}

/// File-backed engine at `path` holding the given indexed relations,
/// checkpointed. The write-ahead log is not armed yet.
pub fn file_bed(
    path: &Path,
    relations: &[(&str, &[GeneralizedTuple])],
) -> Result<ConstraintDb, CdbError> {
    let mut db = ConstraintDb::create(path, DbConfig::paper_1999())?;
    for (name, tuples) in relations {
        load_indexed(&mut db, name, tuples)?;
    }
    db.checkpoint()?;
    Ok(db)
}

/// Builds a bed `builds` times, dropping each before the next is built (a
/// file-backed bed holds its file open). Returns the last bed and the
/// median build time in seconds — the run's `setup_s`. One build would
/// do for the run; the repetitions are there because a later change is
/// rejected on `setup_s`, so it must not rest on one sample.
pub fn build_repeatedly<T>(
    builds: usize,
    mut build: impl FnMut(usize) -> Result<T, CdbError>,
) -> Run<(T, f64)> {
    let mut times = Vec::with_capacity(builds);
    let mut bed = None;
    for rep in 0..builds.max(1) {
        drop(bed.take());
        let t0 = Instant::now();
        bed = Some(build(rep)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((
        bed.expect("built at least once"),
        crate::stats::median(&times),
    ))
}

/// Bytes a relation occupies per tuple: the pages it owns (heap and
/// index) times the page size, over its live tuples.
pub fn relation_bytes_per_tuple(db: &ConstraintDb, name: &str) -> Result<f64, CdbError> {
    let rel = db.relation(name)?;
    Ok(rel.page_count() as f64 * DbConfig::paper_1999().page_size as f64 / rel.len() as f64)
}

/// A scratch directory under `perf/target/perf/`, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(workload: &str) -> std::io::Result<Scratch> {
        let dir = crate::out_dir().join(format!("scratch-{workload}-{}", std::process::id()));
        // A leftover of a killed run with a recycled pid.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Size of a file, 0 when it does not exist (a truncated log may be gone).
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Trace bed
// ---------------------------------------------------------------------------

/// Page reads seen by a [`CountingReader`], split into heap and index
/// pages, with the time spent in them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Reads {
    pub heap: u64,
    pub index: u64,
    pub ns: u64,
}

/// A read-only view of a pager that counts and times every page read.
/// Single-threaded, like the per-query `TrackedReader` it sits under.
pub struct CountingReader<'a> {
    inner: &'a MemPager,
    /// `is_heap[page]`; pages beyond the end are index pages.
    is_heap: &'a [bool],
    reads: Cell<Reads>,
}

impl CountingReader<'_> {
    pub fn reads(&self) -> Reads {
        self.reads.get()
    }
}

impl PageReader for CountingReader<'_> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> std::io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.read(id, buf);
        let mut reads = self.reads.get();
        reads.ns += t0.elapsed().as_nanos() as u64;
        if self.is_heap.get(id as usize).copied().unwrap_or(false) {
            reads.heap += 1;
        } else {
            reads.index += 1;
        }
        self.reads.set(reads);
        r
    }

    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
}

/// `MemPager → HeapFile → DualIndex::build`, laid out exactly as
/// `ConstraintDb` lays out a freshly loaded relation (heap first, then the
/// index), so page counts and answers must match the engine's.
pub struct TraceBed {
    pub pager: MemPager,
    pub index: DualIndex,
    heap: HeapFile,
    slots: Vec<RecordId>,
    is_heap: Vec<bool>,
}

impl TraceBed {
    pub fn build(tuples: &[GeneralizedTuple]) -> Result<TraceBed, CdbError> {
        let mut pager = MemPager::paper_1999();
        let mut heap = HeapFile::new(&mut pager);
        let mut slots = Vec::with_capacity(tuples.len());
        for t in tuples {
            slots.push(heap.insert(&mut pager, &t.encode())?);
        }
        let pairs: Vec<(u32, GeneralizedTuple)> = tuples
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u32, t.clone()))
            .collect();
        let index = DualIndex::build(&mut pager, slope_set(), &pairs)?;
        let mut is_heap = vec![false; heap.pages().iter().max().map_or(0, |&p| p as usize + 1)];
        for &p in heap.pages() {
            is_heap[p as usize] = true;
        }
        Ok(TraceBed {
            pager,
            index,
            heap,
            slots,
            is_heap,
        })
    }

    /// The bed's pager behind a fresh read counter.
    pub fn counting_reader(&self) -> CountingReader<'_> {
        CountingReader {
            inner: &self.pager,
            is_heap: &self.is_heap,
            reads: Cell::default(),
        }
    }

    /// A tuple source over this bed's heap. With `origin` (the clock
    /// origin of the run's tracer) it times itself and remembers what it
    /// fetched; without, it is the engine's heap source and nothing more.
    pub fn source(&self, origin: Option<Instant>) -> TimingSource<'_> {
        TimingSource {
            heap: &self.heap,
            slots: &self.slots,
            origin,
            calls: RefCell::default(),
            fetched: RefCell::default(),
        }
    }
}

/// One `fetch_batch` call as the source saw it.
#[derive(Clone, Copy, Debug)]
pub struct FetchCall {
    /// When the call began, in nanoseconds since the origin.
    pub start_ns: u64,
    /// Reading the records off their heap pages.
    pub fetch_ns: u64,
    /// Decoding the records into tuples, which follows directly.
    pub decode_ns: u64,
}

/// The engine's page-batched heap source, with the heap read and the
/// tuple decode timed separately. One per query (not `Sync`, like the
/// per-query `TrackedReader` it runs under).
pub struct TimingSource<'a> {
    heap: &'a HeapFile,
    slots: &'a [RecordId],
    origin: Option<Instant>,
    calls: RefCell<Vec<FetchCall>>,
    fetched: RefCell<Vec<u32>>,
}

impl TimingSource<'_> {
    /// The calls made and the ids fetched by the query it served.
    pub fn finish(self) -> (Vec<FetchCall>, Vec<u32>) {
        (self.calls.into_inner(), self.fetched.into_inner())
    }
}

impl TupleSource for TimingSource<'_> {
    fn fetch_batch(
        &self,
        pager: &dyn PageReader,
        ids: &[u32],
    ) -> Result<Vec<GeneralizedTuple>, CdbError> {
        let t0 = self.origin.map(|_| Instant::now());
        let rids: Vec<RecordId> = ids
            .iter()
            .map(|&id| {
                self.slots
                    .get(id as usize)
                    .copied()
                    .ok_or(CdbError::NoSuchTuple(id))
            })
            .collect::<Result<_, _>>()?;
        let records = self.heap.get_many(pager, &rids)?;
        let t1 = self.origin.map(|_| Instant::now());
        let tuples = records
            .into_iter()
            .zip(ids)
            .map(|(bytes, &id)| {
                let bytes = bytes.ok_or(CdbError::NoSuchTuple(id))?;
                GeneralizedTuple::decode(&bytes).ok_or(CdbError::CorruptRecord(id))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if let (Some(origin), Some(t0), Some(t1)) = (self.origin, t0, t1) {
            let t2 = Instant::now();
            self.calls.borrow_mut().push(FetchCall {
                start_ns: (t0 - origin).as_nanos() as u64,
                fetch_ns: (t1 - t0).as_nanos() as u64,
                decode_ns: (t2 - t1).as_nanos() as u64,
            });
            self.fetched.borrow_mut().extend_from_slice(ids);
        }
        Ok(tuples)
    }
}
