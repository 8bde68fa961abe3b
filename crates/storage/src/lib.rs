//! Paged secondary-storage substrate with I/O accounting.
//!
//! The 1999 paper evaluates index structures on a Pentium 133 by timing
//! queries against structures with 1024-byte pages and 4-byte stored values.
//! This crate reproduces that substrate in simulation: structures allocate
//! fixed-size pages through a [`Pager`] and every page access is counted in
//! [`IoStats`] — at late-90s disk speeds elapsed time is proportional to page
//! I/O, so the access counts are the experiment metric.
//!
//! * [`MemPager`] — in-memory page store (the default for experiments);
//! * [`file::FilePager`] — the same interface persisted to a real file with
//!   shadow-paged (copy-on-write) commits, per-page CRC-32 seals and
//!   dual-slot headers so a torn write can never produce a silently mixed
//!   on-disk state;
//! * [`fault::FaultPager`] — a decorator that injects planned I/O errors,
//!   torn writes and crash points, for deterministic recovery testing;
//! * [`heap::HeapFile`] — a slotted-page heap for variable-length records
//!   (tuple payloads fetched by the refinement step);
//! * [`wal::Wal`] — an append-only, crc-framed write-ahead log with
//!   group-commit batching and torn-tail-tolerant replay, closing the
//!   durability gap between shadow-paged checkpoints;
//! * [`codec`] — little-endian page field helpers shared by the tree crates,
//!   the fallible record codec and the one CRC-32 kernel behind every page
//!   seal, WAL record, catalog blob and wire frame, the
//!   [`Wire`] trait through which every type declares its byte layout once
//!   (checked by the one harness in [`conformance`]), and the
//!   [`seal_page`]/[`check_page`] page-trailer pair behind torn-page
//!   detection.
//!
//! The pager interface is split into a read half ([`PageReader`], `&self`)
//! and a write half ([`Pager`], `&mut self`), so a built structure can serve
//! concurrent queries as a shared snapshot; [`tracked::TrackedReader`] gives
//! each query its own exact access counts on top of the shared reader.
//! Every operation that can touch a device is fallible (`io::Result`);
//! panics are reserved for caller bugs, as documented per method.

pub mod codec;
pub mod conformance;
pub mod epoch;
pub mod fault;
pub mod file;
pub mod heap;
pub mod pager;
pub mod stats;
pub mod tracked;
pub mod wal;

pub use codec::{
    check_page, crc32, read_frame, seal_page, write_frame, CodecError, FrameError, RecordReader,
    RecordWriter, Wire, DEFAULT_MAX_FRAME, PAGE_TRAILER,
};
pub use epoch::{EpochStats, SnapshotReader};
pub use fault::{FaultOp, FaultPager, FaultPlan, TraceEntry};
pub use file::{FilePager, PagerRecovery};
pub use heap::{HeapFile, RecordId};
pub use pager::{MemPager, PageId, PageReader, Pager, DEFAULT_PAGE_SIZE};
pub use stats::IoStats;
pub use tracked::TrackedReader;
pub use wal::{wal_path, Wal, WalFaultPlan, WalScan};

#[cfg(test)]
#[global_allocator]
static PEAK_ALLOC: conformance::PeakAlloc = conformance::PeakAlloc;
