//! Append-only write-ahead log with group commit.
//!
//! The shadow-paged [`FilePager`](crate::FilePager) makes *checkpoints*
//! atomic, but between checkpoints an acknowledged mutation lives only in
//! memory. The [`Wal`] closes that gap: every mutation appends one typed
//! record (encoded by the engine — this layer sees opaque bytes) stamped
//! with a monotonically increasing **LSN**, and a single [`Wal::sync`]
//! makes the whole batch durable with one `fsync` — the group-commit
//! barrier a server issues once per drained write queue, after which every
//! reply in the batch may be acknowledged.
//!
//! # File format
//!
//! A sidecar file next to the database (`<db>.wal`), built entirely from
//! the [`codec`](crate::codec) frame layer — every frame is
//! `[len:u32][payload][crc32:u32]`:
//!
//! ```text
//! header frame:  magic "CDBW" u32 | version u16 | start_lsn u64
//! record frame:  lsn u64 | record bytes …        (repeated)
//! ```
//!
//! `start_lsn` is the LSN of the first record the file may contain; the
//! engine persists a *durable LSN* watermark in its catalog, so replay
//! filters out records an earlier checkpoint already covers — a crash
//! between a committed checkpoint and the log truncation is harmless.
//!
//! # Torn tails
//!
//! Appends are buffered in memory and reach the file only inside
//! [`Wal::sync`], so a crash mid-sync leaves a prefix of the batch on
//! disk — possibly ending in a half-written frame. [`Wal::read`] stops at
//! the first frame that fails its CRC (or breaks LSN monotonicity) and
//! reports `torn_tail`: everything before it was written by a completed
//! `write_all`, everything at or after it was never acknowledged, so
//! dropping it loses nothing the durability contract promised.
//!
//! # Fault injection
//!
//! Mirroring [`FaultPager`](crate::FaultPager), a [`WalFaultPlan`] crashes
//! the log at the k-th WAL operation (appends, syncs and truncations share
//! one 1-based counter): the op fails, un-synced buffered records vanish
//! (a crash on `sync` may first land a torn prefix), and every later op
//! fails — the volatile page cache losing power.

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::{
    read_frame, write_frame, FrameError, RecordReader, RecordWriter, DEFAULT_MAX_FRAME,
};

/// WAL magic: `"CDBW"`.
const MAGIC: u32 = 0x4344_4257;
/// Current WAL format version.
const VERSION: u16 = 1;

/// The sidecar log path for a database file: `<path>.wal`.
pub fn wal_path(db_path: &Path) -> PathBuf {
    let mut os = db_path.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

fn header_frame(start_lsn: u64) -> Vec<u8> {
    let mut w = RecordWriter::new();
    w.put_u32(MAGIC);
    w.put_u16(VERSION);
    w.put_u64(start_lsn);
    let mut buf = Vec::new();
    write_frame(&mut buf, &w.into_bytes()).expect("in-memory write cannot fail");
    buf
}

fn crashed() -> io::Error {
    io::Error::other("simulated crash: wal is down")
}

/// A deterministic WAL fault schedule; see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalFaultPlan {
    crash_at: Option<u64>,
    torn_bytes: Option<usize>,
}

impl WalFaultPlan {
    /// A plan that injects nothing.
    pub fn new() -> Self {
        WalFaultPlan::default()
    }

    /// Crashes the log at its `k`-th operation (1-based, counting every
    /// append, sync and truncate): the op fails, buffered records are
    /// dropped, and every later op fails.
    pub fn crash_at(mut self, k: u64) -> Self {
        self.crash_at = Some(k);
        self
    }

    /// When the crash lands on a `sync`, exactly `n` bytes of the buffered
    /// batch reach the file before power is lost (default: half of the
    /// buffer — usually mid-frame, exercising torn-tail recovery).
    pub fn torn_bytes(mut self, n: usize) -> Self {
        self.torn_bytes = Some(n);
        self
    }
}

/// What [`Wal::read`] found in a log file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalScan {
    /// The LSN the header promises for the first record.
    pub start_lsn: u64,
    /// `(lsn, record bytes)` in append order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// The scan stopped at a frame that failed its CRC, broke LSN
    /// monotonicity, or a header that never fully landed. Everything after
    /// the stop was never acknowledged.
    pub torn_tail: bool,
    /// File length in bytes.
    pub bytes: u64,
}

/// An open write-ahead log; see the module docs.
pub struct Wal {
    file: File,
    next_lsn: u64,
    /// Encoded frames appended since the last sync; reaches the file only
    /// inside [`Wal::sync`].
    pending: Vec<u8>,
    pending_records: u64,
    durable_records: u64,
    plan: WalFaultPlan,
    ops: u64,
    down: bool,
}

impl Wal {
    /// Creates (or truncates) the log at `path`, armed to assign
    /// `start_lsn` to its first record. The header is synced before this
    /// returns, so a later torn append can never be mistaken for a missing
    /// log.
    ///
    /// # Errors
    /// Any I/O failure creating, writing or syncing the file.
    pub fn create(path: &Path, start_lsn: u64) -> io::Result<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&header_frame(start_lsn))?;
        file.sync_all()?;
        Ok(Wal {
            file,
            next_lsn: start_lsn,
            pending: Vec::new(),
            pending_records: 0,
            durable_records: 0,
            plan: WalFaultPlan::default(),
            ops: 0,
            down: false,
        })
    }

    /// Installs a fault schedule (testing hook; the default plan injects
    /// nothing).
    pub fn set_fault_plan(&mut self, plan: WalFaultPlan) {
        self.plan = plan;
    }

    /// Numbers the op; `Ok(false)` means the planned crash fires now.
    fn gate(&mut self) -> io::Result<bool> {
        if self.down {
            return Err(crashed());
        }
        self.ops += 1;
        Ok(self.plan.crash_at != Some(self.ops))
    }

    /// Drops the un-synced buffer and downs the log. `next_lsn` keeps the
    /// dropped records' LSNs: their mutations were applied in memory, and a
    /// checkpoint's watermark, `next_lsn − 1`, must cover them.
    fn crash(&mut self) -> io::Error {
        self.pending.clear();
        self.pending_records = 0;
        self.down = true;
        crashed()
    }

    /// Buffers one record and assigns it the next LSN. The record is NOT
    /// durable until the next successful [`sync`](Self::sync).
    ///
    /// # Errors
    /// Fails only under an injected fault or after a crash; buffering
    /// itself cannot fail.
    pub fn append(&mut self, record: &[u8]) -> io::Result<u64> {
        if !self.gate()? {
            return Err(self.crash());
        }
        let lsn = self.next_lsn;
        let mut payload = Vec::with_capacity(8 + record.len());
        payload.extend_from_slice(&lsn.to_le_bytes());
        payload.extend_from_slice(record);
        write_frame(&mut self.pending, &payload).expect("in-memory write cannot fail");
        self.next_lsn += 1;
        self.pending_records += 1;
        Ok(lsn)
    }

    /// The group-commit barrier: writes every buffered record and issues
    /// one `fsync`. On success, every record appended before this call is
    /// durable and its mutation may be acknowledged.
    ///
    /// # Errors
    /// A real write/sync failure downs the log (the file position is no
    /// longer trustworthy); an injected crash may first land a torn prefix
    /// of the buffer, exactly like a dying disk.
    pub fn sync(&mut self) -> io::Result<()> {
        if !self.gate()? {
            let keep = self
                .plan
                .torn_bytes
                .unwrap_or(self.pending.len() / 2)
                .min(self.pending.len());
            let _ = self.file.write_all(&self.pending[..keep]);
            return Err(self.crash());
        }
        if self.pending.is_empty() {
            return Ok(());
        }
        if let Err(e) = self
            .file
            .write_all(&self.pending)
            .and_then(|()| self.file.sync_data())
        {
            self.down = true;
            return Err(e);
        }
        self.durable_records += self.pending_records;
        self.pending.clear();
        self.pending_records = 0;
        Ok(())
    }

    /// Restarts the log after a checkpoint: everything logged so far is
    /// covered by the committed catalog, so the file shrinks back to a
    /// header promising `start_lsn` for the next record.
    ///
    /// # Errors
    /// A failure leaves the old records in place — harmless, because the
    /// engine's durable-LSN watermark filters them out on replay — but
    /// downs the log, so later mutations fail instead of logging into a
    /// file in an unknown state.
    pub fn truncate(&mut self, start_lsn: u64) -> io::Result<()> {
        if !self.gate()? {
            return Err(self.crash());
        }
        let res = (|| {
            self.file.set_len(0)?;
            self.file.seek(SeekFrom::Start(0))?;
            self.file.write_all(&header_frame(start_lsn))?;
            self.file.sync_all()
        })();
        if let Err(e) = res {
            self.down = true;
            return Err(e);
        }
        self.next_lsn = start_lsn;
        self.pending.clear();
        self.pending_records = 0;
        self.durable_records = 0;
        Ok(())
    }

    /// The LSN the next append will be assigned.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Records appended but not yet synced.
    pub fn pending_records(&self) -> u64 {
        self.pending_records
    }

    /// Records made durable since the last truncation.
    pub fn durable_records(&self) -> u64 {
        self.durable_records
    }

    /// Whether a crash (planned or real) has downed the log.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Scans the log at `path` for replay: `Ok(None)` when no log exists,
    /// otherwise every intact record in order, stopping cleanly at a torn
    /// tail (see [`WalScan`]). A file whose header never fully landed scans
    /// as empty-and-torn — its creation was never acknowledged either.
    ///
    /// # Errors
    /// Only real I/O failures; corruption is a verdict, not an error.
    pub fn read(path: &Path) -> io::Result<Option<WalScan>> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let bytes = file.metadata()?.len();
        let torn_empty = |bytes| WalScan {
            start_lsn: 0,
            records: Vec::new(),
            torn_tail: true,
            bytes,
        };
        let mut r = BufReader::new(file);
        let header = match read_frame(&mut r, DEFAULT_MAX_FRAME) {
            Ok(p) => p,
            Err(FrameError::Closed) | Err(FrameError::Corrupt(_)) => {
                return Ok(Some(torn_empty(bytes)))
            }
            Err(FrameError::Io(e)) => return Err(e),
        };
        let mut h = RecordReader::new(&header);
        let start_lsn = match (h.get_u32(), h.get_u16(), h.get_u64()) {
            (Ok(MAGIC), Ok(VERSION), Ok(lsn)) => lsn,
            _ => return Ok(Some(torn_empty(bytes))),
        };
        let mut records = Vec::new();
        let mut torn_tail = false;
        loop {
            match read_frame(&mut r, DEFAULT_MAX_FRAME) {
                Ok(payload) => {
                    if payload.len() < 8 {
                        torn_tail = true;
                        break;
                    }
                    let lsn = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                    if lsn != start_lsn + records.len() as u64 {
                        torn_tail = true;
                        break;
                    }
                    records.push((lsn, payload[8..].to_vec()));
                }
                Err(FrameError::Closed) => break,
                Err(FrameError::Corrupt(_)) => {
                    torn_tail = true;
                    break;
                }
                Err(FrameError::Io(e)) => return Err(e),
            }
        }
        Ok(Some(WalScan {
            start_lsn,
            records,
            torn_tail,
            bytes,
        }))
    }

    /// The LSN of the last record a successful [`sync`](Self::sync) made
    /// durable, or the LSN before the first one when none — what a server
    /// may acknowledge.
    pub fn synced_lsn(&self) -> u64 {
        (self.next_lsn - self.pending_records).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cdb_wal_{name}_{}", std::process::id()))
    }

    #[test]
    fn appends_survive_a_sync_and_replay_in_order() {
        let path = tmp("roundtrip");
        let mut wal = Wal::create(&path, 5).unwrap();
        assert_eq!(wal.append(b"alpha").unwrap(), 5);
        assert_eq!(wal.append(b"beta").unwrap(), 6);
        assert_eq!(wal.pending_records(), 2);
        wal.sync().unwrap();
        assert_eq!(wal.pending_records(), 0);
        assert_eq!(wal.durable_records(), 2);
        wal.append(b"gamma").unwrap();
        wal.sync().unwrap();
        drop(wal);

        let scan = Wal::read(&path).unwrap().unwrap();
        assert_eq!(scan.start_lsn, 5);
        assert!(!scan.torn_tail);
        assert_eq!(
            scan.records,
            vec![
                (5, b"alpha".to_vec()),
                (6, b"beta".to_vec()),
                (7, b"gamma".to_vec())
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unsynced_appends_never_reach_the_file() {
        let path = tmp("unsynced");
        let mut wal = Wal::create(&path, 1).unwrap();
        wal.append(b"durable").unwrap();
        wal.sync().unwrap();
        wal.append(b"lost").unwrap();
        drop(wal); // no sync: the buffered record dies with the process

        let scan = Wal::read(&path).unwrap().unwrap();
        assert_eq!(scan.records, vec![(1, b"durable".to_vec())]);
        assert!(!scan.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_restarts_the_log_at_the_new_watermark() {
        let path = tmp("truncate");
        let mut wal = Wal::create(&path, 1).unwrap();
        for r in [b"a".as_ref(), b"b", b"c"] {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        wal.truncate(4).unwrap();
        assert_eq!(wal.next_lsn(), 4);
        assert_eq!(wal.durable_records(), 0);
        wal.append(b"post-checkpoint").unwrap();
        wal.sync().unwrap();
        drop(wal);

        let scan = Wal::read(&path).unwrap().unwrap();
        assert_eq!(scan.start_lsn, 4);
        assert_eq!(scan.records, vec![(4, b"post-checkpoint".to_vec())]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_stops_the_scan_without_losing_the_prefix() {
        let path = tmp("torn");
        let mut wal = Wal::create(&path, 1).unwrap();
        wal.append(b"kept").unwrap();
        wal.append(b"also kept").unwrap();
        wal.sync().unwrap();
        drop(wal);

        // A torn write: garbage bytes after the intact records.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        drop(f);

        let scan = Wal::read(&path).unwrap().unwrap();
        assert!(scan.torn_tail);
        assert_eq!(
            scan.records,
            vec![(1, b"kept".to_vec()), (2, b"also kept".to_vec())]
        );

        // Truncating mid-record tears the last frame instead.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let scan = Wal::read(&path).unwrap().unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 1, "only the first record survives");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_and_headerless_files_scan_safely() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        assert_eq!(Wal::read(&path).unwrap(), None);

        std::fs::write(&path, b"no").unwrap();
        let scan = Wal::read(&path).unwrap().unwrap();
        assert!(scan.torn_tail);
        assert!(scan.records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_on_append_downs_the_log_and_drops_the_batch() {
        let path = tmp("crash_append");
        let mut wal = Wal::create(&path, 1).unwrap();
        // Ops: 1 append (ok), 2 sync (ok), 3 append (ok), 4 append (crash).
        wal.set_fault_plan(WalFaultPlan::new().crash_at(4));
        wal.append(b"acked").unwrap();
        wal.sync().unwrap();
        wal.append(b"buffered").unwrap();
        assert!(wal.append(b"boom").is_err());
        assert!(wal.is_down());
        assert!(wal.sync().is_err(), "everything fails after the crash");
        drop(wal);

        let scan = Wal::read(&path).unwrap().unwrap();
        assert_eq!(
            scan.records,
            vec![(1, b"acked".to_vec())],
            "the un-synced batch vanished with the crash"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_on_sync_lands_a_torn_prefix() {
        let path = tmp("crash_sync");
        let mut wal = Wal::create(&path, 1).unwrap();
        wal.append(b"first record of the doomed batch").unwrap();
        wal.append(b"second record of the doomed batch").unwrap();
        // Op 3 is the sync; land 10 bytes of the buffer — mid-frame.
        wal.set_fault_plan(WalFaultPlan::new().crash_at(3).torn_bytes(10));
        assert!(wal.sync().is_err());
        drop(wal);

        let scan = Wal::read(&path).unwrap().unwrap();
        assert!(scan.torn_tail, "the half-written frame fails its crc");
        assert!(scan.records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_on_truncate_leaves_the_old_records_intact() {
        let path = tmp("crash_trunc");
        let mut wal = Wal::create(&path, 1).unwrap();
        wal.append(b"old").unwrap();
        wal.sync().unwrap();
        wal.set_fault_plan(WalFaultPlan::new().crash_at(3));
        assert!(wal.truncate(2).is_err());
        assert!(wal.is_down());
        drop(wal);

        // The stale record is still there; the engine's durable-LSN
        // watermark is what makes it harmless.
        let scan = Wal::read(&path).unwrap().unwrap();
        assert_eq!(scan.records, vec![(1, b"old".to_vec())]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_path_appends_the_suffix() {
        assert_eq!(
            wal_path(Path::new("/tmp/data.db")),
            PathBuf::from("/tmp/data.db.wal")
        );
        assert_eq!(wal_path(Path::new("bare")), PathBuf::from("bare.wal"));
    }
}
