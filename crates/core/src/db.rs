//! A small constraint-database engine facade: relations (heap files of
//! generalized tuples), access methods (the dual index over a slope set or
//! slope points, the R⁺-tree baseline, sequential scan) and query planning
//! by the paper's rule, all over one instrumented pager.
//!
//! # Failure containment
//!
//! Durable state only moves at [`ConstraintDb::checkpoint`] (shadow-page
//! commit): a mutation that fails midway — a device error during an index
//! insert, say — can leave the *in-memory* engine with structures out of
//! step, but the on-disk database is untouched and reopening recovers the
//! last committed state. On open, every relation's pages are verified
//! through the checksumming pager and classified into a
//! [`RelationHealth`]: a corrupt index only *degrades* its relation
//! (queries fall back to the remaining methods and
//! [`ConstraintDb::rebuild_indexes`] repairs it from the heap), while a
//! corrupt heap *quarantines* it — its queries fail with
//! [`CdbError::Quarantined`] but sibling relations keep answering.

use std::collections::HashMap;
use std::path::Path;

use cdb_geometry::tuple::GeneralizedTuple;
use cdb_storage::wal::{wal_path, Wal, WalFaultPlan};
use cdb_storage::{
    EpochStats, FilePager, HeapFile, IoStats, MemPager, PageReader, Pager, PagerRecovery,
    DEFAULT_PAGE_SIZE,
};

use crate::error::CdbError;
use crate::index::{Index, IndexKind, IndexSpec, SlopeGeometry};
pub use crate::read::{ReadSurface, Snapshot};
pub use crate::relation::{Relation, RelationHealth, RelationStats};
use crate::wal::WalRecord;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct DbConfig {
    /// Page size for every structure.
    pub page_size: usize,
}

impl DbConfig {
    /// The paper's setup: 1024-byte pages.
    pub fn paper_1999() -> Self {
        DbConfig {
            page_size: DEFAULT_PAGE_SIZE,
        }
    }
}

impl Default for DbConfig {
    fn default() -> Self {
        Self::paper_1999()
    }
}

/// What the write-ahead-log replay pass of [`ConstraintDb::open`] found
/// and did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalReplay {
    /// The LSN the log file starts at (its header promise).
    pub start_lsn: u64,
    /// Records applied over the checkpointed base state.
    pub replayed: u64,
    /// LSN of the first applied record (0 when none).
    pub first_lsn: u64,
    /// LSN of the last applied record (0 when none).
    pub last_lsn: u64,
    /// The log ended in a half-written record (bad CRC / broken LSN
    /// chain). Not an error: a torn record was never synced, so its
    /// mutation was never acknowledged.
    pub torn_tail: bool,
    /// A record that decoded but failed to re-apply, or a replay that
    /// could not be absorbed. The log is kept on disk in that case.
    pub error: Option<String>,
}

cdb_storage::wire_struct!(WalReplay {
    start_lsn,
    replayed,
    first_lsn,
    last_lsn,
    torn_tail,
    error
});

/// What [`ConstraintDb::open`] found and did: the pager's header-slot
/// recovery, the WAL replay (which runs *before* verification), and the
/// per-relation verification verdicts.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Header recovery performed by the file pager.
    pub pager: PagerRecovery,
    /// `(relation, health)` pairs, sorted by name.
    pub relations: Vec<(String, RelationHealth)>,
    /// Write-ahead-log replay, when a log file was present.
    pub wal: Option<WalReplay>,
}

impl RecoveryReport {
    /// `true` when the pager opened on its newest commit, every relation
    /// verified healthy, and WAL replay (if any) fully absorbed the log.
    /// A torn log tail is still clean — a torn record was never
    /// acknowledged, so nothing promised was lost.
    pub fn is_clean(&self) -> bool {
        self.pager == PagerRecovery::Clean
            && self
                .relations
                .iter()
                .all(|(_, h)| *h == RelationHealth::Healthy)
            && self.wal.as_ref().is_none_or(|w| w.error.is_none())
    }

    /// Names of quarantined relations.
    pub fn quarantined(&self) -> Vec<&str> {
        self.relations
            .iter()
            .filter(|(_, h)| matches!(h, RelationHealth::Quarantined { .. }))
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// Point-in-time snapshot of the whole engine's operational state.
/// Taken through `&self`, so a server can serve it from a shared read
/// lock while queries are in flight.
#[derive(Clone, Debug, PartialEq)]
pub struct DbStats {
    /// Per-relation statistics, sorted by name.
    pub relations: Vec<RelationStats>,
    /// Live pages across all relations and indexes.
    pub live_pages: u64,
    /// Cumulative I/O accounting of the underlying pager.
    pub io: IoStats,
    /// Whether the handle refuses mutations.
    pub read_only: bool,
    /// Consecutive [`ConstraintDb::checkpoint`] failures since the last
    /// success (0 while checkpoints land).
    pub checkpoint_failures: u64,
    /// Write-ahead-log state, when a log is armed.
    pub wal: Option<WalStats>,
    /// MVCC epoch machinery: current publish generation, live pinned
    /// reader views, freed pages awaiting GC. All zero on pagers that have
    /// never published a view.
    pub epochs: EpochStats,
}

cdb_storage::wire_struct!(DbStats {
    relations,
    live_pages,
    io,
    read_only,
    checkpoint_failures,
    wal,
    epochs,
});

/// Point-in-time state of an armed write-ahead log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalStats {
    /// Every mutation with an LSN at or below this is covered by the
    /// durable catalog.
    pub durable_lsn: u64,
    /// The LSN the next mutation will be assigned.
    pub next_lsn: u64,
    /// Records appended but not yet fsynced (not yet acknowledgeable).
    pub pending: u64,
}

cdb_storage::wire_struct!(WalStats {
    durable_lsn,
    next_lsn,
    pending
});

/// The engine: a pager, a catalog of relations, and planned query
/// execution.
pub struct ConstraintDb {
    /// Pager, configuration and relations: the state the read surface
    /// queries, which this handle additionally mutates.
    view: ReadSurface<Box<dyn Pager>>,
    /// Structural changes (DDL, inserts/deletes, index builds) since the
    /// last checkpoint: the only state the catalog persists.
    dirty: bool,
    /// Opened via [`ConstraintDb::open_read_only`]: every mutating entry
    /// point refuses with [`CdbError::ReadOnly`].
    read_only: bool,
    /// What `open` found; trivially clean for in-memory engines.
    recovery: RecoveryReport,
    /// The write-ahead log, once [`ConstraintDb::begin_wal`] arms it.
    wal: Option<Wal>,
    /// Database file path for file-backed engines — where the `.wal`
    /// sidecar lives. `None` for in-memory and caller-supplied pagers,
    /// which therefore cannot arm a log.
    wal_base: Option<std::path::PathBuf>,
    /// Every mutation with an LSN at or below this is covered by the
    /// durable catalog (persisted in the catalog header; see
    /// `crate::catalog`).
    durable_lsn: u64,
    /// Consecutive checkpoint failures since the last success.
    checkpoint_failures: u64,
}

/// The whole read surface — `relation`, `query`, `query_with`, `explain`,
/// `sql`, `query_batch`, line queries, `fetch_tuple`, `scan_relation` — is
/// [`ReadSurface`]'s, over the live state.
impl std::ops::Deref for ConstraintDb {
    type Target = ReadSurface<Box<dyn Pager>>;

    fn deref(&self) -> &Self::Target {
        &self.view
    }
}

impl ConstraintDb {
    /// An engine over an in-memory pager (the experimental substrate).
    pub fn in_memory(config: DbConfig) -> Self {
        Self::with_pager(Box::new(MemPager::new(config.page_size)), config)
    }

    /// An engine over a caller-supplied pager (e.g. a
    /// [`cdb_storage::file::FilePager`] or a fault-injecting wrapper).
    pub fn with_pager(pager: Box<dyn Pager>, config: DbConfig) -> Self {
        assert_eq!(pager.page_size(), config.page_size, "page size mismatch");
        ConstraintDb {
            view: ReadSurface {
                pager,
                config,
                relations: HashMap::new(),
            },
            dirty: false,
            read_only: false,
            recovery: RecoveryReport {
                pager: PagerRecovery::Clean,
                relations: Vec::new(),
                wal: None,
            },
            wal: None,
            wal_base: None,
            durable_lsn: 0,
            checkpoint_failures: 0,
        }
    }

    /// Creates a new on-disk database at `path` and commits an empty
    /// catalog immediately, so every database file carries a valid catalog
    /// from birth (a crash right after `create` reopens as an empty db,
    /// not a corrupt one).
    ///
    /// # Errors
    /// [`CdbError::Io`] when the file cannot be created or synced.
    pub fn create(path: &Path, config: DbConfig) -> Result<Self, CdbError> {
        let pager = FilePager::create(path, config.page_size)?;
        // A database that lived at this path before may have left a log
        // behind; its records belong to the overwritten file.
        let _ = std::fs::remove_file(wal_path(path));
        let mut db = Self::with_pager(Box::new(pager), config);
        db.wal_base = Some(path.to_path_buf());
        db.dirty = true;
        db.checkpoint()?;
        Ok(db)
    }

    /// Opens an existing database file in three recovery stages:
    ///
    /// 1. rebuilds every relation — heaps, slot tables, dual indexes,
    ///    R⁺-tree, corrupt-index flags — from the committed catalog (the
    ///    header flip already happened inside [`FilePager::open`]);
    /// 2. replays any write-ahead-log suffix newer than the catalog's
    ///    durable-LSN watermark through the normal mutation paths, then
    ///    checkpoints and deletes the absorbed log — so an acknowledged
    ///    mutation survives a crash that outran the last checkpoint;
    /// 3. verifies every page each relation owns through the checksumming
    ///    pager and classifies the damage, on top of the persisted flags
    ///    (see [`RecoveryReport`] / [`ConstraintDb::recovery_report`]).
    ///
    /// A corrupt index degrades its relation; a corrupt heap quarantines
    /// it; sibling relations are unaffected either way, so `open` succeeds
    /// whenever the catalog itself is intact. A torn WAL tail (a record
    /// that never finished hitting the disk) is skipped silently — it was
    /// never acknowledged; a record that fails to *re-apply* stops replay,
    /// keeps the log on disk, and is surfaced in the report.
    ///
    /// # Errors
    /// [`CdbError::CorruptRecord`] (with id [`crate::error::CATALOG_RECORD`])
    /// when the header, meta chain or catalog blob fails validation — a
    /// torn or tampered file is reported, never served as an empty
    /// database. [`CdbError::Io`] for operating-system failures.
    pub fn open(path: &Path) -> Result<Self, CdbError> {
        let mut db = Self::decode_file(FilePager::open(path).map_err(Self::lift)?)?;
        db.wal_base = Some(path.to_path_buf());
        db.replay_wal()?;
        db.classify_relations();
        Ok(db)
    }

    /// [`open`](Self::open), but the file is mapped read-only and every
    /// mutating entry point (DDL, inserts/deletes, index builds,
    /// checkpoints) refuses with [`CdbError::ReadOnly`]. Queries work as
    /// usual. A pending write-ahead-log suffix is *not* replayed (the
    /// file is someone else's to write) — it is reported in the
    /// [`RecoveryReport`] instead, and the handle serves the state as of
    /// the last checkpoint.
    pub fn open_read_only(path: &Path) -> Result<Self, CdbError> {
        let mut db = Self::decode_file(FilePager::open_read_only(path).map_err(Self::lift)?)?;
        if let Some(scan) = Wal::read(&wal_path(path))? {
            let pending: Vec<u64> = scan
                .records
                .iter()
                .map(|(lsn, _)| *lsn)
                .filter(|&lsn| lsn > db.durable_lsn)
                .collect();
            db.recovery.wal = Some(WalReplay {
                start_lsn: scan.start_lsn,
                replayed: 0,
                first_lsn: pending.first().copied().unwrap_or(0),
                last_lsn: pending.last().copied().unwrap_or(0),
                torn_tail: scan.torn_tail,
                error: (!pending.is_empty()).then(|| {
                    format!(
                        "{} logged mutations not replayed (read-only handle)",
                        pending.len()
                    )
                }),
            });
        }
        db.classify_relations();
        Ok(db)
    }

    fn lift(e: std::io::Error) -> CdbError {
        // Both failed validation and hitting EOF mid-structure mean the
        // file is not a whole database.
        match e.kind() {
            std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof => {
                CdbError::CorruptRecord(crate::error::CATALOG_RECORD)
            }
            _ => CdbError::Io(e.to_string()),
        }
    }

    /// Stage 1 of `open`: decode the committed catalog into an engine.
    /// Relations come out nominally `Healthy`; `classify_relations` runs
    /// the verification pass after any WAL replay.
    fn decode_file(pager: FilePager) -> Result<Self, CdbError> {
        let blob = pager
            .read_meta()
            .map_err(Self::lift)?
            .ok_or(CdbError::CorruptRecord(crate::error::CATALOG_RECORD))?;
        let page_size = pager.page_size();
        let cat = crate::catalog::decode(&blob, page_size)?;
        let (read_only, recovery) = (pager.is_read_only(), pager.recovery());
        let config = DbConfig { page_size };
        let mut db = Self::with_pager(Box::new(pager), config);
        db.view.relations = cat.relations;
        db.read_only = read_only;
        db.recovery.pager = recovery;
        db.durable_lsn = cat.durable_lsn;
        Ok(db)
    }

    /// Stage 2 of `open`: replay the write-ahead-log suffix beyond the
    /// catalog's durable-LSN watermark through the normal mutation paths
    /// (the log is not armed yet, so nothing is re-logged; tuple ids are
    /// deterministic because `insert` assigns `slots.len()`). A fully
    /// absorbed log is checkpointed and deleted; any failure keeps it on
    /// disk for the next open and is recorded in the report.
    fn replay_wal(&mut self) -> Result<(), CdbError> {
        let Some(wpath) = self.wal_base.as_deref().map(wal_path) else {
            return Ok(());
        };
        let Some(scan) = Wal::read(&wpath)? else {
            return Ok(());
        };
        let mut replay = WalReplay {
            start_lsn: scan.start_lsn,
            replayed: 0,
            first_lsn: 0,
            last_lsn: 0,
            torn_tail: scan.torn_tail,
            error: None,
        };
        for (lsn, bytes) in &scan.records {
            if *lsn <= self.durable_lsn {
                continue; // already covered by the committed catalog
            }
            match WalRecord::decode(bytes).and_then(|rec| self.apply_wal_record(rec)) {
                Ok(()) => {
                    if replay.replayed == 0 {
                        replay.first_lsn = *lsn;
                    }
                    replay.last_lsn = *lsn;
                    replay.replayed += 1;
                    self.durable_lsn = *lsn;
                }
                Err(e) => {
                    replay.error = Some(format!("replay stopped at lsn {lsn}: {e}"));
                    break;
                }
            }
        }
        if replay.replayed > 0 && replay.error.is_none() {
            // Absorb the suffix into the shadow-paged state; only then is
            // the log redundant.
            if let Err(e) = self.checkpoint() {
                replay.error = Some(format!("replayed but not checkpointed: {e}"));
            }
        }
        if replay.error.is_none() {
            let _ = std::fs::remove_file(&wpath);
        }
        self.recovery.wal = Some(replay);
        Ok(())
    }

    /// Re-runs one logged mutation through its public entry point.
    fn apply_wal_record(&mut self, rec: WalRecord) -> Result<(), CdbError> {
        match rec {
            WalRecord::CreateRelation { name, dim } => {
                self.create_relation(&name, dim as usize).map(|_| ())
            }
            WalRecord::DropRelation { name } => self.drop_relation(&name),
            WalRecord::Insert { relation, tuple } => self.insert(&relation, tuple).map(|_| ()),
            WalRecord::Delete { relation, id } => self.delete(&relation, id).map(|_| ()),
            WalRecord::BuildDual { relation, geometry } => {
                self.build_dual_index(&relation, geometry)
            }
            WalRecord::BuildRPlus { relation, fill } => self.build_rplus_index(&relation, fill),
        }
    }

    /// Stage 3 of `open`: the per-page verification pass, classifying
    /// every relation's health into the recovery report; the walk's reads
    /// of each slope-set dual index's leaves become its key columns.
    fn classify_relations(&mut self) {
        let view = &mut self.view;
        let mut relations: Vec<(String, RelationHealth)> = Vec::new();
        for rel in view.relations.values_mut() {
            let (health, keys) = rel.verify(&*view.pager);
            let dual = rel.indexes[IndexKind::Dual as usize].as_mut();
            if let (Some(keys), Some(Index::Dual(index))) = (keys, dual) {
                index.adopt_keys(keys);
            }
            rel.health = health.clone();
            relations.push((rel.name.clone(), health));
        }
        relations.sort_by(|a, b| a.0.cmp(&b.0));
        self.recovery.relations = relations;
    }

    /// What the last `open` found and did. Trivially clean for in-memory
    /// and freshly created databases.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// `true` when the engine was opened via
    /// [`open_read_only`](Self::open_read_only).
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    fn ensure_writable(&self) -> Result<(), CdbError> {
        if self.read_only {
            return Err(CdbError::ReadOnly);
        }
        Ok(())
    }

    /// Arms the write-ahead log: checkpoints the current state (the log's
    /// base), then creates `<path>.wal` starting at the next LSN. From
    /// here on every successful mutation appends one record, and a
    /// [`wal_sync`](Self::wal_sync) makes the batch durable — the
    /// group-commit contract a server acknowledges against. Returns
    /// `Ok(false)` for engines with no backing file (in-memory or
    /// caller-supplied pagers), which have no durability to promise.
    /// Idempotent once armed.
    ///
    /// # Errors
    /// [`CdbError::ReadOnly`] on a read-only handle; [`CdbError::Io`] when
    /// the base checkpoint or the log file creation fails.
    pub fn begin_wal(&mut self) -> Result<bool, CdbError> {
        self.ensure_writable()?;
        if self.wal.is_some() {
            return Ok(true);
        }
        let Some(wpath) = self.wal_base.as_deref().map(wal_path) else {
            return Ok(false);
        };
        self.checkpoint()?;
        self.wal = Some(Wal::create(&wpath, self.durable_lsn + 1)?);
        Ok(true)
    }

    /// The group-commit barrier: flushes every record logged since the
    /// last sync with one `fsync`. After `Ok(())`, every mutation applied
    /// before this call survives any crash — acknowledge them now, not
    /// earlier. A no-op when no log is armed.
    ///
    /// # Errors
    /// [`CdbError::Io`] when the flush fails; the affected mutations must
    /// not be acknowledged (reopening the file recovers the state as of
    /// the last successful sync).
    pub fn wal_sync(&mut self) -> Result<(), CdbError> {
        match self.wal.as_mut() {
            Some(w) => Ok(w.sync()?),
            None => Ok(()),
        }
    }

    /// The LSN of the last mutation *applied* in memory (acked-but-
    /// unsynced included): what a published snapshot reflects. Falls back
    /// to the durable watermark when no log is armed.
    pub fn applied_lsn(&self) -> u64 {
        match self.wal.as_ref() {
            Some(w) => w.next_lsn().saturating_sub(1),
            None => self.durable_lsn,
        }
    }

    /// The LSN of the last mutation a successful
    /// [`wal_sync`](Self::wal_sync) made durable: what a server may
    /// acknowledge. Falls back to the durable watermark when no
    /// log is armed.
    pub fn wal_synced_lsn(&self) -> u64 {
        match self.wal.as_ref() {
            Some(w) => w.synced_lsn(),
            None => self.durable_lsn,
        }
    }

    /// The sidecar log path, once a log is armed on a file-backed engine.
    pub fn wal_file_path(&self) -> Option<std::path::PathBuf> {
        match (&self.wal, &self.wal_base) {
            (Some(_), Some(base)) => Some(wal_path(base)),
            _ => None,
        }
    }

    /// Installs a fault schedule on the armed log (testing hook; no-op
    /// when no log is armed).
    pub fn set_wal_fault_plan(&mut self, plan: WalFaultPlan) {
        if let Some(w) = self.wal.as_mut() {
            w.set_fault_plan(plan);
        }
    }

    /// Appends one typed record for a mutation that just succeeded in
    /// memory. On append failure the mutation's entry point returns the
    /// error: the caller must not acknowledge, and the standard failure
    /// contract applies (durable state untouched; reopen to recover).
    fn log_mutation(&mut self, rec: WalRecord) -> Result<(), CdbError> {
        if let Some(w) = self.wal.as_mut() {
            w.append(&rec.encode())?;
        }
        Ok(())
    }

    /// Serializes the catalog (relations, index metadata, WAL watermark)
    /// and commits it through the pager's shadow-page protocol. A no-op
    /// when nothing changed since the last checkpoint — queries change
    /// nothing it holds — and on read-only handles (whose durable state
    /// cannot move). After a
    /// crash, a reader sees either the previous catalog or this one —
    /// never a mixture.
    ///
    /// With a log armed, the committed watermark covers every mutation
    /// logged so far, and the now-redundant log is truncated afterwards
    /// (best-effort: a failed truncation downs the log — later mutations
    /// error instead of logging into a file in an unknown state — but
    /// loses nothing, because replay filters by the watermark).
    ///
    /// # Errors
    /// [`CdbError::Io`] when a page write or sync fails; the previously
    /// committed catalog stays readable, and the consecutive-failure
    /// counter surfaced by [`stats_snapshot`](Self::stats_snapshot) is
    /// bumped.
    pub fn checkpoint(&mut self) -> Result<(), CdbError> {
        if self.read_only || !self.dirty {
            return Ok(());
        }
        if let Some(w) = self.wal.as_ref() {
            // Every logged mutation is part of the state being committed,
            // synced or not — the commit itself is their durability.
            self.durable_lsn = w.next_lsn() - 1;
        }
        let blob = crate::catalog::encode(self.durable_lsn, &self.view.relations);
        if let Err(e) = self.view.pager.commit_meta(&blob) {
            self.checkpoint_failures += 1;
            return Err(CdbError::Io(e.to_string()));
        }
        self.dirty = false;
        self.checkpoint_failures = 0;
        if let Some(w) = self.wal.as_mut() {
            let _ = w.truncate(self.durable_lsn + 1);
        }
        Ok(())
    }

    /// Publishes the current state as a pinned, immutable [`Snapshot`].
    ///
    /// The pager freezes its page table at the current epoch — subsequent
    /// writes through this handle copy-on-write onto fresh pages, so the
    /// frozen pages stay exactly as published until the snapshot drops —
    /// and the in-memory catalog (relation descriptors, index roots) is
    /// cloned so the snapshot's query surface is self-contained.
    /// `&mut self` because publication advances the
    /// writer's working generation; the returned snapshot is `Send + Sync`
    /// and never blocks this handle.
    ///
    /// Publication is a visibility event, not a durability one: the
    /// snapshot sees every mutation applied so far (acked-but-uncommitted
    /// WAL state included), while crash durability still comes from
    /// [`checkpoint`](Self::checkpoint) and the log.
    ///
    /// # Errors
    /// [`CdbError::Io`] when flushing buffered pages for publication fails.
    pub fn snapshot(&mut self) -> Result<Snapshot, CdbError> {
        Ok(ReadSurface {
            pager: self.view.pager.publish_view()?,
            config: self.view.config,
            relations: self.view.relations.clone(),
        })
    }

    /// Checkpoints and consumes the engine. `commit_meta` syncs the file,
    /// so a successful `close` means everything is durable — the
    /// write-ahead log, fully absorbed by that final checkpoint, is
    /// deleted rather than left as an empty sidecar.
    ///
    /// # Errors
    /// [`CdbError::Io`] when the final checkpoint fails.
    pub fn close(mut self) -> Result<(), CdbError> {
        self.checkpoint()?;
        if let Some(log) = self.wal_file_path() {
            let _ = std::fs::remove_file(log);
        }
        Ok(())
    }

    /// I/O accounting of the underlying pager.
    pub fn io_stats(&self) -> IoStats {
        self.view.pager.stats()
    }

    /// Zeroes the pager's counters.
    pub fn reset_io_stats(&mut self) {
        self.view.pager.reset_stats();
    }

    /// Live pages across all relations and indexes (the space metric).
    pub fn live_pages(&self) -> usize {
        self.view.pager.live_pages()
    }

    /// Point-in-time operational snapshot: per-relation sizes, built
    /// indexes, health verdicts, and pager-level I/O counters. `&self`, so
    /// a server can answer STATS from a shared read lock while queries run.
    pub fn stats_snapshot(&self) -> DbStats {
        DbStats {
            relations: self.relation_stats(),
            live_pages: self.live_pages() as u64,
            io: self.io_stats(),
            read_only: self.read_only,
            checkpoint_failures: self.checkpoint_failures,
            wal: self.wal.as_ref().map(|w| WalStats {
                durable_lsn: self.durable_lsn,
                next_lsn: w.next_lsn(),
                pending: w.pending_records(),
            }),
            epochs: self.view.pager.epoch_stats(),
        }
    }

    /// Re-runs the open-time page verification pass over every relation,
    /// returning a fresh report without mutating any stored health verdict
    /// (repair still goes through [`rebuild_indexes`](Self::rebuild_indexes)
    /// or [`drop_relation`](Self::drop_relation)). `&self`, so a server can
    /// serve an online FSCK from a shared read lock. The pager verdict is
    /// carried over from open — header recovery only happens there.
    pub fn verify_now(&self) -> RecoveryReport {
        let mut relations: Vec<(String, RelationHealth)> = self
            .view
            .relations
            .values()
            .map(|rel| (rel.name.clone(), rel.verify(self.reader()).0))
            .collect();
        relations.sort_by(|a, b| a.0.cmp(&b.0));
        RecoveryReport {
            pager: self.recovery.pager,
            relations,
            wal: self.recovery.wal.clone(),
        }
    }

    /// Cross-checks the pager's deferred-reclaim bookkeeping: `Some(true)`
    /// when every quarantined page is genuinely non-live, `Some(false)`
    /// on a violation, `None` for engines without a durable quarantine
    /// (in-memory pagers reclaim by refcount). Part of the FSCK surface.
    pub fn quarantine_clean(&self) -> Option<bool> {
        self.view.pager.quarantine_clean()
    }

    /// Creates an empty relation of the given dimension.
    ///
    /// # Errors
    /// [`CdbError::RelationExists`] if the name is taken;
    /// [`CdbError::DimensionOutOfRange`] for a dimension no tuple could be
    /// stored in; [`CdbError::ReadOnly`] on a read-only handle.
    pub fn create_relation(&mut self, name: &str, dim: usize) -> Result<&Relation, CdbError> {
        self.ensure_writable()?;
        if self.view.relations.contains_key(name) {
            return Err(CdbError::RelationExists(name.into()));
        }
        let rel = Relation::new(name, dim, HeapFile::new(self.view.pager.as_mut()))?;
        self.dirty = true;
        self.view.relations.insert(name.to_string(), rel);
        self.log_mutation(WalRecord::CreateRelation {
            name: name.to_string(),
            dim: dim as u32,
        })?;
        Ok(&self.view.relations[name])
    }

    /// The guard every mutation of one relation passes: a writable handle
    /// and an existing relation that is not quarantined. Hands out what a
    /// mutation works on: the pager, the relation and the dirty flag.
    pub(crate) fn for_update(
        &mut self,
        name: &str,
    ) -> Result<(&mut dyn Pager, &mut Relation, &mut bool), CdbError> {
        self.ensure_writable()?;
        let view = &mut self.view;
        let rel = view
            .relations
            .get_mut(name)
            .ok_or_else(|| CdbError::RelationNotFound(name.into()))?;
        rel.ensure_usable()?;
        Ok((view.pager.as_mut(), rel, &mut self.dirty))
    }

    /// Drops a relation, freeing its heap and index pages. Dropping an
    /// unhealthy relation is allowed — it is the way out of quarantine —
    /// but pages held by structures too corrupt to walk stay allocated
    /// until the file is rebuilt.
    pub fn drop_relation(&mut self, name: &str) -> Result<(), CdbError> {
        self.ensure_writable()?;
        let rel = self
            .view
            .relations
            .remove(name)
            .ok_or_else(|| CdbError::RelationNotFound(name.into()))?;
        self.dirty = true;
        rel.destroy(self.view.pager.as_mut())?;
        self.log_mutation(WalRecord::DropRelation {
            name: name.to_string(),
        })
    }

    /// Inserts a satisfiable tuple, returning its id, and maintains every
    /// built dual index (see [`Relation`]'s index seam); the R⁺-tree is
    /// dropped ([`build_rplus_index`](Self::build_rplus_index) re-packs
    /// it). On a degraded relation, structures marked corrupt are skipped —
    /// they will be rebuilt wholesale from the heap.
    ///
    /// A failed insert commits nothing (only the next checkpoint does), but
    /// it may be half-applied in memory: the heap may hold the tuple, and an
    /// index whose maintenance failed half-way is dropped (build it again),
    /// so what a later checkpoint commits never holds an index that
    /// disagrees with its heap. Reopen instead to recover the last
    /// committed state.
    pub fn insert(&mut self, name: &str, tuple: GeneralizedTuple) -> Result<u32, CdbError> {
        let (pager, rel, dirty) = self.for_update(name)?;
        rel.admits(&tuple)?;
        *dirty = true;
        let id = rel.insert(pager, &tuple)?;
        self.log_mutation(WalRecord::Insert {
            relation: name.to_string(),
            tuple,
        })?;
        Ok(id)
    }

    /// Deletes a tuple by id. Returns the removed tuple. On a degraded
    /// relation, structures marked corrupt are skipped (see
    /// [`insert`](Self::insert) for the failure contract).
    pub fn delete(&mut self, name: &str, id: u32) -> Result<GeneralizedTuple, CdbError> {
        let (pager, rel, dirty) = self.for_update(name)?;
        // `fetch` succeeding proves the slot is present and live.
        let tuple = rel.fetch(&*pager, id)?;
        *dirty = true;
        rel.delete(pager, id, &tuple)?;
        self.log_mutation(WalRecord::Delete {
            relation: name.to_string(),
            id,
        })?;
        Ok(tuple)
    }

    /// Builds (or rebuilds) the index `spec` describes — the one build body
    /// behind the typed fronts below, log replay and
    /// [`rebuild_indexes`](Self::rebuild_indexes). A previous index of the
    /// same kind is freed first; rebuilding clears its corruption flag.
    ///
    /// # Errors
    /// What [`IndexSpec::check`] refuses, as a typed error and never a
    /// panic; [`CdbError::Quarantined`]; [`CdbError::ReadOnly`].
    pub fn build_index(&mut self, name: &str, spec: IndexSpec) -> Result<(), CdbError> {
        let (pager, rel, dirty) = self.for_update(name)?;
        spec.check(rel.dim)?;
        let tuples = rel.scan(&*pager)?;
        *dirty = true;
        rel.build_index(pager, spec.clone(), &tuples)?;
        self.log_mutation(WalRecord::build(name, spec))
    }

    /// Builds (or rebuilds) the dual index of a relation over `geometry`:
    /// a [`SlopeSet`](crate::SlopeSet) for a 2-D relation, slope points in `E^{d-1}` for a
    /// `d`-dimensional one (Section 4.4). A relation holds one dual index:
    /// building one replaces the one it had, of either geometry.
    pub fn build_dual_index(
        &mut self,
        name: &str,
        geometry: impl Into<SlopeGeometry>,
    ) -> Result<(), CdbError> {
        self.build_index(name, IndexSpec::Dual(geometry.into()))
    }

    /// Builds (or rebuilds) the Section 5 R⁺-tree baseline over a 2-D
    /// relation: bounded tuples' MBRs are bulk-packed at the given fill
    /// factor; unbounded tuples go to the overflow list. The tree is packed
    /// once: the next insert or delete on the relation drops it.
    pub fn build_rplus_index(&mut self, name: &str, fill: f64) -> Result<(), CdbError> {
        self.build_index(name, IndexSpec::RPlus { fill })
    }

    /// Re-derives every corrupt index of a degraded relation from the
    /// (verified) heap, reusing the build parameters persisted in the
    /// catalog ([`Index::spec`](crate::Index::spec)). Returns the
    /// names of the rebuilt structures; a healthy relation is a no-op.
    ///
    /// # Errors
    /// [`CdbError::Quarantined`] when the heap itself is corrupt — there
    /// is nothing trustworthy to rebuild from;
    /// [`CdbError::ReadOnly`] on a read-only handle.
    pub fn rebuild_indexes(&mut self, name: &str) -> Result<Vec<String>, CdbError> {
        let mut rebuilt = Vec::new();
        for spec in self.for_update(name)?.1.corrupt_specs() {
            rebuilt.push(spec.kind().name().to_string());
            self.build_index(name, spec)?;
        }
        Ok(rebuilt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ddim::SlopePoints;
    use crate::index::{Index, IndexKind};
    use crate::plan::MethodKind;
    use crate::query::{Selection, Strategy};
    use crate::slopes::SlopeSet;
    use cdb_geometry::halfplane::HalfPlane;
    use cdb_geometry::parse::parse_tuple;
    use cdb_geometry::{LinearConstraint, RelOp};

    fn sample_db() -> ConstraintDb {
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("land", 2).unwrap();
        for s in [
            "y >= 0 && y <= 2 && x >= 0 && x + y <= 4",
            "y >= x && y <= x + 1 && x >= 10",
            "y >= -1 && y <= 1 && x >= -3 && x <= -1",
            "y >= 5 && y <= 7 && x >= 5 && x <= 8",
        ] {
            db.insert("land", parse_tuple(s).unwrap()).unwrap();
        }
        db
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        let n = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        std::env::temp_dir().join(format!("cdb_dbtest_{tag}_{}_{n}", std::process::id()))
    }

    #[test]
    fn create_insert_fetch() {
        let mut db = sample_db();
        assert_eq!(db.relation("land").unwrap().len(), 4);
        let t = db.fetch_tuple("land", 0).unwrap();
        assert!(t.contains(&[1.0, 1.0]));
        assert!(db.relation("missing").is_err());
        assert!(matches!(
            db.create_relation("land", 2),
            Err(CdbError::RelationExists(_))
        ));
    }

    /// Regression: an R⁺-tree fill factor outside `[0.5, 1]` reached
    /// `RPlusTree::pack`'s `assert!` from everywhere but the wire
    /// dispatcher, panicking the engine's owner.
    #[test]
    fn unbuildable_index_specs_are_typed_errors_not_panics() {
        let mut db = sample_db();
        let refused = |r: Result<(), CdbError>| matches!(r, Err(CdbError::UnsupportedQuery(_)));
        for fill in [0.25, 1.5, f64::NAN] {
            assert!(refused(db.build_rplus_index("land", fill)), "fill {fill}");
        }
        // A replayed log record takes the same path.
        let logged = WalRecord::BuildRPlus {
            relation: "land".into(),
            fill: 0.25,
        };
        let replayed = WalRecord::decode(&logged.encode()).unwrap();
        assert!(refused(db.apply_wal_record(replayed)));
        assert!(db
            .relation("land")
            .unwrap()
            .built(IndexKind::RPlus)
            .is_none());
        // Specs that do not fit the relation's dimension.
        db.create_relation("space", 3).unwrap();
        assert_eq!(
            db.build_dual_index("space", SlopeSet::uniform_tan(3)),
            Err(CdbError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        );
        assert!(refused(db.build_rplus_index("space", 1.0)));
        assert_eq!(
            db.build_dual_index("land", SlopePoints::grid(3, 2, 1.0)),
            Err(CdbError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        );
        db.build_rplus_index("land", 0.5).unwrap();
    }

    /// Regression: `delete` used to drop `DualIndex::remove`'s verdict, so
    /// an index that had lost step with the heap kept a dangling id that
    /// surfaced later as `NoSuchTuple` in the middle of a query.
    #[test]
    fn delete_that_misses_its_index_entry_degrades_the_relation() {
        let mut db = sample_db();
        db.build_dual_index("land", SlopeSet::uniform_tan(3))
            .unwrap();
        let sel = Selection::exist(HalfPlane::above(0.3, -50.0));
        assert_eq!(db.query("land", sel.clone()).unwrap().ids(), &[0, 1, 2, 3]);
        // Knock tuple 2's entries out of the index behind the engine's back.
        let victim = db.fetch_tuple("land", 2).unwrap();
        {
            let view = &mut db.view;
            let rel = view.relations.get_mut("land").unwrap();
            let Some(Index::Dual(idx)) = rel.indexes[IndexKind::Dual as usize].as_mut() else {
                panic!("built above");
            };
            assert!(idx.remove(view.pager.as_mut(), 2, &victim).unwrap());
        }
        assert_eq!(
            db.relation("land").unwrap().health(),
            &RelationHealth::Healthy
        );
        // The heap delete stands; the index is flagged, not trusted.
        assert_eq!(db.delete("land", 2).unwrap(), victim);
        assert_eq!(
            db.relation("land").unwrap().health(),
            &RelationHealth::Degraded {
                corrupt_indexes: vec![IndexKind::Dual.name().to_string()]
            }
        );
        assert_eq!(db.query("land", sel.clone()).unwrap().ids(), &[0, 1, 3]);
        assert!(matches!(
            db.query_with("land", sel.clone(), Strategy::T2),
            Err(CdbError::NoIndex(_))
        ));
        assert_eq!(
            db.rebuild_indexes("land").unwrap(),
            vec![IndexKind::Dual.name().to_string()]
        );
        assert_eq!(
            db.relation("land").unwrap().health(),
            &RelationHealth::Healthy
        );
        assert_eq!(
            db.query_with("land", sel, Strategy::T2).unwrap().ids(),
            &[0, 1, 3]
        );
        // A clean delete leaves the relation healthy.
        db.delete("land", 0).unwrap();
        assert_eq!(
            db.relation("land").unwrap().health(),
            &RelationHealth::Healthy
        );
    }

    /// Regression: the flag a missed index entry raises lived in memory
    /// only, and `open` verifies checksums, which well-formed stale pages
    /// pass — so after a checkpoint and reopen the index came back
    /// `Healthy` and served its dangling id again. The catalog persists
    /// the flag until `rebuild_indexes` clears it.
    #[test]
    fn a_flagged_index_stays_degraded_across_reopen() {
        let path = tmp_path("flagged");
        let mut db = ConstraintDb::create(&path, DbConfig::paper_1999()).unwrap();
        db.create_relation("land", 2).unwrap();
        for s in [
            "y >= 0 && y <= 2 && x >= 0 && x + y <= 4",
            "y >= x && y <= x + 1 && x >= 10",
            "y >= -1 && y <= 1 && x >= -3 && x <= -1",
        ] {
            db.insert("land", parse_tuple(s).unwrap()).unwrap();
        }
        db.build_dual_index("land", SlopeSet::uniform_tan(3))
            .unwrap();
        let victim = db.fetch_tuple("land", 1).unwrap();
        {
            let view = &mut db.view;
            let rel = view.relations.get_mut("land").unwrap();
            let Some(Index::Dual(idx)) = rel.indexes[IndexKind::Dual as usize].as_mut() else {
                panic!("built above");
            };
            assert!(idx.remove(view.pager.as_mut(), 1, &victim).unwrap());
        }
        db.delete("land", 1).unwrap();
        let degraded = RelationHealth::Degraded {
            corrupt_indexes: vec![IndexKind::Dual.name().to_string()],
        };
        assert_eq!(db.relation("land").unwrap().health(), &degraded);
        db.close().unwrap();

        let mut db = ConstraintDb::open(&path).unwrap();
        assert_eq!(db.relation("land").unwrap().health(), &degraded);
        assert!(!db.recovery_report().is_clean());
        let sel = Selection::exist(HalfPlane::above(0.3, -50.0));
        assert_eq!(db.query("land", sel.clone()).unwrap().ids(), &[0, 2]);
        assert_eq!(
            db.rebuild_indexes("land").unwrap(),
            vec![IndexKind::Dual.name().to_string()]
        );
        db.close().unwrap();

        let db = ConstraintDb::open(&path).unwrap();
        assert!(db.recovery_report().is_clean());
        let t2 = db.query_with("land", sel, Strategy::T2).unwrap();
        assert_eq!(t2.ids(), &[0, 2]);
        drop(db);
        std::fs::remove_file(&path).unwrap();
    }

    /// Regression: a tuple whose stored form outgrows a heap page reached
    /// `HeapFile::insert`'s `assert!`, and a relation of any dimension could
    /// be created — one of 4·10⁹ dimensions let a single SQL statement ask
    /// for 32 GB. Both are typed refusals, decided before the heap is
    /// touched, at both ends of the bound.
    #[test]
    fn records_and_dimensions_past_a_heap_page_are_typed_errors() {
        let mut db = sample_db();
        let conjunction = |n: usize, var: &str| {
            let cs: Vec<String> = (0..n).map(|i| format!("{var} >= {i}")).collect();
            parse_tuple(&cs.join(" && ")).unwrap()
        };
        // 2-D constraints take 25 bytes after a 4-byte header; a page
        // holds 1 016.
        let pages = db.live_pages();
        assert_eq!(
            db.insert("land", conjunction(61, "y")),
            Err(CdbError::TupleTooLarge {
                len: 1529,
                max: 1016
            })
        );
        assert_eq!(
            db.insert("land", conjunction(41, "y")),
            Err(CdbError::TupleTooLarge {
                len: 1029,
                max: 1016
            })
        );
        assert_eq!(
            (db.live_pages(), db.relation("land").unwrap().len()),
            (pages, 4)
        );
        assert_eq!(db.insert("land", conjunction(40, "y")), Ok(4));

        for dim in [0, 126, 4_000_000_000] {
            assert!(matches!(
                db.create_relation("big", dim),
                Err(CdbError::DimensionOutOfRange { max: 125, .. })
            ));
        }
        assert!(db.relation("big").is_err());
        // One constraint of 125 coefficients is 1 013 bytes: it fits.
        db.create_relation("widest", 125).unwrap();
        let widest = LinearConstraint::new(vec![1.0; 125], 0.0, RelOp::Ge);
        let widest = GeneralizedTuple::new(vec![widest]);
        assert_eq!(db.insert("widest", widest), Ok(0));
    }

    #[test]
    fn rejects_bad_tuples() {
        let mut db = sample_db();
        let t3 = parse_tuple("z >= 0").unwrap();
        assert!(matches!(
            db.insert("land", t3),
            Err(CdbError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        ));
        let unsat = parse_tuple("x >= 1 && x <= 0 && y >= 0").unwrap();
        assert!(matches!(
            db.insert("land", unsat),
            Err(CdbError::UnsatisfiableTuple)
        ));
    }

    #[test]
    fn scan_query_works_without_index() {
        let db = sample_db();
        let r = db
            .query_with(
                "land",
                Selection::exist(HalfPlane::above(0.0, 4.5)),
                Strategy::Scan,
            )
            .unwrap();
        // Tuples 1 (unbounded strip) and 3 (high square) reach y >= 4.5.
        assert_eq!(r.ids(), &[1, 3]);
        assert_eq!(r.stats.method, Some(MethodKind::SeqScan));
    }

    #[test]
    fn query_without_index_plans_a_scan() {
        let db = sample_db();
        // The planner serves index-less relations through SeqScan (the old
        // engine returned NoIndex here).
        let r = db.exist("land", HalfPlane::above(0.3, 0.0)).unwrap();
        let want = db
            .query_with(
                "land",
                Selection::exist(HalfPlane::above(0.3, 0.0)),
                Strategy::Scan,
            )
            .unwrap();
        assert_eq!(r.ids(), want.ids());
        assert_eq!(r.stats.method, Some(MethodKind::SeqScan));
        // Explicitly forcing an index technique still reports NoIndex.
        let err = db
            .query_with(
                "land",
                Selection::exist(HalfPlane::above(0.3, 0.0)),
                Strategy::T2,
            )
            .unwrap_err();
        assert!(matches!(err, CdbError::NoIndex(_)));
    }

    /// A 2-D method — the R⁺-tree — forced on an `E^d` relation is
    /// refused for the dimension, in the words EXPLAIN lists it with — not
    /// for an index no build could supply — whether or not the relation
    /// has a dual index over slope points. The restricted search and T2
    /// run over slope points: without them they are the missing index,
    /// with them the restricted search is refused off the points and T2
    /// answers.
    #[test]
    fn forced_planar_methods_on_an_ed_relation_name_the_dimension() {
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("boxes", 3).unwrap();
        let cube = "x >= 0 && x <= 1 && y >= 0 && y <= 1 && z >= 0 && z <= 1";
        db.insert("boxes", parse_tuple(cube).unwrap()).unwrap();
        let sel = Selection::exist(HalfPlane::new(vec![0.1, 0.2], 0.0, RelOp::Ge));
        for indexed in [false, true] {
            if indexed {
                let points = SlopePoints::grid(3, 3, 1.0);
                db.build_dual_index("boxes", points).unwrap();
            }
            let refused = db.query_with("boxes", sel.clone(), Strategy::RPlus);
            let why = "forced method RPlus: serves 2-D queries only, the query is 3-D";
            assert_eq!(
                refused.unwrap_err(),
                CdbError::UnsupportedQuery(why.into()),
                "indexed={indexed}"
            );
            let restricted = db
                .query_with("boxes", sel.clone(), Strategy::Restricted)
                .map(|_| ());
            let t2 = db.query_with("boxes", sel.clone(), Strategy::T2);
            if indexed {
                let why = "forced method Restricted: slope point [0.1, 0.2] is not in the \
                           predefined set S";
                assert_eq!(restricted, Err(CdbError::UnsupportedQuery(why.into())));
                assert_eq!(t2.unwrap().ids(), &[0]);
            } else {
                let missing = Err(CdbError::NoIndex("boxes".into()));
                assert_eq!((restricted, t2.map(|_| ())), (missing.clone(), missing));
            }
            let r = db.query_with("boxes", sel.clone(), Strategy::Auto).unwrap();
            assert_eq!(r.ids(), &[0], "indexed={indexed}");
        }
    }

    #[test]
    fn indexed_queries_match_scan() {
        let mut db = sample_db();
        db.build_dual_index("land", SlopeSet::uniform_tan(4))
            .unwrap();
        for (a, b) in [(0.3, -5.0), (1.0, 0.0), (-0.7, 2.0), (4.0, 1.0)] {
            for sel in [
                Selection::exist(HalfPlane::above(a, b)),
                Selection::exist(HalfPlane::below(a, b)),
                Selection::all(HalfPlane::above(a, b)),
                Selection::all(HalfPlane::below(a, b)),
            ] {
                let want = db.query_with("land", sel.clone(), Strategy::Scan).unwrap();
                for st in [Strategy::T2, Strategy::Auto] {
                    let got = db.query_with("land", sel.clone(), st).unwrap();
                    assert_eq!(got.ids(), want.ids(), "{st:?} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn insert_after_index_then_query() {
        let mut db = sample_db();
        db.build_dual_index("land", SlopeSet::uniform_tan(3))
            .unwrap();
        db.insert(
            "land",
            parse_tuple("y >= 90 && y <= 95 && x >= 0 && x <= 5").unwrap(),
        )
        .unwrap();
        let r = db
            .query_with(
                "land",
                Selection::exist(HalfPlane::above(0.11, 80.0)),
                Strategy::T2,
            )
            .unwrap();
        // Tuple 1 is an unbounded strip with TOP = +∞, so it also qualifies.
        assert_eq!(r.ids(), &[1, 4], "the new tuple is found through the index");
    }

    #[test]
    fn delete_removes_from_results() {
        let mut db = sample_db();
        db.build_dual_index("land", SlopeSet::uniform_tan(3))
            .unwrap();
        let q = || Selection::exist(HalfPlane::above(0.11, 4.0));
        let before = db.query_with("land", q(), Strategy::T2).unwrap();
        assert!(before.ids().contains(&3));
        let removed = db.delete("land", 3).unwrap();
        assert!(removed.contains(&[6.0, 6.0]));
        let after = db.query_with("land", q(), Strategy::T2).unwrap();
        assert!(!after.ids().contains(&3));
        assert!(matches!(
            db.delete("land", 3),
            Err(CdbError::NoSuchTuple(3))
        ));
    }

    #[test]
    fn io_stats_accumulate_and_reset() {
        let mut db = sample_db();
        db.build_dual_index("land", SlopeSet::uniform_tan(2))
            .unwrap();
        assert!(db.io_stats().accesses() > 0);
        db.reset_io_stats();
        assert_eq!(db.io_stats().accesses(), 0);
        let _ = db
            .query_with(
                "land",
                Selection::exist(HalfPlane::above(0.37, 0.0)),
                Strategy::T2,
            )
            .unwrap();
        assert!(db.io_stats().reads > 0, "queries cost page reads");
        assert!(db.live_pages() > 0);
    }

    #[test]
    fn dimension_checked_on_query() {
        let mut db = sample_db();
        db.build_dual_index("land", SlopeSet::uniform_tan(2))
            .unwrap();
        let q3 = HalfPlane::new(vec![1.0, 1.0], 0.0, cdb_geometry::RelOp::Ge);
        assert!(matches!(
            db.query("land", Selection::exist(q3)),
            Err(CdbError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn line_queries_through_facade() {
        let mut db = sample_db();
        db.build_dual_index("land", SlopeSet::uniform_tan(3))
            .unwrap();
        // The unbounded strip (tuple 1) straddles y = x + 0.5 far from the
        // window; the line query must still find it.
        let r = db.exist_line("land", 1.0, 0.5).unwrap();
        assert!(r.ids().contains(&1));
        // y = 50 still hits the unbounded strip (it climbs forever).
        let r = db.exist_line("land", 0.0, 50.0).unwrap();
        assert_eq!(r.ids(), &[1]);
        // A line parallel to the strip but below it misses everything.
        let r = db.exist_line("land", 1.0, -5.0).unwrap();
        assert!(r.is_empty());
        // Nothing is contained in a line here.
        let r = db.all_line("land", 1.0, 0.5).unwrap();
        assert!(r.is_empty());
    }

    /// Line queries are planned like every other selection, so whatever
    /// access methods a relation has — none, the R⁺-tree alone, a dual
    /// index marked corrupt (each of which used to answer `NoIndex`) —
    /// answers them, and the stats say which search did.
    #[test]
    fn line_queries_are_served_by_every_access_method() {
        use cdb_geometry::predicates::{all_hyperplane, exist_hyperplane};
        use cdb_workload::{ObjectSize, TupleGen};
        let mut g = TupleGen::new(29, cdb_geometry::Rect::paper_window(), ObjectSize::Small);
        let mut tuples: Vec<GeneralizedTuple> = (0..80).map(|_| g.bounded_tuple()).collect();
        tuples.extend((0..20).map(|_| g.unbounded_tuple()));
        tuples.push(parse_tuple("y = 0.5x + 2 && x >= 0 && x <= 10").unwrap());
        let bed = |prepare: &dyn Fn(&mut ConstraintDb)| {
            let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
            db.create_relation("r", 2).unwrap();
            for t in &tuples {
                db.insert("r", t.clone()).unwrap();
            }
            prepare(&mut db);
            db
        };
        let beds = [
            ("no index", bed(&|_| ()), vec![MethodKind::SeqScan]),
            (
                "R⁺-tree only",
                bed(&|db| db.build_rplus_index("r", 0.8).unwrap()),
                vec![MethodKind::SeqScan, MethodKind::RPlus],
            ),
            (
                "corrupt dual index",
                bed(&|db| {
                    db.build_dual_index("r", SlopeSet::uniform_tan(3)).unwrap();
                    let rel = db.for_update("r").unwrap().1;
                    rel.set_corrupt(IndexKind::Dual, true);
                }),
                vec![MethodKind::SeqScan],
            ),
        ];
        for (what, db, methods) in &beds {
            for (a, c) in [(0.5, 2.0), (0.3, 0.0), (-1.2, 15.0), (2.0, -30.0)] {
                let exist = db.exist_line("r", a, c).unwrap();
                let all = db.all_line("r", a, c).unwrap();
                let on = |keep: &dyn Fn(&GeneralizedTuple) -> bool| -> Vec<u32> {
                    let ids = (0u32..).zip(&tuples).filter(|(_, t)| keep(t));
                    ids.map(|(id, _)| id).collect()
                };
                let want = on(&|t| exist_hyperplane(&[a], c, t));
                assert_eq!(exist.ids(), want, "{what}: EXIST y = {a}x + {c}");
                let want = on(&|t| all_hyperplane(&[a], c, t));
                assert_eq!(all.ids(), want, "{what}: ALL y = {a}x + {c}");
                for r in [&exist, &all] {
                    let ran = r.stats.method.expect("planned");
                    assert!(methods.contains(&ran), "{what}: ran {ran}");
                }
            }
            assert_eq!(db.all_line("r", 0.5, 2.0).unwrap().ids(), &[100], "{what}");
        }
    }

    #[test]
    fn unbounded_tuples_round_trip_through_storage() {
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("r", 2).unwrap();
        let t = parse_tuple("y >= x").unwrap();
        let id = db.insert("r", t.clone()).unwrap();
        let back = db.fetch_tuple("r", id).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn drop_relation_frees_all_pages() {
        let mut db = sample_db();
        db.build_dual_index("land", SlopeSet::uniform_tan(3))
            .unwrap();
        db.build_rplus_index("land", 1.0).unwrap();
        db.create_relation("other", 2).unwrap();
        db.insert(
            "other",
            parse_tuple("x >= 0 && x <= 1 && y >= 0 && y <= 1").unwrap(),
        )
        .unwrap();
        assert_eq!(
            db.relation_names(),
            vec!["land".to_string(), "other".to_string()]
        );
        let other_pages = db.relation("other").unwrap().page_count() as usize;
        db.drop_relation("land").unwrap();
        assert!(db.relation("land").is_err());
        assert_eq!(db.live_pages(), other_pages, "land's pages reclaimed");
        assert!(matches!(
            db.drop_relation("land"),
            Err(CdbError::RelationNotFound(_))
        ));
    }

    #[test]
    fn page_accounting_matches_pager() {
        let mut db = sample_db();
        db.build_dual_index("land", SlopeSet::uniform_tan(2))
            .unwrap();
        db.build_rplus_index("land", 1.0).unwrap();
        let rel_pages = db.relation("land").unwrap().page_count();
        assert_eq!(rel_pages as usize, db.live_pages());
    }

    #[test]
    fn rebuild_dual_index_frees_old_pages() {
        let mut db = sample_db();
        db.build_dual_index("land", SlopeSet::uniform_tan(4))
            .unwrap();
        let first = db.live_pages();
        // Rebuilding must not leak the first forest's pages.
        db.build_dual_index("land", SlopeSet::uniform_tan(4))
            .unwrap();
        assert_eq!(db.live_pages(), first, "old index pages reclaimed");
    }

    #[test]
    fn corrupt_record_is_an_error_not_a_panic() {
        let mut db = sample_db();
        let rid = db.relation("land").unwrap().slots[2].unwrap();
        // Truncate record 2 in place: shrink its slot-directory length so
        // the stored bytes no longer parse as a generalized tuple.
        let mut buf = vec![0u8; db.view.config.page_size];
        db.view.pager.read(rid.page, &mut buf).unwrap();
        let len_off = 4 + rid.slot as usize * 4 + 2;
        buf[len_off..len_off + 2].copy_from_slice(&2u16.to_le_bytes());
        db.view.pager.write(rid.page, &buf).unwrap();

        assert_eq!(db.fetch_tuple("land", 2), Err(CdbError::CorruptRecord(2)));
        assert_eq!(
            db.scan_relation("land").unwrap_err(),
            CdbError::CorruptRecord(2)
        );
        // Planned queries surface the error instead of panicking too.
        let err = db
            .query_with(
                "land",
                Selection::exist(HalfPlane::above(0.0, -100.0)),
                Strategy::Scan,
            )
            .unwrap_err();
        assert_eq!(err, CdbError::CorruptRecord(2));
    }

    #[test]
    fn scan_is_stable_under_mixed_updates() {
        let mut db = sample_db();
        // Interleave deletes and inserts so record ids are reused and the
        // reverse map must stay exact.
        db.delete("land", 1).unwrap();
        db.delete("land", 2).unwrap();
        let id4 = db
            .insert(
                "land",
                parse_tuple("y >= 8 && y <= 9 && x >= 0 && x <= 1").unwrap(),
            )
            .unwrap();
        db.delete("land", 0).unwrap();
        let id5 = db
            .insert(
                "land",
                parse_tuple("y >= -9 && y <= -8 && x >= 0 && x <= 1").unwrap(),
            )
            .unwrap();
        let mut ids: Vec<u32> = db
            .scan_relation("land")
            .unwrap()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![3, id4, id5]);
        let t4 = db.fetch_tuple("land", id4).unwrap();
        assert!(t4.contains(&[0.5, 8.5]), "ids resolve to the right tuples");
    }

    #[test]
    fn rplus_baseline_through_the_facade() {
        let mut db = sample_db();
        db.build_rplus_index("land", 1.0).unwrap();
        let Some(Index::RPlus(rp)) = db.relation("land").unwrap().built(IndexKind::RPlus) else {
            panic!("built above");
        };
        assert_eq!(rp.tree.len(), 3, "three bounded tuples packed");
        assert_eq!(rp.unbounded, vec![1], "the strip is unbounded");
        for sel in [
            Selection::exist(HalfPlane::above(0.4, 1.0)),
            Selection::all(HalfPlane::above(0.4, 1.0)),
            Selection::exist(HalfPlane::below(-0.5, 3.0)),
            Selection::all(HalfPlane::below(-0.5, 3.0)),
        ] {
            let want = db.query_with("land", sel.clone(), Strategy::Scan).unwrap();
            let got = db.query_with("land", sel.clone(), Strategy::RPlus).unwrap();
            assert_eq!(got.ids(), want.ids(), "{sel:?}");
            assert_eq!(got.stats.method, Some(MethodKind::RPlus));
        }
        // Mixed updates: the delete drops the packed tree (a forced R⁺
        // query is refused as on an unindexed relation), the insert finds
        // none to maintain, and a re-pack is oracle-exact again.
        db.delete("land", 3).unwrap();
        let rel = db.relation("land").unwrap();
        assert!(rel.built(IndexKind::RPlus).is_none());
        assert_eq!(rel.page_count(), db.live_pages() as u64, "its pages freed");
        let sel = Selection::exist(HalfPlane::above(0.0, 4.5));
        let refused = db.query_with("land", sel.clone(), Strategy::RPlus);
        assert_eq!(refused.err(), Some(CdbError::NoIndex("land".into())));
        let id = db
            .insert(
                "land",
                parse_tuple("y >= 5 && y <= 7 && x >= 5 && x <= 8").unwrap(),
            )
            .unwrap();
        assert!(db
            .relation("land")
            .unwrap()
            .built(IndexKind::RPlus)
            .is_none());
        db.build_rplus_index("land", 1.0).unwrap();
        let want = db.query_with("land", sel.clone(), Strategy::Scan).unwrap();
        let got = db.query_with("land", sel.clone(), Strategy::RPlus).unwrap();
        assert_eq!(got.ids(), want.ids());
        assert!(got.ids().contains(&id) && !got.ids().contains(&3));
    }

    #[test]
    fn explain_names_the_rule_and_the_actuals() {
        let mut db = sample_db();
        db.build_dual_index("land", SlopeSet::uniform_tan(4))
            .unwrap();
        let report = db
            .explain("land", Selection::exist(HalfPlane::above(0.37, 0.0)))
            .unwrap();
        let text = report.to_string();
        assert!(
            text.contains("method=T2 (auto)  case: between slopes"),
            "{text}"
        );
        assert!(text.contains("Restricted rejected: slope 0.37"), "{text}");
        assert!(text.contains("actual:"), "{text}");
        assert_eq!(report.result.stats.method, Some(MethodKind::T2));
    }

    #[test]
    fn planner_prefers_restricted_for_member_slopes() {
        use cdb_workload::{DatasetSpec, ObjectSize};
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("land", 2).unwrap();
        for t in DatasetSpec::paper_1999(400, ObjectSize::Small, 0xDB).generate() {
            db.insert("land", t).unwrap();
        }
        db.build_dual_index("land", SlopeSet::uniform_tan(4))
            .unwrap();
        let member = db
            .relation("land")
            .unwrap()
            .index()
            .unwrap()
            .slopes()
            .unwrap()
            .get(1);
        let plan = db
            .plan_query("land", &Selection::exist(HalfPlane::above(member, 0.0)))
            .unwrap();
        assert_eq!(plan.method, MethodKind::Restricted);
        assert!(matches!(plan.case, crate::plan::PlanCase::Member { .. }));
        // A non-member slope must not plan Restricted (it is infeasible).
        let plan = db
            .plan_query(
                "land",
                &Selection::exist(HalfPlane::above(member + 0.01, 0.0)),
            )
            .unwrap();
        assert_ne!(plan.method, MethodKind::Restricted);
        assert!(plan
            .rejected
            .iter()
            .any(|(m, _)| *m == MethodKind::Restricted));
    }

    #[test]
    fn read_only_serves_queries_and_refuses_mutations() {
        let path = tmp_path("ro");
        let mut db = ConstraintDb::create(&path, DbConfig::paper_1999()).unwrap();
        db.create_relation("land", 2).unwrap();
        for s in [
            "y >= 0 && y <= 2 && x >= 0 && x + y <= 4",
            "y >= 5 && y <= 7 && x >= 5 && x <= 8",
        ] {
            db.insert("land", parse_tuple(s).unwrap()).unwrap();
        }
        db.build_dual_index("land", SlopeSet::uniform_tan(3))
            .unwrap();
        db.close().unwrap();

        let ro = ConstraintDb::open_read_only(&path).unwrap();
        assert!(ro.is_read_only());
        assert!(ro.recovery_report().is_clean());
        let r = ro.exist("land", HalfPlane::above(0.0, 4.5)).unwrap();
        assert_eq!(r.ids(), &[1]);
        let mut ro = ro;
        assert!(matches!(
            ro.insert("land", parse_tuple("y >= x").unwrap()),
            Err(CdbError::ReadOnly)
        ));
        assert!(matches!(ro.delete("land", 0), Err(CdbError::ReadOnly)));
        assert!(matches!(
            ro.create_relation("more", 2),
            Err(CdbError::ReadOnly)
        ));
        assert!(matches!(ro.drop_relation("land"), Err(CdbError::ReadOnly)));
        assert!(matches!(
            ro.build_dual_index("land", SlopeSet::uniform_tan(2)),
            Err(CdbError::ReadOnly)
        ));
        assert!(matches!(
            ro.build_rplus_index("land", 1.0),
            Err(CdbError::ReadOnly)
        ));
        assert!(matches!(
            ro.rebuild_indexes("land"),
            Err(CdbError::ReadOnly)
        ));
        // Checkpoint and close are silent no-ops on a read-only handle.
        ro.checkpoint().unwrap();
        ro.close().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_heap_page_quarantines_only_that_relation() {
        let path = tmp_path("quar");
        let mut db = ConstraintDb::create(&path, DbConfig::paper_1999()).unwrap();
        for name in ["good", "bad"] {
            db.create_relation(name, 2).unwrap();
            for s in [
                "y >= 0 && y <= 2 && x >= 0 && x + y <= 4",
                "y >= 5 && y <= 7 && x >= 5 && x <= 8",
            ] {
                db.insert(name, parse_tuple(s).unwrap()).unwrap();
            }
        }
        let victim = db.relation("bad").unwrap().heap.pages()[0];
        db.close().unwrap();

        // Flip bytes inside the victim heap page on disk.
        let offset = {
            let fp = FilePager::open(&path).unwrap();
            fp.page_disk_offset(victim).expect("page is written")
        };
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(offset + 13)).unwrap();
            f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        }

        let db = ConstraintDb::open(&path).unwrap();
        assert!(!db.recovery_report().is_clean());
        assert_eq!(db.recovery_report().quarantined(), vec!["bad"]);
        assert!(matches!(
            db.relation("bad").unwrap().health(),
            RelationHealth::Quarantined { .. }
        ));
        // The sibling answers normally…
        let r = db.exist("good", HalfPlane::above(0.0, 4.5)).unwrap();
        assert_eq!(r.ids(), &[1]);
        // …while every path into the quarantined relation is refused.
        assert!(matches!(
            db.exist("bad", HalfPlane::above(0.0, 4.5)),
            Err(CdbError::Quarantined(_))
        ));
        assert!(matches!(
            db.scan_relation("bad"),
            Err(CdbError::Quarantined(_))
        ));
        assert!(matches!(
            db.fetch_tuple("bad", 0),
            Err(CdbError::Quarantined(_))
        ));
        let mut db = db;
        assert!(matches!(
            db.insert("bad", parse_tuple("y >= x").unwrap()),
            Err(CdbError::Quarantined(_))
        ));
        assert!(matches!(
            db.rebuild_indexes("bad"),
            Err(CdbError::Quarantined(_))
        ));
        // Dropping the quarantined relation is the way out.
        db.drop_relation("bad").unwrap();
        assert!(db.relation("bad").is_err());
        db.close().unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}
