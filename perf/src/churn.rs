//! `durable_churn`: one writer against a file-backed engine with the
//! write-ahead log armed — the index layer used for writes.
//!
//! The loop is the server's writer lane without the sockets: apply a
//! batch of mutations (insert a fresh tuple / delete the oldest, so N
//! stays put), `wal_sync()`, checkpoint when 64 mutations have piled up,
//! publish a snapshot, and only then count the batch as acknowledged.
//! After each acknowledgement one selection with a slope in `S` runs on
//! the published snapshot, as a reader of that server would, and is
//! checked against the harness's model of the relation. At the end the
//! engine is dropped without `close()`, reopened, and compared with the
//! model: an acknowledged mutation that did not survive is a failure.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cdb_core::{ConstraintDb, Snapshot, Strategy};
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_storage::wal_path;

use crate::bed::{build_repeatedly, file_bed, file_len, Scratch, READ_REL};
use crate::inputs::{self, dual_keys, slope_set, DualKeys, MemberSelection};
use crate::model::{Model, Mutation, Policy, Writer};
use crate::report::Outcome;
use crate::stats::{median, summarise};
use crate::trace::Tracer;
use crate::{Cfg, Run};

/// Mutations per `wal_sync`.
const BATCH: usize = 8;
/// Mutations between checkpoints: the server's `checkpoint_every` default.
const CHECKPOINT_EVERY: u64 = 64;
/// `space_bytes_per_tuple` is sampled at the first checkpoint after this
/// many mutations (and `pages_per_query` is the mean over the first round
/// of the selection set), so both are counts that do not depend on how
/// far a time-boxed run gets.
const SPACE_AFTER_MUTATIONS: u64 = 4096;

const PAGE_SIZE: u64 = cdb_storage::DEFAULT_PAGE_SIZE as u64;

struct Inputs {
    tuples: Vec<GeneralizedTuple>,
    selections: Vec<MemberSelection>,
    generate_s: f64,
    calibrate_s: f64,
}

fn inputs(cfg: &Cfg) -> Inputs {
    let t0 = Instant::now();
    let tuples = inputs::dataset(cfg.scale.n_write, cfg.seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let slopes = slope_set();
    let keys: Vec<DualKeys> = tuples.iter().map(|t| dual_keys(t, &slopes)).collect();
    let selections = inputs::member_selections(&keys, cfg.scale.per_kind, cfg.seed);
    Inputs {
        tuples,
        selections,
        generate_s,
        calibrate_s: t0.elapsed().as_secs_f64(),
    }
}

/// The engine under churn plus everything the harness tracks about it.
struct Churn {
    db: ConstraintDb,
    db_path: PathBuf,
    wal: PathBuf,
    writer: Writer,
    /// The latest published snapshot, like the server's snapshot slot.
    published: Option<Snapshot>,
    since_checkpoint: u64,
    mutations: u64,
    batches: u64,
    checkpoints: u64,
    /// Log bytes appended, and bytes of the tuples users inserted.
    wal_bytes: u64,
    user_bytes: u64,
    space_bytes_per_tuple: Option<f64>,
}

/// Builds the bed `builds` times in `scratch` (create, load, index,
/// checkpoint, arm the log); returns the last one and `setup_s`.
fn setup(inp: &Inputs, cfg: &Cfg, scratch: &Scratch, builds: usize) -> Run<(Churn, f64)> {
    let ((db, db_path), setup_s) = build_repeatedly(builds, |rep| {
        let db_path = scratch.file(&format!("churn-{rep}.cdb"));
        let mut db = file_bed(&db_path, &[(READ_REL, &inp.tuples)])?;
        db.begin_wal()?;
        Ok((db, db_path))
    })?;
    Ok((
        Churn {
            db,
            wal: wal_path(&db_path),
            db_path,
            writer: Writer::new(
                inputs::write_stream(cfg.seed),
                Policy::Alternate,
                Model::loaded(&inp.tuples),
            ),
            published: None,
            since_checkpoint: 0,
            mutations: 0,
            batches: 0,
            checkpoints: 0,
            wal_bytes: 0,
            user_bytes: 0,
            space_bytes_per_tuple: None,
        },
        setup_s,
    ))
}

/// Opens and closes spans when the run is traced; does nothing otherwise.
struct Probe<'a> {
    tracer: Option<&'a mut Tracer>,
    op: u64,
}

impl Probe<'_> {
    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let op = self.op;
        self.tracer
            .as_deref_mut()
            .map(|t| t.begin(name, parent, op))
    }

    fn end(&mut self, span: Option<usize>) {
        if let (Some(t), Some(s)) = (self.tracer.as_deref_mut(), span) {
            t.end(s);
        }
    }
}

impl Churn {
    /// Applies one batch through to its acknowledgement. Pushes each
    /// mutation's start-to-ack latency (seconds) and returns the batch's
    /// busy time. With a tracer, every call into the engine is a span
    /// under the batch's.
    fn batch(&mut self, tracer: Option<&mut Tracer>, latencies: &mut Vec<f64>) -> Run<f64> {
        let mut probe = Probe {
            tracer,
            op: self.batches,
        };
        // Log growth is a layer metric: only a traced batch stats the file.
        let traced = probe.tracer.is_some();
        let wal_len = |wal: &Path| if traced { file_len(wal) } else { 0 };
        let wal_before = wal_len(&self.wal);
        let batch_span = probe.begin("churn.batch", None);
        let mut starts = Vec::with_capacity(BATCH);
        let mut inserted = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let m = self.writer.next();
            let keep = m.clone();
            let name = match m {
                Mutation::Insert(_) => "core.db.insert",
                Mutation::Delete(_) => "core.db.delete",
            };
            starts.push(Instant::now());
            let span = probe.begin(name, batch_span);
            let id = m.apply(&mut self.db, READ_REL)?;
            probe.end(span);
            match keep {
                // The next delete must see this one; forgetting is cheap.
                Mutation::Delete(_) => self.writer.acked(keep, id),
                // Remembering an insert computes its dual keys: harness
                // work, kept out of the acknowledgement window.
                Mutation::Insert(_) => inserted.push((keep, id)),
            }
        }
        let span = probe.begin("storage.wal.sync", batch_span);
        self.db.wal_sync()?;
        probe.end(span);
        self.since_checkpoint += BATCH as u64;
        self.mutations += BATCH as u64;
        let wal_after_sync = wal_len(&self.wal);
        let checkpointed = self.since_checkpoint >= CHECKPOINT_EVERY;
        if checkpointed {
            let span = probe.begin("storage.file.checkpoint", batch_span);
            self.db.checkpoint()?;
            probe.end(span);
            self.since_checkpoint = 0;
            self.checkpoints += 1;
        }
        let span = probe.begin("core.db.snapshot", batch_span);
        self.published = Some(self.db.snapshot()?);
        probe.end(span);
        let ack = Instant::now();
        probe.end(batch_span);

        latencies.extend(starts.iter().map(|s| (ack - *s).as_secs_f64()));
        self.wal_bytes += wal_after_sync.saturating_sub(wal_before);
        for (m, id) in inserted {
            if let Mutation::Insert(t) = &m {
                self.user_bytes += t.encode().len() as u64;
            }
            self.writer.acked(m, id);
        }
        self.batches += 1;
        if checkpointed
            && self.space_bytes_per_tuple.is_none()
            && self.mutations >= SPACE_AFTER_MUTATIONS
        {
            self.sample_space()?;
        }
        Ok((ack - starts[0]).as_secs_f64())
    }

    /// Database file plus log, per live tuple. Call right after a
    /// checkpoint, when the log has just been truncated.
    fn sample_space(&mut self) -> Run<()> {
        let live = self.db.relation(READ_REL)?.len();
        let bytes = file_len(&self.db_path) + file_len(&self.wal);
        self.space_bytes_per_tuple = Some(bytes as f64 / live as f64);
        Ok(())
    }

    /// One selection on the published snapshot, checked against the
    /// model. Returns `(latency s, page accesses, answered correctly)`.
    fn query(&self, sel: &MemberSelection) -> (f64, u64, bool) {
        let snap = self.published.as_ref().expect("a batch was published");
        let s = sel.sel.clone();
        let t0 = Instant::now();
        let r = snap.query_with(READ_REL, s, Strategy::Auto);
        let dt = t0.elapsed().as_secs_f64();
        match r {
            Ok(r) => {
                let expected = sel.expected(self.writer.model.keyed());
                (dt, r.stats.total_accesses(), r.ids() == expected.as_slice())
            }
            Err(_) => (dt, 0, false),
        }
    }

    /// Drops the engine without `close()`, reopens the file and compares
    /// it with the model. Returns `(failures, reopen ms, records replayed)`.
    fn crash_and_reopen(self) -> Run<(u64, f64, u64)> {
        let Churn {
            db,
            db_path,
            writer,
            published,
            ..
        } = self;
        drop((published, db));
        let t0 = Instant::now();
        let db = ConstraintDb::open(&db_path)?;
        let reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
        let report = db.recovery_report();
        let replayed = report.wal.as_ref().map_or(0, |w| w.replayed);
        let scanned = db.scan_relation(READ_REL)?;
        let failures = writer.model.discrepancies(&scanned) + u64::from(!report.is_clean());
        Ok((failures, reopen_ms, replayed))
    }
}

/// The untraced run: batches until `cfg.seconds` have passed.
pub fn run(cfg: &Cfg) -> Run<Outcome> {
    let inp = inputs(cfg);
    let scratch = Scratch::new("durable_churn")?;
    let (mut churn, setup_s) = setup(&inp, cfg, &scratch, cfg.scale.setup_builds)?;

    let mut out = Outcome::default();
    let mut w_lat = Vec::new();
    let mut q_lat = Vec::new();
    let mut w_busy = 0.0;
    let (mut pages, mut paged_queries) = (0u64, 0usize);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        w_busy += churn.batch(None, &mut w_lat)?;
        let sel = &inp.selections[q_lat.len() % inp.selections.len()];
        let (dt, accesses, ok) = churn.query(sel);
        if q_lat.len() < inp.selections.len() {
            pages += accesses;
            paged_queries += 1;
        }
        q_lat.push(dt);
        out.failed += u64::from(!ok);
    }
    if churn.space_bytes_per_tuple.is_none() {
        // A run too short to reach the sampling point: sample at its end.
        churn.db.checkpoint()?;
        churn.sample_space()?;
    }
    let space = churn.space_bytes_per_tuple.expect("sampled");
    let (mutations, checkpoints) = (churn.mutations, churn.checkpoints);
    let live = churn.writer.model.len() as u64;
    let (failures, _, _) = churn.crash_and_reopen()?;
    out.failed += failures;
    out.attempted = (w_lat.len() + q_lat.len()) as u64;

    out.set("setup_s", setup_s);
    out.set_queries(&summarise(&q_lat, q_lat.iter().sum()));
    out.set_writes(&summarise(&w_lat, w_busy));
    out.set("pages_per_query", pages as f64 / paged_queries as f64);
    out.set("space_bytes_per_tuple", space);
    out.count("mutations", mutations);
    out.count("checkpoints", checkpoints);
    out.count("n", live);
    Ok(out)
}

/// The traced run: a fixed number of mutations with a span around every
/// call into the engine, as many again without for reference, then the
/// crash-drop and reopen.
pub fn trace(cfg: &Cfg) -> Run<Outcome> {
    let inp = inputs(cfg);
    let scratch = Scratch::new("durable_churn-trace")?;
    let (mut churn, _) = setup(&inp, cfg, &scratch, 1)?;
    let cycle = CHECKPOINT_EVERY as usize / BATCH;
    let cycles = cfg.scale.trace_mutations / CHECKPOINT_EVERY as usize;
    let mut out = Outcome::default();

    // Checkpoint cycles alternate between untraced and traced, so both
    // see the same tree sizes and the same stretches of host noise; the
    // counters below are taken around the traced cycles only.
    let mut tracer = Tracer::new();
    let (mut plain_lat, mut traced_lat) = (Vec::new(), Vec::new());
    let (mut pages_written, mut wal_bytes, mut user_bytes, mut checkpoints) = (0, 0, 0, 0);
    for _ in 0..cycles {
        for _ in 0..cycle {
            churn.batch(None, &mut plain_lat)?;
        }
        let io_before = churn.db.io_stats();
        let before = (churn.wal_bytes, churn.user_bytes, churn.checkpoints);
        for _ in 0..cycle {
            churn.batch(Some(&mut tracer), &mut traced_lat)?;
        }
        pages_written += churn.db.io_stats().since(&io_before).writes;
        wal_bytes += churn.wal_bytes - before.0;
        user_bytes += churn.user_bytes - before.1;
        checkpoints += churn.checkpoints - before.2;
    }
    // Half a cycle more, so the crash leaves records to replay.
    for _ in 0..cycle / 2 {
        churn.batch(None, &mut plain_lat)?;
    }
    let batches = cycles * cycle;
    let mutations = (batches * BATCH) as f64;
    let quarantine = churn.db.stats_snapshot().epochs.quarantined_pages;
    let (failures, reopen_ms, replayed) = churn.crash_and_reopen()?;
    out.attempted = (plain_lat.len() + traced_lat.len()) as u64;
    out.failed = failures;

    let t = tracer.totals();
    let mean_us = |name: &str| {
        t.get(name)
            .map_or(0.0, |x| x.total_ns as f64 / x.count as f64 / 1e3)
    };
    out.set("storage.wal.sync_us", mean_us("storage.wal.sync"));
    out.set("storage.wal.records_per_sync", BATCH as f64);
    out.set("storage.wal.bytes_per_op", wal_bytes as f64 / mutations);
    out.set(
        "storage.file.checkpoint_ms",
        mean_us("storage.file.checkpoint") / 1e3,
    );
    out.set(
        "storage.file.pages_written_per_checkpoint",
        pages_written as f64 / checkpoints.max(1) as f64,
    );
    out.set(
        "storage.file.write_amp",
        (pages_written * PAGE_SIZE + wal_bytes) as f64 / user_bytes.max(1) as f64,
    );
    out.set("storage.epoch.quarantine_pages", quarantine as f64);
    out.set("core.db.insert_us", mean_us("core.db.insert"));
    out.set("core.db.delete_us", mean_us("core.db.delete"));
    out.set("core.db.snapshot_us", mean_us("core.db.snapshot"));
    // Start to acknowledgement, over the batches that ran without spans.
    out.set_p99("core.db.write_p99_ms", &plain_lat);
    out.set("core.db.reopen_ms", reopen_ms);
    out.set("core.db.replayed_records", replayed as f64);
    out.set("workload.generate_s", inp.generate_s);
    out.set("workload.calibrate_s", inp.calibrate_s);
    out.set(
        "trace.overhead_ratio",
        median(&traced_lat) / median(&plain_lat),
    );
    out.count("spans", tracer.spans().len() as u64);
    out.count("checkpoints", checkpoints);
    crate::write_trace("durable_churn", &tracer)?;
    Ok(out)
}
