//! `embedded_t2` and `embedded_restricted`: one thread calling the
//! in-memory engine as a library.
//!
//! Both run the same bed (relation `r`, N small objects, k = 4) and the
//! same selectivity band; they differ only in the query set. `embedded_t2`
//! uses random slopes, so every query sweeps with handicaps and then
//! fetches, decodes and LP-refines thousands of candidates. `embedded_restricted`
//! uses slopes from `S`, so the answer comes from B⁺-tree keys alone. A
//! change to refinement must move the first and leave the second alone; a
//! change to the tree, pager or planner shows on the second.
//!
//! After every selection the caller also updates four tuples of the
//! indexed sibling relation `w` of the same engine (an update inserts a
//! fresh tuple and deletes the oldest — the engine has no update in
//! place), so the write path's in-memory cost — 2k dual keys, 2k B⁺
//! inserts and deletes, heap — is measured beside the reads it competes
//! with for key, leaf and tuple formats, and spread over the whole run
//! like them. One update is one write sample: timing the two halves
//! apart would put the median on the gap between two clusters.

use std::hint::black_box;
use std::time::Instant;

use cdb_btree::{BTree, SweepControl};
use cdb_core::{ConstraintDb, QueryStats, SelectionKind, SqlMode, Strategy};
use cdb_geometry::predicates;
use cdb_storage::MemPager;

use crate::bed::{
    build_repeatedly, memory_bed, relation_bytes_per_tuple, Reads, TraceBed, READ_REL, WRITE_REL,
};
use crate::inputs::{self, QuerySet, ReadBed};
use crate::model::{Policy, Writer};
use crate::report::Outcome;
use crate::stats::{median, summarise};
use crate::trace::Tracer;
use crate::{Cfg, Run};

/// Updates of `w` after each selection.
const UPDATES_PER_QUERY: usize = 4;

/// Samples a 99th percentile needs so that ten lie beyond it.
const P99_SAMPLES: usize = 1000;

fn strategy(set: QuerySet) -> Strategy {
    match set {
        QuerySet::T2 => Strategy::T2,
        // The planner's choice; for a slope in S that is the restricted
        // technique.
        QuerySet::Restricted => Strategy::Auto,
    }
}

/// Builds the bed `builds` times; returns the last one and `setup_s`.
fn setup(inp: &ReadBed, builds: usize) -> Run<(ConstraintDb, f64)> {
    build_repeatedly(builds, |_| memory_bed(&inp.read, &inp.write))
}

fn writer_for(inp: &ReadBed, seed: u64) -> Writer {
    Writer::after_loading(&inp.write, seed, Policy::Alternate)
}

/// One timed mutation on `w`; returns its latency in seconds.
fn write_once(db: &mut ConstraintDb, writer: &mut Writer) -> Run<f64> {
    let m = writer.next();
    let keep = m.clone();
    let t0 = Instant::now();
    let id = m.apply(db, WRITE_REL)?;
    let dt = t0.elapsed().as_secs_f64();
    writer.acked(keep, id);
    Ok(dt)
}

/// One update of `w`: an insert and a delete, timed as one write.
fn update_once(db: &mut ConstraintDb, writer: &mut Writer) -> Run<f64> {
    Ok(write_once(db, writer)? + write_once(db, writer)?)
}

/// The untraced run: whole rounds of the query set until `cfg.seconds`
/// have passed, every answer checked against the oracle.
pub fn run(set: QuerySet, cfg: &Cfg) -> Run<Outcome> {
    let inp = inputs::read_bed(set, cfg);
    let (mut db, setup_s) = setup(&inp, cfg.scale.setup_builds)?;
    let mut writer = writer_for(&inp, cfg.seed);
    let strategy = strategy(set);
    let bed_pages = db.live_pages() as u64;

    let mut out = Outcome::default();
    let mut q_lat = Vec::new();
    let mut w_lat = Vec::new();
    let mut first_round_pages = 0u64;
    let mut rounds = 0u64;
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        for q in &inp.queries {
            let sel = q.sel.clone();
            let t0 = Instant::now();
            let r = db.query_with(READ_REL, sel, strategy);
            q_lat.push(t0.elapsed().as_secs_f64());
            match r {
                Ok(r) => {
                    if r.ids() != q.expected.as_slice() {
                        out.failed += 1;
                    }
                    if rounds == 0 {
                        first_round_pages += r.stats.total_accesses();
                    }
                }
                Err(_) => out.failed += 1,
            }
            for _ in 0..UPDATES_PER_QUERY {
                w_lat.push(update_once(&mut db, &mut writer)?);
            }
        }
        rounds += 1;
    }
    let scanned = db.scan_relation(WRITE_REL)?;
    out.failed += writer.model.discrepancies(&scanned);
    out.attempted = (q_lat.len() + w_lat.len()) as u64;

    out.set("setup_s", setup_s);
    out.set_queries(&summarise(&q_lat, q_lat.iter().sum()));
    out.set_writes(&summarise(&w_lat, w_lat.iter().sum()));
    out.set(
        "pages_per_query",
        first_round_pages as f64 / inp.queries.len() as f64,
    );
    out.set(
        "space_bytes_per_tuple",
        relation_bytes_per_tuple(&db, READ_REL)?,
    );
    out.count("rounds", rounds);
    out.count("queries_per_round", inp.queries.len() as u64);
    out.count("n", inp.read.len() as u64);
    out.count("bed_pages", bed_pages);
    Ok(out)
}

/// The traced run: reference rounds on the engine, one round on the
/// trace bed without instruments, one with spans, then the layers timed
/// on their own.
pub fn trace(set: QuerySet, cfg: &Cfg) -> Run<Outcome> {
    let inp = inputs::read_bed(set, cfg);
    let (mut db, _) = setup(&inp, 1)?;
    let strategy = strategy(set);
    let nq = inp.queries.len() as f64;
    let mut out = Outcome::default();

    // Reference rounds through `ConstraintDb`, as many as give the tail
    // percentile its thousand samples; the first round's figures are what
    // the trace bed is compared with query by query.
    let rounds = P99_SAMPLES.div_ceil(inp.queries.len());
    let mut db_lat = Vec::with_capacity(rounds * inp.queries.len());
    let mut db_stats: Vec<QueryStats> = Vec::with_capacity(inp.queries.len());
    for round in 0..rounds {
        for q in &inp.queries {
            let sel = q.sel.clone();
            let t0 = Instant::now();
            let r = db.query_with(READ_REL, sel, strategy)?;
            db_lat.push(t0.elapsed().as_secs_f64());
            out.attempted += 1;
            out.failed += u64::from(r.ids() != q.expected.as_slice());
            if round == 0 {
                db_stats.push(r.stats);
            }
        }
    }
    out.set_p99("core.db.query_p99_ms", &db_lat);

    // The same round on the trace bed, instruments off: what tracing is
    // compared against, and what the engine's planner and operator
    // pipeline are measured on top of.
    let tb = TraceBed::build(&inp.read)?;
    let mut raw_lat = Vec::with_capacity(inp.queries.len());
    for q in &inp.queries {
        let source = tb.source(None);
        let t0 = Instant::now();
        let r = tb.index.execute(&tb.pager, &q.sel, strategy, &source);
        raw_lat.push(t0.elapsed().as_secs_f64());
        black_box(r?);
    }

    // And with every layer boundary timed.
    let mut tracer = Tracer::new();
    let mut traced_lat = Vec::with_capacity(inp.queries.len());
    let mut totals = QueryStats::default();
    let mut reads = Reads::default();
    let mut fetched = 0u64;
    for (op, (q, plain)) in inp.queries.iter().zip(&db_stats).enumerate() {
        let op = op as u64;
        let reader = tb.counting_reader();
        let source = tb.source(Some(tracer.origin()));
        let span = tracer.begin("core.index.execute", None, op);
        let r = tb.index.execute(&reader, &q.sel, strategy, &source);
        tracer.end(span);
        let query_reads = reader.reads();
        tracer.add_reads(span, query_reads.heap + query_reads.index, query_reads.ns);
        let (calls, ids) = source.finish();
        let r = r?;
        out.attempted += 1;
        // The trace bed must be the engine's path in everything but the
        // clock: same ids, same page accesses, same candidate accounting.
        let same = r.ids() == q.expected.as_slice()
            && r.stats.index_io == plain.index_io
            && r.stats.heap_io == plain.heap_io
            && r.stats.candidates == plain.candidates
            && r.stats.false_hits == plain.false_hits
            && r.stats.accepted_by_key == plain.accepted_by_key;
        out.failed += u64::from(!same);
        let mut refine_at = tracer.spans()[span].start_ns;
        for c in &calls {
            tracer.record("storage.heap.fetch", Some(span), op, c.start_ns, c.fetch_ns);
            let decode_at = c.start_ns + c.fetch_ns;
            tracer.record("geometry.decode", Some(span), op, decode_at, c.decode_ns);
            refine_at = decode_at + c.decode_ns;
        }
        // `execute` refines right after the fetch returns; time the same
        // predicates over the same candidates and book them there.
        let t0 = Instant::now();
        let mut kept = 0usize;
        for &id in &ids {
            let t = &inp.read[id as usize];
            kept += usize::from(match q.sel.kind {
                SelectionKind::All => predicates::all(&q.sel.halfplane, t),
                SelectionKind::Exist => predicates::exist(&q.sel.halfplane, t),
            });
        }
        black_box(kept);
        let refine_ns = t0.elapsed().as_nanos() as u64;
        tracer.record("geometry.refine", Some(span), op, refine_at, refine_ns);

        traced_lat.push(tracer.spans()[span].duration_ns() as f64 / 1e9);
        reads.heap += query_reads.heap;
        reads.index += query_reads.index;
        reads.ns += query_reads.ns;
        fetched += ids.len() as u64;
        totals.candidates += r.stats.candidates;
        totals.false_hits += r.stats.false_hits;
        totals.duplicates += r.stats.duplicates;
        totals.accepted_by_key += r.stats.accepted_by_key;
    }
    let (heap_reads, index_reads, read_ns) = (reads.heap, reads.index, reads.ns);
    // Per query, so a slow stretch of the host hits both sides of a pair
    // (`zip` pairs the trace bed's one round with the first reference round).
    let per_query = |a: &[f64], b: &[f64], f: fn(f64, f64) -> f64| {
        median(&a.iter().zip(b).map(|(x, y)| f(*x, *y)).collect::<Vec<_>>())
    };

    let t = tracer.totals();
    let total_of = |name: &str| t.get(name).map_or(0, |x| x.total_ns) as f64;
    let execute_ns = total_of("core.index.execute");
    let self_ns = t.get("core.index.execute").map_or(0, |x| x.self_ns) as f64;
    let (fetch_ns, decode_ns, refine_ns) = (
        total_of("storage.heap.fetch"),
        total_of("geometry.decode"),
        total_of("geometry.refine"),
    );
    let accounted = self_ns + fetch_ns + decode_ns + refine_ns;
    if (accounted - execute_ns).abs() > 0.10 * execute_ns {
        out.notes.push(format!(
            "layer self times sum to {:.0} us but core.index.execute took {:.0} us",
            accounted / 1e3,
            execute_ns / 1e3
        ));
    }
    out.set("geometry.refine_us_per_query", refine_ns / nq / 1e3);
    out.set(
        "geometry.refine_ns_per_candidate",
        refine_ns / fetched.max(1) as f64,
    );
    out.set("geometry.decode_us_per_query", decode_ns / nq / 1e3);
    out.set(
        "geometry.false_hit_ratio",
        totals.false_hits as f64 / totals.candidates.max(1) as f64,
    );
    out.set("geometry.dual_key_ns", inp.dual_key_ns);
    out.set("storage.heap.fetch_us_per_query", fetch_ns / nq / 1e3);
    out.set("storage.pager.heap_reads_per_query", heap_reads as f64 / nq);
    out.set(
        "storage.pager.index_reads_per_query",
        index_reads as f64 / nq,
    );
    out.set(
        "storage.pager.read_ns",
        read_ns as f64 / (heap_reads + index_reads).max(1) as f64,
    );
    out.set("core.index.self_us_per_query", self_ns / nq / 1e3);
    out.set(
        "core.index.candidates_per_query",
        totals.candidates as f64 / nq,
    );
    out.set(
        "core.index.accepted_by_key_ratio",
        totals.accepted_by_key as f64 / totals.candidates.max(1) as f64,
    );
    out.set(
        "core.index.duplicates_per_query",
        totals.duplicates as f64 / nq,
    );
    out.set(
        "core.exec.pipeline_us_per_query",
        per_query(&db_lat, &raw_lat, |db, raw| (db - raw) * 1e6),
    );
    out.set(
        "trace.overhead_ratio",
        per_query(&traced_lat, &raw_lat, |traced, raw| traced / raw),
    );
    out.set("workload.generate_s", inp.generate_s);
    out.set("workload.calibrate_s", inp.calibrate_s);
    out.count("spans", tracer.spans().len() as u64);
    let name = match set {
        QuerySet::T2 => "embedded_t2",
        QuerySet::Restricted => "embedded_restricted",
    };
    crate::write_trace(name, &tracer)?;

    btree_layer(&inp, &mut out)?;
    write_layer(&inp, cfg, &mut db, &mut out)?;
    match set {
        QuerySet::Restricted => planner_and_sql_layers(&inp, &db, &mut out)?,
        QuerySet::T2 => {
            batch_layer(&inp, &db, &mut out)?;
            // Last: the R⁺-tree changes what `r` offers the planner.
            rplus_layer(&inp, &mut db, &mut out)?;
        }
    }
    Ok(out)
}

/// `BTree` alone on a scratch pager, fed the bed's `TOP` keys at the
/// first slope: insert cost per key, sweep cost per leaf.
fn btree_layer(inp: &ReadBed, out: &mut Outcome) -> Run<()> {
    let mut pager = MemPager::paper_1999();
    let mut tree = BTree::new(&mut pager)?;
    let t0 = Instant::now();
    for (id, k) in inp.keys.iter().enumerate() {
        tree.insert(&mut pager, k.0[0].0, id as u32)?;
    }
    let insert_s = t0.elapsed().as_secs_f64();
    let mut leaves = 0u64;
    let mut entries = 0usize;
    let t0 = Instant::now();
    tree.sweep_up(&pager, f64::NEG_INFINITY, |leaf| {
        leaves += 1;
        entries += leaf.entries.len();
        SweepControl::Continue
    })?;
    let sweep_s = t0.elapsed().as_secs_f64();
    if entries != inp.keys.len() {
        return Err(format!("sweep saw {entries} of {} keys", inp.keys.len()).into());
    }
    out.set(
        "btree.insert_us_per_key",
        insert_s * 1e6 / inp.keys.len() as f64,
    );
    out.set("btree.sweep_us_per_leaf", sweep_s * 1e6 / leaves as f64);
    Ok(())
}

/// `insert`, `delete` and `snapshot` on the in-memory engine.
fn write_layer(inp: &ReadBed, cfg: &Cfg, db: &mut ConstraintDb, out: &mut Outcome) -> Run<()> {
    let mut writer = writer_for(inp, cfg.seed);
    let (mut ins, mut del, mut all) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..cfg.scale.trace_mutations {
        let dt = write_once(db, &mut writer)?;
        if i % 2 == 0 { &mut ins } else { &mut del }.push(dt * 1e6);
        all.push(dt);
    }
    out.set_p99("core.db.write_p99_ms", &all);
    out.attempted += cfg.scale.trace_mutations as u64;
    let scanned = db.scan_relation(WRITE_REL)?;
    out.failed += writer.model.discrepancies(&scanned);
    let snaps: Vec<f64> = (0..32)
        .map(|_| {
            let t0 = Instant::now();
            let snap = db.snapshot()?;
            let dt = t0.elapsed().as_secs_f64() * 1e6;
            drop(snap);
            Ok(dt)
        })
        .collect::<Run<_>>()?;
    out.set("core.db.insert_us", median(&ins));
    out.set("core.db.delete_us", median(&del));
    out.set("core.db.snapshot_us", median(&snaps));
    Ok(())
}

/// Planner decision time, and what the SQL front end adds to a typed
/// query, on the workload where engine time is small enough to see them.
fn planner_and_sql_layers(inp: &ReadBed, db: &ConstraintDb, out: &mut Outcome) -> Run<()> {
    const PASSES: usize = 5;
    let mut plan_us = Vec::with_capacity(inp.queries.len());
    let mut sql_over_typed_us = Vec::with_capacity(inp.queries.len());
    for q in &inp.queries {
        let t0 = Instant::now();
        let plan = db.plan_query(READ_REL, &q.sel)?;
        plan_us.push(t0.elapsed().as_secs_f64() * 1e6);
        black_box(plan);

        // Typed and SQL back to back, best of a few passes each.
        let text = inputs::sql_of(&q.sel);
        let (mut typed, mut sql) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..PASSES {
            let sel = q.sel.clone();
            let t0 = Instant::now();
            let r = db.query_with(READ_REL, sel, Strategy::Auto);
            typed = typed.min(t0.elapsed().as_secs_f64());
            black_box(r?);

            let t0 = Instant::now();
            let o = db.sql(&text, SqlMode::Execute)?;
            sql = sql.min(t0.elapsed().as_secs_f64());
            out.attempted += 1;
            let ids: Vec<u32> = o.rows.iter().map(|r| r.ids[0]).collect();
            out.failed += u64::from(ids != q.expected);
        }
        sql_over_typed_us.push((sql - typed) * 1e6);
    }
    out.set("core.plan.choose_us", median(&plan_us));
    out.set("core.sql.overhead_us_per_query", median(&sql_over_typed_us));
    Ok(())
}

/// `query_batch` at two threads against one.
fn batch_layer(inp: &ReadBed, db: &ConstraintDb, out: &mut Outcome) -> Run<()> {
    let batch: Vec<_> = inp
        .queries
        .iter()
        .map(|q| (q.sel.clone(), Strategy::T2))
        .collect();
    let mut secs = [0.0; 2];
    for (threads, slot) in [1usize, 2].into_iter().zip(&mut secs) {
        let t0 = Instant::now();
        let results = db.query_batch(READ_REL, &batch, threads)?;
        *slot = t0.elapsed().as_secs_f64();
        for (r, q) in results.iter().zip(&inp.queries) {
            out.attempted += 1;
            if !matches!(r, Ok(r) if r.ids() == q.expected.as_slice()) {
                out.failed += 1;
            }
        }
    }
    out.set("core.exec.batch_speedup_2t", secs[0] / secs[1]);
    out.count("nproc", crate::nproc() as u64);
    Ok(())
}

/// The paper's baseline on the same selections: reference only.
fn rplus_layer(inp: &ReadBed, db: &mut ConstraintDb, out: &mut Outcome) -> Run<()> {
    db.build_rplus_index(READ_REL, 1.0)?;
    let mut pages = 0u64;
    let mut lat = Vec::with_capacity(inp.queries.len());
    for q in &inp.queries {
        let sel = q.sel.clone();
        let t0 = Instant::now();
        let r = db.query_with(READ_REL, sel, Strategy::RPlus)?;
        lat.push(t0.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        if r.ids() != q.expected.as_slice() {
            out.failed += 1;
        }
        pages += r.stats.total_accesses();
    }
    out.set(
        "rplustree.pages_per_query",
        pages as f64 / inp.queries.len() as f64,
    );
    out.set("rplustree.query_us", median(&lat));
    Ok(())
}
