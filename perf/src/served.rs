//! `served_mixed`: the read bed file-backed behind the wire server on
//! loopback, one reading and one writing connection.
//!
//! The reader replays the `embedded_restricted` query set, so engine time
//! per query is small and protocol encode/decode, framing, the socket and
//! server dispatch are a large share of what the caller waits for: wire
//! work shows here and nowhere else. The writer inserts into the indexed
//! sibling relation `w` (every fifth mutation deletes the oldest tuple)
//! through the same pager, log, writer lane and snapshot slot, so
//! group-commit and snapshot-publish stalls, and CPU taken from the
//! reader on a two-core host, show too.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use cdb_core::{ConstraintDb, Strategy};
use cdb_net::proto::{
    decode_request, decode_response, encode_request, encode_response, RequestEnvelope,
    WireQueryResult,
};
use cdb_net::{Client, Request, Response, Server, ServerConfig};
use cdb_storage::wal_path;

use crate::bed::{build_repeatedly, file_bed, file_len, Scratch, READ_REL, WRITE_REL};
use crate::inputs::{self, Query, QuerySet, ReadBed};
use crate::model::{Mutation, Policy, Writer};
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted, summarise};
use crate::trace::Tracer;
use crate::{Cfg, Run};

/// Rounds of the query set per phase of the traced run.
const TRACE_ROUNDS: usize = 20;

fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

fn writer_for(inp: &ReadBed, seed: u64) -> Writer {
    Writer::after_loading(&inp.write, seed, Policy::DeleteEveryFifth)
}

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    handle: std::thread::JoinHandle<Result<ConstraintDb, cdb_core::CdbError>>,
    db_path: PathBuf,
}

impl Running {
    /// Graceful shutdown over the wire; returns the engine after its
    /// final checkpoint. Every other connection must be closed first:
    /// two workers serve two sessions at a time.
    fn shutdown(self) -> Run<ConstraintDb> {
        Client::connect(self.addr).and_then(|mut c| c.shutdown())?;
        self.handle
            .join()
            .map_err(|_| "server thread panicked")?
            .map_err(Into::into)
    }
}

/// Builds the file-backed bed and binds the server `builds` times; starts
/// the last one. Returns it with `setup_s`.
fn setup(inp: &ReadBed, scratch: &Scratch, builds: usize) -> Run<(Running, f64)> {
    let ((server, db_path), setup_s) = build_repeatedly(builds, |rep| {
        let db_path = scratch.file(&format!("served-{rep}.cdb"));
        let db = file_bed(&db_path, &[(READ_REL, &inp.read), (WRITE_REL, &inp.write)])?;
        Ok((Server::bind("127.0.0.1:0", db, config())?, db_path))
    })?;
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    Ok((
        Running {
            addr,
            handle,
            db_path,
        },
        setup_s,
    ))
}

/// What the reading connection saw.
#[derive(Default)]
struct Read {
    latencies: Vec<f64>,
    first_round_pages: u64,
    rounds: usize,
    failed: u64,
}

impl Read {
    /// Replays one round of the query set, checking every answer. With a
    /// tracer each query is a client-side span.
    fn round(&mut self, client: &mut Client, queries: &[Query], mut tracer: Option<&mut Tracer>) {
        for q in queries {
            let sel = q.sel.clone();
            let op = self.latencies.len() as u64;
            let span = tracer
                .as_deref_mut()
                .map(|t| t.begin("net.client.query", None, op));
            let t0 = Instant::now();
            let r = client.query(READ_REL, sel, Strategy::Auto);
            self.latencies.push(t0.elapsed().as_secs_f64());
            if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
                t.end(s);
            }
            match r {
                Ok(r) => {
                    self.failed += u64::from(r.ids() != q.expected.as_slice());
                    if self.rounds == 0 {
                        self.first_round_pages += r.stats.total_accesses();
                    }
                }
                Err(_) => self.failed += 1,
            }
        }
        self.rounds += 1;
    }
}

/// Issues mutations over the wire until `done`; returns the round-trip
/// latencies. An error ends the run: the model can no longer be trusted.
fn write_until(client: &mut Client, writer: &mut Writer, done: impl Fn() -> bool) -> Run<Vec<f64>> {
    let mut latencies = Vec::new();
    while !done() {
        let m = writer.next();
        let keep = m.clone();
        let t0 = Instant::now();
        let id = match m {
            Mutation::Insert(t) => client.insert(WRITE_REL, t).map(Some),
            Mutation::Delete(id) => client.delete(WRITE_REL, id).map(|_| None),
        }?;
        latencies.push(t0.elapsed().as_secs_f64());
        writer.acked(keep, id);
    }
    Ok(latencies)
}

/// Reader and writer side by side: the reader replays whole rounds until
/// `done(rounds so far)`, the writer writes until the reader stops.
fn mixed_phase(
    addr: SocketAddr,
    queries: &[Query],
    writer: &mut Writer,
    done: impl Fn(usize) -> bool + Sync,
) -> Run<(Read, Vec<f64>)> {
    let reader_done = AtomicBool::new(false);
    // Both connected before either starts, so both measure the mix.
    let mut rc = Client::connect(addr)?;
    let mut wc = Client::connect(addr)?;
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut read = Read::default();
            while !done(read.rounds) {
                read.round(&mut rc, queries, None);
            }
            reader_done.store(true, Ordering::SeqCst);
            read
        });
        let written = write_until(&mut wc, writer, || reader_done.load(Ordering::SeqCst));
        let read = reader.join().map_err(|_| "reader panicked")?;
        Ok((read, written?))
    })
}

/// Compares `w` on the engine the server handed back with the model.
fn check_writes(db: &ConstraintDb, writer: &Writer) -> Run<u64> {
    let scanned = db.scan_relation(WRITE_REL)?;
    Ok(writer.model.discrepancies(&scanned))
}

/// The untraced run: both connections busy for `cfg.seconds`.
pub fn run(cfg: &Cfg) -> Run<Outcome> {
    let inp = inputs::read_bed(QuerySet::Restricted, cfg);
    let scratch = Scratch::new("served_mixed")?;
    let (server, setup_s) = setup(&inp, &scratch, cfg.scale.setup_builds)?;
    let space = (file_len(&server.db_path) + file_len(&wal_path(&server.db_path))) as f64
        / (inp.read.len() + inp.write.len()) as f64;
    let mut writer = writer_for(&inp, cfg.seed);

    let start = Instant::now();
    let (read, w_lat) = mixed_phase(server.addr, &inp.queries, &mut writer, |_| {
        start.elapsed().as_secs_f64() >= cfg.seconds
    })?;
    let db = server.shutdown()?;
    let mut out = Outcome {
        attempted: (read.latencies.len() + w_lat.len()) as u64,
        failed: read.failed + check_writes(&db, &writer)?,
        ..Outcome::default()
    };

    out.set("setup_s", setup_s);
    out.set_queries(&summarise(&read.latencies, read.latencies.iter().sum()));
    out.set_writes(&summarise(&w_lat, w_lat.iter().sum()));
    out.set(
        "pages_per_query",
        read.first_round_pages as f64 / inp.queries.len() as f64,
    );
    out.set("space_bytes_per_tuple", space);
    out.count("n", inp.read.len() as u64);
    out.count("n_write", writer.model.len() as u64);
    out.count("connections", 2);
    Ok(out)
}

/// The traced run: ping, read-only rounds without and with client-side
/// spans, rounds beside a writer, then the same queries embedded on the
/// same engine and the codec on the run's real frames.
pub fn trace(cfg: &Cfg) -> Run<Outcome> {
    let inp = inputs::read_bed(QuerySet::Restricted, cfg);
    let scratch = Scratch::new("served_mixed-trace")?;
    let (server, _) = setup(&inp, &scratch, 1)?;
    let mut writer = writer_for(&inp, cfg.seed);
    let mut out = Outcome::default();

    let mut client = Client::connect(server.addr)?;
    let mut pings = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t0 = Instant::now();
        client.ping()?;
        pings.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    // Read-only rounds, alternately without and with client-side spans,
    // so both see the same stretches of host noise.
    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (Read::default(), Read::default());
    for _ in 0..TRACE_ROUNDS {
        plain.round(&mut client, &inp.queries, None);
        traced.round(&mut client, &inp.queries, Some(&mut tracer));
    }
    let lsn_before = client.stats()?.db.wal.map_or(0, |w| w.next_lsn);
    drop(client);
    let (mixed, w_lat) = mixed_phase(server.addr, &inp.queries, &mut writer, |rounds| {
        rounds == 2 * TRACE_ROUNDS
    })?;
    let mut client = Client::connect(server.addr)?;
    let lsn_after = client.stats()?.db.wal.map_or(0, |w| w.next_lsn);
    drop(client);
    let db = server.shutdown()?;
    out.attempted =
        (plain.latencies.len() + traced.latencies.len() + mixed.latencies.len() + w_lat.len())
            as u64;
    out.failed = plain.failed + traced.failed + mixed.failed + check_writes(&db, &writer)?;

    // The same queries without the wire, on the engine that served them.
    let mut embedded = Vec::with_capacity(TRACE_ROUNDS * inp.queries.len());
    let mut results = Vec::with_capacity(inp.queries.len());
    for round in 0..TRACE_ROUNDS {
        for q in &inp.queries {
            let sel = q.sel.clone();
            let t0 = Instant::now();
            let r = db.query_with(READ_REL, sel, Strategy::Auto)?;
            embedded.push(t0.elapsed().as_secs_f64());
            if round == 0 {
                results.push(r);
            }
        }
    }

    // The codec alone, on the frames this run exchanged.
    let (mut enc_req, mut dec_req, mut enc_resp, mut dec_resp) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut response_bytes = 0usize;
    for (i, (q, r)) in inp.queries.iter().zip(&results).enumerate() {
        let env = RequestEnvelope {
            request_id: i as u64 + 1,
            deadline_ms: 0,
            request: Request::Query {
                relation: READ_REL.into(),
                selection: q.sel.clone(),
                strategy: Strategy::Auto,
            },
        };
        let t0 = Instant::now();
        let frame = encode_request(&env);
        enc_req.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        let back = decode_request(&frame)?;
        dec_req.push(t0.elapsed().as_nanos() as f64);
        let outcome = Ok(Response::Query(WireQueryResult::from(r)));
        let t0 = Instant::now();
        let frame = encode_response(env.request_id, 0, &outcome);
        enc_resp.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        let decoded = decode_response(&frame)?;
        dec_resp.push(t0.elapsed().as_nanos() as f64);
        response_bytes += frame.len();
        out.attempted += 1;
        if back != env || decoded.2 != outcome {
            out.failed += 1;
        }
    }

    out.set("net.proto.encode_request_ns", median(&enc_req));
    out.set("net.proto.decode_request_ns", median(&dec_req));
    out.set("net.proto.encode_response_ns", median(&enc_resp));
    out.set("net.proto.decode_response_ns", median(&dec_resp));
    out.set(
        "net.proto.response_bytes_per_query",
        response_bytes as f64 / inp.queries.len() as f64,
    );
    out.set("net.client.ping_rtt_us", median(&pings));
    out.set(
        "net.wire_tax_us_per_query",
        (median(&plain.latencies) - median(&embedded)) * 1e6,
    );
    // The tails of the mix, at the two callers.
    out.set_p99("net.client.query_p99_ms", &mixed.latencies);
    out.set_p99("net.client.write_p99_ms", &w_lat);
    let p99 = |lat: &[f64]| percentile(&sorted(lat.to_vec()), 0.99);
    out.set(
        "net.server.read_p99_under_write_ratio",
        p99(&mixed.latencies) / p99(&plain.latencies),
    );
    out.set(
        "net.server.group_commit_batch",
        (lsn_after - lsn_before) as f64 / w_lat.len().max(1) as f64,
    );
    out.set("workload.generate_s", inp.generate_s);
    out.set("workload.calibrate_s", inp.calibrate_s);
    out.set(
        "trace.overhead_ratio",
        median(&traced.latencies) / median(&plain.latencies),
    );
    out.count("spans", tracer.spans().len() as u64);
    out.count("writes_beside_reads", w_lat.len() as u64);
    crate::write_trace("served_mixed", &tracer)?;
    Ok(out)
}
