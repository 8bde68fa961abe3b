//! End-to-end wire-protocol tests: concurrent clients against a live
//! server must answer bit-identically to the in-process engine, a
//! SIGKILLed server must leave its database recoverable, admission slots
//! must come back, a client behind a faulty link sees only typed errors,
//! and an old protocol version, an oversized write or an unservable flag
//! is a typed refusal.

use std::io::BufRead;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdb_prng::StdRng;
use constraint_db::index::db::{ConstraintDb, DbConfig};
use constraint_db::index::ddim::SlopePoints;
use constraint_db::index::{CdbError, IndexSpec};
use constraint_db::net::server::{Server, ServerConfig};
use constraint_db::net::{ChaosPlan, ChaosProxy, Client, NetError, PROTOCOL_VERSION};
use constraint_db::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cdb_it_{name}_{}.db", std::process::id()))
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(constraint_db::storage::wal_path(path));
}

/// The everything-matches selection — a full logical read of a relation.
fn everything() -> Selection {
    Selection::exist(HalfPlane::new(vec![0.0], -1e9, RelOp::Ge))
}

/// Random axis-aligned boxes, the workload of `dimension_sweep`.
fn random_boxes(dim: usize, n: usize, seed: u64) -> Vec<GeneralizedTuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut cs = Vec::new();
            for k in 0..dim {
                let lo: f64 = rng.gen_range(-50.0..45.0);
                let hi = lo + rng.gen_range(1.0..6.0);
                let mut a = vec![0.0; dim];
                a[k] = 1.0;
                cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
                cs.push(LinearConstraint::new(a, -hi, RelOp::Le));
            }
            GeneralizedTuple::new(cs)
        })
        .collect()
}

/// Seeded query mix over both selection kinds and both operators.
fn query_mix(dim: usize, count: usize, seed: u64) -> Vec<Selection> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|qi| {
            let slope: Vec<f64> = (0..dim - 1).map(|_| rng.gen_range(-0.9..0.9)).collect();
            let b = rng.gen_range(-35.0..35.0);
            let op = if qi % 2 == 0 { RelOp::Ge } else { RelOp::Le };
            let kind = if qi % 4 < 2 {
                SelectionKind::Exist
            } else {
                SelectionKind::All
            };
            Selection {
                kind,
                halfplane: HalfPlane::new(slope, b, op),
            }
        })
        .collect()
}

/// `sel` over `rel` as SQL: `x_d − Σ aᵢ·xᵢ θ b`, every coefficient printed
/// exactly.
fn sql_of(rel: &str, sel: &Selection) -> String {
    let hp = &sel.halfplane;
    let vars = ["x", "y", "z"];
    let mut lhs = format!("1*{}", vars[hp.slope.len()]);
    for (a, var) in hp.slope.iter().zip(vars) {
        lhs += &if *a < 0.0 {
            format!(" + {}*{var}", -a)
        } else {
            format!(" - {a}*{var}")
        };
    }
    let cmp = if hp.op == RelOp::Ge { ">=" } else { "<=" };
    let kind = if sel.kind == SelectionKind::All {
        "ALL"
    } else {
        "EXIST"
    };
    format!(
        "SELECT * FROM {rel} WHERE {lhs} {cmp} {} {kind}",
        hp.intercept
    )
}

fn populate(db: &mut ConstraintDb) {
    db.create_relation("r2", 2).unwrap();
    for t in random_boxes(2, 300, 0xA1) {
        db.insert("r2", t).unwrap();
    }
    db.build_dual_index("r2", SlopeSet::uniform_tan(6)).unwrap();
    db.build_rplus_index("r2", 0.8).unwrap();
    db.create_relation("r3", 3).unwrap();
    for t in random_boxes(3, 200, 0xA2) {
        db.insert("r3", t).unwrap();
    }
    db.build_dual_index("r3", SlopePoints::grid(3, 2, 1.0))
        .unwrap();
}

/// N concurrent wire clients run the full query mix (both selection kinds,
/// d = 2 and d = 3, `Strategy::Auto`) and every response must match the
/// in-process oracle's ids exactly. The database served over the wire is
/// itself populated over the wire, exercising the writer lane.
#[test]
fn concurrent_clients_match_in_process_oracle() {
    // In-process oracle.
    let mut oracle = ConstraintDb::in_memory(DbConfig::paper_1999());
    populate(&mut oracle);

    let queries: Vec<(&str, Selection)> = query_mix(2, 12, 0xB1)
        .into_iter()
        .map(|s| ("r2", s))
        .chain(query_mix(3, 8, 0xB2).into_iter().map(|s| ("r3", s)))
        .collect();
    let expected: Vec<Vec<u32>> = queries
        .iter()
        .map(|(rel, sel)| {
            oracle
                .query_with(rel, sel.clone(), Strategy::Auto)
                .unwrap()
                .ids()
                .to_vec()
        })
        .collect();

    // Serve a second, identically-populated database.
    let server = Server::bind(
        "127.0.0.1:0",
        ConstraintDb::in_memory(DbConfig::paper_1999()),
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    // Populate over the wire (single client: deterministic insert order,
    // so tuple ids match the oracle's).
    let mut setup = Client::connect(addr).unwrap();
    setup.create_relation("r2", 2).unwrap();
    for t in random_boxes(2, 300, 0xA1) {
        setup.insert("r2", t).unwrap();
    }
    let slopes = IndexSpec::Dual(SlopeSet::uniform_tan(6).into());
    setup.build_index("r2", slopes).unwrap();
    setup
        .build_index("r2", IndexSpec::RPlus { fill: 0.8 })
        .unwrap();
    setup.create_relation("r3", 3).unwrap();
    for t in random_boxes(3, 200, 0xA2) {
        setup.insert("r3", t).unwrap();
    }
    let grid = IndexSpec::Dual(SlopePoints::grid(3, 2, 1.0).into());
    setup.build_index("r3", grid).unwrap();

    // Concurrent query phase.
    let queries = Arc::new(queries);
    let expected = Arc::new(expected);
    let clients = 4;
    let mut handles = Vec::new();
    for c in 0..clients {
        let queries = Arc::clone(&queries);
        let expected = Arc::clone(&expected);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            // Stagger the starting offset so clients overlap on different
            // queries at any instant.
            for i in 0..queries.len() {
                let qi = (i + c * 5) % queries.len();
                let (rel, sel) = &queries[qi];
                let got = client.query(rel, sel.clone(), Strategy::Auto).unwrap();
                assert_eq!(
                    got.ids(),
                    expected[qi].as_slice(),
                    "client {c} query {qi} diverged from the oracle"
                );
                // EXPLAIN ANALYZE must execute to the same answer.
                if qi.is_multiple_of(7) {
                    let explain = SqlMode::ExplainAnalyze;
                    let o = client.sql(&sql_of(rel, sel), explain).unwrap();
                    let rows = format!(" {} rows\n", expected[qi].len());
                    let plan = o.plan.expect("a rendered plan");
                    assert!(plan.contains(&rows), "query {qi}: {plan}");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Line queries (a separate engine entry point) also round-trip.
    let mut client = Client::connect(addr).unwrap();
    let wire = client
        .query_line("r2", SelectionKind::Exist, 0.25, 3.0)
        .unwrap();
    let local = oracle.exist_line("r2", 0.25, 3.0).unwrap();
    assert_eq!(wire.ids(), local.ids());

    // Stats agree on the logical state.
    let stats = client.stats().unwrap().db;
    assert_eq!(
        stats
            .relations
            .iter()
            .map(|r| (r.name.clone(), r.dim, r.live))
            .collect::<Vec<_>>(),
        oracle
            .stats_snapshot()
            .relations
            .iter()
            .map(|r| (r.name.clone(), r.dim, r.live))
            .collect::<Vec<_>>()
    );

    client.shutdown().unwrap();
    let returned = server_thread.join().unwrap();
    assert_eq!(returned.relation_names(), oracle.relation_names());
}

/// SIGKILL the server process mid-write-stream: the database file must
/// reopen cleanly and contain **every acknowledged insert** — the server
/// fsyncs the write-ahead log before replying, so an ack means durable.
/// Recovery may additionally surface logged-but-unacknowledged inserts
/// (the sync landed, the reply didn't); the recovered set is a clean
/// prefix that is a superset of the acked set, never a subset.
#[test]
fn kill_nine_loses_no_acknowledged_insert() {
    let path = std::env::temp_dir().join(format!("cdb_it_kill9_{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_cdb-server"))
        .arg(&path)
        .args(["--checkpoint-every", "4"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn cdb-server");
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines.next().expect("server banner").unwrap();
    let addr = banner
        .strip_prefix("listening on ")
        .expect("banner format")
        .to_string();

    let mut client = Client::connect(addr.as_str()).unwrap();
    client.create_relation("boxes", 2).unwrap();
    let tuples = random_boxes(2, 400, 0xC1);
    // A durable baseline: 40 inserts, then an explicit checkpoint.
    for t in &tuples[..40] {
        client.insert("boxes", t.clone()).unwrap();
    }
    client.checkpoint().unwrap();

    // Stream the rest from another thread, and SIGKILL mid-stream.
    let streamed = std::thread::spawn(move || {
        let mut acked = 40u32;
        for t in &tuples[40..] {
            match client.insert("boxes", t.clone()) {
                Ok(_) => acked += 1,
                Err(_) => break, // the kill landed
            }
        }
        acked
    });
    std::thread::sleep(std::time::Duration::from_millis(60));
    child.kill().expect("SIGKILL server");
    child.wait().unwrap();
    let acked = streamed.join().unwrap();
    assert!(acked >= 40, "baseline inserts were acknowledged");

    // The file must reopen without panic and hold a clean prefix.
    let db = ConstraintDb::open(&path).expect("recover after SIGKILL");
    assert_eq!(db.relation_names(), vec!["boxes".to_string()]);
    let snap = db.stats_snapshot();
    let live = snap.relations[0].live;
    assert!(
        live >= acked as u64,
        "lost acknowledged writes: recovered {live} tuples but {acked} \
         inserts were acknowledged before the kill"
    );
    for rel in &snap.relations {
        assert_eq!(
            rel.health,
            constraint_db::index::RelationHealth::Healthy,
            "recovered relation is healthy"
        );
    }
    // No uncommitted data: the survivors are exactly the first `live` ids,
    // and every stored tuple is readable.
    let everything = Selection::exist(HalfPlane::new(vec![0.0], -1e9, RelOp::Ge));
    let r = db.query_with("boxes", everything, Strategy::Scan).unwrap();
    let want: Vec<u32> = (0..live as u32).collect();
    assert_eq!(
        r.ids(),
        want.as_slice(),
        "recovered ids form a clean prefix"
    );
    for id in r.ids() {
        db.fetch_tuple("boxes", *id).unwrap();
    }
    drop(db);
    std::fs::remove_file(&path).unwrap();
    let _ = std::fs::remove_file(constraint_db::storage::wal_path(&path));
}

/// Protocol v14 carried the engine's own types (one build request over
/// `IndexSpec`, the engine's recovery report, EXPLAIN through SQL only),
/// as v13 made the dual index one method (retiring the restricted search's
/// strategy tag and the restricted and T2 method tags), v12 retired T1's
/// strategy and method tags, v11 the d-dimensional index's method tag, v10
/// dropped the planner's cost estimate from `QueryStats` and added its
/// rejections by key, v9 replication and v8 sharding: a peer still
/// speaking v7 to v13 is greeted with the server's version and its hello
/// answered by a typed `VersionMismatch`, never served.
#[test]
fn a_version_7_hello_gets_the_version_mismatch_answer() {
    use constraint_db::net::proto::{
        decode_greeting, decode_response, encode_hello, HandshakeStatus,
    };
    use constraint_db::storage::codec::{read_frame, write_frame, DEFAULT_MAX_FRAME};

    assert_eq!(PROTOCOL_VERSION, 14);
    let db = ConstraintDb::in_memory(DbConfig::paper_1999());
    let server = Server::bind("127.0.0.1:0", db, ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let stop = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    for old in [7, 8, 9, 10, 11, 12, 13] {
        let mut stream = TcpStream::connect(addr).unwrap();
        let greeting = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(
            decode_greeting(&greeting).unwrap(),
            (14, HandshakeStatus::Ok)
        );
        write_frame(&mut stream, &encode_hello(old)).unwrap();
        let answer = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        assert!(
            matches!(
                decode_response(&answer).unwrap().2,
                Err(NetError::VersionMismatch { server_version: 14 })
            ),
            "a v{old} hello"
        );
    }
    stop.shutdown();
    server_thread.join().unwrap();
}

/// Regression: a tuple too large for a heap page reached
/// `HeapFile::insert`'s `assert!` inside the writer lane, which took the
/// lane down — every later write answered "shutting down" and the process
/// exited 101 without its final checkpoint — and a relation of 4·10⁹
/// dimensions let one SQL statement abort the process on a 32 GB
/// allocation. Both are typed refusals now: the node keeps taking writes,
/// and a graceful shutdown commits them.
#[test]
fn oversized_tuples_and_dimensions_leave_the_server_writable() {
    let path = std::env::temp_dir().join(format!("cdb_it_oversized_{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_cdb-server"))
        .arg(&path)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn cdb-server");
    let stdout = child.stdout.take().unwrap();
    let banner = std::io::BufReader::new(stdout).lines().next();
    let banner = banner.expect("server banner").unwrap();
    let addr = banner.strip_prefix("listening on ").unwrap().to_string();

    let mut client = Client::connect(addr.as_str()).unwrap();
    client.create_relation("r", 2).unwrap();
    // 61 constraints of 25 bytes after a 4-byte header: 1 529 bytes.
    let wide = (0..61).map(|i| format!("y >= {i}")).collect::<Vec<_>>();
    let wide = parse_tuple(&wide.join(" && ")).unwrap();
    let refused = CdbError::TupleTooLarge {
        len: 1529,
        max: 1016,
    };
    assert_eq!(client.insert("r", wide), Err(NetError::Db(refused)));
    let refused = CdbError::DimensionOutOfRange {
        dim: 4_000_000_000,
        max: 125,
    };
    let big = client.create_relation("big", 4_000_000_000);
    assert_eq!(big, Err(NetError::Db(refused)));
    let sql = client.sql("SELECT * FROM big WHERE y >= 0", SqlMode::Execute);
    assert!(sql.is_err());
    let id = client.insert("r", parse_tuple("y >= 0 && x >= 1").unwrap());
    assert_eq!(id.unwrap(), 0, "the writer lane still takes writes");
    client.shutdown().unwrap();
    assert!(child.wait().unwrap().success(), "a clean exit");

    let db = ConstraintDb::open(&path).unwrap();
    assert_eq!(db.relation("r").unwrap().len(), 1);
    assert_eq!(db.relation_names(), ["r"]);
    drop(db);
    std::fs::remove_file(&path).unwrap();
    let _ = std::fs::remove_file(constraint_db::storage::wal_path(&path));
}

/// Regression: admission slots are reserved at accept and released when
/// the session worker finishes, so clients that connect and vanish —
/// before, during, or after the greeting — can never leak the server into
/// a permanent `Overloaded` state.
#[test]
fn admission_slots_never_leak_on_flapping_clients() {
    let server = Server::bind(
        "127.0.0.1:0",
        ConstraintDb::in_memory(DbConfig::paper_1999()),
        ServerConfig {
            workers: 2,
            max_connections: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let stop = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run().unwrap());

    // Flap hard: sockets dropped instantly, without ever reading the
    // greeting the worker is trying to write.
    for _ in 0..50 {
        let s = TcpStream::connect(addr).unwrap();
        drop(s);
    }

    // Every slot must come back: a real client gets admitted and served.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        match Client::connect(addr) {
            Ok(c) => break c,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "admission slots leaked: still refused after flapping clients ({e})"
                );
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };
    client.ping().unwrap();

    stop.shutdown();
    thread.join().unwrap();
}

/// The crash matrix: SIGKILL the server process after every prefix of
/// the write stream; the database file must reopen holding every
/// acknowledged write — an ack names a group-committed, fsynced record.
#[test]
fn server_sigkill_matrix_loses_no_acked_write() {
    for (round, kill_after) in [0usize, 1, 3, 7, 15, 26].into_iter().enumerate() {
        let path = tmp(&format!("kill_{round}"));
        cleanup(&path);

        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_cdb-server"))
            .arg(&path)
            .args(["--checkpoint-every", "8"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn cdb-server");
        let stdout = child.stdout.take().unwrap();
        let banner = std::io::BufReader::new(stdout)
            .lines()
            .next()
            .expect("server banner")
            .unwrap();
        let addr = banner.strip_prefix("listening on ").unwrap().to_string();

        let mut client = Client::connect(addr.as_str()).unwrap();
        client.create_relation("boxes", 2).unwrap();
        for t in random_boxes(2, kill_after, 0xD0 + round as u64) {
            client.insert("boxes", t).unwrap();
        }
        // Everything above was acknowledged. Kill without ceremony.
        child.kill().expect("SIGKILL server");
        child.wait().unwrap();

        let db = ConstraintDb::open(&path).expect("recover after SIGKILL");
        assert_eq!(db.relation_names(), vec!["boxes".to_string()]);
        let live = db.stats_snapshot().relations[0].live;
        assert!(
            live >= kill_after as u64,
            "round {round}: {kill_after} inserts were acked but only {live} survived"
        );
        drop(db);
        cleanup(&path);
    }
}

/// Chaos-wrapped clients: under seeded torn-frame / reset / blackhole
/// plans, a client sees only typed errors or correct answers.
#[test]
fn chaos_clients_see_only_typed_errors_or_correct_answers() {
    let server = Server::bind(
        "127.0.0.1:0",
        ConstraintDb::in_memory(DbConfig::paper_1999()),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let stop = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run().unwrap());

    let mut setup = Client::connect(addr).unwrap();
    setup.create_relation("boxes", 2).unwrap();
    for t in random_boxes(2, 30, 0xAB) {
        setup.insert("boxes", t).unwrap();
    }
    let expected = setup
        .query("boxes", everything(), Strategy::Scan)
        .unwrap()
        .ids()
        .to_vec();

    for seed in 0..6u64 {
        let proxy = ChaosProxy::spawn(addr, ChaosPlan::seeded(seed)).unwrap();

        // Every call either answers correctly or fails with a typed
        // NetError — by construction a panic or a wrong answer is the
        // only way this assert dies.
        if let Ok(mut chaotic) = Client::connect(proxy.local_addr()) {
            chaotic
                .set_io_timeout(Some(Duration::from_secs(1)))
                .unwrap();
            for _ in 0..4 {
                match chaotic.query("boxes", everything(), Strategy::Scan) {
                    Ok(r) => assert_eq!(r.ids(), expected.as_slice(), "seed {seed}"),
                    Err(_) => break, // typed; the session is gone
                }
            }
        }
    }

    stop.shutdown();
    thread.join().unwrap();
}

/// Regression: `--max-connections 0` started a server that admitted no
/// session — not even one asking it to shut down — so only a signal
/// could end it. The flag is refused before anything listens.
#[test]
fn max_connections_zero_is_refused_before_listening() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_cdb-server"))
        .args(["--in-memory", "--max-connections", "0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn cdb-server");
    // A server that did start would serve forever: give it a bounded
    // wait, then kill it so the assertion below reports instead of hanging.
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().unwrap().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit status {}", out.status);
    assert!(!stdout.contains("listening on"), "stdout: {stdout}");
    assert!(
        stderr.contains("--max-connections must be at least 1"),
        "stderr: {stderr}"
    );
}
