//! Replication end to end: WAL shipping to live replicas, crash-and-
//! failover matrices, chaos-wrapped clients, and bounded-staleness
//! read-your-writes — all deterministic, all over real sockets.

use std::io::BufRead;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cdb_prng::StdRng;
use constraint_db::index::db::{ConstraintDb, DbConfig};
use constraint_db::net::server::{Server, ServerConfig};
use constraint_db::net::{
    ChaosPlan, ChaosProxy, Client, ClusterClient, ClusterConfig, NetError, ReplicationInfo,
};
use constraint_db::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cdb_repl_{name}_{}.db", std::process::id()))
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(constraint_db::storage::wal_path(path));
}

fn random_boxes(n: usize, seed: u64) -> Vec<GeneralizedTuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut cs = Vec::new();
            for k in 0..2 {
                let lo: f64 = rng.gen_range(-50.0..45.0);
                let hi = lo + rng.gen_range(1.0..6.0);
                let mut a = vec![0.0; 2];
                a[k] = 1.0;
                cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
                cs.push(LinearConstraint::new(a, -hi, RelOp::Le));
            }
            GeneralizedTuple::new(cs)
        })
        .collect()
}

/// Polls `cond` until it holds or `patience` runs out (then panics with
/// `what`). Replication progress is asynchronous by design; every test
/// converges through this single bounded wait.
fn wait_until(patience: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + patience;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn primary_server(path: &std::path::Path, config: ServerConfig) -> Server {
    let mut db = ConstraintDb::create(path, DbConfig::paper_1999()).unwrap();
    // Followers must be able to subscribe from any LSN in history, so the
    // primary keeps its write-ahead log across checkpoints.
    db.set_wal_retention(true);
    Server::bind("127.0.0.1:0", db, config).unwrap()
}

fn replica_server(path: &std::path::Path, primary: String, config: ServerConfig) -> Server {
    let db = ConstraintDb::create(path, DbConfig::paper_1999()).unwrap();
    Server::bind_replica("127.0.0.1:0", primary, db, config).unwrap()
}

fn replica_info(client: &mut Client) -> ReplicationInfo {
    client
        .stats()
        .unwrap()
        .replication
        .expect("replication info")
}

/// The fsynced WAL watermark as visible through stats. `WalStats.durable_lsn`
/// is the *checkpoint* coverage (what the catalog already absorbed), not the
/// sync watermark, so derive the latter: every assigned LSN below `next_lsn`
/// that is not still pending has been fsynced.
fn durable_lsn(client: &mut Client) -> u64 {
    let wal = client.stats().unwrap().db.wal.expect("wal stats");
    (wal.next_lsn - 1).saturating_sub(wal.pending)
}

/// The everything-matches selection — a full logical read of a relation.
fn everything() -> Selection {
    Selection::exist(HalfPlane::new(vec![0.0], -1e9, RelOp::Ge))
}

/// Tentpole smoke: a live replica applies the primary's WAL stream and
/// serves the whole read surface — typed queries, SQL, EXPLAIN, stats —
/// with answers identical to the primary's; writes are redirected with
/// the primary's address as the leader hint.
#[test]
fn replica_serves_identical_answers_and_redirects_writes() {
    let p_path = tmp("serve_p");
    let r_path = tmp("serve_r");
    cleanup(&p_path);
    cleanup(&r_path);

    let primary = primary_server(&p_path, ServerConfig::default());
    let p_addr = primary.local_addr();
    let p_stop = primary.shutdown_handle();
    let p_thread = std::thread::spawn(move || primary.run().unwrap());

    let replica = replica_server(&r_path, p_addr.to_string(), ServerConfig::default());
    let r_addr = replica.local_addr();
    let r_stop = replica.shutdown_handle();
    let r_thread = std::thread::spawn(move || replica.run().unwrap());

    // Populate through the primary — more rows than one checkpoint window
    // so shipping crosses checkpoints.
    let mut writer = Client::connect(p_addr).unwrap();
    writer.create_relation("boxes", 2).unwrap();
    for t in random_boxes(120, 0xE1) {
        writer.insert("boxes", t).unwrap();
    }
    writer
        .build_dual("boxes", SlopeSet::uniform_tan(6).as_slice().to_vec())
        .unwrap();
    let primary_durable = durable_lsn(&mut writer);

    // The replica converges to the primary's durable LSN.
    let mut reader = Client::connect(r_addr).unwrap();
    wait_until(Duration::from_secs(20), "replica catch-up", || {
        matches!(
            replica_info(&mut reader),
            ReplicationInfo::Replica { applied_lsn, .. } if applied_lsn >= primary_durable
        )
    });

    // Whole read surface, answers bit-identical to the primary's.
    let sel = Selection::exist(HalfPlane::new(vec![0.3], 5.0, RelOp::Ge));
    let from_primary = writer.query("boxes", sel.clone(), Strategy::Auto).unwrap();
    let from_replica = reader.query("boxes", sel, Strategy::Auto).unwrap();
    assert_eq!(from_primary.ids(), from_replica.ids());

    let sql = "SELECT x, y FROM boxes WHERE y >= 0.3x - 5 EXIST";
    let p_sql = writer.sql(sql, SqlMode::Execute).unwrap();
    let r_sql = reader.sql(sql, SqlMode::Execute).unwrap();
    assert_eq!(p_sql.rows, r_sql.rows);

    let (rendered, explained) = reader
        .explain(
            "boxes",
            Selection::all(HalfPlane::new(vec![0.1], 40.0, RelOp::Le)),
        )
        .unwrap();
    assert!(!rendered.is_empty());
    let p_explained = writer
        .query(
            "boxes",
            Selection::all(HalfPlane::new(vec![0.1], 40.0, RelOp::Le)),
            Strategy::Auto,
        )
        .unwrap();
    assert_eq!(explained.ids(), p_explained.ids());

    assert_eq!(reader.relations().unwrap(), writer.relations().unwrap());

    // Writes answer NotPrimary and name the leader.
    match reader.insert("boxes", random_boxes(1, 0xE2).pop().unwrap()) {
        Err(NetError::NotPrimary { leader_hint }) => {
            assert_eq!(leader_hint.as_deref(), Some(p_addr.to_string().as_str()));
        }
        other => panic!("expected NotPrimary from the replica, got {other:?}"),
    }

    // The primary's stats see the follower, acked through its durable LSN.
    wait_until(Duration::from_secs(10), "follower ack visibility", || {
        matches!(
            replica_info(&mut writer),
            ReplicationInfo::Primary { followers }
                if followers.iter().any(|f| f.connected && f.acked_lsn >= primary_durable)
        )
    });

    r_stop.shutdown();
    r_thread.join().unwrap();
    p_stop.shutdown();
    p_thread.join().unwrap();
    cleanup(&p_path);
    cleanup(&r_path);
}

/// Satellite regression: admission slots are reserved at accept and
/// released when the session worker finishes, so clients that connect and
/// vanish — before, during, or after the greeting — can never leak the
/// server into a permanent `Overloaded` state.
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

/// A follower partitioned mid-stream (connection reset by the chaos
/// proxy) reconnects through its backoff loop and catches up from exactly
/// the LSN gap — no record lost, none applied twice.
#[test]
fn partitioned_follower_catches_up_from_lsn_gap() {
    let p_path = tmp("part_p");
    let r_path = tmp("part_r");
    cleanup(&p_path);
    cleanup(&r_path);

    let primary = primary_server(&p_path, ServerConfig::default());
    let p_addr = primary.local_addr();
    let p_stop = primary.shutdown_handle();
    let p_thread = std::thread::spawn(move || primary.run().unwrap());

    // The replica reaches its primary only through the chaos proxy, which
    // resets the link on an early frame — the partition.
    let proxy = ChaosProxy::spawn(
        p_addr,
        ChaosPlan {
            reset_at_frame: Some(6),
            ..ChaosPlan::clean()
        },
    )
    .unwrap();
    let replica = replica_server(
        &r_path,
        proxy.local_addr().to_string(),
        ServerConfig::default(),
    );
    let r_addr = replica.local_addr();
    let r_stop = replica.shutdown_handle();
    let r_thread = std::thread::spawn(move || replica.run().unwrap());

    let mut writer = Client::connect(p_addr).unwrap();
    writer.create_relation("boxes", 2).unwrap();
    for t in random_boxes(60, 0xF1) {
        writer.insert("boxes", t).unwrap();
    }
    let primary_durable = durable_lsn(&mut writer);

    // Despite the reset, the fetcher resubscribes from applied+1 and
    // converges; the global frame counter has moved past the fault, so
    // the second subscription streams clean.
    let mut reader = Client::connect(r_addr).unwrap();
    wait_until(Duration::from_secs(30), "post-partition catch-up", || {
        matches!(
            replica_info(&mut reader),
            ReplicationInfo::Replica { applied_lsn, .. } if applied_lsn >= primary_durable
        )
    });

    // Exactly-once apply: the replica's logical state equals the
    // primary's, record for record.
    let p_all = writer.query("boxes", everything(), Strategy::Scan).unwrap();
    let r_all = reader.query("boxes", everything(), Strategy::Scan).unwrap();
    assert_eq!(p_all.ids(), r_all.ids());

    r_stop.shutdown();
    r_thread.join().unwrap();
    p_stop.shutdown();
    p_thread.join().unwrap();
    drop(proxy);
    cleanup(&p_path);
    cleanup(&r_path);
}

/// The crash matrix: SIGKILL the primary process after every prefix of
/// the write stream; the database file must reopen holding every
/// acknowledged write — an ack names a group-committed, fsynced record.
#[test]
fn primary_sigkill_matrix_loses_no_acked_write() {
    for (round, kill_after) in [0usize, 1, 3, 7, 15, 26].into_iter().enumerate() {
        let path = tmp(&format!("kill_{round}"));
        cleanup(&path);

        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_cdb-server"))
            .arg(&path)
            .args(["--retain-wal", "--checkpoint-every", "8"])
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
        for t in random_boxes(kill_after, 0xD0 + round as u64) {
            client.insert("boxes", t).unwrap();
        }
        // Everything above was acknowledged. Kill without ceremony.
        child.kill().expect("SIGKILL primary");
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

/// Failover end to end: a cluster client rides through the primary being
/// SIGKILLed — reads keep flowing from the caught-up replica, writes fail
/// with typed errors while no primary exists, and everything (replica
/// catch-up included) resumes once the primary restarts on its old
/// address with its old file.
#[test]
fn failover_reads_survive_and_writes_resume_after_restart() {
    let p_path = tmp("fo_p");
    let r_path = tmp("fo_r");
    cleanup(&p_path);
    cleanup(&r_path);

    let spawn_primary = |addr: &str| {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_cdb-server"))
            .arg(&p_path)
            .args(["--retain-wal", "--addr", addr])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn primary");
        let stdout = child.stdout.take().unwrap();
        let banner = std::io::BufReader::new(stdout)
            .lines()
            .next()
            .expect("primary banner")
            .unwrap();
        let got = banner.strip_prefix("listening on ").unwrap().to_string();
        (child, got)
    };
    let (mut primary, p_addr) = spawn_primary("127.0.0.1:0");

    let replica = replica_server(&r_path, p_addr.clone(), ServerConfig::default());
    let r_addr = replica.local_addr().to_string();
    let r_stop = replica.shutdown_handle();
    let r_thread = std::thread::spawn(move || replica.run().unwrap());

    let mut cc = ClusterClient::new(
        [p_addr.clone(), r_addr.clone()],
        ClusterConfig {
            seed: 7,
            io_timeout: Some(Duration::from_secs(2)),
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    cc.create_relation("boxes", 2).unwrap();
    let tuples = random_boxes(20, 0xFA);
    for t in &tuples {
        cc.insert("boxes", t.clone()).unwrap();
    }
    let wrote_through = cc.last_write_lsn();
    assert!(wrote_through >= 21, "21 acked writes stamp the LSN");

    // Let the replica catch up to the acked watermark, then kill.
    let mut reader = Client::connect(r_addr.as_str()).unwrap();
    wait_until(
        Duration::from_secs(20),
        "replica catch-up before kill",
        || {
            matches!(
                replica_info(&mut reader),
                ReplicationInfo::Replica { applied_lsn, .. } if applied_lsn >= wrote_through
            )
        },
    );
    primary.kill().expect("SIGKILL primary");
    primary.wait().unwrap();

    // Reads ride through: the replica satisfies read-your-writes because
    // it reflects every LSN this client ever wrote.
    let r = cc.query("boxes", everything(), Strategy::Scan).unwrap();
    assert_eq!(r.len(), tuples.len());

    // Writes fail typed — never a panic, never a silent drop.
    match cc.insert("boxes", tuples[0].clone()) {
        Err(_) => {}
        Ok(id) => panic!("write acked with no primary alive (id {id})"),
    }

    // Restart on the same address with the same file: the fetcher's
    // backoff loop reconnects, and the cluster client re-probes its way
    // back to a working primary.
    let (mut primary, p_addr2) = spawn_primary(&p_addr);
    assert_eq!(p_addr2, p_addr);
    let deadline = Instant::now() + Duration::from_secs(30);
    let recovered_id = loop {
        match cc.insert("boxes", tuples[0].clone()) {
            Ok(id) => break id,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "writes never resumed after primary restart: {e}"
                );
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    };
    assert_eq!(recovered_id as usize, tuples.len());

    // The replica reconnects and applies the post-restart write too.
    let final_lsn = cc.last_write_lsn();
    wait_until(
        Duration::from_secs(30),
        "replica catch-up after restart",
        || {
            matches!(
                replica_info(&mut reader),
                ReplicationInfo::Replica { applied_lsn, connected, .. }
                    if connected && applied_lsn >= final_lsn
            )
        },
    );

    // Graceful teardown; the primary's file passes verification.
    let mut direct = Client::connect(p_addr.as_str()).unwrap();
    direct.shutdown().unwrap();
    primary.wait().unwrap();
    r_stop.shutdown();
    r_thread.join().unwrap();
    let db = ConstraintDb::open_read_only(&p_path).unwrap();
    assert_eq!(
        db.stats_snapshot().relations[0].live,
        tuples.len() as u64 + 1
    );
    drop(db);
    cleanup(&p_path);
    cleanup(&r_path);
}

/// Chaos-wrapped clients: under seeded torn-frame / reset / blackhole
/// plans, a direct client sees only typed errors or correct answers, and
/// a cluster client with a healthy second member always lands the read.
#[test]
fn chaos_clients_see_only_typed_errors_or_retried_success() {
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
    for t in random_boxes(30, 0xAB) {
        setup.insert("boxes", t).unwrap();
    }
    let expected = setup
        .query("boxes", everything(), Strategy::Scan)
        .unwrap()
        .ids()
        .to_vec();

    for seed in 0..6u64 {
        let proxy = ChaosProxy::spawn(addr, ChaosPlan::seeded(seed)).unwrap();

        // Direct client through the chaos: every call either answers
        // correctly or fails with a typed NetError — by construction a
        // panic or a wrong answer is the only way this assert dies.
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

        // Cluster client with the chaotic link first in rotation and a
        // healthy member behind it: the read must land.
        let mut cc = ClusterClient::new(
            [proxy.local_addr().to_string(), addr.to_string()],
            ClusterConfig {
                seed,
                read_retries: 4,
                io_timeout: Some(Duration::from_secs(1)),
                backoff_base: Duration::from_millis(10),
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let r = cc
            .query("boxes", everything(), Strategy::Scan)
            .unwrap_or_else(|e| panic!("seed {seed}: retried read failed: {e}"));
        assert_eq!(r.ids(), expected.as_slice(), "seed {seed}");
    }

    stop.shutdown();
    thread.join().unwrap();
}

/// Satellite: randomized staleness accounting. Under an injected-latency
/// link, read-your-writes never returns a pre-write answer, and once the
/// stream quiesces the lag bookkeeping is *exact*: the primary's
/// per-follower acked LSN, the replica's applied and source LSNs, and the
/// batch counters on both sides all agree.
#[test]
fn staleness_is_bounded_and_accounting_is_exact() {
    let p_path = tmp("stale_p");
    let r_path = tmp("stale_r");
    cleanup(&p_path);
    cleanup(&r_path);

    let primary = primary_server(&p_path, ServerConfig::default());
    let p_addr = primary.local_addr();
    let p_stop = primary.shutdown_handle();
    let p_thread = std::thread::spawn(move || primary.run().unwrap());

    // Replication flows through a latency-only proxy: delivery is delayed
    // but reliable, so staleness is real and bookkeeping must still add up.
    let proxy = ChaosProxy::spawn(
        p_addr,
        ChaosPlan {
            latency: Some(Duration::from_millis(15)),
            ..ChaosPlan::clean()
        },
    )
    .unwrap();
    let replica = replica_server(
        &r_path,
        proxy.local_addr().to_string(),
        ServerConfig::default(),
    );
    let r_addr = replica.local_addr();
    let r_stop = replica.shutdown_handle();
    let r_thread = std::thread::spawn(move || replica.run().unwrap());

    let mut cc = ClusterClient::new(
        [p_addr.to_string(), r_addr.to_string()],
        ClusterConfig {
            seed: 0x57A1E,
            read_retries: 5,
            staleness_bound: 2,
            backoff_base: Duration::from_millis(10),
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    cc.create_relation("boxes", 2).unwrap();

    // Randomized write/read interleaving: every read that follows a write
    // must observe it — served by a caught-up follower or escalated to
    // the primary, never answered from a pre-write snapshot.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for (i, t) in random_boxes(25, 0x1CE).into_iter().enumerate() {
        let id = cc.insert("boxes", t.clone()).unwrap();
        assert_eq!(id as usize, i);
        if rng.gen_bool(0.7) {
            let got = cc.fetch_tuple("boxes", id).unwrap_or_else(|e| {
                panic!("read-your-writes returned a pre-write answer for id {id}: {e}")
            });
            assert_eq!(got, t);
        }
        let all = cc.query("boxes", everything(), Strategy::Scan).unwrap();
        assert_eq!(all.len(), i + 1, "read missed an acknowledged write");
    }

    // Quiesce, then check the books.
    let mut p_client = Client::connect(p_addr).unwrap();
    let mut r_client = Client::connect(r_addr).unwrap();
    let primary_durable = durable_lsn(&mut p_client);
    wait_until(Duration::from_secs(20), "quiescence", || {
        matches!(
            replica_info(&mut p_client),
            ReplicationInfo::Primary { followers }
                if followers.iter().any(|f| f.connected && f.acked_lsn == primary_durable)
        )
    });
    let (follower_acked, follower_batches) = match replica_info(&mut p_client) {
        ReplicationInfo::Primary { followers } => {
            let f = followers.iter().find(|f| f.connected).unwrap();
            (f.acked_lsn, f.batches)
        }
        other => panic!("primary reports {other:?}"),
    };
    match replica_info(&mut r_client) {
        ReplicationInfo::Replica {
            applied_lsn,
            source_lsn,
            batches,
            connected,
            ..
        } => {
            assert!(connected);
            assert_eq!(applied_lsn, primary_durable, "lag delta must be exactly 0");
            assert_eq!(source_lsn, primary_durable, "source watermark is exact");
            assert_eq!(applied_lsn, follower_acked, "acked == applied, exactly");
            assert_eq!(
                batches, follower_batches,
                "both sides counted the same shipped batches"
            );
        }
        other => panic!("replica reports {other:?}"),
    }

    r_stop.shutdown();
    r_thread.join().unwrap();
    p_stop.shutdown();
    p_thread.join().unwrap();
    drop(proxy);
    cleanup(&p_path);
    cleanup(&r_path);
}

/// The per-request deadline caps the retry loop's *wall clock*, not just
/// its attempt count: against an unreachable member with a generous
/// attempt budget, a read surfaces `Timeout` close to the deadline
/// instead of grinding through every backoff.
#[test]
fn cluster_deadline_caps_retry_wall_clock() {
    // A port that refuses connections: bind, remember, release.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let mut cc = ClusterClient::new(
        vec![dead.as_str()],
        ClusterConfig {
            deadline_ms: 300,
            read_retries: 10_000,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(40),
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    let start = Instant::now();
    match cc.relations() {
        Err(NetError::Timeout) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "deadline did not cap the loop: took {elapsed:?}"
    );
}
