//! Snapshot isolation: a [`Snapshot`] pinned mid-mutation must answer
//! exactly as the database did at the pin point, no matter what the
//! writer does afterwards.
//!
//! The oracle is **sequential replay**: every run records its mutation
//! script, and each pinned snapshot is checked against a fresh in-memory
//! engine that replays exactly the script prefix the snapshot saw —
//! scans tuple for tuple, and a fixed selection battery answer for
//! answer. Covered:
//!
//! - randomized insert / delete / index-build / relation-drop scripts,
//!   d = 2 (dual + R⁺ indexes) and d = 3 (d-dimensional dual index);
//! - GC: a long-held snapshot keeps its quarantined pages readable
//!   through arbitrary churn and checkpoints, and the writer reclaims
//!   them only after the pin drops;
//! - crash during commit: reopen recovers exactly the last published
//!   (committed) epoch, and a pinned snapshot of the recovered engine
//!   serves it;
//! - crash after a group-commit ack: WAL replay preserves every
//!   acknowledged mutation.

use constraint_db::index::ddim::SlopePoints;
use constraint_db::index::query::Strategy;
use constraint_db::prelude::*;
use constraint_db::storage::file::FilePager;
use constraint_db::storage::{wal_path, FaultPager, FaultPlan, WalFaultPlan};

use cdb_prng::StdRng;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cdb_si_{name}_{}", std::process::id()));
    p
}

/// Sorted live `(id, tuple)` set of a relation, via a full heap scan.
fn live_of(scan: Vec<(u32, GeneralizedTuple)>) -> Vec<(u32, GeneralizedTuple)> {
    let mut v = scan;
    v.sort_by_key(|(id, _)| *id);
    v
}

/// One step of a recorded mutation script. Replaying the same sequence
/// into any engine is deterministic — ids come from a free-list, index
/// builds are pure functions of the heap — so a prefix replay *is* the
/// database state at the moment the prefix ended.
#[derive(Clone)]
enum Op {
    Insert(GeneralizedTuple),
    Delete(u32),
    /// `build_dual_index` with `uniform_tan(k)` slopes (d = 2) or a
    /// `grid(dim, k, 1.0)` of slope points (d = 3).
    BuildDual(usize),
    BuildRPlus,
    /// Drop the relation and recreate it empty, same name and dim.
    Drop,
}

fn apply(db: &mut ConstraintDb, rel: &str, dim: usize, op: &Op) {
    match op {
        Op::Insert(t) => {
            db.insert(rel, t.clone()).expect("insert");
        }
        Op::Delete(id) => {
            db.delete(rel, *id).expect("delete of a live id");
        }
        Op::BuildDual(k) => {
            if dim == 2 {
                db.build_dual_index(rel, SlopeSet::uniform_tan(*k))
                    .expect("dual build");
            } else {
                db.build_dual_index(rel, SlopePoints::grid(dim, *k, 1.0))
                    .expect("d-dim dual build");
            }
        }
        Op::BuildRPlus => db.build_rplus_index(rel, 1.0).expect("rplus build"),
        Op::Drop => {
            db.drop_relation(rel).expect("drop");
            db.create_relation(rel, dim).expect("recreate");
        }
    }
}

/// A fixed selection battery for dimension `dim`: EXIST and ALL over a
/// handful of slopes (2-D) or slope vectors (3-D). Deterministic, so the
/// snapshot and the replayed oracle answer the same questions.
fn battery(dim: usize) -> Vec<Selection> {
    let mut out = Vec::new();
    if dim == 2 {
        for (a, c) in [(0.37, 0.0), (-0.8, 6.0), (1.6, -3.0), (0.0, 2.0)] {
            out.push(Selection::exist(HalfPlane::above(a, c)));
            out.push(Selection::all(HalfPlane::below(a, c)));
        }
    } else {
        for slope in [vec![0.0, 0.0], vec![1.0, -1.0], vec![0.3, 0.7]] {
            for op in [RelOp::Ge, RelOp::Le] {
                let hp = HalfPlane::new(slope.clone(), 10.0, op);
                out.push(Selection::exist(hp.clone()));
                out.push(Selection::all(hp));
            }
        }
    }
    out
}

/// A random 3-D axis-aligned box as a generalized tuple.
fn random_box(rng: &mut StdRng) -> GeneralizedTuple {
    let mut cs = Vec::new();
    for axis in 0..3usize {
        let lo: f64 = rng.gen_range(-40.0..35.0);
        let hi = lo + rng.gen_range(1.0..5.0);
        let mut a = vec![0.0; 3];
        a[axis] = 1.0;
        cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
        cs.push(LinearConstraint::new(a, -hi, RelOp::Le));
    }
    GeneralizedTuple::new(cs)
}

/// Checks one pinned snapshot against the sequential-replay oracle of its
/// script prefix: scans must match tuple for tuple, and every battery
/// selection must return the same id set (snapshot under its own planner,
/// oracle under the unindexable `Scan` truth).
fn check_snapshot(snap: &Snapshot, rel: &str, dim: usize, prefix: &[Op], label: &str) {
    let mut oracle = ConstraintDb::in_memory(DbConfig::paper_1999());
    oracle.create_relation(rel, dim).expect("oracle relation");
    for op in prefix {
        apply(&mut oracle, rel, dim, op);
    }
    assert_eq!(
        live_of(snap.scan_relation(rel).expect("snapshot scan")),
        live_of(oracle.scan_relation(rel).expect("oracle scan")),
        "{label}: snapshot scan diverges from the replayed prefix"
    );
    for (qi, sel) in battery(dim).iter().enumerate() {
        let mut got = snap
            .query(rel, sel.clone())
            .expect("snapshot query")
            .ids()
            .to_vec();
        got.sort_unstable();
        let mut want = oracle
            .query_with(rel, sel.clone(), Strategy::Scan)
            .expect("oracle query")
            .ids()
            .to_vec();
        want.sort_unstable();
        assert_eq!(got, want, "{label}: battery query {qi} diverges");
    }
}

/// Drives one randomized script against a file-backed engine, pinning
/// snapshots at random points and checkpointing at random points, then
/// verifies every held snapshot against its prefix replay **after** the
/// whole script (and a final checkpoint) has run — i.e. long after the
/// pinned state was superseded on disk.
fn randomized_run(name: &str, dim: usize, seed: u64, steps: usize) {
    let path = tmp(name);
    let _ = std::fs::remove_file(&path);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = ConstraintDb::create(&path, DbConfig::paper_1999()).unwrap();
    let rel = "r";
    db.create_relation(rel, dim).unwrap();

    let pool: Vec<GeneralizedTuple> = if dim == 2 {
        DatasetSpec::paper_1999(steps * 2, ObjectSize::Small, seed).generate()
    } else {
        (0..steps * 2).map(|_| random_box(&mut rng)).collect()
    };

    let mut log: Vec<Op> = Vec::new();
    let mut live: Vec<u32> = Vec::new();
    let mut snaps: Vec<(Snapshot, usize)> = Vec::new();
    let mut next_tuple = 0usize;

    for step in 0..steps {
        let roll = rng.gen_range(0..100u32);
        let op = if roll < 55 || live.len() < 2 {
            let t = pool[next_tuple].clone();
            next_tuple += 1;
            Op::Insert(t)
        } else if roll < 80 {
            Op::Delete(live[rng.gen_range(0..live.len())])
        } else if roll < 88 {
            Op::BuildDual(2 + rng.gen_range(0..3usize))
        } else if roll < 94 && dim == 2 {
            Op::BuildRPlus
        } else {
            Op::Drop
        };
        // Mirror the op's effect on the live-id tracking used to pick
        // deletable ids; correctness is judged by the replay, not by this.
        if let Op::Insert(t) = &op {
            let id = db.insert(rel, t.clone()).expect("insert");
            live.push(id);
        } else {
            match &op {
                Op::Delete(id) => live.retain(|l| l != id),
                Op::Drop => live.clear(),
                _ => {}
            }
            apply(&mut db, rel, dim, &op);
        }
        log.push(op);

        // Random pins, plus a guaranteed one every 17 steps so every
        // seed exercises a meaningful number of held snapshots.
        if rng.gen_bool(0.15) || step % 17 == 5 {
            snaps.push((db.snapshot().expect("pin snapshot"), log.len()));
        }
        if rng.gen_bool(0.20) {
            db.checkpoint().expect("mid-script checkpoint");
        }
    }
    db.checkpoint().expect("final checkpoint");
    assert!(
        snaps.len() >= 3,
        "seed {seed}: the script pinned too few snapshots to mean anything"
    );

    for (i, (snap, prefix)) in snaps.iter().enumerate() {
        check_snapshot(
            snap,
            rel,
            dim,
            &log[..*prefix],
            &format!("{name} seed {seed} snapshot {i} (prefix {prefix})"),
        );
    }

    // The pins never perturbed the writer: the live engine still equals a
    // full-script replay.
    let full = db.snapshot().expect("final snapshot");
    check_snapshot(&full, rel, dim, &log, &format!("{name} seed {seed} full"));

    drop(full);
    drop(snaps);
    db.close().unwrap();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path(&path));
}

#[test]
fn randomized_snapshots_pin_their_epoch_d2() {
    for seed in [0xA11CE, 0xB0B, 0x5EED] {
        randomized_run("rand2", 2, seed, 90);
    }
}

#[test]
fn randomized_snapshots_pin_their_epoch_d3() {
    for seed in [0xD3, 0xC4FE] {
        randomized_run("rand3", 3, seed, 60);
    }
}

/// A long-held snapshot keeps its pages readable through heavy churn:
/// freed and superseded pages sit in quarantine (visible in
/// [`EpochStats`]) instead of being recycled under the reader, and the
/// writer reclaims them only once the pin drops.
#[test]
fn long_held_snapshot_survives_gc_churn_until_dropped() {
    let path = tmp("gc");
    let _ = std::fs::remove_file(&path);
    let mut db = ConstraintDb::create(&path, DbConfig::paper_1999()).unwrap();
    db.create_relation("r", 2).unwrap();
    let base = DatasetSpec::paper_1999(80, ObjectSize::Small, 0x6C).generate();
    let mut ids = Vec::new();
    for t in &base {
        ids.push(db.insert("r", t.clone()).unwrap());
    }
    db.build_dual_index("r", SlopeSet::uniform_tan(3)).unwrap();
    db.checkpoint().unwrap();

    let snap = db.snapshot().expect("pin");
    let want_scan = live_of(db.scan_relation("r").unwrap());
    let want_ids: Vec<Vec<u32>> = battery(2)
        .into_iter()
        .map(|sel| {
            let mut v = db.query("r", sel).unwrap().ids().to_vec();
            v.sort_unstable();
            v
        })
        .collect();

    // Churn: delete every original tuple, pour in replacements, rebuild
    // the index, checkpoint each round — the pinned epoch's pages are
    // superseded many times over.
    let mut rng = StdRng::seed_from_u64(0x6D);
    for round in 0..5u64 {
        for _ in 0..16 {
            if !ids.is_empty() {
                let victim = ids.remove(rng.gen_range(0..ids.len()));
                db.delete("r", victim).unwrap();
            }
        }
        for t in DatasetSpec::paper_1999(16, ObjectSize::Small, 0x6E + round).generate() {
            ids.push(db.insert("r", t).unwrap());
        }
        db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
        db.checkpoint().unwrap();
    }

    let pinned = db.stats_snapshot().epochs;
    assert_eq!(pinned.pinned_epochs, 1, "one reader pin is live");
    assert!(
        pinned.quarantined_pages > 0,
        "churn under a pin must quarantine freed pages, not recycle them"
    );

    // The snapshot still answers exactly the pinned state.
    assert_eq!(
        live_of(snap.scan_relation("r").unwrap()),
        want_scan,
        "pinned scan changed under churn"
    );
    for (qi, (sel, want)) in battery(2).into_iter().zip(&want_ids).enumerate() {
        let mut got = snap.query("r", sel).unwrap().ids().to_vec();
        got.sort_unstable();
        assert_eq!(&got, want, "pinned battery query {qi} changed under churn");
    }

    // Drop the pin; the next publish point sweeps the quarantine back
    // into the free pool.
    drop(snap);
    for t in DatasetSpec::paper_1999(8, ObjectSize::Small, 0x6F).generate() {
        db.insert("r", t).unwrap();
    }
    db.checkpoint().unwrap();
    let sweeper = db.snapshot().expect("publish point after unpin");
    let drained = db.stats_snapshot().epochs;
    assert_eq!(
        drained.quarantined_pages, 0,
        "quarantine must drain once no pin holds it"
    );
    assert_eq!(drained.pinned_epochs, 1, "only the fresh pin remains");
    drop(sweeper);
    assert_eq!(db.stats_snapshot().epochs.pinned_epochs, 0);

    assert_eq!(db.quarantine_clean(), Some(true), "fsck quarantine verdict");
    db.close().unwrap();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path(&path));
}

/// The scripted workload for the torn-commit matrix: two checkpoints with
/// mutations between them. Returns the state at the last checkpoint that
/// reported success (`None` when none did) and whether the run completed
/// without the crash firing. Sound under crash plans: a crash downs the
/// pager, so an op either fully succeeded before it or is the crash op.
fn torn_commit_run(
    path: &std::path::Path,
    plan: FaultPlan,
) -> (Option<Vec<(u32, GeneralizedTuple)>>, bool) {
    let _ = std::fs::remove_file(path);
    let pager = FaultPager::new(FilePager::create(path, 1024).unwrap(), plan);
    let mut db = ConstraintDb::with_pager(Box::new(pager), DbConfig::paper_1999());
    let mut live: Vec<(u32, GeneralizedTuple)> = Vec::new();
    let mut committed = None;
    let _ = db.create_relation("r", 2);
    for t in DatasetSpec::paper_1999(6, ObjectSize::Small, 0x7C).generate() {
        if let Ok(id) = db.insert("r", t.clone()) {
            live.push((id, t));
        }
    }
    let _ = db.build_dual_index("r", SlopeSet::uniform_tan(3));
    if db.checkpoint().is_ok() {
        committed = Some(live.clone());
    }
    if db.delete("r", 1).is_ok() {
        live.retain(|(id, _)| *id != 1);
    }
    for t in DatasetSpec::paper_1999(3, ObjectSize::Small, 0x7D).generate() {
        if let Ok(id) = db.insert("r", t.clone()) {
            live.push((id, t));
        }
    }
    let done = db.checkpoint().is_ok();
    if done {
        committed = Some(live.clone());
    }
    (committed, done && live.len() == 8)
    // db dropped without close ≡ crash
}

/// Crash at every pager-op index in turn — including every op inside the
/// two commits — and assert the reopened engine serves exactly the last
/// *published* (committed) epoch, and that a fresh [`Snapshot`] pinned on
/// the recovered engine serves the same state.
#[test]
fn crash_during_commit_recovers_the_last_published_epoch() {
    let path = tmp("torn");
    let mut k = 1u64;
    loop {
        let (committed, complete) = torn_commit_run(&path, FaultPlan::new().crash_at(k));
        match ConstraintDb::open(&path) {
            Err(_) => assert!(
                committed.is_none(),
                "crash at op {k}: an acked commit does not reopen"
            ),
            Ok(mut db) => {
                let want = committed.unwrap_or_default();
                let got = if db.relation("r").is_ok() {
                    live_of(db.scan_relation("r").unwrap())
                } else {
                    Vec::new()
                };
                assert_eq!(got, want, "crash at op {k}: not the last published epoch");
                assert_ne!(
                    db.quarantine_clean(),
                    Some(false),
                    "crash at op {k}: recovered quarantine references a live page"
                );
                // A snapshot pinned on the recovered engine serves the
                // recovered epoch through the same read surface.
                if db.relation("r").is_ok() {
                    let snap = db.snapshot().expect("snapshot after recovery");
                    assert_eq!(
                        live_of(snap.scan_relation("r").unwrap()),
                        want,
                        "crash at op {k}: recovered snapshot diverges"
                    );
                }
            }
        }
        if complete {
            break;
        }
        k += 1;
        assert!(k < 10_000, "torn-commit matrix failed to terminate");
    }
    assert!(k > 10, "the script is long enough to sweep both commits");
    let _ = std::fs::remove_file(&path);
}

/// Crash *after* a group-commit ack but before (or during) the next
/// checkpoint: WAL replay on reopen must preserve every acknowledged
/// mutation — recovery may exceed the acked set, never fall short — and
/// the recovered engine must pin and serve snapshots.
#[test]
fn crash_after_ack_replays_every_acked_mutation() {
    let path = tmp("wal");
    // `truncate_crashes` covers "during the commit": the checkpoint's
    // commit lands, then the log truncation crashes mid-checkpoint.
    for truncate_crashes in [false, true] {
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(wal_path(&path));
        let mut db = ConstraintDb::create(&path, DbConfig::paper_1999()).unwrap();
        assert!(db.begin_wal().unwrap(), "file-backed engines arm the wal");
        db.create_relation("r", 2).unwrap();
        let mut acked: Vec<(u32, GeneralizedTuple)> = Vec::new();
        for t in DatasetSpec::paper_1999(10, ObjectSize::Small, 0x8A).generate() {
            let id = db.insert("r", t.clone()).unwrap();
            acked.push((id, t));
        }
        db.build_dual_index("r", SlopeSet::uniform_tan(3)).unwrap();
        db.checkpoint().unwrap(); // durable base: the published epoch

        // A second batch, acknowledged by the group-commit fsync only.
        for t in DatasetSpec::paper_1999(5, ObjectSize::Small, 0x8B).generate() {
            let id = db.insert("r", t.clone()).unwrap();
            acked.push((id, t));
        }
        let victim = acked[2].0;
        db.delete("r", victim).unwrap();
        acked.retain(|(id, _)| *id != victim);
        db.wal_sync().unwrap(); // ← the ack
        acked.sort_by_key(|(id, _)| *id);

        // Unacked tail: applied in memory, never synced.
        for t in DatasetSpec::paper_1999(2, ObjectSize::Small, 0x8C).generate() {
            db.insert("r", t).unwrap();
        }
        if truncate_crashes {
            // Next wal op is the checkpoint's truncate: crash there, mid-
            // checkpoint. The commit itself landed, so recovery serves it.
            db.set_wal_fault_plan(WalFaultPlan::new().crash_at(1));
            let _ = db.checkpoint();
        }
        drop(db); // crash

        let db = ConstraintDb::open(&path).expect("reopen after crash");
        let got = live_of(db.scan_relation("r").unwrap());
        for (id, t) in &acked {
            assert!(
                got.iter().any(|(gid, gt)| gid == id && gt == t),
                "truncate_crashes={truncate_crashes}: acked tuple {id} lost in recovery"
            );
        }
        assert!(
            !got.iter().any(|(gid, _)| *gid == victim),
            "truncate_crashes={truncate_crashes}: acked delete resurrected"
        );
        // The recovered engine pins and serves snapshots of the replayed
        // state.
        let mut db = db;
        let snap = db.snapshot().expect("snapshot after replay");
        assert_eq!(
            live_of(snap.scan_relation("r").unwrap()),
            got,
            "truncate_crashes={truncate_crashes}: snapshot diverges from recovery"
        );
        drop(snap);
        drop(db);
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path(&path));
}
