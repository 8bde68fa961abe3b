//! Crash-matrix and corruption-recovery suite: the engine is driven through
//! a [`FaultPager`] that crashes at every fallible-op index `k` in turn,
//! and through targeted on-disk corruption of heap and index pages.
//!
//! Invariants checked:
//! - `ConstraintDb::open` never panics, whatever the crash point — it either
//!   reports a clean error or recovers.
//! - A recovered database equals the state at the last successful
//!   checkpoint, tuple for tuple (the pre-/post-checkpoint oracle).
//! - A corrupt heap page quarantines exactly its relation; siblings answer
//!   every strategy identically to the uncorrupted oracle.
//! - A corrupt index page only degrades its relation, and
//!   `rebuild_indexes` re-derives the structure from the checksummed heap.
//! - An insert or delete that fails half-way through an index drops that
//!   index: what survives answers as the heap does, before and after the
//!   state is committed.

use constraint_db::index::error::CdbError;
use constraint_db::index::query::Strategy;
use constraint_db::index::RelationHealth;
use constraint_db::prelude::*;
use constraint_db::storage::file::FilePager;
use constraint_db::storage::{wal_path, FaultPager, FaultPlan, PageId, WalFaultPlan};

use std::io::{Seek, SeekFrom, Write as _};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cdb_fi_{name}_{}", std::process::id()));
    p
}

/// Every strategy a dual- and R⁺-indexed 2-D relation supports.
const STRATEGIES: [Strategy; 4] = [
    Strategy::Scan,
    Strategy::T2,
    Strategy::RPlus,
    Strategy::Auto,
];

/// Live tuples the scripted workload ends with when nothing fails:
/// 8 + 4 inserts minus one delete.
const FULL_LIVE: usize = 11;

/// The scripted mutation workload for the crash matrix. Every step
/// tolerates failure (after the crash point all ops error). Returns the
/// recovery oracle — the live `(id, tuple)` set at the *last checkpoint
/// that reported success* (`None` when no commit ever succeeded) — and
/// whether the run completed without the crash firing.
///
/// The oracle bookkeeping is sound under crash plans because a crash downs
/// the pager: an op either fully succeeded before the crash, or is the
/// crash op itself — in which case no later checkpoint can commit its
/// partial effects.
fn scripted_run(db: &mut ConstraintDb) -> (Option<Vec<(u32, GeneralizedTuple)>>, bool) {
    let mut live: Vec<(u32, GeneralizedTuple)> = Vec::new();
    let mut committed = None;
    let _ = db.create_relation("r", 2);
    if db.checkpoint().is_ok() {
        committed = Some(live.clone());
    }
    for t in DatasetSpec::paper_1999(8, ObjectSize::Small, 11).generate() {
        if let Ok(id) = db.insert("r", t.clone()) {
            live.push((id, t));
        }
    }
    let _ = db.build_dual_index("r", SlopeSet::uniform_tan(3));
    if db.checkpoint().is_ok() {
        committed = Some(live.clone());
    }
    if db.delete("r", 3).is_ok() {
        live.retain(|(id, _)| *id != 3);
    }
    for t in DatasetSpec::paper_1999(4, ObjectSize::Small, 12).generate() {
        if let Ok(id) = db.insert("r", t.clone()) {
            live.push((id, t));
        }
    }
    let done = db.checkpoint().is_ok();
    if done {
        committed = Some(live.clone());
    }
    // A crashed run cannot reach the full live count *and* commit it: the
    // final checkpoint either really commits (no crash happened yet, and
    // none can happen after — it is the last op) or fails.
    (committed, done && live.len() == FULL_LIVE)
}

/// Runs the scripted workload against `path` through a fault plan; the
/// database is dropped without `close` (drop ≡ crash).
fn faulted_run(
    path: &std::path::Path,
    plan: FaultPlan,
) -> (Option<Vec<(u32, GeneralizedTuple)>>, bool) {
    let _ = std::fs::remove_file(path);
    let pager = FaultPager::new(FilePager::create(path, 1024).unwrap(), plan);
    let mut db = ConstraintDb::with_pager(Box::new(pager), DbConfig::paper_1999());
    scripted_run(&mut db)
}

/// Sorted live `(id, tuple)` set of relation `r`, via a full heap scan.
fn live_set(db: &ConstraintDb) -> Vec<(u32, GeneralizedTuple)> {
    let mut got = db.scan_relation("r").unwrap();
    got.sort_by_key(|(id, _)| *id);
    got
}

#[test]
fn crash_at_every_op_recovers_to_the_last_checkpoint() {
    let path = tmp("matrix");
    // The engine owns the pager as `Box<dyn Pager>`, so the op horizon is
    // not read off a counter: crash points are tried in order until a plan's
    // crash index is never reached (the run completed under it), which the
    // workload reports itself.
    let mut k = 1u64;
    loop {
        let (committed, complete) = faulted_run(&path, FaultPlan::new().crash_at(k));
        match ConstraintDb::open(&path) {
            Err(_) => assert!(
                committed.is_none(),
                "crash at op {k}: a checkpoint reported success but the file does not reopen"
            ),
            Ok(db) => {
                let want = committed.unwrap_or_else(|| {
                    panic!("crash at op {k}: reopened with no successful checkpoint")
                });
                if want.is_empty() {
                    assert_eq!(
                        db.relation("r").map(|r| r.len()).unwrap_or(0),
                        0,
                        "crash at op {k}: the empty birth commit recovered non-empty"
                    );
                } else {
                    assert_eq!(
                        live_set(&db),
                        want,
                        "crash at op {k}: recovered state is not the last checkpoint"
                    );
                    // The recovered engine also serves consistent queries.
                    let sel = Selection::exist(HalfPlane::above(0.37, 0.0));
                    let scan = db.query_with("r", sel.clone(), Strategy::Scan).unwrap();
                    let auto = db.query_with("r", sel, Strategy::Auto).unwrap();
                    assert_eq!(scan.ids(), auto.ids(), "crash at op {k}");
                }
            }
        }
        if complete {
            break;
        }
        k += 1;
        assert!(k < 10_000, "crash matrix failed to terminate");
    }
    assert!(k > 20, "the workload is long enough to be a real matrix");
    let _ = std::fs::remove_file(&path);
}

/// A smaller scripted run for non-crash schedules (injected errors leave
/// the pager up, so a failed insert/delete may still have partially
/// applied — the oracle must therefore come from the engine itself).
/// Returns whether any commit succeeded, plus the authoritative scan
/// snapshot at the last successful checkpoint when one could be taken.
fn random_run(db: &mut ConstraintDb) -> (bool, Option<Vec<(u32, GeneralizedTuple)>>) {
    let mut any_commit = false;
    let mut last_known = None;
    let snapshot = |db: &ConstraintDb, known: &mut Option<Vec<(u32, GeneralizedTuple)>>| {
        match db.scan_relation("r") {
            Ok(mut snap) => {
                snap.sort_by_key(|(id, _)| *id);
                *known = Some(snap);
            }
            // An injected read error mid-snapshot: state unknown.
            Err(_) => *known = None,
        }
    };
    let _ = db.create_relation("r", 2);
    for (i, t) in DatasetSpec::paper_1999(12, ObjectSize::Small, 21)
        .generate()
        .into_iter()
        .enumerate()
    {
        let _ = db.insert("r", t);
        if i == 5 {
            let _ = db.build_dual_index("r", SlopeSet::uniform_tan(3));
        }
        if i % 4 == 3 && db.checkpoint().is_ok() {
            any_commit = true;
            snapshot(db, &mut last_known);
        }
    }
    let _ = db.delete("r", 2);
    if db.checkpoint().is_ok() {
        any_commit = true;
        snapshot(db, &mut last_known);
    }
    (any_commit, last_known)
}

#[test]
fn random_fault_schedules_never_panic_and_reopen_cleanly() {
    let path = tmp("random");
    for seed in 0..12u64 {
        let _ = std::fs::remove_file(&path);
        let pager = FaultPager::new(
            FilePager::create(&path, 1024).unwrap(),
            FaultPlan::random(seed, 400, 0.04),
        );
        let mut db = ConstraintDb::with_pager(Box::new(pager), DbConfig::paper_1999());
        let (any_commit, last_known) = random_run(&mut db);
        drop(db); // drop without close ≡ crash

        match ConstraintDb::open(&path) {
            Err(_) => assert!(!any_commit, "seed {seed}: committed state lost"),
            Ok(db) => {
                if let Some(want) = last_known {
                    assert_eq!(live_set(&db), want, "seed {seed}");
                }
                let sel = Selection::all(HalfPlane::below(-0.8, 6.0));
                let scan = db.query_with("r", sel.clone(), Strategy::Scan).unwrap();
                let auto = db.query_with("r", sel, Strategy::Auto).unwrap();
                assert_eq!(scan.ids(), auto.ids(), "seed {seed}");
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// One injected error — the pager stays up — at every op index of an
/// indexed relation's insert/delete traffic in turn. The heap is the truth
/// and keeps whatever half of the mutation it took; an index whose
/// maintenance failed half-way is dropped, so every index that survives
/// answers as the scan does, at once and after the state is checkpointed
/// and reopened (nothing durable could say "stale": `open` verifies
/// checksums, and a half-maintained tree is made of well-formed pages).
/// The R⁺-tree is packed once: it survives exactly the faults that fell
/// before the heap changed, and any write that got that far drops it.
#[test]
fn maintenance_failing_at_any_op_leaves_no_index_out_of_step_with_the_heap() {
    use constraint_db::index::IndexKind;
    let path = tmp("halfway");
    // 125 tuples fill the bulk-loaded leaves (122 entries a page), so the
    // inserts below split leaves: the longest half-way a tree insert has.
    // Five inserts and a delete give the sweep 121 ops to fail, the
    // R⁺-tree's drop among them.
    let tuples = DatasetSpec::paper_1999(130, ObjectSize::Small, 31).generate();
    let (setup, traffic) = tuples.split_at(125);
    let sels = [
        Selection::exist(HalfPlane::above(0.37, 0.0)),
        Selection::all(HalfPlane::below(-0.8, 60.0)),
        Selection::exist(HalfPlane::below(2.5, -10.0)),
    ];
    let agree = |db: &ConstraintDb, what: &str| {
        let rel = db.relation("r").unwrap();
        let mut serving = vec![Strategy::Auto];
        if rel.built(IndexKind::Dual).is_some() {
            serving.extend([Strategy::Restricted, Strategy::T2]);
        }
        if rel.built(IndexKind::RPlus).is_some() {
            serving.push(Strategy::RPlus);
        }
        for sel in &sels {
            let scan = db.query_with("r", sel.clone(), Strategy::Scan).unwrap();
            for &st in &serving {
                match db.query_with("r", sel.clone(), st) {
                    Ok(got) => assert_eq!(got.ids(), scan.ids(), "{what}: {st:?}"),
                    // Restricted at a slope outside S.
                    Err(CdbError::UnsupportedQuery(_)) => {}
                    Err(e) => panic!("{what}: {st:?}: {e}"),
                }
            }
        }
    };
    // The indexed relation, driven through a pager that fails op `k`:
    // `None` when the fault fell into the setup.
    let indexed = |k: u64| {
        let _ = std::fs::remove_file(&path);
        let pager = FaultPager::new(
            FilePager::create(&path, 1024).unwrap(),
            FaultPlan::new().fail_op(k),
        );
        let mut db = ConstraintDb::with_pager(Box::new(pager), DbConfig::paper_1999());
        let ready = db.create_relation("r", 2).is_ok()
            && setup.iter().all(|t| db.insert("r", t.clone()).is_ok())
            && db.build_dual_index("r", SlopeSet::uniform_tan(2)).is_ok()
            && db.build_rplus_index("r", 0.8).is_ok();
        ready.then_some(db)
    };
    // The engine owns its pager, so the first op past the setup is found
    // by bisection rather than read off a counter.
    let (mut in_setup, mut past) = (0u64, 1u64 << 16);
    while past - in_setup > 1 {
        let mid = in_setup + (past - in_setup) / 2;
        match indexed(mid) {
            None => in_setup = mid,
            Some(_) => past = mid,
        }
    }
    let (mut failed, mut dropped, mut kept_rplus) = (0, 0, 0);
    for k in past.. {
        let mut db = indexed(k).expect("past the setup");
        let dual_pages = |db: &ConstraintDb| {
            let rel = db.relation("r").unwrap();
            rel.built(IndexKind::Dual).map(|index| index.page_count())
        };
        let pages = dual_pages(&db).expect("built in the setup");
        // The first write: the R⁺-tree outlives it exactly when the fault
        // fell before the heap took the record.
        let first = db.insert("r", traffic[0].clone()).is_ok();
        let rel = db.relation("r").unwrap();
        let untouched = rel.len() == setup.len() as u64;
        assert_eq!(
            rel.built(IndexKind::RPlus).is_some(),
            untouched,
            "fault at op {k}: the R⁺-tree"
        );
        kept_rplus += u32::from(untouched);
        let mut clean = first
            && traffic[1..]
                .iter()
                .all(|t| db.insert("r", t.clone()).is_ok());
        clean &= db.delete("r", 64).is_ok();
        if clean {
            let grown = dual_pages(&db).expect("maintained") - pages;
            assert!(grown >= 2, "the traffic was meant to split leaves");
            break; // op k lies beyond the traffic
        }
        failed += 1;
        if dual_pages(&db).is_none() {
            dropped += 1;
        }
        agree(&db, &format!("fault at op {k}, in process"));
        db.checkpoint().unwrap();
        drop(db);
        let db = ConstraintDb::open(&path).unwrap();
        let health = db.relation("r").unwrap().health().clone();
        assert_eq!(health, RelationHealth::Healthy, "fault at op {k}");
        agree(&db, &format!("fault at op {k}, reopened"));
    }
    assert!(failed > 100, "only {failed} faults fell into the traffic");
    assert!(dropped > 100, "only {dropped} faults fell inside an index");
    assert!(
        dropped < failed,
        "a fault before the heap changes costs no index"
    );
    assert!(kept_rplus > 0, "no fault fell before the heap changed");
    let _ = std::fs::remove_file(&path);
}

/// Flips three bytes inside the on-disk image of logical page `id`.
fn corrupt_page(path: &std::path::Path, id: PageId) {
    let off = {
        let pager = FilePager::open(path).unwrap();
        pager.page_disk_offset(id).expect("page is materialized")
    };
    let mut f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.seek(SeekFrom::Start(off + 13)).unwrap();
    f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
    f.sync_all().unwrap();
}

/// Builds a database with two indexed sibling relations and returns the
/// query battery used for oracle comparisons.
fn build_siblings(path: &std::path::Path) -> Vec<Selection> {
    let _ = std::fs::remove_file(path);
    let mut db = ConstraintDb::create(path, DbConfig::paper_1999()).unwrap();
    for name in ["good", "bad"] {
        db.create_relation(name, 2).unwrap();
        let seed = if name == "good" { 5 } else { 6 };
        for t in DatasetSpec::paper_1999(60, ObjectSize::Small, seed).generate() {
            db.insert(name, t).unwrap();
        }
        db.build_dual_index(name, SlopeSet::uniform_tan(4)).unwrap();
        db.build_rplus_index(name, 1.0).unwrap();
    }
    db.close().unwrap();
    let mut battery = Vec::new();
    for slope in [0.37, -0.8] {
        for c in [-5.0, 0.0, 6.0] {
            battery.push(Selection::exist(HalfPlane::above(slope, c)));
            battery.push(Selection::all(HalfPlane::below(slope, c)));
        }
    }
    battery
}

#[test]
fn corrupt_heap_quarantines_one_relation_and_siblings_answer_identically() {
    let path = tmp("quarantine");
    let battery = build_siblings(&path);

    // Oracle: every strategy's answer on `good` before any corruption.
    let oracle: Vec<Vec<u32>> = {
        let db = ConstraintDb::open(&path).unwrap();
        assert!(db.recovery_report().is_clean());
        let mut want = Vec::new();
        for sel in &battery {
            for s in STRATEGIES {
                want.push(
                    db.query_with("good", sel.clone(), s)
                        .unwrap()
                        .ids()
                        .to_vec(),
                );
            }
        }
        want
    };

    let victim = {
        let db = ConstraintDb::open(&path).unwrap();
        db.relation("bad").unwrap().heap_page_ids()[0]
    };
    corrupt_page(&path, victim);

    let mut db = ConstraintDb::open(&path).unwrap();
    assert_eq!(db.recovery_report().quarantined(), vec!["bad"]);
    assert!(matches!(
        db.relation("good").unwrap().health(),
        RelationHealth::Healthy
    ));

    // The quarantined relation refuses everything with a typed error...
    for sel in &battery {
        match db.query_with("bad", sel.clone(), Strategy::Auto) {
            Err(CdbError::Quarantined(n)) => assert_eq!(n, "bad"),
            other => panic!("expected Quarantined, got {other:?}"),
        }
    }
    assert!(matches!(
        db.fetch_tuple("bad", 0),
        Err(CdbError::Quarantined(_))
    ));
    assert!(matches!(
        db.rebuild_indexes("bad"),
        Err(CdbError::Quarantined(_))
    ));

    // ...while the sibling answers every strategy exactly as before.
    let mut got = Vec::new();
    for sel in &battery {
        for s in STRATEGIES {
            got.push(
                db.query_with("good", sel.clone(), s)
                    .unwrap()
                    .ids()
                    .to_vec(),
            );
        }
    }
    assert_eq!(got, oracle, "sibling unaffected by the quarantine");

    // Dropping the quarantined relation is the supported way out.
    db.drop_relation("bad").unwrap();
    db.close().unwrap();
    let db = ConstraintDb::open(&path).unwrap();
    assert!(db.recovery_report().is_clean());
    assert_eq!(db.relation_names(), vec!["good".to_string()]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_index_degrades_and_rebuild_indexes_repairs_from_the_heap() {
    let path = tmp("rebuild");
    let _ = std::fs::remove_file(&path);
    let mut db = ConstraintDb::create(&path, DbConfig::paper_1999()).unwrap();
    db.create_relation("r", 2).unwrap();
    for t in DatasetSpec::paper_1999(80, ObjectSize::Small, 9).generate() {
        db.insert("r", t).unwrap();
    }
    db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
    let sel = Selection::exist(HalfPlane::above(0.37, -2.0));
    let oracle = db
        .query_with("r", sel.clone(), Strategy::T2)
        .unwrap()
        .ids()
        .to_vec();
    db.close().unwrap();

    // Index pages are everything the pager allocated beyond the heap.
    let victim = {
        let db = ConstraintDb::open(&path).unwrap();
        let heap: Vec<PageId> = db.relation("r").unwrap().heap_page_ids().to_vec();
        let pager = FilePager::open(&path).unwrap();
        *pager
            .allocated_pages()
            .iter()
            .find(|p| !heap.contains(p))
            .expect("the dual index owns at least one page")
    };
    corrupt_page(&path, victim);

    let mut db = ConstraintDb::open(&path).unwrap();
    match db.relation("r").unwrap().health() {
        RelationHealth::Degraded { corrupt_indexes } => {
            assert_eq!(corrupt_indexes, &["dual".to_string()])
        }
        other => panic!("expected Degraded, got {other:?}"),
    }
    // Forcing the corrupt structure is refused; planning routes around it.
    assert!(db.query_with("r", sel.clone(), Strategy::T2).is_err());
    assert_eq!(
        db.query_with("r", sel.clone(), Strategy::Auto)
            .unwrap()
            .ids(),
        &oracle[..],
        "degraded relation still answers through the scan"
    );

    // Repair re-derives the index from the checksummed heap.
    assert_eq!(db.rebuild_indexes("r").unwrap(), vec!["dual".to_string()]);
    assert!(matches!(
        db.relation("r").unwrap().health(),
        RelationHealth::Healthy
    ));
    assert_eq!(
        db.query_with("r", sel.clone(), Strategy::T2).unwrap().ids(),
        &oracle[..]
    );
    db.close().unwrap();

    // The repair is durable: a reopened database is clean again.
    let db = ConstraintDb::open(&path).unwrap();
    assert!(db.recovery_report().is_clean());
    assert_eq!(
        db.query_with("r", sel, Strategy::T2).unwrap().ids(),
        &oracle[..]
    );
    let _ = std::fs::remove_file(&path);
}

/// The WAL-armed scripted workload for the crash matrix: a relation plus a
/// stream of inserts, group-commit syncs every third insert and one
/// mid-stream checkpoint, so the fault counter sweeps appends, fsyncs and
/// the truncate-on-checkpoint. Returns the **acked oracle** — the sorted
/// live set that durability was confirmed for (a batch is acked only when
/// its `wal_sync` returned Ok; a successful checkpoint acks everything
/// applied so far) — and whether the run completed without the crash
/// firing.
fn wal_faulted_run(
    path: &std::path::Path,
    plan: WalFaultPlan,
) -> (Vec<(u32, GeneralizedTuple)>, bool) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(wal_path(path));
    let mut db = ConstraintDb::create(path, DbConfig::paper_1999()).unwrap();
    assert!(db.begin_wal().unwrap(), "file-backed engines arm the wal");
    db.set_wal_fault_plan(plan);

    let mut ok = true;
    let mut acked: Vec<(u32, GeneralizedTuple)> = Vec::new();
    let mut pending: Vec<(u32, GeneralizedTuple)> = Vec::new();
    ok &= db.create_relation("r", 2).is_ok();
    ok &= db.wal_sync().is_ok();
    for (i, t) in DatasetSpec::paper_1999(18, ObjectSize::Small, 31)
        .generate()
        .into_iter()
        .enumerate()
    {
        match db.insert("r", t.clone()) {
            Ok(id) => pending.push((id, t)),
            Err(_) => ok = false,
        }
        if i % 3 == 2 {
            // Group-commit boundary: the fsync is what acknowledges.
            if db.wal_sync().is_ok() {
                acked.append(&mut pending);
            } else {
                ok = false;
                pending.clear();
            }
        }
        if i == 8 {
            // A checkpoint commits everything applied so far — including
            // mutations whose log append failed — so the engine's own scan
            // is the authoritative acked set from here.
            match db.checkpoint() {
                Ok(()) => {
                    acked = live_set(&db);
                    pending.clear();
                }
                Err(_) => ok = false,
            }
        }
    }
    acked.sort_by_key(|(id, _)| *id);
    (acked, ok)
    // db dropped without close ≡ crash
}

/// Crash at every WAL op index in turn — append, fsync, and the
/// truncate-on-checkpoint — and assert that `open` never panics and that
/// the recovered state contains **every acknowledged mutation**. Recovery
/// may exceed the acked set (a torn fsync can land complete frames whose
/// acknowledgement was never sent); it must never fall short of it.
#[test]
fn wal_crash_at_every_op_loses_no_acked_mutation() {
    let path = tmp("walmatrix");
    let mut k = 1u64;
    loop {
        let (acked, complete) = wal_faulted_run(&path, WalFaultPlan::new().crash_at(k));
        let db = ConstraintDb::open(&path)
            .unwrap_or_else(|e| panic!("wal crash at op {k}: open failed: {e}"));
        assert!(
            db.recovery_report().is_clean(),
            "wal crash at op {k}: recovery is not clean: {:?}",
            db.recovery_report()
        );
        let got = live_set(&db);
        // Insert-only workload: replay re-assigns the same dense ids, so
        // the recovered set is a clean prefix at least as long as the acked
        // set, agreeing with it tuple for tuple.
        assert!(
            got.len() >= acked.len(),
            "wal crash at op {k}: lost acked mutations ({} recovered < {} acked)",
            got.len(),
            acked.len()
        );
        assert_eq!(
            &got[..acked.len()],
            acked.as_slice(),
            "wal crash at op {k}: recovered state diverges from the acked set"
        );
        for (i, (id, _)) in got.iter().enumerate() {
            assert_eq!(*id as usize, i, "wal crash at op {k}: ids are not dense");
        }
        if !got.is_empty() {
            let sel = Selection::exist(HalfPlane::above(0.37, 0.0));
            let scan = db.query_with("r", sel.clone(), Strategy::Scan).unwrap();
            let auto = db.query_with("r", sel, Strategy::Auto).unwrap();
            assert_eq!(scan.ids(), auto.ids(), "wal crash at op {k}");
        }
        drop(db);
        if complete {
            break;
        }
        k += 1;
        assert!(k < 10_000, "wal crash matrix failed to terminate");
    }
    assert!(k > 20, "the workload exercises a real spread of wal ops");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path(&path));
}

/// A WAL whose tail frame is physically torn (the classic partial write)
/// must not poison recovery: replay keeps every complete frame, reports
/// `torn_tail`, stays clean, and absorbs the log so the next open starts
/// fresh.
#[test]
fn torn_wal_tail_is_dropped_cleanly() {
    let path = tmp("waltear");
    let wpath = wal_path(&path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wpath);

    let mut db = ConstraintDb::create(&path, DbConfig::paper_1999()).unwrap();
    db.begin_wal().unwrap();
    db.create_relation("r", 2).unwrap();
    let tuples = DatasetSpec::paper_1999(6, ObjectSize::Small, 41).generate();
    let mut first = Vec::new();
    for t in &tuples[..3] {
        first.push((db.insert("r", t.clone()).unwrap(), t.clone()));
    }
    db.wal_sync().unwrap();
    for t in &tuples[3..] {
        db.insert("r", t.clone()).unwrap();
    }
    db.wal_sync().unwrap();
    drop(db); // crash without checkpoint: the wal is the only durable copy

    // Tear the tail: chop bytes out of the last record's frame.
    let len = std::fs::metadata(&wpath).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wpath)
        .unwrap();
    f.set_len(len - 5).unwrap();
    f.sync_all().unwrap();
    drop(f);

    let db = ConstraintDb::open(&path).unwrap();
    let report = db.recovery_report().clone();
    let wal = report.wal.clone().expect("replay report is present");
    assert!(wal.torn_tail, "the tear is detected");
    assert!(wal.error.is_none(), "a torn tail is not a replay error");
    assert!(report.is_clean(), "torn-tail recovery is clean");
    // Everything before the torn frame survives: the create, the three
    // synced inserts, and the two complete frames of the second batch.
    assert_eq!(wal.replayed, 6, "create + five complete insert frames");
    let got = live_set(&db);
    assert_eq!(
        got.len(),
        5,
        "all complete frames replay; the torn one drops"
    );
    assert_eq!(&got[..3], first.as_slice(), "every acked insert survives");
    assert!(
        !wpath.exists(),
        "a clean replay absorbs the log into a checkpoint and deletes it"
    );
    drop(db);

    // The recovered state is itself durable: a second open is a no-op.
    let db = ConstraintDb::open(&path).unwrap();
    assert!(db.recovery_report().wal.is_none(), "no log left to replay");
    assert_eq!(live_set(&db), got);
    drop(db);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn read_only_open_of_a_corrupted_file_reports_without_writing() {
    let path = tmp("ro");
    build_siblings(&path);
    let victim = {
        let db = ConstraintDb::open(&path).unwrap();
        db.relation("bad").unwrap().heap_page_ids()[0]
    };
    corrupt_page(&path, victim);
    let before = std::fs::read(&path).unwrap();

    let db = ConstraintDb::open_read_only(&path).unwrap();
    assert!(db.is_read_only());
    assert_eq!(db.recovery_report().quarantined(), vec!["bad"]);
    db.query_with(
        "good",
        Selection::exist(HalfPlane::above(0.4, 1.0)),
        Strategy::Auto,
    )
    .unwrap();
    drop(db);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "a read-only open leaves every byte untouched"
    );
    let _ = std::fs::remove_file(&path);
}
