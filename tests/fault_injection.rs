//! Corruption-recovery suite: targeted on-disk corruption of heap and
//! index pages, torn WAL tails, and a [`FaultPager`] failing every op of
//! index maintenance in turn. The crash matrices over generated scripts
//! (pager and WAL) and the random fault schedules are the model harness's
//! (`tests/model.rs`).
//!
//! Invariants checked:
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
use constraint_db::storage::{wal_path, FaultPager, FaultPlan, PageId};

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

/// Sorted live `(id, tuple)` set of relation `r`, via a full heap scan.
fn live_set(db: &ConstraintDb) -> Vec<(u32, GeneralizedTuple)> {
    let mut got = db.scan_relation("r").unwrap();
    got.sort_by_key(|(id, _)| *id);
    got
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
    // The traffic is inserts from the rest of a longer generated list,
    // then a delete, as many inserts as it takes (sized below) to give the
    // sweep more than 100 ops to fail inside the dual index.
    let tuples = DatasetSpec::paper_1999(125 + 40, ObjectSize::Small, 31).generate();
    let (setup, spare) = tuples.split_at(125);
    let sels = [
        Selection::exist(HalfPlane::above(0.37, 0.0)),
        Selection::all(HalfPlane::below(-0.8, 60.0)),
        Selection::exist(HalfPlane::below(2.5, -10.0)),
    ];
    let agree = |db: &ConstraintDb, what: &str| {
        let rel = db.relation("r").unwrap();
        let mut serving = vec![Strategy::Auto];
        if rel.built(IndexKind::Dual).is_some() {
            serving.push(Strategy::T2);
        }
        if rel.built(IndexKind::RPlus).is_some() {
            serving.push(Strategy::RPlus);
        }
        for sel in &sels {
            let scan = db.query_with("r", sel.clone(), Strategy::Scan).unwrap();
            for &st in &serving {
                let got = db.query_with("r", sel.clone(), st);
                let got = got.unwrap_or_else(|e| panic!("{what}: {st:?}: {e}"));
                assert_eq!(got.ids(), scan.ids(), "{what}: {st:?}");
            }
        }
    };
    // The relation, with its dual index (`dual`) or not, driven through a
    // pager that fails op `k`: `None` when the fault fell into the setup.
    let relation = |k: u64, dual: bool| {
        let _ = std::fs::remove_file(&path);
        let pager = FaultPager::new(
            FilePager::create(&path, 1024).unwrap(),
            FaultPlan::new().fail_op(k),
        );
        let mut db = ConstraintDb::with_pager(Box::new(pager), DbConfig::paper_1999());
        let ready = db.create_relation("r", 2).is_ok()
            && setup.iter().all(|t| db.insert("r", t.clone()).is_ok())
            && (!dual || db.build_dual_index("r", SlopeSet::uniform_tan(2)).is_ok())
            && db.build_rplus_index("r", 0.8).is_ok();
        ready.then_some(db)
    };
    let indexed = |k: u64| relation(k, true);
    // The engine owns its pager, so op counts are found by bisection
    // rather than read off a counter: the least `k` above `from` at which
    // `whole(k)` holds, where it fails below that `k` and holds above it.
    let first = |from: u64, whole: &dyn Fn(u64) -> bool| {
        let (mut failing, mut step) = (from, 1);
        while !whole(failing + step) {
            failing += step;
            step *= 2;
        }
        let mut holding = failing + step;
        while holding - failing > 1 {
            let mid = failing + (holding - failing) / 2;
            if whole(mid) {
                holding = mid;
            } else {
                failing = mid;
            }
        }
        holding
    };
    let [past, plain_past] = [true, false].map(|dual| first(0, &|k| relation(k, dual).is_some()));
    // The ops a fault-free pass of `inserts` and the delete issues past the
    // setup, with the dual index or without.
    let traffic_ops = |inserts: &[GeneralizedTuple], dual: bool, past: u64| {
        let whole = |k| {
            relation(k, dual).is_some_and(|mut db| {
                inserts.iter().all(|t| db.insert("r", t.clone()).is_ok())
                    && db.delete("r", 64).is_ok()
            })
        };
        first(past, &whole) - past
    };
    // Grown until the dual index's share — the ops the pass issues with it
    // beyond those it issues without — meets the floor `dropped` is held
    // to below, so a write path that reads fewer pages takes more inserts.
    let traffic = (1..=spare.len())
        .map(|n| &spare[..n])
        .find(|t| traffic_ops(t, true, past) - traffic_ops(t, false, plain_past) > 100)
        .expect("the spare tuples suffice");
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
