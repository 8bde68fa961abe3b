//! Durable lifecycle: a database built with every index family, mixed
//! insert/delete traffic and planner feedback must close, reopen from its
//! catalog alone (no heap rescans) and answer every query identically —
//! and a torn or corrupted catalog must surface as
//! [`CdbError::CorruptRecord`], never as a panic or a silently empty
//! database.

use constraint_db::index::ddim::SlopePoints;
use constraint_db::index::error::{CdbError, CATALOG_RECORD};
use constraint_db::index::query::Strategy;
use constraint_db::index::IndexKind;
use constraint_db::prelude::*;
use constraint_db::storage::file::FilePager;

use std::io::{Seek, SeekFrom, Write as _};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cdb_it_{name}_{}", std::process::id()));
    p
}

/// Builds the full randomized workload at `path`: a 2-D relation with the
/// dual index under mixed insert/delete traffic and the R⁺-tree baseline
/// packed after it (a write would drop it), plus a 3-D relation with the
/// dual index over slope points. Returns the battery of 2-D selections used for
/// equivalence checks.
fn build_workload(path: &std::path::Path, seed: u64) -> (ConstraintDb, Vec<Selection>) {
    let mut rng = cdb_prng::StdRng::seed_from_u64(seed);
    let mut db = ConstraintDb::create(path, DbConfig::paper_1999()).unwrap();

    db.create_relation("r", 2).unwrap();
    let tuples = DatasetSpec::paper_1999(200, ObjectSize::Small, seed).generate();
    for t in &tuples {
        db.insert("r", t.clone()).unwrap();
    }
    db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
    // Deletes after the build: dual-index removals.
    for _ in 0..25 {
        let id = rng.gen_range(0..tuples.len() as u32);
        let _ = db.delete("r", id); // double deletes simply error
    }
    // And fresh inserts on top: tree inserts with handicap folds.
    for t in DatasetSpec::paper_1999(20, ObjectSize::Small, seed ^ 0xFF)
        .generate()
        .into_iter()
    {
        db.insert("r", t).unwrap();
    }
    // The R⁺-tree last: packed once over the live tuples.
    db.build_rplus_index("r", 1.0).unwrap();

    db.create_relation("boxes", 3).unwrap();
    for _ in 0..60 {
        let mut cs = Vec::new();
        for axis in 0..3usize {
            let lo: f64 = rng.gen_range(-40.0..35.0);
            let hi = lo + rng.gen_range(1.0..5.0);
            let mut a = vec![0.0; 3];
            a[axis] = 1.0;
            cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
            cs.push(LinearConstraint::new(a, -hi, RelOp::Le));
        }
        db.insert("boxes", GeneralizedTuple::new(cs)).unwrap();
    }
    db.build_dual_index("boxes", SlopePoints::grid(3, 3, 1.0))
        .unwrap();

    // A slope from S (exact restricted search) plus arbitrary slopes.
    let member = db
        .relation("r")
        .unwrap()
        .index()
        .unwrap()
        .slopes()
        .unwrap()
        .as_slice()[1];
    let mut battery = Vec::new();
    for slope in [member, 0.37, -0.8, 1.9] {
        for c in [-5.0, 0.0, 6.0] {
            battery.push(Selection::exist(HalfPlane::above(slope, c)));
            battery.push(Selection::all(HalfPlane::below(slope, c)));
        }
    }
    (db, battery)
}

/// Every strategy the 2-D relation supports, Auto included.
const STRATEGIES: [Strategy; 5] = [
    Strategy::Scan,
    Strategy::T1,
    Strategy::T2,
    Strategy::RPlus,
    Strategy::Auto,
];

#[test]
fn reopened_database_answers_identically() {
    let path = tmp("roundtrip");
    let (db, battery) = build_workload(&path, 0xC0FFEE);

    // Feed the planner: its feedback lives in memory and is not persisted.
    for sel in &battery {
        db.query("r", sel.clone()).unwrap();
    }
    let live_before = db.relation("r").unwrap().len();
    let mut want_ids = Vec::new();
    for sel in &battery {
        for s in STRATEGIES {
            want_ids.push(db.query_with("r", sel.clone(), s).unwrap().ids().to_vec());
        }
    }
    let want_boxes = db
        .query_with(
            "boxes",
            Selection::exist(HalfPlane::new(vec![0.3, -0.4], 10.0, RelOp::Ge)),
            Strategy::Auto,
        )
        .unwrap()
        .ids()
        .to_vec();
    db.close().unwrap();

    // A reopened database plans cold: two independent opens of the file
    // plan every selection identically — before any query teaches them.
    let plans = |db: &ConstraintDb| -> Vec<String> {
        let plan = |sel: &Selection| db.plan_query("r", sel).unwrap().explain();
        battery.iter().map(plan).collect()
    };
    let first = plans(&ConstraintDb::open(&path).unwrap());
    let db = ConstraintDb::open(&path).unwrap();
    assert_eq!(plans(&db), first, "EXPLAIN is a function of the file");
    assert_eq!(
        db.relation_names(),
        vec!["boxes".to_string(), "r".to_string()]
    );
    assert_eq!(db.relation("r").unwrap().len(), live_before);

    let mut got_ids = Vec::new();
    for sel in &battery {
        for s in STRATEGIES {
            got_ids.push(db.query_with("r", sel.clone(), s).unwrap().ids().to_vec());
        }
    }
    assert_eq!(got_ids, want_ids, "all strategies answer identically");
    let got_boxes = db
        .query_with(
            "boxes",
            Selection::exist(HalfPlane::new(vec![0.3, -0.4], 10.0, RelOp::Ge)),
            Strategy::Auto,
        )
        .unwrap()
        .ids()
        .to_vec();
    assert_eq!(
        got_boxes, want_boxes,
        "the slope-point index survives reopen"
    );

    db.close().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn reopen_supports_further_updates_and_another_cycle() {
    let path = tmp("twocycles");
    let (db, battery) = build_workload(&path, 0xBEEF);
    db.close().unwrap();

    let mut db = ConstraintDb::open(&path).unwrap();
    // Mutate the reopened database: its heaps and trees must still be live.
    let extra = DatasetSpec::paper_1999(10, ObjectSize::Small, 7).generate();
    for t in &extra {
        db.insert("r", t.clone()).unwrap();
    }
    let deleted = (0..250u32).find(|&id| db.delete("r", id).is_ok());
    assert!(deleted.is_some(), "found a live tuple to delete");
    // The writes dropped the persisted R⁺-tree; a re-pack is persisted in
    // its place.
    assert!(db.relation("r").unwrap().built(IndexKind::RPlus).is_none());
    db.build_rplus_index("r", 1.0).unwrap();
    let want: Vec<Vec<u32>> = battery
        .iter()
        .map(|sel| {
            db.query_with("r", sel.clone(), Strategy::Scan)
                .unwrap()
                .ids()
                .to_vec()
        })
        .collect();
    db.close().unwrap();

    let db = ConstraintDb::open(&path).unwrap();
    for (sel, want) in battery.iter().zip(&want) {
        for s in STRATEGIES {
            assert_eq!(
                db.query_with("r", sel.clone(), s).unwrap().ids(),
                &want[..],
                "second-generation reopen, strategy {s:?}"
            );
        }
    }
    db.close().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn create_then_open_of_empty_database_works() {
    let path = tmp("empty");
    ConstraintDb::create(&path, DbConfig::paper_1999())
        .unwrap()
        .close()
        .unwrap();
    let db = ConstraintDb::open(&path).unwrap();
    assert!(db.relation_names().is_empty());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn opening_missing_file_is_io_not_corrupt() {
    let path = tmp("missing");
    let _ = std::fs::remove_file(&path);
    match ConstraintDb::open(&path) {
        Err(CdbError::Io(_)) => {}
        Err(other) => panic!("expected Io error, got {other:?}"),
        Ok(_) => panic!("opened a file that does not exist"),
    }
}

/// Flips one byte inside the committed catalog chain of `path`.
fn corrupt_current_meta_chain(path: &std::path::Path) {
    let victim = {
        let pager = FilePager::open(path).unwrap();
        let offsets = pager.meta_chain_offsets();
        assert!(!offsets.is_empty(), "catalog chain exists");
        offsets[offsets.len() / 2]
    };
    let off = victim + 50;
    let mut byte = [0u8];
    {
        use std::io::Read as _;
        let mut rf = std::fs::File::open(path).unwrap();
        rf.seek(SeekFrom::Start(off)).unwrap();
        rf.read_exact(&mut byte).unwrap();
    }
    let mut f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.seek(SeekFrom::Start(off)).unwrap();
    f.write_all(&[byte[0] ^ 0x40]).unwrap();
    f.sync_all().unwrap();
}

#[test]
fn corrupting_the_sole_commit_is_reported_not_served_empty() {
    let path = tmp("flip");
    // `with_pager` defers the first catalog commit to `close`, so the file
    // holds exactly one commit and there is no older catalog to fall back
    // to once it is damaged.
    {
        let pager = FilePager::create(&path, 1024).unwrap();
        let mut db = ConstraintDb::with_pager(Box::new(pager), DbConfig::paper_1999());
        db.create_relation("r", 2).unwrap();
        for t in DatasetSpec::paper_1999(50, ObjectSize::Small, 0xF119).generate() {
            db.insert("r", t).unwrap();
        }
        db.close().unwrap();
    }
    corrupt_current_meta_chain(&path);

    match ConstraintDb::open(&path) {
        Err(CdbError::CorruptRecord(id)) => assert_eq!(id, CATALOG_RECORD),
        Ok(db) => panic!(
            "corrupt catalog opened silently ({} relations)",
            db.relation_names().len()
        ),
        Err(other) => panic!("expected CorruptRecord, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupting_the_newest_commit_falls_back_to_the_previous_one() {
    use constraint_db::storage::PagerRecovery;
    let path = tmp("fallback");
    // `ConstraintDb::create` commits an empty catalog at birth; `close`
    // commits the full workload on the other header slot. Damaging the
    // newest chain must recover the older (empty) commit, not fail.
    let (db, _) = build_workload(&path, 0xF119);
    db.close().unwrap();
    corrupt_current_meta_chain(&path);

    let db = ConstraintDb::open(&path).unwrap();
    assert!(
        matches!(db.recovery_report().pager, PagerRecovery::FellBack { .. }),
        "recovery is reported, got {:?}",
        db.recovery_report().pager
    );
    assert!(!db.recovery_report().is_clean());
    assert!(
        db.relation_names().is_empty(),
        "the recovered commit is the empty birth catalog"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_file_is_corrupt_not_a_panic() {
    let path = tmp("trunc");
    let (db, _) = build_workload(&path, 0x7214);
    db.close().unwrap();

    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(100).unwrap(); // not even a full header survives
    f.sync_all().unwrap();
    match ConstraintDb::open(&path) {
        Err(CdbError::CorruptRecord(id)) => assert_eq!(id, CATALOG_RECORD),
        Err(other) => panic!("expected CorruptRecord, got {other:?}"),
        Ok(_) => panic!("truncated file opened as a database"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn torn_append_after_commit_leaves_database_readable() {
    let path = tmp("torn");
    let (db, battery) = build_workload(&path, 0x70A7);
    let want: Vec<Vec<u32>> = battery
        .iter()
        .map(|sel| {
            db.query_with("r", sel.clone(), Strategy::Scan)
                .unwrap()
                .ids()
                .to_vec()
        })
        .collect();
    db.close().unwrap();

    // A crash mid-write of a *new* (unpublished) catalog shows up as junk
    // past the committed pages; the committed state must still load.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(&[0x5Au8; 4096]).unwrap();
    f.sync_all().unwrap();

    let db = ConstraintDb::open(&path).unwrap();
    for (sel, want) in battery.iter().zip(&want) {
        assert_eq!(
            db.query_with("r", sel.clone(), Strategy::Auto)
                .unwrap()
                .ids(),
            &want[..]
        );
    }
    db.close().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn random_garbage_file_is_corrupt_not_empty() {
    let path = tmp("garbage");
    let mut rng = cdb_prng::StdRng::seed_from_u64(0x6A5B);
    let bytes: Vec<u8> = (0..8192).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
    std::fs::write(&path, &bytes).unwrap();
    match ConstraintDb::open(&path) {
        Err(CdbError::CorruptRecord(id)) => assert_eq!(id, CATALOG_RECORD),
        Err(other) => panic!("expected CorruptRecord, got {other:?}"),
        Ok(_) => panic!("random garbage opened as a database"),
    }
    std::fs::remove_file(&path).unwrap();
}

/// Regression: the R⁺-tree was maintained by a clipping insert and a
/// tombstone per delete, and grew without bound under churn (a packed
/// 67-page tree over N = 2 000 held 144 pages after 50 delete+insert
/// pairs). A heap-changing write now drops it: the relation owns no R⁺ page
/// afterwards — in process, and after a crash whose log replays the writes
/// over a catalog that still holds the tree — a forced R⁺ query is refused
/// as on an unindexed relation (a snapshot pinned before the writes still
/// answers through the tree it holds), and one `build_rplus_index`
/// re-packs exactly the tree a fresh pack of the live tuples is.
#[test]
fn churn_drops_the_rplus_tree_and_a_repack_is_a_fresh_pack() {
    let battery: Vec<Selection> = [(0.37, 0.0), (-0.8, 6.0), (1.6, -3.0)]
        .into_iter()
        .flat_map(|(a, c)| {
            [
                Selection::exist(HalfPlane::above(a, c)),
                Selection::all(HalfPlane::below(a, c)),
            ]
        })
        .collect();
    // No R⁺ page is left: the live pages are the heap's and the dual
    // index's, and a forced R⁺ query has no index to run.
    let dropped = |db: &ConstraintDb, what: &str| {
        let rel = db.relation("r").unwrap();
        assert!(rel.built(IndexKind::RPlus).is_none(), "{what}");
        let dual = rel.built(IndexKind::Dual).expect("maintained").page_count();
        assert_eq!(db.live_pages() as u64, rel.heap_pages() + dual, "{what}");
        let forced = db.query_with("r", battery[0].clone(), Strategy::RPlus);
        assert_eq!(forced.err(), Some(CdbError::NoIndex("r".into())), "{what}");
    };
    for pairs in [1usize, 50] {
        let path = tmp(&format!("rplus_churn_{pairs}"));
        let _ = std::fs::remove_file(&path);
        let mut db = ConstraintDb::create(&path, DbConfig::paper_1999()).unwrap();
        assert!(db.begin_wal().unwrap());
        let log = db.wal_file_path().unwrap();
        db.create_relation("r", 2).unwrap();
        for t in DatasetSpec::paper_1999(2000, ObjectSize::Small, 3).generate() {
            db.insert("r", t).unwrap();
        }
        db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
        db.build_rplus_index("r", 1.0).unwrap();
        db.checkpoint().unwrap();
        // A snapshot pinned before the churn keeps the tree it was taken
        // with: the drop frees pages only for later epochs.
        let pinned = db.snapshot().unwrap();

        let mut rng = cdb_prng::StdRng::seed_from_u64(pairs as u64);
        let mut live: Vec<u32> = (0..2000).collect();
        for t in DatasetSpec::paper_1999(pairs, ObjectSize::Small, 4).generate() {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            db.delete("r", victim).unwrap();
            live.push(db.insert("r", t).unwrap());
        }
        dropped(&db, &format!("{pairs} pairs, in process"));
        for sel in &battery {
            let scan = pinned.query_with("r", sel.clone(), Strategy::Scan);
            let got = pinned.query_with("r", sel.clone(), Strategy::RPlus);
            assert_eq!(got.unwrap().ids(), scan.unwrap().ids(), "pinned: {sel:?}");
        }
        drop(pinned);

        // Crash before any checkpoint: the catalog still holds the packed
        // tree, and replaying the pairs drops it again.
        db.wal_sync().unwrap();
        drop(db);
        let mut db = ConstraintDb::open(&path).unwrap();
        let replay = db.recovery_report().wal.clone().expect("a log was found");
        assert_eq!((replay.replayed, replay.error), (2 * pairs as u64, None));
        dropped(&db, &format!("{pairs} pairs, reopened"));

        // One re-pack: the same pages as a fresh pack of the live tuples,
        // and the answers of a scan.
        db.build_rplus_index("r", 1.0).unwrap();
        let mut fresh = ConstraintDb::in_memory(DbConfig::paper_1999());
        fresh.create_relation("r", 2).unwrap();
        for (_, t) in db.scan_relation("r").unwrap() {
            fresh.insert("r", t).unwrap();
        }
        fresh.build_rplus_index("r", 1.0).unwrap();
        let pages = |db: &ConstraintDb| {
            let rel = db.relation("r").unwrap();
            rel.built(IndexKind::RPlus).unwrap().page_count()
        };
        assert_eq!(pages(&db), pages(&fresh), "{pairs} pairs");
        for sel in &battery {
            let scan = db.query_with("r", sel.clone(), Strategy::Scan).unwrap();
            let got = db.query_with("r", sel.clone(), Strategy::RPlus).unwrap();
            assert_eq!(got.ids(), scan.ids(), "{pairs} pairs: {sel:?}");
        }
        db.close().unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&log);
    }
}

/// A relation holds one dual index: building one over slope points on a
/// 2-D relation that holds one over a slope set replaces it — one dual
/// slot, the old trees' pages freed (the relation owns every live page) —
/// and the replacement survives log replay after a crash and a reopen
/// from the checkpointed catalog, answering as the scan does.
#[test]
fn a_slope_point_build_replaces_a_slope_set_index_across_reopen() {
    let path = tmp("geometry_swap");
    let _ = std::fs::remove_file(&path);
    let mut db = ConstraintDb::create(&path, DbConfig::paper_1999()).unwrap();
    assert!(db.begin_wal().unwrap());
    let log = db.wal_file_path().unwrap();
    db.create_relation("r", 2).unwrap();
    for t in DatasetSpec::paper_1999(400, ObjectSize::Small, 9).generate() {
        db.insert("r", t).unwrap();
    }
    db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
    db.checkpoint().unwrap();
    let grid = SlopePoints::grid(2, 5, 2.0);
    db.build_dual_index("r", grid.clone()).unwrap();

    // A member of the grid, slopes between its points, one outside its box.
    let battery: Vec<Selection> = [(1.0, 3.0), (0.37, 0.0), (-1.3, 6.0), (2.5, -4.0)]
        .into_iter()
        .flat_map(|(a, c)| {
            [
                Selection::exist(HalfPlane::above(a, c)),
                Selection::all(HalfPlane::below(a, c)),
            ]
        })
        .collect();
    let answers = |db: &ConstraintDb, what: &str| -> Vec<Vec<u32>> {
        let rel = db.relation("r").unwrap();
        assert_eq!(rel.stats().indexes, ["dual"], "{what}");
        assert_eq!(rel.index().unwrap().points(), Some(&grid), "{what}");
        assert_eq!(rel.page_count(), db.live_pages() as u64, "{what}");
        let answer = |sel: &Selection| {
            let scan = db.query_with("r", sel.clone(), Strategy::Scan).unwrap();
            let auto = db.query_with("r", sel.clone(), Strategy::Auto).unwrap();
            assert_eq!(auto.ids(), scan.ids(), "{what}: {sel:?}");
            auto.ids().to_vec()
        };
        battery.iter().map(answer).collect()
    };
    let want = answers(&db, "built");

    // Crash before a checkpoint: the catalog holds the slope set, and
    // replaying the logged build replaces it again.
    db.wal_sync().unwrap();
    drop(db);
    let mut db = ConstraintDb::open(&path).unwrap();
    let replay = db.recovery_report().wal.clone().expect("a log was found");
    assert_eq!((replay.replayed, replay.error), (1, None));
    assert_eq!(answers(&db, "replayed"), want);
    db.checkpoint().unwrap();
    db.close().unwrap();

    let db = ConstraintDb::open(&path).unwrap();
    assert_eq!(answers(&db, "reopened"), want);
    db.close().unwrap();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&log);
}
