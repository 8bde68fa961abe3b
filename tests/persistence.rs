//! Persistence: the index structures and tuple heap work identically over
//! the file-backed pager, and heap contents survive close/reopen.

use constraint_db::btree::{BTree, SweepControl};
use constraint_db::geometry::tuple::GeneralizedTuple;
use constraint_db::prelude::*;
use constraint_db::storage::file::FilePager;
use constraint_db::storage::{HeapFile, PageReader, Pager};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cdb_it_{name}_{}", std::process::id()));
    p
}

#[test]
fn engine_runs_on_a_file_pager() {
    let path = tmp("engine");
    {
        let pager = FilePager::create(&path, 1024).unwrap();
        let mut db = ConstraintDb::with_pager(Box::new(pager), DbConfig::paper_1999());
        db.create_relation("r", 2).unwrap();
        let tuples = DatasetSpec::paper_1999(150, ObjectSize::Small, 3).generate();
        for t in &tuples {
            db.insert("r", t.clone()).unwrap();
        }
        db.build_dual_index("r", SlopeSet::uniform_tan(3)).unwrap();
        let q = HalfPlane::above(0.45, -4.0);
        let want = db
            .query_with(
                "r",
                Selection::exist(q.clone()),
                constraint_db::index::query::Strategy::Scan,
            )
            .unwrap();
        let got = db.exist("r", q).unwrap();
        assert_eq!(got.ids(), want.ids(), "file-backed index agrees with scan");
        assert!(!got.is_empty());
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn heap_records_survive_reopen() {
    let path = tmp("heap");
    let tuples = DatasetSpec::paper_1999(40, ObjectSize::Small, 9).generate();
    let mut rids = Vec::new();
    {
        let mut pager = FilePager::create(&path, 1024).unwrap();
        let mut heap = HeapFile::new(&mut pager);
        for t in &tuples {
            rids.push(heap.insert(&mut pager, &t.encode()).unwrap());
        }
        pager.sync().unwrap();
        // The heap's page list is in-memory metadata; re-read through the
        // same mapping after reopening the pager.
        let pager = FilePager::open(&path).unwrap();
        for (t, rid) in tuples.iter().zip(&rids) {
            let bytes = pager_read_record(&pager, *rid);
            let back = GeneralizedTuple::decode(&bytes).unwrap();
            assert_eq!(&back, t);
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// Reads a slotted-page record directly (the heap's page layout is stable).
fn pager_read_record(pager: &FilePager, rid: constraint_db::storage::RecordId) -> Vec<u8> {
    let mut buf = vec![0u8; pager.page_size()];
    pager.read(rid.page, &mut buf).unwrap();
    let off = u16::from_le_bytes([
        buf[4 + rid.slot as usize * 4],
        buf[5 + rid.slot as usize * 4],
    ]) as usize;
    let len = u16::from_le_bytes([
        buf[6 + rid.slot as usize * 4],
        buf[7 + rid.slot as usize * 4],
    ]) as usize;
    buf[off..off + len].to_vec()
}

#[test]
fn btree_on_file_pager_matches_mem_pager() {
    let path = tmp("btree");
    {
        let mut fpager = FilePager::create(&path, 512).unwrap();
        let mut mpager = constraint_db::storage::MemPager::new(512);
        let mut ft = BTree::new(&mut fpager).unwrap();
        let mut mt = BTree::new(&mut mpager).unwrap();
        let mut seed = 99u64;
        for i in 0..800u32 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = ((seed >> 40) % 1000) as f64 / 3.0;
            ft.insert(&mut fpager, k, i).unwrap();
            mt.insert(&mut mpager, k, i).unwrap();
        }
        ft.validate(&fpager).unwrap();
        let collect = |t: &BTree, p: &mut dyn Pager| {
            let mut out = Vec::new();
            t.sweep_up(p, f64::NEG_INFINITY, |s| {
                out.extend_from_slice(&s.entries);
                SweepControl::Continue
            })
            .unwrap();
            out
        };
        assert_eq!(collect(&ft, &mut fpager), collect(&mt, &mut mpager));
    }
    std::fs::remove_file(&path).unwrap();
}
