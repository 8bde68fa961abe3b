//! Randomized tests of the storage substrate: heap files against a
//! `HashMap` oracle, and the file pager against the in-memory one.
//!
//! Deterministic drop-in for the former proptest suite: each property runs
//! over a sweep of fixed seeds, so failures reproduce exactly.

use std::collections::HashMap;

use cdb_prng::StdRng;
use cdb_storage::{HeapFile, MemPager, PageReader, Pager, RecordId};

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<u8>),
    Delete(usize),
    Get(usize),
}

fn random_ops(rng: &mut StdRng, count: usize) -> Vec<Op> {
    (0..count)
        .map(|_| match rng.gen_range(0..6u32) {
            0..=2 => {
                let len = rng.gen_range(1..60usize);
                Op::Insert((0..len).map(|_| rng.gen::<u32>() as u8).collect())
            }
            3 => Op::Delete(rng.gen::<u64>() as usize),
            _ => Op::Get(rng.gen::<u64>() as usize),
        })
        .collect()
}

#[test]
fn heap_matches_hashmap() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_ops = rng.gen_range(1..200usize);
        let ops = random_ops(&mut rng, n_ops);
        let mut pager = MemPager::new(128);
        let mut heap = HeapFile::new(&mut pager);
        let mut ids: Vec<RecordId> = Vec::new();
        let mut oracle: HashMap<RecordId, Option<Vec<u8>>> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(data) => {
                    let id = heap.insert(&mut pager, &data).unwrap();
                    ids.push(id);
                    oracle.insert(id, Some(data));
                }
                Op::Delete(i) if !ids.is_empty() => {
                    let id = ids[i % ids.len()];
                    let was_live = oracle[&id].is_some();
                    assert_eq!(
                        heap.delete(&mut pager, id).unwrap(),
                        was_live,
                        "seed {seed}"
                    );
                    oracle.insert(id, None);
                }
                Op::Get(i) if !ids.is_empty() => {
                    let id = ids[i % ids.len()];
                    let got = heap.get_many(&pager, &[id]).unwrap();
                    assert_eq!(got, [oracle[&id].clone()], "seed {seed}");
                }
                _ => {}
            }
        }
        // Every record, live or tombstoned, read back in one batch.
        let batch = heap.get_many(&pager, &ids).unwrap();
        for (id, got) in ids.iter().zip(batch) {
            assert_eq!(&got, &oracle[id], "seed {seed}");
        }
    }
}

/// FilePager and MemPager behave identically for the same op sequence.
#[test]
fn file_pager_matches_mem_pager() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let n_writes = rng.gen_range(1..60usize);
        let writes: Vec<(usize, u8)> = (0..n_writes)
            .map(|_| (rng.gen_range(0..8usize), rng.gen::<u32>() as u8))
            .collect();
        let path = std::env::temp_dir().join(format!("cdb_rand_{}_{seed}", std::process::id()));
        {
            let mut fp = cdb_storage::file::FilePager::create(&path, 64).unwrap();
            let mut mp = MemPager::new(64);
            let fids: Vec<_> = (0..8).map(|_| fp.allocate().unwrap()).collect();
            let mids: Vec<_> = (0..8).map(|_| mp.allocate().unwrap()).collect();
            for &(page, byte) in &writes {
                fp.write(fids[page], &[byte; 64]).unwrap();
                mp.write(mids[page], &[byte; 64]).unwrap();
            }
            let mut a = vec![0u8; 64];
            let mut b = vec![0u8; 64];
            for i in 0..8 {
                fp.read(fids[i], &mut a).unwrap();
                mp.read(mids[i], &mut b).unwrap();
                assert_eq!(&a, &b, "seed {seed}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
