//! Randomized tests: the B⁺-tree against `std::collections::BTreeMap` under
//! seeded operation sequences, plus structural invariants.

use std::collections::BTreeMap;

use cdb_btree::{BTree, Direction, SweepControl};
use cdb_prng::StdRng;
use cdb_storage::{MemPager, PageReader};

/// An operation in a randomized workload.
#[derive(Clone, Debug)]
enum Op {
    Insert(i16, u32),
    Delete(i16),
    Range(i16, i16),
    SweepDown(i16),
}

fn random_op(rng: &mut StdRng) -> Op {
    let key = |rng: &mut StdRng| (rng.gen::<u32>() as i16) % 500;
    match rng.gen_range(0..6u32) {
        0..=2 => {
            let k = key(rng);
            Op::Insert(k, rng.gen::<u32>())
        }
        3 => Op::Delete(key(rng)),
        4 => {
            let a = key(rng);
            Op::Range(a, key(rng))
        }
        _ => Op::SweepDown(key(rng)),
    }
}

fn collect_all(tree: &BTree, pager: &dyn PageReader) -> Vec<(f64, u32)> {
    let mut out = Vec::new();
    tree.sweep_up(pager, f64::NEG_INFINITY, |s| {
        out.extend_from_slice(&s.entries);
        SweepControl::Continue
    })
    .unwrap();
    out
}

#[test]
fn random_ops_match_btreemap() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_ops = rng.gen_range(1..400usize);
        let ops: Vec<Op> = (0..n_ops).map(|_| random_op(&mut rng)).collect();
        // Tiny pages force splits constantly.
        let mut pager = MemPager::new(128);
        let mut tree = BTree::new(&mut pager).unwrap();
        // Oracle: multiset keyed by (key, value); values unique per op index.
        let mut oracle: BTreeMap<(i64, u32), ()> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    tree.insert(&mut pager, k as f64, v).unwrap();
                    oracle.insert((k as i64, v), ());
                }
                Op::Delete(k) => {
                    // Delete one arbitrary matching entry, mirroring on both.
                    let pick = oracle
                        .range((k as i64, 0)..=(k as i64, u32::MAX))
                        .next()
                        .map(|(kv, _)| *kv);
                    match pick {
                        Some((ok, ov)) => {
                            assert!(
                                tree.delete(&mut pager, ok as f64, ov).unwrap(),
                                "seed {seed}"
                            );
                            oracle.remove(&(ok, ov));
                        }
                        None => {
                            assert!(
                                !tree.delete(&mut pager, k as f64, 12345).unwrap(),
                                "seed {seed}"
                            );
                        }
                    }
                }
                Op::Range(a, b) => {
                    let (lo, hi) = (a.min(b) as f64, a.max(b) as f64);
                    let got = tree.range(&pager, lo, hi).unwrap();
                    let want = oracle.range((lo as i64, 0)..=(hi as i64, u32::MAX)).count();
                    assert_eq!(got.len(), want, "range [{lo}, {hi}] (seed {seed})");
                    assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
                }
                Op::SweepDown(k) => {
                    let mut last = f64::INFINITY;
                    let mut n = 0usize;
                    tree.sweep(Direction::Down, &pager, k as f64, |leaf| {
                        for key in (0..leaf.len()).map(|j| leaf.key(j)) {
                            assert!(key <= last, "descending order violated");
                            last = key;
                            n += 1;
                        }
                        SweepControl::Continue
                    })
                    .unwrap();
                    let want = oracle.range((i64::MIN, 0)..=(k as i64, u32::MAX)).count();
                    assert_eq!(n, want, "sweep down from {k} (seed {seed})");
                }
            }
        }
        tree.validate(&pager).unwrap();
        assert_eq!(tree.len() as usize, oracle.len(), "seed {seed}");
        let all = collect_all(&tree, &pager);
        let mut got: Vec<(i64, u32)> = all.iter().map(|&(k, v)| (k as i64, v)).collect();
        got.sort_unstable();
        let want: Vec<(i64, u32)> = oracle.keys().copied().collect();
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn bulk_load_equals_insertion_build() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let n_keys = rng.gen_range(1..300usize);
        let mut keys: Vec<i32> = (0..n_keys)
            .map(|_| rng.gen_range(-1000i64..1000) as i32)
            .collect();
        let fill = rng.gen_range(0.5f64..1.0);
        keys.sort_unstable();
        let entries: Vec<(f64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k as f64 / 7.0, i as u32))
            .collect();
        let mut p1 = MemPager::new(128);
        let bulk = BTree::bulk_load(&mut p1, &entries, fill).unwrap();
        bulk.validate(&p1).unwrap();
        let mut p2 = MemPager::new(128);
        let mut incr = BTree::new(&mut p2).unwrap();
        for &(k, v) in &entries {
            incr.insert(&mut p2, k, v).unwrap();
        }
        let mut a: Vec<u32> = collect_all(&bulk, &p1).iter().map(|e| e.1).collect();
        let mut b: Vec<u32> = collect_all(&incr, &p2).iter().map(|e| e.1).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "seed {seed}");
        // Keys come back in order from both.
        assert!(collect_all(&bulk, &p1).windows(2).all(|w| w[0].0 <= w[1].0));
    }
}

#[test]
fn sweeps_partition_the_key_space() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let n_keys = rng.gen_range(1..200usize);
        let keys: Vec<i32> = (0..n_keys)
            .map(|_| rng.gen_range(-500i64..500) as i32)
            .collect();
        let pivot = rng.gen_range(-500i64..500) as i32;
        let mut pager = MemPager::new(128);
        let mut tree = BTree::new(&mut pager).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            tree.insert(&mut pager, k as f64, i as u32).unwrap();
        }
        // Everything strictly below pivot from a downward sweep from
        // pivot - eps, everything >= pivot from an upward one: together = all.
        let mut up = 0usize;
        tree.sweep_up(&pager, pivot as f64, |s| {
            up += s.entries.len();
            SweepControl::Continue
        })
        .unwrap();
        let mut down = 0usize;
        tree.sweep(Direction::Down, &pager, (pivot as f64).next_down(), |s| {
            down += s.len();
            SweepControl::Continue
        })
        .unwrap();
        assert_eq!(up + down, keys.len(), "seed {seed}, pivot {pivot}");
    }
}

#[test]
fn handicaps_survive_heavy_splitting() {
    use cdb_btree::Handicaps;
    let mut pager = MemPager::new(128);
    let mut tree = BTree::new(&mut pager).unwrap();
    // Set distinctive handicaps on the single root leaf, then split it many
    // times: every descendant leaf must inherit (conservative bounds).
    tree.insert(&mut pager, 0.0, 0).unwrap();
    let first = tree.leaves(&pager).unwrap()[0].page;
    tree.set_handicaps(
        &mut pager,
        first,
        Handicaps {
            low_prev: -7.25,
            low_next: -3.5,
            high_prev: 99.0,
            high_next: 42.0,
        },
    )
    .unwrap();
    for i in 1..300u32 {
        tree.insert(&mut pager, i as f64, i).unwrap();
    }
    for leaf in tree.leaves(&pager).unwrap() {
        let h = tree.read_handicaps(&pager, leaf.page).unwrap();
        assert!(h.low_prev <= -7.25, "low_prev loosened only: {h:?}");
        assert!(h.high_prev >= 99.0, "high_prev loosened only: {h:?}");
    }
}

#[test]
fn emptied_leaf_migrates_handicaps() {
    use cdb_btree::Handicaps;
    let mut pager = MemPager::new(128);
    let entries: Vec<(f64, u32)> = (0..30).map(|i| (i as f64, i as u32)).collect();
    let mut tree = BTree::bulk_load(&mut pager, &entries, 1.0).unwrap();
    let leaves = tree.leaves(&pager).unwrap();
    assert!(leaves.len() >= 3);
    let mid = leaves[1];
    tree.set_handicaps(
        &mut pager,
        mid.page,
        Handicaps {
            low_prev: -100.0,
            low_next: -200.0,
            high_prev: 300.0,
            high_next: 400.0,
        },
    )
    .unwrap();
    // Empty the middle leaf.
    for i in 0..30u32 {
        let k = i as f64;
        if k >= mid.min_key && k <= mid.max_key {
            assert!(tree.delete(&mut pager, k, i).unwrap());
        }
    }
    let after = tree.leaves(&pager).unwrap();
    // Low bounds moved to the next leaf, high bounds to the previous.
    let next = after.iter().position(|l| l.page == mid.page).unwrap() + 1;
    let prev = next - 2;
    let hn = tree.read_handicaps(&pager, after[next].page).unwrap();
    let hp = tree.read_handicaps(&pager, after[prev].page).unwrap();
    assert!(hn.low_prev <= -100.0 && hn.low_next <= -200.0, "{hn:?}");
    assert!(hp.high_prev >= 300.0 && hp.high_next >= 400.0, "{hp:?}");
}
