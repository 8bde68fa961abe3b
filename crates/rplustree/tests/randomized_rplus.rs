//! Randomized tests: packed R⁺-tree search against a brute-force oracle
//! under seeded random rectangle sets and random queries.

use cdb_geometry::{HalfPlane, Rect};
use cdb_prng::StdRng;
use cdb_rplustree::RPlusTree;
use cdb_storage::{MemPager, PageReader};

fn random_rect(rng: &mut StdRng) -> Rect {
    let x = rng.gen_range(-50.0..50.0f64);
    let y = rng.gen_range(-50.0..50.0f64);
    let w = rng.gen_range(0.01..20.0f64);
    let h = rng.gen_range(0.01..20.0f64);
    Rect::new(x, y, x + w, y + h)
}

fn random_items(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<(Rect, u32)> {
    let n = rng.gen_range(lo..hi);
    (0..n).map(|i| (random_rect(rng), i as u32)).collect()
}

fn oracle<'a>(
    items: impl Iterator<Item = &'a (Rect, u32)>,
    pred: impl Fn(&Rect) -> bool,
) -> Vec<u32> {
    let mut v: Vec<u32> = items.filter(|(r, _)| pred(r)).map(|(_, p)| *p).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn packed_tree_matches_oracle() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let items = random_items(&mut rng, 1, 250);
        let window = random_rect(&mut rng);
        let a = rng.gen_range(-3.0..3.0f64);
        let b = rng.gen_range(-60.0..60.0f64);
        let mut pager = MemPager::new(256);
        let tree = RPlusTree::pack(&mut pager, &items, 1.0).unwrap();
        tree.validate(&pager).unwrap();
        assert_eq!(tree.len() as usize, items.len(), "seed {seed}");

        let (got, stats) = tree.search_rect(&pager, &window).unwrap();
        assert_eq!(
            got,
            oracle(items.iter(), |r| r.intersects(&window)),
            "seed {seed}"
        );
        assert!(stats.nodes_visited >= 1);

        for q in [HalfPlane::above(a, b), HalfPlane::below(a, b)] {
            let (got, _) = tree.search_halfplane(&pager, &q).unwrap();
            assert_eq!(
                got,
                oracle(items.iter(), |r| r.intersects_halfplane(&q)),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn page_accounting_is_exact() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let items = random_items(&mut rng, 1, 200);
        let mut pager = MemPager::new(256);
        let tree = RPlusTree::pack(&mut pager, &items, 1.0).unwrap();
        assert_eq!(
            tree.page_count() as usize,
            pager.live_pages(),
            "seed {seed}"
        );
        tree.destroy(&mut pager).unwrap();
        assert_eq!(pager.live_pages(), 0, "seed {seed}");
    }
}
