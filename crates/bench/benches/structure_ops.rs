//! Micro-benchmarks of the substrates: B⁺-tree operations, R⁺-tree packing
//! and search, `TOP_P` evaluation (2-D kernel against the simplex), polygon
//! construction, and the CRC-32 behind every page seal and wire frame.
//!
//! Dependency-free harness (`harness = false`): each case is warmed up and
//! then timed over a fixed batch, reporting mean ns/op. Run with
//! `cargo bench -p cdb-bench --bench structure_ops`.

use std::time::Instant;

use cdb_btree::BTree;
use cdb_geometry::dual::{self, DualSurfaces};
use cdb_geometry::polygon::Polygon;
use cdb_geometry::TupleView;
use cdb_rplustree::RPlusTree;
use cdb_storage::{crc32, MemPager, DEFAULT_PAGE_SIZE, PAGE_TRAILER};
use cdb_workload::{tuple_mbr, DatasetSpec, ObjectSize, TupleGen};

/// Times `op` over `iters` calls after `warmup` untimed ones; mean ns/op.
fn time_ns(warmup: usize, iters: usize, mut op: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        op();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn report(name: &str, ns: f64) {
    println!("{name:<36} {:>12.0} ns/op   ({:>9.2} µs)", ns, ns / 1e3);
}

fn bench_btree() {
    println!("btree");
    let ns = time_ns(2, 10, || {
        let mut pager = MemPager::paper_1999();
        let mut t = BTree::new(&mut pager).unwrap();
        for i in 0..4000u32 {
            t.insert(&mut pager, ((i * 2654435761) % 100000) as f64, i)
                .unwrap();
        }
        std::hint::black_box(t.len());
    });
    report("insert_4k_random_keys", ns);
    let entries: Vec<(f64, u32)> = (0..4000).map(|i| (i as f64 * 0.5, i as u32)).collect();
    let ns = time_ns(2, 20, || {
        let mut pager = MemPager::paper_1999();
        let t = BTree::bulk_load(&mut pager, &entries, 1.0).unwrap();
        std::hint::black_box(t.page_count());
    });
    report("bulk_load_4k", ns);
    let mut pager = MemPager::paper_1999();
    let tree = BTree::bulk_load(&mut pager, &entries, 1.0).unwrap();
    let ns = time_ns(10, 200, || {
        std::hint::black_box(tree.range(&pager, 0.0, 200.0).unwrap().len());
    });
    report("range_scan_10pct", ns);
}

fn bench_rplus() {
    println!("rplus_tree");
    let tuples = DatasetSpec::paper_1999(4000, ObjectSize::Small, 3).generate();
    let items: Vec<_> = tuples
        .iter()
        .enumerate()
        .map(|(i, t)| (tuple_mbr(t), i as u32))
        .collect();
    let ns = time_ns(2, 10, || {
        let mut pager = MemPager::paper_1999();
        let t = RPlusTree::pack(&mut pager, &items, 1.0).unwrap();
        std::hint::black_box(t.page_count());
    });
    report("pack_4k", ns);
    let mut pager = MemPager::paper_1999();
    let tree = RPlusTree::pack(&mut pager, &items, 1.0).unwrap();
    let q = cdb_geometry::HalfPlane::above(0.4, 20.0);
    let ns = time_ns(10, 200, || {
        std::hint::black_box(tree.search_halfplane(&pager, &q).unwrap().0.len());
    });
    report("halfplane_search", ns);
}

fn bench_geometry() {
    println!("geometry");
    let mut g = TupleGen::new(7, cdb_geometry::Rect::paper_window(), ObjectSize::Small);
    let tuples: Vec<_> = (0..64).map(|_| g.bounded_tuple()).collect();
    // The same 64 evaluations three ways: the routed 2-D kernel on owned
    // tuples, the kernel on the encoded record bytes (validation included,
    // as refinement pays it), and the simplex reference.
    let ns = time_ns(5, 100, || {
        let mut acc = 0.0;
        for t in &tuples {
            acc += dual::top(t, &[0.37]).unwrap();
        }
        std::hint::black_box(acc);
    });
    report("top_kernel_eval/64", ns);
    let records: Vec<Vec<u8>> = tuples.iter().map(|t| t.encode()).collect();
    let ns = time_ns(5, 100, || {
        let mut acc = 0.0;
        for r in &records {
            acc += TupleView::new(r).unwrap().top(&[0.37]).unwrap();
        }
        std::hint::black_box(acc);
    });
    report("top_kernel_encoded_eval/64", ns);
    let ns = time_ns(5, 100, || {
        let mut acc = 0.0;
        for t in &tuples {
            acc += dual::top_lp(t, &[0.37]).unwrap();
        }
        std::hint::black_box(acc);
    });
    report("top_lp_eval/64", ns);
    let ns = time_ns(5, 100, || {
        let mut n = 0;
        for t in &tuples {
            n += Polygon::from_tuple(t).unwrap().points().len();
        }
        std::hint::black_box(n);
    });
    report("polygon_from_tuple/64", ns);
}

fn bench_crc32() {
    println!("crc32");
    // A sealed on-disk page image, and a query response of ≈ 1 500 ids.
    for (name, len) in [
        ("crc32/page_image_1032B", DEFAULT_PAGE_SIZE + PAGE_TRAILER),
        ("crc32/frame_6KiB", 6 << 10),
    ] {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
        let ns = time_ns(1_000, 20_000, || {
            std::hint::black_box(crc32(std::hint::black_box(&bytes)));
        });
        report(name, ns);
    }
}

fn main() {
    bench_btree();
    bench_rplus();
    bench_geometry();
    bench_crc32();
}
