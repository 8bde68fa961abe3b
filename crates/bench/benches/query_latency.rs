//! Wall-clock query latency: the paper's techniques side by side on one
//! relation (N = 2000, small objects, selectivity 10–15 %).
//!
//! Complements the page-access harness binaries: page counts determine the
//! 1999-hardware story, wall-clock shows the same ordering holds in memory.
//!
//! Dependency-free harness (`harness = false`): each case is warmed up and
//! then timed over a fixed batch, reporting mean ns/op. Run with
//! `cargo bench -p cdb-bench --bench query_latency`.

use std::time::Instant;

use cdb_bench::{RplusBed, T2Bed};
use cdb_core::Strategy;
use cdb_workload::{CalibratedQuery, DatasetSpec, ObjectSize, QueryGen};

/// Times `op` over `iters` calls after `warmup` untimed ones; mean ns/op.
fn time_ns(warmup: usize, iters: usize, mut op: impl FnMut(usize)) -> f64 {
    for i in 0..warmup {
        op(i);
    }
    let t0 = Instant::now();
    for i in 0..iters {
        op(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn report(name: &str, ns: f64) {
    println!("{name:<36} {:>12.0} ns/op   ({:>9.2} µs)", ns, ns / 1e3);
}

fn main() {
    let n = 2000;
    let spec = DatasetSpec::paper_1999(n, ObjectSize::Small, 0xBE);
    let tuples = spec.generate();
    let t2 = T2Bed::build(spec, 4);
    let rp = RplusBed::build(&tuples);
    let mut qg = QueryGen::new(0xBF);
    let battery: Vec<CalibratedQuery> = qg.battery(&tuples, 6, 0.10, 0.15);
    let pick = |i: usize| &battery[i % battery.len()];

    println!("query_latency_n2000 (N = {n}, k = 4, 6+6 calibrated queries)");
    let ns = time_ns(20, 200, |i| {
        std::hint::black_box(t2.run_t1(pick(i)));
    });
    report("dual_index/T1 (composed)", ns);
    let ns = time_ns(20, 200, |i| {
        std::hint::black_box(t2.run(pick(i), Strategy::T2));
    });
    report("dual_index/T2", ns);
    let ns = time_ns(20, 200, |i| {
        std::hint::black_box(rp.run(pick(i)));
    });
    report("rplus_tree", ns);
    let ns = time_ns(20, 200, |i| {
        std::hint::black_box(rp.oracle(pick(i)));
    });
    report("sequential_scan_oracle", ns);

    // Restricted queries (slope in S, forced onto the dual index): the
    // exact fast path.
    let s0 = {
        let rel = t2.db.relation("r").expect("exists");
        rel.index().expect("built").slopes().unwrap().get(1)
    };
    let ns = time_ns(20, 200, |_| {
        let q = cdb_geometry::HalfPlane::above(s0, 0.0);
        std::hint::black_box(
            t2.db
                .query_with("r", cdb_core::Selection::exist(q), Strategy::T2)
                .expect("member slope"),
        );
    });
    report("restricted_member_slope", ns);
}
