//! Where a query's time goes: per-phase medians of the one
//! filter-then-refine step (`QueryResult::timings` — search, key bracket,
//! fetch + refine, order) for the two query shapes of the `perf/`
//! embedded workloads, on the same bed: the paper's small objects,
//! N = 12 000, k = 4, 10–15 % selectivity.
//!
//! * `t2` — random slopes (never in `S`), T2 forced: sweep with handicaps,
//!   the key bracket decides most candidates, the rest are fetched;
//! * `restricted` — slopes from `S` under `Auto`: the restricted search,
//!   answered from B⁺-tree keys, each intercept midway between two
//!   neighbouring keys.
//!
//! The data and both query sets come from the same seeded streams as
//! `perf/`'s, at its pinned seed 12 (`--quick`: N = 2 000, two rounds).
//! Every query of the first round is checked against the sequential
//! scan. Timings are wall-clock and vary by host; nothing here is a
//! golden.
//!
//! ```text
//! cargo run --release -p cdb-bench --bin phases [--quick]
//! ```

use std::time::Instant;

use cdb_bench::{selection_of, T2Bed};
use cdb_core::{QueryTimings, Selection, SelectionKind, SlopeSet, Strategy};
use cdb_geometry::constraint::RelOp;
use cdb_geometry::{dual, HalfPlane};
use cdb_prng::StdRng;
use cdb_workload::{DatasetSpec, ObjectSize, QueryGen};

/// The slope-set size of `perf/`'s beds.
const K: usize = 4;

/// Selections per kind in a query set, as `perf/` runs them.
const PER_KIND: usize = 96;

/// `perf/`'s selectivity band.
const SELECTIVITY: (f64, f64) = (0.10, 0.15);

/// `perf/`'s pinned seed.
const SEED: u64 = 12;

/// `perf/`'s relation size, and the rounds each query set runs.
const N: usize = 12_000;
const ROUNDS: usize = 20;

/// `perf/`'s generator streams (`perf/src/inputs.rs`): the data, the T2
/// battery and the restricted set.
const STREAM_DATA: u64 = 1;
const STREAM_T2: u64 = 2;
const STREAM_RESTRICTED: u64 = 3;

/// `perf/`'s seed derivation: an independent stream per generator
/// (splitmix64 finaliser).
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `perf/`'s restricted query set: `PER_KIND` selections per kind at
/// slopes of `S`, each intercept midway between the two surface values
/// that cut the relation at a share drawn from the band. A copy of
/// `perf/src/inputs.rs`'s `member_selections` (`perf/` is a workspace of
/// its own, which this crate cannot depend on): it must draw as that does,
/// or the shape measured here is no longer `perf/`'s.
fn restricted_queries(bed: &T2Bed, slopes: &SlopeSet) -> Vec<Selection> {
    let mut rng = StdRng::seed_from_u64(sub_seed(SEED, STREAM_RESTRICTED));
    let n = bed.tuples.len();
    let keys: Vec<[(f64, f64); K]> = bed
        .tuples
        .iter()
        .map(|t| {
            std::array::from_fn(|i| {
                let s = [slopes.get(i)];
                let top = dual::top(t, &s).expect("satisfiable tuple");
                (top, dual::bot(t, &s).expect("satisfiable tuple"))
            })
        })
        .collect();
    let mut out = Vec::with_capacity(2 * PER_KIND);
    for kind in [SelectionKind::All, SelectionKind::Exist] {
        for _ in 0..PER_KIND {
            let slope = rng.gen_range(0..K);
            let op = if rng.gen_bool(0.5) {
                RelOp::Ge
            } else {
                RelOp::Le
            };
            let share: f64 = rng.gen_range(SELECTIVITY.0..=SELECTIVITY.1);
            let use_top = matches!(
                (kind, op),
                (SelectionKind::All, RelOp::Le) | (SelectionKind::Exist, RelOp::Ge)
            );
            let mut values: Vec<f64> = keys
                .iter()
                .map(|k| if use_top { k[slope].0 } else { k[slope].1 })
                .collect();
            values.sort_by(f64::total_cmp);
            let want = ((n as f64 * share).round() as usize).clamp(1, n - 1);
            let cut = if op == RelOp::Ge { n - want } else { want };
            let intercept = (values[cut - 1] + values[cut]) / 2.0;
            out.push(Selection {
                kind,
                halfplane: HalfPlane::new2d(slopes.get(slope), intercept, op),
            });
        }
    }
    out
}

/// The median of `xs`, in µs from ns.
fn median_us(mut xs: Vec<u64>) -> f64 {
    xs.sort_unstable();
    xs[xs.len() / 2] as f64 / 1e3
}

/// Runs `sels` `rounds` times under `strategy`; prints one row of
/// per-phase medians. The first round's answers must equal the scan's.
fn measure(bed: &T2Bed, name: &str, sels: &[Selection], strategy: Strategy, rounds: usize) {
    let (mut phases, mut walls) = (Vec::new(), Vec::new());
    let (mut candidates, mut fetched) = (0u64, 0u64);
    for round in 0..rounds {
        for sel in sels {
            let t0 = Instant::now();
            let r = bed
                .db
                .query_with("r", sel.clone(), strategy)
                .expect("query");
            walls.push(t0.elapsed().as_nanos() as u64);
            phases.push(r.timings);
            if round == 0 {
                let scan = bed.db.query_with("r", sel.clone(), Strategy::Scan);
                assert_eq!(r.ids(), scan.expect("scan").ids(), "{name}: {sel:?}");
                let s = r.stats;
                candidates += s.candidates;
                fetched += s.candidates - s.accepted_by_key - s.rejected_by_key;
            }
        }
    }
    let phase = |f: fn(&QueryTimings) -> u64| median_us(phases.iter().map(f).collect());
    let total = |t: &QueryTimings| t.search_ns + t.bracket_ns + t.fetch_ns + t.order_ns;
    let per_query = |x: u64| x as f64 / sels.len() as f64;
    println!(
        "{name:<11} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.0} {:>8.1}",
        phase(|t| t.search_ns),
        phase(|t| t.bracket_ns),
        phase(|t| t.fetch_ns),
        phase(|t| t.order_ns),
        phase(total),
        median_us(walls),
        per_query(candidates),
        per_query(fetched),
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, rounds) = if quick { (2_000, 2) } else { (N, ROUNDS) };
    let spec = DatasetSpec::paper_1999(n, ObjectSize::Small, sub_seed(SEED, STREAM_DATA));
    let bed = T2Bed::build(spec, K);
    let slopes = SlopeSet::uniform_tan(K);
    let battery = QueryGen::new(sub_seed(SEED, STREAM_T2)).battery(
        &bed.tuples,
        PER_KIND,
        SELECTIVITY.0,
        SELECTIVITY.1,
    );
    let t2: Vec<Selection> = battery.iter().map(selection_of).collect();
    let restricted = restricted_queries(&bed, &slopes);
    println!(
        "per-phase medians, µs a query: N = {n}, k = {K}, seed {SEED}, {} queries × {rounds} rounds",
        t2.len()
    );
    println!(
        "{:<11} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "shape", "search", "bracket", "fetch", "order", "refine", "wall", "cand/q", "fetch/q"
    );
    measure(&bed, "t2", &t2, Strategy::T2, rounds);
    measure(&bed, "restricted", &restricted, Strategy::Auto, rounds);
}
