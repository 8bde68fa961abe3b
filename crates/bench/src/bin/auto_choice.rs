//! What `Strategy::Auto` costs next to every method it could have run:
//! for each slope-set size k ∈ {2, 3, 4, 5} and three selectivity bands,
//! total page accesses (index + refinement fetches) summed over a
//! calibrated battery of EXIST and ALL queries, for Auto and for forced
//! T2, R⁺-tree and sequential scan — all on one relation carrying the dual
//! index and the R⁺-tree — and for T1, composed of restricted searches at
//! Table 1's slopes ([`cdb_bench::t1`]).
//!
//! Auto is the paper's rule: the restricted search at a slope of `S`, T2
//! at any other slope; the R⁺-tree runs only when forced. So the Auto
//! column equals the T2 column (asserted per query), and the `cheapest`
//! column names the other method that read least. At k = 2 that is the
//! R⁺-tree or the scan: the two slopes of `S` bracket a query slope from
//! one side only, and T2 reads about as much as a scan. From k = 3 on, T2
//! reads a fraction of either. T1's legs read as many tree pages as they
//! did as an engine path, but with no key columns to decide the union of
//! their answers, its refinement fetches every candidate: most of the
//! heap.
//!
//! ```text
//! cargo run --release -p cdb-bench --bin auto_choice [--quick]
//! ```
//!
//! Every answer is cross-checked against the brute-force oracle.

use cdb_bench::{T2Bed, PAPER_KS, QUERIES_PER_KIND};
use cdb_core::Strategy;
use cdb_geometry::predicates;
use cdb_workload::{DatasetSpec, ObjectSize, QueryGen, QueryKind};

/// The methods compared, Auto first, with their column labels: a
/// strategy the planner runs, or `None` for T1, composed of restricted
/// searches ([`cdb_bench::t1`]).
const METHODS: [(Option<Strategy>, &str); 5] = [
    (Some(Strategy::Auto), "Auto"),
    (None, "T1"),
    (Some(Strategy::T2), "T2"),
    (Some(Strategy::RPlus), "R+-tree"),
    (Some(Strategy::Scan), "scan"),
];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 2000 } else { 12000 };
    let bands: [(f64, f64); 3] = [(0.01, 0.03), (0.10, 0.15), (0.50, 0.60)];
    let spec = DatasetSpec::paper_1999(n, ObjectSize::Small, 0xA070_1999);
    let tuples = spec.generate();
    let batteries: Vec<_> = bands
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| {
            let mut qg = QueryGen::new(0xC401 + i as u64);
            qg.battery(&tuples, QUERIES_PER_KIND, lo, hi)
        })
        .collect();

    println!(
        "Auto's choice — N={n}, small objects: total page accesses over \
         {QUERIES_PER_KIND} EXIST + {QUERIES_PER_KIND} ALL calibrated queries per band"
    );
    print!("{:>4}{:>9}{:>7}", "k", "band", "kind");
    for (_, label) in METHODS {
        print!("{label:>10}");
    }
    println!("{:>10}", "cheapest");
    let mut csv = String::from("k,band,kind,auto,t1,t2,rplus,scan\n");
    for k in PAPER_KS {
        let mut bed = T2Bed::build(spec, k);
        bed.db.build_rplus_index("r", 1.0).expect("2-D relation");
        for (&(lo, hi), battery) in bands.iter().zip(&batteries) {
            let band = format!("{:.0}-{:.0}%", lo * 100.0, hi * 100.0);
            for kind in [QueryKind::Exist, QueryKind::All] {
                let mut pages = [0u64; METHODS.len()];
                for q in battery.iter().filter(|q| q.kind == kind) {
                    let want: Vec<u32> = predicates::oracle_select(
                        &q.halfplane,
                        kind == QueryKind::All,
                        bed.tuples.iter(),
                    )
                    .into_iter()
                    .map(|i| i as u32)
                    .collect();
                    let mut per_method = [0u64; METHODS.len()];
                    for (m, (strategy, label)) in METHODS.iter().enumerate() {
                        let (stats, ids) = match *strategy {
                            Some(strategy) => bed.run(q, strategy),
                            None => bed.run_t1(q),
                        };
                        assert_eq!(ids, want, "{label} k={k} {band}: oracle mismatch");
                        per_method[m] = stats.total_accesses();
                    }
                    assert_eq!(per_method[0], per_method[2], "Auto ran T2's search");
                    for (total, p) in pages.iter_mut().zip(per_method) {
                        *total += p;
                    }
                }
                let kind = match kind {
                    QueryKind::Exist => "EXIST",
                    QueryKind::All => "ALL",
                };
                print!("{k:>4}{band:>9}{kind:>7}");
                for p in pages {
                    print!("{p:>10}");
                }
                let cheapest = (1..METHODS.len())
                    .min_by_key(|&m| pages[m])
                    .map(|m| METHODS[m].1)
                    .expect("methods to compare");
                println!("{cheapest:>10}");
                let cells: Vec<String> = pages.iter().map(u64::to_string).collect();
                csv.push_str(&format!("{k},{band},{kind},{}\n", cells.join(",")));
            }
        }
    }
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/auto_choice.csv", csv).expect("write CSV");
    println!("\nwrote results/auto_choice.csv");
}
