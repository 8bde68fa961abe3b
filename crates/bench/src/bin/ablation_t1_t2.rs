//! Ablation: technique T1 (two app-queries, Section 4.1) vs technique T2
//! (single handicap-guided search, Section 4.2) — the design motivation the
//! paper gives for T2: duplicates disappear, candidate volume drops.
//!
//! Reported per technique: candidates produced by the index phase,
//! duplicates, false candidates, and mean page accesses. T2 is the
//! engine's search: false candidates are those its key columns or its
//! refinement reject. T1 is composed of restricted searches at Table 1's
//! slopes ([`cdb_bench::t1`]): its candidates are the legs' answers, its
//! false candidates those its refinement drops, its page accesses the
//! legs' plus one per distinct heap page holding a candidate.
//!
//! ```text
//! cargo run --release -p cdb-bench --bin ablation_t1_t2 [--quick]
//! ```

use cdb_bench::T2Bed;
use cdb_core::{QueryStats, Strategy};
use cdb_workload::{DatasetSpec, ObjectSize, QueryGen, QueryKind};

fn agg(rows: &[QueryStats]) -> (f64, f64, f64, f64) {
    let n = rows.len() as f64;
    (
        rows.iter().map(|s| s.candidates).sum::<u64>() as f64 / n,
        rows.iter().map(|s| s.duplicates).sum::<u64>() as f64 / n,
        rows.iter()
            .map(|s| s.false_hits + s.rejected_by_key)
            .sum::<u64>() as f64
            / n,
        rows.iter().map(|s| s.total_accesses()).sum::<u64>() as f64 / n,
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ns: Vec<usize> = if quick {
        vec![500, 2000]
    } else {
        vec![500, 2000, 4000, 8000]
    };
    let k = 3;
    println!("T1 vs T2 ablation — medium objects, k={k}, selectivity 10-15%");
    println!(
        "{:>8}{:>6} | {:>11}{:>11}{:>11}{:>10} | {:>11}{:>11}{:>11}{:>10}",
        "N",
        "kind",
        "T1 cand",
        "T1 dup",
        "T1 false",
        "T1 I/O",
        "T2 cand",
        "T2 dup",
        "T2 false",
        "T2 I/O"
    );
    let mut csv = String::from("n,kind,strategy,candidates,duplicates,false_hits,accesses\n");
    for (i, &n) in ns.iter().enumerate() {
        let spec = DatasetSpec::paper_1999(n, ObjectSize::Medium, 0xAB1 + i as u64);
        let tuples = spec.generate();
        let bed = T2Bed::build(spec, k);
        let mut qg = QueryGen::new(0xAB2 + i as u64);
        let battery = qg.battery(&tuples, 6, 0.10, 0.15);
        for kind in [QueryKind::Exist, QueryKind::All] {
            let mut t1 = Vec::new();
            let mut t2 = Vec::new();
            for q in battery.iter().filter(|q| q.kind == kind) {
                let (s1, ids1) = bed.run_t1(q);
                let (s2, ids2) = bed.run(q, Strategy::T2);
                assert_eq!(ids1, ids2, "T1 and T2 must agree");
                t1.push(s1);
                t2.push(s2);
            }
            let a1 = agg(&t1);
            let a2 = agg(&t2);
            println!(
                "{n:>8}{:>6} | {:>11.1}{:>11.1}{:>11.1}{:>10.1} | {:>11.1}{:>11.1}{:>11.1}{:>10.1}",
                format!("{kind:?}"),
                a1.0,
                a1.1,
                a1.2,
                a1.3,
                a2.0,
                a2.1,
                a2.2,
                a2.3
            );
            csv.push_str(&format!(
                "{n},{kind:?},T1,{:.1},{:.1},{:.1},{:.1}\n",
                a1.0, a1.1, a1.2, a1.3
            ));
            csv.push_str(&format!(
                "{n},{kind:?},T2,{:.1},{:.1},{:.1},{:.1}\n",
                a2.0, a2.1, a2.2, a2.3
            ));
        }
    }
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/ablation_t1_t2.csv", csv).expect("write CSV");
    println!("\nwrote results/ablation_t1_t2.csv");
}
