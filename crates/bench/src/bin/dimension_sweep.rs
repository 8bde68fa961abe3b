//! Future-work ablation (Section 6): "by increasing the dimension of the
//! space, the performance of our technique does not change, since we always
//! deal with single values".
//!
//! The d-dimensional index ([`cdb_core::ddim::DualIndexD`]) is measured for
//! d ∈ {2, 3, 4} on random boxes: technique T2 over grid cells (the default
//! for grid slope sets) and the d-search simplex covering (generalized T1),
//! against the sequential-scan baseline (the R⁺-tree baseline is 2-D only —
//! and no R-tree variant stores the unbounded objects the dual index
//! handles natively).
//!
//! ```text
//! cargo run --release -p cdb-bench --bin dimension_sweep [--quick]
//! ```

use cdb_core::ddim::{DualIndexD, SlopePoints};
use cdb_core::index::Exact;
use cdb_core::plan::{AccessMethod, DualDAccess, MethodContext, PlanCase};
use cdb_core::{Selection, SelectionKind};
use cdb_geometry::constraint::{LinearConstraint, RelOp};
use cdb_geometry::halfplane::HalfPlane;
use cdb_geometry::predicates;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_prng::StdRng;
use cdb_storage::{MemPager, PageReader};

fn random_boxes(dim: usize, n: usize, seed: u64) -> Vec<(u32, GeneralizedTuple)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut cs = Vec::new();
            for k in 0..dim {
                let lo: f64 = rng.gen_range(-50.0..45.0);
                let hi = lo + rng.gen_range(1.0..6.0);
                let mut a = vec![0.0; dim];
                a[k] = 1.0;
                cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
                cs.push(LinearConstraint::new(a, -hi, RelOp::Le));
            }
            (i as u32, GeneralizedTuple::new(cs))
        })
        .collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 500 } else { 4000 };
    println!("Dimension sweep — N={n} boxes: T2 (grid cells) vs simplex T1 vs scan");
    println!(
        "{:>4}{:>8}{:>14}{:>14}{:>14}{:>14}{:>14}",
        "d", "k", "T2 EXIST", "T2 ALL", "T1 EXIST", "T1 ALL", "scan"
    );
    let mut csv =
        String::from("d,k,t2_exist_accesses,t2_all_accesses,t1_exist,t1_all,scan_accesses\n");
    let mut accuracy: Vec<(usize, f64, f64, f64, f64)> = Vec::new();
    for dim in [2usize, 3, 4] {
        let pairs = random_boxes(dim, n, 0xD1 + dim as u64);
        let mut pager = MemPager::paper_1999();
        // Keep k comparable across d: a small grid spanning slope space.
        let per_axis = if dim == 2 { 4 } else { 2 };
        let points = SlopePoints::grid(dim, per_axis, 1.0);
        let k = points.len();
        let idx = DualIndexD::build(&mut pager, points, &pairs).unwrap();
        let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs.iter().cloned().collect();
        // Scan baseline sizing (also the heap size for the cost formulas):
        // every tuple page is read once per query, estimated from record
        // sizes on the paper's 1024-byte pages.
        let rec = pairs[0].1.encode().len() + 4;
        let per_page = (1024 - 4) / rec;
        let scan_pages = n.div_ceil(per_page) as u64;
        let access = DualDAccess {
            index: &idx,
            ctx: MethodContext {
                n: n as u64,
                heap_pages: scan_pages,
                page_size: 1024,
            },
        };
        let mut rng = StdRng::seed_from_u64(0xD2 + dim as u64);
        let mut exist_io = 0u64;
        let mut all_io = 0u64;
        let mut t1_exist_io = 0u64;
        let mut t1_all_io = 0u64;
        // Planner-validation accumulators: estimated vs observed candidates
        // and index page accesses, per technique.
        let (mut t2_est_cand, mut t2_act_cand) = (0.0f64, 0.0f64);
        let (mut t2_est_io, mut t2_act_io) = (0.0f64, 0.0f64);
        let (mut t1_est_cand, mut t1_act_cand) = (0.0f64, 0.0f64);
        let (mut t1_est_io, mut t1_act_io) = (0.0f64, 0.0f64);
        let queries = 12;
        for qi in 0..queries {
            let slope: Vec<f64> = (0..dim - 1).map(|_| rng.gen_range(-0.9..0.9)).collect();
            // Intercepts hitting ~10-15% selectivity on uniform boxes.
            let b = rng.gen_range(20.0..35.0) * if qi % 2 == 0 { 1.0 } else { -1.0 };
            let (kind, op) = if qi % 2 == 0 {
                (SelectionKind::Exist, RelOp::Ge)
            } else {
                (SelectionKind::All, RelOp::Le)
            };
            let sel = Selection {
                kind,
                halfplane: HalfPlane::new(slope, b, op),
            };
            let before = pager.stats();
            let fetch = |_: &dyn PageReader, id: u32| -> GeneralizedTuple { lookup[&id].clone() };
            // The grid set routes an in-hull slope to T2 over its cell.
            let cell = access.route(&sel).expect("in-hull query");
            let r = access
                .execute(&pager, &sel, &cell, Exact::Selection, &fetch)
                .expect("routed query");
            // Cross-check against the oracle.
            let want: Vec<u32> = pairs
                .iter()
                .filter(|(_, t)| match kind {
                    SelectionKind::All => predicates::all(&sel.halfplane, t),
                    SelectionKind::Exist => predicates::exist(&sel.halfplane, t),
                })
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(r.ids(), want, "d={dim} query {qi}");
            let io = pager.stats().since(&before).accesses();
            if kind == SelectionKind::Exist {
                exist_io += io;
            } else {
                all_io += io;
            }
            // Validate the planner's cost model at the query's *true*
            // selectivity: does the formula predict the observed candidate
            // count and index I/O?
            let frac = want.len() as f64 / n as f64;
            let est = access.estimate(&sel, &cell, frac);
            t2_est_cand += est.candidates;
            t2_act_cand += r.stats.candidates as f64;
            t2_est_io += est.index_pages;
            t2_act_io += io as f64;
            // The simplex-covering path, for comparison: the same entry
            // points, handed the other case.
            let vertices = idx.points().containing_simplex(&sel.halfplane.slope);
            let simplex = PlanCase::SimplexCovering(vertices.expect("in-hull query"));
            let before = pager.stats();
            let fetch = |_: &dyn PageReader, id: u32| -> GeneralizedTuple { lookup[&id].clone() };
            let r1 = access
                .execute(&pager, &sel, &simplex, Exact::Selection, &fetch)
                .expect("covered query");
            assert_eq!(r1.ids(), r.ids(), "simplex and T2 agree");
            let io1 = pager.stats().since(&before).accesses();
            if kind == SelectionKind::Exist {
                t1_exist_io += io1;
            } else {
                t1_all_io += io1;
            }
            let est1 = access.estimate(&sel, &simplex, frac);
            t1_est_cand += est1.candidates;
            t1_act_cand += r1.stats.candidates as f64;
            t1_est_io += est1.index_pages;
            t1_act_io += io1 as f64;
        }
        let e = exist_io as f64 / (queries / 2) as f64;
        let a = all_io as f64 / (queries / 2) as f64;
        let e1 = t1_exist_io as f64 / (queries / 2) as f64;
        let a1 = t1_all_io as f64 / (queries / 2) as f64;
        println!("{dim:>4}{k:>8}{e:>14.1}{a:>14.1}{e1:>14.1}{a1:>14.1}{scan_pages:>14}");
        csv.push_str(&format!(
            "{dim},{k},{e:.1},{a:.1},{e1:.1},{a1:.1},{scan_pages}\n"
        ));
        accuracy.push((
            dim,
            t2_est_cand / t2_act_cand,
            t2_est_io / t2_act_io,
            t1_est_cand / t1_act_cand,
            t1_est_io / t1_act_io,
        ));
    }
    println!("\nCost-model accuracy (estimate / actual, 1.0 = perfect):");
    println!(
        "{:>4}{:>14}{:>14}{:>14}{:>14}",
        "d", "T2 cand", "T2 index-IO", "T1 cand", "T1 index-IO"
    );
    let mut acc_csv = String::from("d,t2_cand_ratio,t2_io_ratio,t1_cand_ratio,t1_io_ratio\n");
    for (d, tc, ti, sc, si) in &accuracy {
        println!("{d:>4}{tc:>14.2}{ti:>14.2}{sc:>14.2}{si:>14.2}");
        acc_csv.push_str(&format!("{d},{tc:.3},{ti:.3},{sc:.3},{si:.3}\n"));
    }
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/dimension_sweep.csv", csv).expect("write CSV");
    std::fs::write("results/dimension_cost_model.csv", acc_csv).expect("write CSV");
    println!("\nwrote results/dimension_sweep.csv and results/dimension_cost_model.csv");
}
