//! The d-dimensional extension (Section 4.4): indexing 3-D boxes and
//! querying with arbitrary-slope half-spaces through technique T2 over the
//! Voronoi cell of the slope point nearest the query — for a grid of slope
//! points and for an irregular set alike.
//!
//! Scenario: flight corridors as (x, y, altitude) boxes; queries are tilted
//! half-spaces "above the terrain plane z = a·x + b·y + c".
//!
//! ```text
//! cargo run --release --example multidimensional
//! ```

use constraint_db::geometry::constraint::{LinearConstraint, RelOp};
use constraint_db::geometry::predicates;
use constraint_db::geometry::tuple::GeneralizedTuple;
use constraint_db::geometry::HalfPlane;
use constraint_db::index::ddim::SlopePoints;
use constraint_db::index::index::TupleSource;
use constraint_db::index::query::{QueryResult, Selection, SelectionKind, Strategy};
use constraint_db::index::DualIndex;
use constraint_db::storage::{MemPager, PageReader, Pager};

/// Runs `sel` by T2, which routes it to a member point or the nearest
/// point's Voronoi cell.
fn run(idx: &DualIndex, pager: &MemPager, sel: &Selection, fetch: &dyn TupleSource) -> QueryResult {
    idx.execute(pager, sel, Strategy::T2, fetch)
        .expect("a slope inside the bounding box of S")
}

fn corridor(x: (f64, f64), y: (f64, f64), z: (f64, f64)) -> GeneralizedTuple {
    let mut cs = Vec::new();
    for (axis, (lo, hi)) in [x, y, z].into_iter().enumerate() {
        let mut a = vec![0.0; 3];
        a[axis] = 1.0;
        cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
        cs.push(LinearConstraint::new(a, -hi, RelOp::Le));
    }
    GeneralizedTuple::new(cs)
}

fn main() {
    let mut pager = MemPager::paper_1999();

    // 2000 corridors over a 100x100 map, altitudes 0..10.
    let mut tuples = Vec::new();
    let mut seed = 0x5EEDu64;
    let mut rnd = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..2000u32 {
        let cx = rnd() * 90.0 - 45.0;
        let cy = rnd() * 90.0 - 45.0;
        let z0 = rnd() * 8.0;
        tuples.push((i, corridor((cx, cx + 4.0), (cy, cy + 4.0), (z0, z0 + 1.5))));
    }

    // 9 predefined slope points on a grid over terrain gradients.
    let points = SlopePoints::grid(3, 3, 0.2);
    let k = points.len();
    let idx = DualIndex::build(&mut pager, points, &tuples).unwrap();
    println!(
        "indexed {} corridors in E^3 over k={k} slope points: {} pages",
        tuples.len(),
        idx.page_count()
    );

    // Terrain plane z = 0.05x - 0.12y + 4: corridors entirely above it?
    let terrain = HalfPlane::new(vec![0.05, -0.12], 4.0, RelOp::Ge);
    let lookup: std::collections::HashMap<u32, GeneralizedTuple> = tuples.iter().cloned().collect();
    let fetch = |_: &dyn PageReader, id: u32| lookup[&id].clone();

    pager.reset_stats();
    let clear = run(&idx, &pager, &Selection::all(terrain.clone()), &fetch);
    let all_io = pager.stats().accesses();
    pager.reset_stats();
    let touching = run(&idx, &pager, &Selection::exist(terrain.clone()), &fetch);
    let exist_io = pager.stats().accesses();

    println!("\nterrain half-space: z >= 0.05x - 0.12y + 4");
    println!(
        "  ALL   (fully above):  {} corridors, {all_io} page accesses",
        clear.len()
    );
    println!(
        "  EXIST (reach above):  {} corridors, {exist_io} page accesses",
        touching.len()
    );

    // Cross-check against the exact predicates.
    let oracle: Vec<u32> = tuples
        .iter()
        .filter(|(_, t)| predicates::all(&terrain, t))
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(clear.ids(), oracle, "index agrees with the exact oracle");
    println!("\noracle cross-check passed ({} ALL matches)", oracle.len());

    // Any set of slope points routes the same way: here 9 irregular
    // gradients, whose cells are Voronoi polygons rather than boxes.
    let irregular = [
        [-0.2, -0.15],
        [0.1, -0.2],
        [0.2, 0.0],
        [-0.05, 0.05],
        [0.15, 0.18],
        [-0.18, 0.2],
        [0.0, -0.05],
        [0.06, 0.1],
        [-0.12, -0.02],
    ];
    let points = SlopePoints::new(3, irregular.iter().map(|p| p.to_vec()).collect());
    let mut pager2 = MemPager::paper_1999();
    let idx2 = DualIndex::build(&mut pager2, points, &tuples).unwrap();
    pager2.reset_stats();
    let again = run(&idx2, &pager2, &Selection::all(terrain.clone()), &fetch);
    assert_eq!(again.ids(), oracle, "irregular slope points agree too");
    println!(
        "irregular slope points: {} ALL matches, {} page accesses",
        again.len(),
        pager2.stats().accesses()
    );

    // A restricted (member-slope) query is exact with a single tree sweep.
    let flat = HalfPlane::new(vec![0.0, 0.0], 8.0, RelOp::Ge);
    let high = run(&idx, &pager, &Selection::exist(flat), &fetch);
    let mut want = 0;
    for (_, t) in &tuples {
        if predicates::exist(&HalfPlane::new(vec![0.0, 0.0], 8.0, RelOp::Ge), t) {
            want += 1;
        }
    }
    assert_eq!(high.len(), want);
    println!(
        "corridors reaching z >= 8: {} (restricted exact query)",
        high.len()
    );

    let kind = SelectionKind::Exist;
    let _ = kind;
}
