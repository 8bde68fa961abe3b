//! Future-work ablation (Section 6): "by increasing the dimension of the
//! space, the performance of our technique does not change, since we always
//! deal with single values".
//!
//! The dual index over slope points ([`cdb_core::ddim::SlopePoints`]) is
//! measured for d ∈ {2, 3, 4} on random boxes: technique T2 over the Voronoi cells of a
//! grid slope set (what the index routes an arbitrary slope to) and the
//! d-search simplex covering (generalized T1, as an ablation), against the
//! sequential-scan baseline (the R⁺-tree baseline is 2-D only — and no
//! R-tree variant stores the unbounded objects the dual index handles
//! natively). A second table repeats T2 over random slope-point sets of
//! `d` points and of the grid's size, next to the grid's T2 on the same
//! slopes and to what serves those slopes without cells: the covering for
//! slopes inside the set's hull, the scan for slopes in its box but outside
//! the hull.
//!
//! ```text
//! cargo run --release -p cdb-bench --bin dimension_sweep [--quick]
//! ```

use std::collections::HashMap;

use cdb_bench::t1;
use cdb_core::ddim::SlopePoints;
use cdb_core::index::Exact;
use cdb_core::plan::PlanCase;
use cdb_core::{ConstraintDb, DbConfig, DualIndex, Selection, SelectionKind};
use cdb_geometry::constraint::{LinearConstraint, RelOp};
use cdb_geometry::halfplane::HalfPlane;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_prng::StdRng;
use cdb_storage::{MemPager, PageReader};

/// Queries per dimension and slope set, alternately EXIST and ALL.
const QUERIES: usize = 12;

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

/// Query `qi` at `slope`: EXIST (≥) on even, ALL (≤) on odd queries, with
/// intercepts hitting ~10-15% selectivity on uniform boxes.
fn query(qi: usize, slope: Vec<f64>, rng: &mut StdRng) -> Selection {
    let exist = qi.is_multiple_of(2);
    let b = rng.gen_range(20.0..35.0) * if exist { 1.0 } else { -1.0 };
    let (kind, op) = if exist {
        (SelectionKind::Exist, RelOp::Ge)
    } else {
        (SelectionKind::All, RelOp::Le)
    };
    Selection {
        kind,
        halfplane: HalfPlane::new(slope, b, op),
    }
}

/// Page accesses per selection kind over one query set.
#[derive(Default)]
struct Tally {
    exist_io: u64,
    all_io: u64,
}

impl Tally {
    /// Mean page accesses of the EXIST and of the ALL queries.
    fn means(&self) -> (f64, f64) {
        let per_kind = (QUERIES / 2) as f64;
        (
            self.exist_io as f64 / per_kind,
            self.all_io as f64 / per_kind,
        )
    }
}

/// One index with the relation it is built over.
struct Bed<'a> {
    pager: MemPager,
    index: &'a DualIndex,
    pairs: &'a [(u32, GeneralizedTuple)],
    lookup: &'a HashMap<u32, GeneralizedTuple>,
}

impl Bed<'_> {
    /// Runs every query through `answer`, cross-checks its ids against the
    /// oracle (a mismatch panics), and tallies its page accesses.
    fn measure(&self, queries: &[Selection], answer: impl Fn(&Selection) -> Vec<u32>) -> Tally {
        let mut tally = Tally::default();
        for (qi, sel) in queries.iter().enumerate() {
            let want: Vec<u32> = self
                .pairs
                .iter()
                .filter(|(_, t)| sel.holds(t))
                .map(|(id, _)| *id)
                .collect();
            let before = self.pager.stats();
            assert_eq!(answer(sel), want, "query {qi}: {sel:?}");
            let io = self.pager.stats().since(&before).accesses();
            if sel.kind == SelectionKind::Exist {
                tally.exist_io += io;
            } else {
                tally.all_io += io;
            }
        }
        tally
    }

    /// The ids of `sel` along `case`, refined with the stored tuples.
    fn run(&self, sel: &Selection, case: &PlanCase) -> Vec<u32> {
        let fetch = |_: &dyn PageReader, id: u32| self.lookup[&id].clone();
        let r = (self.index)
            .run(&self.pager, sel, case, Exact::Selection, &fetch)
            .expect("routed query");
        r.ids().to_vec()
    }

    /// T2 over the cell the index routes `sel` to.
    fn cell(&self, sel: &Selection) -> Vec<u32> {
        let case = self.index.route(sel).expect("in-box query");
        assert!(matches!(case, PlanCase::Cell(_)), "{case}");
        self.run(sel, &case)
    }

    /// The simplex covering (generalized T1): one restricted search per
    /// vertex of a simplex of `S` containing the query slope, each with the
    /// query's intercept and operator ([`t1::legs`]), their union refined
    /// against `sel`.
    fn covering(&self, sel: &Selection) -> Vec<u32> {
        let points = self.index.points().expect("an index over slope points");
        let slope = &sel.halfplane.slope;
        let vertices = points.containing_simplex(slope).expect("in-hull query");
        let at = |&v: &usize| (points.as_slice()[v].clone(), sel.halfplane.op);
        let legs = t1::legs(sel, vertices.iter().map(at));
        let mut union = Vec::new();
        for (&i, leg) in vertices.iter().zip(&legs) {
            let slope = points.as_slice()[i].clone();
            union.extend(self.run(leg, &PlanCase::Member { i, slope }));
        }
        union.sort_unstable();
        union.dedup();
        union.retain(|id| sel.holds(&self.lookup[id]));
        union
    }
}

/// A random slope-point set and queries at slopes in its box: inside its
/// hull, or outside it.
struct RandomSet {
    points: SlopePoints,
    in_hull: bool,
    queries: Vec<Selection>,
}

impl RandomSet {
    /// Rejection-samples [`QUERIES`] slopes from the bounding box of
    /// `points`, kept by whether a simplex of them covers the slope.
    fn draw(points: SlopePoints, in_hull: bool, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD4 ^ u64::from(in_hull));
        let bounds: Vec<(f64, f64)> = (0..points.dim() - 1)
            .map(|j| {
                let along = points.as_slice().iter().map(|p| p[j]);
                along.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(v), hi.max(v))
                })
            })
            .collect();
        let mut slopes = Vec::new();
        while slopes.len() < QUERIES {
            let slope: Vec<f64> = bounds
                .iter()
                .map(|&(lo, hi)| rng.gen_range(lo..hi))
                .collect();
            if points.containing_simplex(&slope).is_some() == in_hull {
                slopes.push(slope);
            }
        }
        let queries = (0..QUERIES)
            .map(|qi| query(qi, slopes[qi].clone(), &mut rng))
            .collect();
        RandomSet {
            points,
            in_hull,
            queries,
        }
    }
}

/// Heap pages of a `dim`-dimensional relation holding `pairs`: what a
/// sequential scan reads per query.
fn heap_pages(dim: usize, pairs: &[(u32, GeneralizedTuple)]) -> u64 {
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("r", dim).expect("fresh db");
    for (_, t) in pairs {
        db.insert("r", t.clone()).expect("satisfiable box");
    }
    db.relation("r").expect("created").heap_pages()
}

/// Builds the index over `points` and hands `run` the bed.
fn with_bed<R>(
    points: SlopePoints,
    pairs: &[(u32, GeneralizedTuple)],
    lookup: &HashMap<u32, GeneralizedTuple>,
    run: impl FnOnce(&Bed<'_>) -> R,
) -> R {
    let mut pager = MemPager::paper_1999();
    let index = DualIndex::build(&mut pager, points, pairs).unwrap();
    run(&Bed {
        pager,
        index: &index,
        pairs,
        lookup,
    })
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
    let mut random_rows: Vec<String> = Vec::new();
    let mut random_csv =
        String::from("d,k,in_hull,grid_t2_exist,grid_t2_all,t2_exist,t2_all,else_exist,else_all\n");
    for dim in [2usize, 3, 4] {
        let pairs = random_boxes(dim, n, 0xD1 + dim as u64);
        // Keep k comparable across d: a small grid spanning slope space.
        let per_axis = if dim == 2 { 4 } else { 2 };
        let grid = SlopePoints::grid(dim, per_axis, 1.0);
        let k = grid.len();
        let lookup: HashMap<u32, GeneralizedTuple> = pairs.iter().cloned().collect();
        let scan_pages = heap_pages(dim, &pairs);

        // Random sets of the fewest points (k = d) and of the grid's k; for
        // each, slopes inside its hull and — past d = 2, where the hull of
        // points on a line is their box — slopes in its box but outside the
        // hull, where no simplex covers and only the scan is left.
        let random_sets: Vec<RandomSet> = [dim, k]
            .into_iter()
            .flat_map(|rk| {
                let seed = (0xD3 + dim as u64) ^ ((rk as u64) << 8);
                let mut rng = StdRng::seed_from_u64(seed);
                let draw: Vec<Vec<f64>> = (0..rk)
                    .map(|_| (1..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
                    .collect();
                let points = SlopePoints::new(dim, draw);
                let hulls: &[bool] = if dim == 2 { &[true] } else { &[true, false] };
                hulls
                    .iter()
                    .map(|&in_hull| RandomSet::draw(points.clone(), in_hull, seed))
                    .collect::<Vec<_>>()
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(0xD2 + dim as u64);
        let queries: Vec<Selection> = (0..QUERIES)
            .map(|qi| {
                let slope: Vec<f64> = (0..dim - 1).map(|_| rng.gen_range(-0.9..0.9)).collect();
                query(qi, slope, &mut rng)
            })
            .collect();
        let (t2, t1, grid_on_random) = with_bed(grid, &pairs, &lookup, |bed| {
            let t2 = bed.measure(&queries, |sel| bed.cell(sel));
            let t1 = bed.measure(&queries, |sel| bed.covering(sel));
            let on_random: Vec<Tally> = random_sets
                .iter()
                .map(|set| bed.measure(&set.queries, |sel| bed.cell(sel)))
                .collect();
            (t2, t1, on_random)
        });
        let (e, a) = t2.means();
        let (e1, a1) = t1.means();
        println!("{dim:>4}{k:>8}{e:>14.1}{a:>14.1}{e1:>14.1}{a1:>14.1}{scan_pages:>14}");
        csv.push_str(&format!(
            "{dim},{k},{e:.1},{a:.1},{e1:.1},{a1:.1},{scan_pages}\n"
        ));

        for (set, on_grid) in random_sets.into_iter().zip(grid_on_random) {
            let (rk, in_hull) = (set.points.len(), set.in_hull);
            // T2 over the set's cells, and what serves the same slopes
            // without them: the covering inside the hull, else the scan.
            let (rt2, (oe, oa)) = with_bed(set.points, &pairs, &lookup, |bed| {
                let rt2 = bed.measure(&set.queries, |sel| bed.cell(sel));
                let other = if in_hull {
                    bed.measure(&set.queries, |sel| bed.covering(sel)).means()
                } else {
                    (scan_pages as f64, scan_pages as f64)
                };
                (rt2, other)
            });
            let (ge, ga) = on_grid.means();
            let (re, ra) = rt2.means();
            // The grid bound is the target at the grid's own k only.
            let near_grid = rk != k || (re <= 1.2 * ge && ra <= 1.2 * ga);
            let met = near_grid && re < oe && ra < oa;
            let verdict = if met { "met" } else { "not met" };
            let slopes = if in_hull { "hull/T1" } else { "box/scan" };
            random_rows.push(format!(
                "{dim:>4}{rk:>6}{slopes:>10}{ge:>10.1}{ga:>10.1}{re:>10.1}{ra:>10.1}{oe:>10.1}{oa:>10.1}{:>8.2}{:>8.2}  {verdict}",
                (re + ra) / (ge + ga),
                (re + ra) / (oe + oa),
            ));
            random_csv.push_str(&format!(
                "{dim},{rk},{in_hull},{ge:.1},{ga:.1},{re:.1},{ra:.1},{oe:.1},{oa:.1}\n"
            ));
        }
    }
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/dimension_sweep.csv", csv).expect("write CSV");
    println!("\nwrote results/dimension_sweep.csv");

    println!(
        "\nRandom slope points (k = d, and the grid's k): T2 over Voronoi cells vs \
         the grid's T2 on the same slopes vs what serves them without cells —\n\
         simplex T1 for slopes in the hull, the scan for slopes in the box but \
         outside the hull\n(target: T2 below that, and ≤ 1.2 × grid at the \
         grid's k)"
    );
    println!(
        "{:>4}{:>6}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>8}{:>8}",
        "d",
        "k",
        "slopes",
        "grid EX",
        "grid ALL",
        "T2 EX",
        "T2 ALL",
        "else EX",
        "else ALL",
        "/grid",
        "/else"
    );
    for row in &random_rows {
        println!("{row}");
    }
    std::fs::write("results/dimension_random_sets.csv", random_csv).expect("write CSV");
    println!("\nwrote results/dimension_random_sets.csv");
}
