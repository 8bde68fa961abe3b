//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Every binary in `src/bin/` builds on the same testbeds:
//!
//! * [`T2Bed`] — a [`ConstraintDb`] with a dual index (technique T2) over a
//!   seeded synthetic relation;
//! * [`RplusBed`] — the R⁺-tree baseline over the *same* relation, also
//!   held in a [`ConstraintDb`] and queried through the unified planner
//!   path ([`Strategy::RPlus`] → `Planner::choose` → `AccessMethod::RPlus`).
//!
//! The measured quantity is page accesses per query (index structure pages
//! plus tuple-heap pages fetched for refinement), which stands in for the
//! paper's elapsed time on a Pentium-133 (I/O-bound at 1999 disk speeds).
//! Each run cross-checks that both structures return identical result sets.

use cdb_core::query::Strategy;
use cdb_core::{ConstraintDb, DbConfig, IndexKind, QueryStats, Selection, SelectionKind, SlopeSet};
use cdb_geometry::predicates;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_workload::{CalibratedQuery, DatasetSpec, ObjectSize, QueryGen, QueryKind};

pub mod t1;

/// The paper's relation cardinalities (Section 5).
pub const PAPER_CARDINALITIES: [usize; 5] = [500, 2000, 4000, 8000, 12000];

/// The paper's slope-set sizes (Section 5).
pub const PAPER_KS: [usize; 4] = [2, 3, 4, 5];

/// The reported selectivity band (Section 5: "results obtained for the
/// average range 10–15%").
pub const PAPER_SELECTIVITY: (f64, f64) = (0.10, 0.15);

/// Queries per (kind, configuration): the paper uses six of each.
pub const QUERIES_PER_KIND: usize = 6;

/// The cardinality sweep of a figure run: the paper's five cardinalities,
/// or the first two under `--quick` for smoke runs.
pub fn figure_cardinalities(quick: bool) -> Vec<usize> {
    if quick {
        PAPER_CARDINALITIES[..2].to_vec()
    } else {
        PAPER_CARDINALITIES.to_vec()
    }
}

/// Pages of the one index a testbed builds over relation `"r"` (heap pages
/// excluded): the Figure 10 metric.
fn index_pages(db: &ConstraintDb, kind: IndexKind) -> u64 {
    let rel = db.relation("r").expect("exists");
    rel.built(kind).expect("built").page_count()
}

/// Technique-T2 testbed: engine + dual index over a generated relation.
pub struct T2Bed {
    /// The engine holding relation `"r"`.
    pub db: ConstraintDb,
    /// The generated tuples (for oracle checks and query calibration).
    pub tuples: Vec<GeneralizedTuple>,
}

impl T2Bed {
    /// Builds the bed for a dataset spec and slope-set size `k`.
    pub fn build(spec: DatasetSpec, k: usize) -> Self {
        let tuples = spec.generate();
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("r", 2).expect("fresh db");
        for t in &tuples {
            db.insert("r", t.clone())
                .expect("satisfiable by construction");
        }
        db.build_dual_index("r", SlopeSet::uniform_tan(k))
            .expect("2-D relation");
        T2Bed { db, tuples }
    }

    /// Index pages only (heap pages excluded): the Figure 10 metric.
    pub fn index_pages(&self) -> u64 {
        index_pages(&self.db, IndexKind::Dual)
    }

    /// Bytes of RAM the index's key columns hold (nothing of them is
    /// stored in pages).
    pub fn key_bytes(&self) -> u64 {
        let rel = self.db.relation("r").expect("exists");
        rel.index().expect("built").key_bytes() as u64
    }

    /// Runs one calibrated query, returning `(stats, result ids)`.
    pub fn run(&self, q: &CalibratedQuery, strategy: Strategy) -> (QueryStats, Vec<u32>) {
        let sel = selection_of(q);
        let r = self
            .db
            .query_with("r", sel, strategy)
            .expect("indexed query");
        (r.stats, r.ids().to_vec())
    }

    /// Runs one calibrated query as T1 ([`t1::run`]) over Table 1's
    /// app-queries at the slopes of the bed's `S`.
    pub fn run_t1(&self, q: &CalibratedQuery) -> (QueryStats, Vec<u32>) {
        let sel = selection_of(q);
        let rel = self.db.relation("r").expect("exists");
        let slopes = rel.index().expect("built").slopes().expect("a slope set");
        t1::run(&self.db, "r", &sel, &t1::table1(slopes, &sel))
    }
}

/// R⁺-tree testbed: the baseline packed inside a [`ConstraintDb`]
/// (tree over object MBRs, tuples in the relation heap) and queried
/// through the same planner path as every other access method.
pub struct RplusBed {
    /// The engine holding relation `"r"` with the packed baseline.
    pub db: ConstraintDb,
    tuples: Vec<GeneralizedTuple>,
}

impl RplusBed {
    /// Packs the baseline over the same tuples a [`T2Bed`] would hold.
    pub fn build(tuples: &[GeneralizedTuple]) -> Self {
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("r", 2).expect("fresh db");
        for t in tuples {
            db.insert("r", t.clone())
                .expect("satisfiable by construction");
        }
        db.build_rplus_index("r", 1.0).expect("2-D relation");
        RplusBed {
            db,
            tuples: tuples.to_vec(),
        }
    }

    /// Tree pages only (heap pages excluded): the Figure 10 metric.
    pub fn index_pages(&self) -> u64 {
        index_pages(&self.db, IndexKind::RPlus)
    }

    /// Runs one calibrated query through the planner with the R⁺-tree
    /// forced: EXIST search over MBRs (ALL is approximated by EXIST,
    /// Section 1), then exact refinement of every candidate.
    pub fn run(&self, q: &CalibratedQuery) -> (QueryStats, Vec<u32>) {
        let r = self
            .db
            .query_with("r", selection_of(q), Strategy::RPlus)
            .expect("baseline query");
        (r.stats, r.ids().to_vec())
    }

    /// Brute-force oracle over the stored tuples.
    pub fn oracle(&self, q: &CalibratedQuery) -> Vec<u32> {
        predicates::oracle_select(&q.halfplane, q.kind == QueryKind::All, self.tuples.iter())
            .into_iter()
            .map(|i| i as u32)
            .collect()
    }
}

/// Converts a calibrated query into an engine selection.
pub fn selection_of(q: &CalibratedQuery) -> Selection {
    Selection {
        kind: match q.kind {
            QueryKind::All => SelectionKind::All,
            QueryKind::Exist => SelectionKind::Exist,
        },
        halfplane: q.halfplane.clone(),
    }
}

/// Per-kind means over a batch: `(exist, all)` of an extractor.
fn mean_by(per_query: &[(QueryKind, QueryStats)], f: impl Fn(&QueryStats) -> u64) -> (f64, f64) {
    let mean = |kind: QueryKind| {
        let xs: Vec<u64> = per_query
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, s)| f(s))
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<u64>() as f64 / xs.len() as f64
        }
    };
    (mean(QueryKind::Exist), mean(QueryKind::All))
}

/// Mean **index-structure** page accesses per query (the paper's metric:
/// tree nodes visited / leaves swept), split by kind: `(exist, all)`.
pub fn mean_accesses(per_query: &[(QueryKind, QueryStats)]) -> (f64, f64) {
    mean_by(per_query, |s| s.index_io.accesses())
}

/// Mean **total** page accesses (index + page-batched refinement fetches),
/// split by kind: `(exist, all)`.
pub fn mean_total_accesses(per_query: &[(QueryKind, QueryStats)]) -> (f64, f64) {
    mean_by(per_query, |s| s.total_accesses())
}

/// One measured point of a figure.
#[derive(Clone, Debug)]
pub struct FigurePoint {
    /// Structure label ("T2 k=3", "R+-tree", ...).
    pub structure: String,
    /// Relation cardinality.
    pub n: usize,
    /// Mean index page accesses per EXIST query (the paper's metric).
    pub exist_accesses: f64,
    /// Mean index page accesses per ALL query.
    pub all_accesses: f64,
    /// Mean total accesses per EXIST query (index + refinement fetches).
    pub exist_total: f64,
    /// Mean total accesses per ALL query.
    pub all_total: f64,
}

/// Runs one full figure-8/9 style experiment: for each cardinality, T2 with
/// every `k` plus the R⁺-tree baseline, over a calibrated query battery.
/// Result sets are cross-checked between structures and the oracle.
pub fn run_time_experiment(
    size: ObjectSize,
    cardinalities: &[usize],
    ks: &[usize],
    selectivity: (f64, f64),
    seed: u64,
) -> Vec<FigurePoint> {
    let mut out = Vec::new();
    for (ni, &n) in cardinalities.iter().enumerate() {
        let spec = DatasetSpec::paper_1999(n, size, seed + ni as u64);
        let tuples = spec.generate();
        let mut qg = QueryGen::new(seed * 1000 + n as u64);
        let battery = qg.battery(&tuples, QUERIES_PER_KIND, selectivity.0, selectivity.1);

        // Baseline first (also provides the oracle).
        let rbed = RplusBed::build(&tuples);
        let mut rstats = Vec::new();
        let mut expected: Vec<Vec<u32>> = Vec::new();
        for q in &battery {
            let (s, ids) = rbed.run(q);
            let want = rbed.oracle(q);
            assert_eq!(ids, want, "R+ result mismatch on {:?}", q.halfplane);
            expected.push(want);
            rstats.push((q.kind, s));
        }
        let (re, ra) = mean_accesses(&rstats);
        let (ret, rat) = mean_total_accesses(&rstats);
        out.push(FigurePoint {
            structure: "R+-tree".into(),
            n,
            exist_accesses: re,
            all_accesses: ra,
            exist_total: ret,
            all_total: rat,
        });

        for &k in ks {
            let bed = T2Bed::build(spec, k);
            let mut tstats = Vec::new();
            for (qi, q) in battery.iter().enumerate() {
                let (s, ids) = bed.run(q, Strategy::T2);
                assert_eq!(ids, expected[qi], "T2 k={k} result mismatch");
                tstats.push((q.kind, s));
            }
            let (te, ta) = mean_accesses(&tstats);
            let (tet, tat) = mean_total_accesses(&tstats);
            out.push(FigurePoint {
                structure: format!("T2 k={k}"),
                n,
                exist_accesses: te,
                all_accesses: ta,
                exist_total: tet,
                all_total: tat,
            });
        }

        // Planner column: same bed at the middle k, the R⁺-tree built
        // beside the dual index, `Strategy::Auto` planning per query. The
        // paper's rule runs T2 (the restricted search at a member slope),
        // so the column equals the forced T2 column at that k.
        let k = ks[ks.len() / 2];
        let mut bed = T2Bed::build(spec, k);
        bed.db.build_rplus_index("r", 1.0).expect("2-D relation");
        let mut astats = Vec::new();
        for (qi, q) in battery.iter().enumerate() {
            let (s, ids) = bed.run(q, Strategy::Auto);
            assert_eq!(ids, expected[qi], "Auto planner result mismatch (k={k})");
            astats.push((q.kind, s));
        }
        let (ae, aa) = mean_accesses(&astats);
        let (aet, aat) = mean_total_accesses(&astats);
        out.push(FigurePoint {
            structure: "Auto (planner)".into(),
            n,
            exist_accesses: ae,
            all_accesses: aa,
            exist_total: aet,
            all_total: aat,
        });
    }
    out
}

/// Renders figure points as aligned tables: two panels (EXIST/ALL) of the
/// paper's index-access metric, then the same with refinement included.
/// A column is 12 characters wide, or its label's length plus two.
pub fn print_figure(title: &str, points: &[FigurePoint]) {
    let width = |label: &str| 12.max(label.chars().count() + 2);
    let mut structures: Vec<String> = Vec::new();
    for p in points {
        if !structures.contains(&p.structure) {
            structures.push(p.structure.clone());
        }
    }
    let mut ns: Vec<usize> = points.iter().map(|p| p.n).collect();
    ns.sort_unstable();
    ns.dedup();
    let pick = |p: &FigurePoint, panel: usize| match panel {
        0 => p.exist_accesses,
        1 => p.all_accesses,
        2 => p.exist_total,
        _ => p.all_total,
    };
    let labels = [
        "(a) EXIST selections  [index page accesses/query — the paper's metric]",
        "(b) ALL selections  [index page accesses/query — the paper's metric]",
        "(a') EXIST  [total accesses incl. page-batched refinement fetches]",
        "(b') ALL  [total accesses incl. page-batched refinement fetches]",
    ];
    for (panel, label) in labels.iter().enumerate() {
        println!("\n{title} — {label}");
        print!("{:>10}", "N");
        for s in &structures {
            print!("{s:>w$}", w = width(s));
        }
        println!();
        for &n in &ns {
            print!("{n:>10}");
            for s in &structures {
                let p = points
                    .iter()
                    .find(|p| p.n == n && &p.structure == s)
                    .expect("complete grid");
                print!("{:>w$.1}", pick(p, panel), w = width(s));
            }
            println!();
        }
    }
}

/// Writes figure points as CSV under `results/`.
pub fn write_csv(name: &str, points: &[FigurePoint]) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let mut s =
        String::from("structure,n,exist_index_accesses,all_index_accesses,exist_total,all_total\n");
    for p in points {
        s.push_str(&format!(
            "{},{},{:.3},{:.3},{:.3},{:.3}\n",
            p.structure, p.n, p.exist_accesses, p.all_accesses, p.exist_total, p.all_total
        ));
    }
    std::fs::write(format!("results/{name}.csv"), s)
}

/// One measured point of the Figure 10 space table.
#[derive(Clone, Debug)]
pub struct SpacePoint {
    /// Object-size class of the relation.
    pub size: ObjectSize,
    /// Relation cardinality.
    pub n: usize,
    /// Slope-set size for T2 rows, `None` for the R⁺-tree baseline.
    pub k: Option<usize>,
    /// Index pages occupied (heap excluded).
    pub pages: u64,
    /// Pages relative to the R⁺-tree at the same `(size, n)`.
    pub ratio_vs_rplus: f64,
    /// Bytes of RAM of the T2 rows' key columns (0 for the R⁺-tree).
    pub key_bytes: u64,
}

impl SpacePoint {
    /// Structure label ("T2 k=3" or "R+-tree").
    pub fn structure(&self) -> String {
        match self.k {
            Some(k) => format!("T2 k={k}"),
            None => "R+-tree".into(),
        }
    }
}

/// Runs the Figure 10 space experiment: index pages of T2 (every `k`) and
/// of the R⁺-tree, for both object-size classes, as the relation grows.
pub fn run_space_experiment(cardinalities: &[usize], ks: &[usize], seed: u64) -> Vec<SpacePoint> {
    let mut out = Vec::new();
    for size in [ObjectSize::Small, ObjectSize::Medium] {
        for &n in cardinalities {
            let spec = DatasetSpec::paper_1999(n, size, seed + n as u64);
            let tuples = spec.generate();
            let rpages = RplusBed::build(&tuples).index_pages();
            out.push(SpacePoint {
                size,
                n,
                k: None,
                pages: rpages,
                ratio_vs_rplus: 1.0,
                key_bytes: 0,
            });
            for &k in ks {
                let bed = T2Bed::build(spec, k);
                let pages = bed.index_pages();
                out.push(SpacePoint {
                    size,
                    n,
                    k: Some(k),
                    pages,
                    ratio_vs_rplus: pages as f64 / rpages as f64,
                    key_bytes: bed.key_bytes(),
                });
            }
        }
    }
    out
}

/// Renders the space table, one panel per object-size class, with the
/// per-`k` ratio of the largest slope set in the last column; then, per
/// class, the RAM the T2 indexes' key columns hold, per tuple — memory,
/// not pages, so no page column counts it.
pub fn print_space_table(points: &[SpacePoint]) {
    let mut ks: Vec<usize> = points.iter().filter_map(|p| p.k).collect();
    ks.sort_unstable();
    ks.dedup();
    for size in [ObjectSize::Small, ObjectSize::Medium] {
        let rows: Vec<&SpacePoint> = points.iter().filter(|p| p.size == size).collect();
        if rows.is_empty() {
            continue;
        }
        println!("\nFigure 10 — disk pages, {size:?} objects");
        print!("{:>10}{:>10}", "N", "R+-tree");
        for &k in &ks {
            print!("{:>10}", format!("T2 k={k}"));
        }
        println!("{:>14}", format!("ratio/k (k={})", ks.last().unwrap()));
        let mut ns: Vec<usize> = rows.iter().map(|p| p.n).collect();
        ns.sort_unstable();
        ns.dedup();
        for &n in &ns {
            let at = |k: Option<usize>| {
                rows.iter()
                    .find(|p| p.n == n && p.k == k)
                    .expect("complete grid")
            };
            print!("{n:>10}{:>10}", at(None).pages);
            for &k in &ks {
                print!("{:>10}", at(Some(k)).pages);
            }
            let last = at(Some(*ks.last().unwrap()));
            println!("{:>14.2}", last.ratio_vs_rplus / last.k.unwrap() as f64);
        }
        println!("\nFigure 10 — key columns in RAM, not pages [bytes/tuple], {size:?} objects");
        print!("{:>10}", "N");
        for &k in &ks {
            print!("{:>10}", format!("T2 k={k}"));
        }
        println!();
        for &n in &ns {
            print!("{n:>10}");
            for &k in &ks {
                let p = rows.iter().find(|p| p.n == n && p.k == Some(k));
                let p = p.expect("complete grid");
                print!("{:>10.1}", p.key_bytes as f64 / n as f64);
            }
            println!();
        }
    }
}

/// Writes space points as CSV under `results/`.
pub fn write_space_csv(name: &str, points: &[SpacePoint]) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let mut s = String::from(
        "size_class,n,structure,pages,ratio_vs_rplus,ratio_per_k,key_bytes_per_tuple\n",
    );
    for p in points {
        let per_k = match p.k {
            Some(k) => format!("{:.3}", p.ratio_vs_rplus / k as f64),
            None => String::new(),
        };
        s.push_str(&format!(
            "{:?},{},{},{},{:.3},{},{:.1}\n",
            p.size,
            p.n,
            p.structure(),
            p.pages,
            p.ratio_vs_rplus,
            per_k,
            p.key_bytes as f64 / p.n as f64
        ));
    }
    std::fs::write(format!("results/{name}.csv"), s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beds_agree_on_small_config() {
        let points = run_time_experiment(ObjectSize::Small, &[300], &[2, 3], (0.10, 0.15), 42);
        // R⁺ baseline, two forced-T2 columns, and the Auto planner column.
        assert_eq!(points.len(), 4);
        assert_eq!(points.last().unwrap().structure, "Auto (planner)");
        for p in &points {
            // Every column descends its index — Auto runs T2's search at
            // k = 3 — and fetches for refinement.
            assert!(p.exist_accesses > 0.0);
            assert!(p.all_accesses > 0.0);
            assert!(p.exist_total > 0.0);
            assert!(p.all_total > 0.0);
        }
        let auto = &points[3];
        let t2 = &points[2];
        assert_eq!(auto.exist_total, t2.exist_total, "Auto is T2 at k = 3");
        assert_eq!(auto.all_total, t2.all_total, "Auto is T2 at k = 3");
    }

    #[test]
    fn t2_space_exceeds_rplus_and_scales_with_k() {
        let spec = DatasetSpec::paper_1999(800, ObjectSize::Small, 7);
        let tuples = spec.generate();
        let r = RplusBed::build(&tuples);
        let t2 = T2Bed::build(spec, 2);
        let t5 = T2Bed::build(spec, 5);
        // Figure 10's shape: space grows linearly in k and exceeds the
        // single R+-tree for larger k. (The paper's constant is 1.32·k with
        // its insertion-built trees; our bulk-packed structures differ in
        // fill and clipping duplication, so only the shape is asserted.)
        assert!(
            t5.index_pages() > r.index_pages(),
            "5 tree pairs beat 1 R+ tree"
        );
        let ratio = t5.index_pages() as f64 / t2.index_pages() as f64;
        assert!((2.0..3.2).contains(&ratio), "k=5/k=2 page ratio {ratio}");
    }

    #[test]
    fn mean_accesses_splits_kinds() {
        let mk = |r, kind| {
            let mut s = QueryStats::default();
            s.index_io.reads = r;
            (kind, s)
        };
        let batch = vec![
            mk(10, QueryKind::Exist),
            mk(20, QueryKind::Exist),
            mk(100, QueryKind::All),
        ];
        let (e, a) = mean_accesses(&batch);
        assert_eq!(e, 15.0);
        assert_eq!(a, 100.0);
    }

    #[test]
    fn space_experiment_covers_the_grid() {
        let points = run_space_experiment(&[200], &[2, 3], 11);
        // 2 size classes × 1 cardinality × (baseline + 2 ks).
        assert_eq!(points.len(), 6);
        for p in &points {
            assert!(p.pages > 0);
            assert!(p.ratio_vs_rplus > 0.0);
        }
    }
}
