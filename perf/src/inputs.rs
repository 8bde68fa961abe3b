//! Seeded inputs: relations, calibrated selections and their expected
//! answers. Everything the engine sees comes out of this module, and
//! everything here is a function of `--seed`.

use std::time::Instant;

use cdb_core::{Selection, SelectionKind, SlopeSet};
use cdb_geometry::constraint::RelOp;
use cdb_geometry::scalar::{approx_ge, approx_le};
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_geometry::{dual, predicates, HalfPlane, Rect};
use cdb_prng::StdRng;
use cdb_workload::{DatasetSpec, ObjectSize, QueryGen, QueryKind, TupleGen};

/// Slope-set size of every indexed relation (the paper's middle `k`).
pub const K: usize = 4;

/// The paper's reported selectivity band.
pub const SELECTIVITY: (f64, f64) = (0.10, 0.15);

/// The slope set `S` of every dual index the benchmark builds.
pub fn slope_set() -> SlopeSet {
    SlopeSet::uniform_tan(K)
}

/// How much work a run does. `full` is what `BENCHMARK.json` measures;
/// `quick` keeps every code path and metric name at a size that finishes
/// in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Tuples in the read relation `r`.
    pub n: usize,
    /// Tuples in a written relation (`durable_churn`'s `r`, the sibling `w`).
    pub n_write: usize,
    /// Selections per kind in a query set (a set holds twice this).
    pub per_kind: usize,
    /// Mutations in a traced write run.
    pub trace_mutations: usize,
    /// Times an untraced run builds its bed; `setup_s` is the median.
    pub setup_builds: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        n: 12000,
        n_write: 4000,
        per_kind: 96,
        trace_mutations: 2000,
        setup_builds: 5,
    };
    pub const QUICK: Scale = Scale {
        n: 2000,
        n_write: 1000,
        per_kind: 32,
        trace_mutations: 400,
        setup_builds: 1,
    };
}

/// An independent seed for one generator, derived from the run's seed
/// (splitmix64 finaliser, so neighbouring seeds give unrelated streams).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// Generator streams of one run.
const STREAM_DATA: u64 = 1;
const STREAM_T2: u64 = 2;
const STREAM_RESTRICTED: u64 = 3;
const STREAM_WRITES: u64 = 4;

/// The paper's small-object relation of `n` tuples.
pub fn dataset(n: usize, seed: u64) -> Vec<GeneralizedTuple> {
    DatasetSpec::paper_1999(n, ObjectSize::Small, sub_seed(seed, STREAM_DATA)).generate()
}

/// The endless stream of fresh tuples a writer inserts.
pub fn write_stream(seed: u64) -> TupleGen {
    TupleGen::new(
        sub_seed(seed, STREAM_WRITES),
        Rect::paper_window(),
        ObjectSize::Small,
    )
}

/// The first `n` tuples of the write stream: what the sibling relation
/// `w` is loaded with.
pub fn write_relation(n: usize, seed: u64) -> Vec<GeneralizedTuple> {
    let mut stream = write_stream(seed);
    (0..n).map(|_| stream.bounded_tuple()).collect()
}

/// Which selections a read bed is queried with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuerySet {
    /// Random slopes, never members of `S`: sweep, fetch, decode, refine.
    T2,
    /// Slopes from `S`: answered from B⁺-tree keys alone.
    Restricted,
}

/// Everything a workload over the read bed needs: relation `r`, what the
/// sibling `w` is loaded with, and the query set with its answers.
pub struct ReadBed {
    pub read: Vec<GeneralizedTuple>,
    pub write: Vec<GeneralizedTuple>,
    /// Dual keys of `read`, in id order.
    pub keys: Vec<DualKeys>,
    pub queries: Vec<Query>,
    /// Seconds generating tuples; seconds calibrating selections and
    /// evaluating the oracle; nanoseconds per (tuple, slope) dual key.
    pub generate_s: f64,
    pub calibrate_s: f64,
    pub dual_key_ns: f64,
}

pub fn read_bed(set: QuerySet, cfg: &crate::Cfg) -> ReadBed {
    let t0 = Instant::now();
    let read = dataset(cfg.scale.n, cfg.seed);
    let write = write_relation(cfg.scale.n_write, cfg.seed);
    let generate_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let slopes = slope_set();
    let keys: Vec<DualKeys> = read.iter().map(|t| dual_keys(t, &slopes)).collect();
    let keys_s = t0.elapsed().as_secs_f64();
    let (queries, calibrate_s) = match set {
        QuerySet::T2 => t2_queries(&read, cfg.scale.per_kind, cfg.seed),
        QuerySet::Restricted => {
            let t0 = Instant::now();
            let q = restricted_queries(&keys, cfg.scale.per_kind, cfg.seed);
            (q, keys_s + t0.elapsed().as_secs_f64())
        }
    };
    ReadBed {
        dual_key_ns: keys_s * 1e9 / (read.len() * K) as f64,
        read,
        write,
        keys,
        queries,
        generate_s,
        calibrate_s,
    }
}

/// A selection with the ids the brute-force oracle says it returns.
#[derive(Clone, Debug)]
pub struct Query {
    pub sel: Selection,
    pub expected: Vec<u32>,
}

/// `TOP_P`/`BOT_P` of one tuple at every slope of `S`: the index keys, and
/// all the exact predicates need for a query whose slope is in `S`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DualKeys(pub [(f64, f64); K]);

pub fn dual_keys(tuple: &GeneralizedTuple, slopes: &SlopeSet) -> DualKeys {
    let mut keys = [(0.0, 0.0); K];
    for (i, slot) in keys.iter_mut().enumerate() {
        let s = [slopes.get(i)];
        *slot = (
            dual::top(tuple, &s).expect("satisfiable tuple"),
            dual::bot(tuple, &s).expect("satisfiable tuple"),
        );
    }
    DualKeys(keys)
}

/// Proposition 2.2 on precomputed surface values: exactly what
/// `predicates::{all, exist}` decide for a tuple with these `top`/`bot`
/// at the query's slope (a unit test pins the equivalence).
pub fn holds(kind: SelectionKind, op: RelOp, intercept: f64, top: f64, bot: f64) -> bool {
    match (kind, op) {
        (SelectionKind::All, RelOp::Ge) => approx_le(intercept, bot),
        (SelectionKind::All, RelOp::Le) => approx_ge(intercept, top),
        (SelectionKind::Exist, RelOp::Ge) => approx_le(intercept, top),
        (SelectionKind::Exist, RelOp::Le) => approx_ge(intercept, bot),
    }
}

/// A query set whose slopes are members of `S`, without expected answers:
/// `durable_churn` answers them against a relation that keeps changing.
pub struct MemberSelection {
    pub sel: Selection,
    /// Index of the query's slope in `S`.
    pub slope: usize,
}

impl MemberSelection {
    /// Ids among `live` the oracle selects, ascending.
    pub fn expected<'a>(&self, live: impl IntoIterator<Item = (u32, &'a DualKeys)>) -> Vec<u32> {
        let hp = &self.sel.halfplane;
        let mut ids: Vec<u32> = live
            .into_iter()
            .filter(|(_, k)| {
                let (top, bot) = k.0[self.slope];
                holds(self.sel.kind, hp.op, hp.intercept, top, bot)
            })
            .map(|(id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// `2 · per_kind` selections (ALL first, then EXIST) whose slopes are
/// members of `S`, calibrated against `keys` to the paper's selectivity
/// band. Each intercept sits midway between two neighbouring surface
/// values, so no stored key falls in the f32 rounding band around it and
/// the restricted technique answers from keys alone.
pub fn member_selections(keys: &[DualKeys], per_kind: usize, seed: u64) -> Vec<MemberSelection> {
    let slopes = slope_set();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, STREAM_RESTRICTED));
    let n = keys.len();
    assert!(n >= 20, "relation too small to calibrate against");
    let mut out = Vec::with_capacity(2 * per_kind);
    for kind in [SelectionKind::All, SelectionKind::Exist] {
        for _ in 0..per_kind {
            let slope = rng.gen_range(0..K);
            let op = if rng.gen_bool(0.5) {
                RelOp::Ge
            } else {
                RelOp::Le
            };
            let share: f64 = rng.gen_range(SELECTIVITY.0..=SELECTIVITY.1);
            // The surface whose values the answer is a threshold set of.
            let use_top = matches!(
                (kind, op),
                (SelectionKind::All, RelOp::Le) | (SelectionKind::Exist, RelOp::Ge)
            );
            let mut values: Vec<f64> = keys
                .iter()
                .map(|k| if use_top { k.0[slope].0 } else { k.0[slope].1 })
                .collect();
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite surface values"));
            let want = ((n as f64 * share).round() as usize).clamp(1, n - 1);
            // q(≥) selects values ≥ b: the top `want`. q(≤): the bottom.
            let cut = if op == RelOp::Ge { n - want } else { want };
            let intercept = (values[cut - 1] + values[cut]) / 2.0;
            out.push(MemberSelection {
                sel: Selection {
                    kind,
                    halfplane: HalfPlane::new2d(slopes.get(slope), intercept, op),
                },
                slope,
            });
        }
    }
    out
}

/// [`member_selections`] with expected answers over a static relation
/// whose tuple ids are `0..keys.len()`.
pub fn restricted_queries(keys: &[DualKeys], per_kind: usize, seed: u64) -> Vec<Query> {
    member_selections(keys, per_kind, seed)
        .into_iter()
        .map(|m| Query {
            expected: m.expected(keys.iter().enumerate().map(|(i, k)| (i as u32, k))),
            sel: m.sel,
        })
        .collect()
}

/// `2 · per_kind` calibrated selections with random slopes (never members
/// of `S`), from the workload crate's generator, each with its answer from
/// `predicates::oracle_select`. Returns the set and the seconds spent
/// calibrating and evaluating the oracle.
pub fn t2_queries(tuples: &[GeneralizedTuple], per_kind: usize, seed: u64) -> (Vec<Query>, f64) {
    let t0 = Instant::now();
    let battery = QueryGen::new(sub_seed(seed, STREAM_T2)).battery(
        tuples,
        per_kind,
        SELECTIVITY.0,
        SELECTIVITY.1,
    );
    let sels: Vec<Selection> = battery
        .iter()
        .map(|q| Selection {
            kind: match q.kind {
                QueryKind::All => SelectionKind::All,
                QueryKind::Exist => SelectionKind::Exist,
            },
            halfplane: q.halfplane.clone(),
        })
        .collect();
    // One LP per (query, tuple): split over the cores, set-up only.
    let threads = crate::nproc().min(sels.len()).max(1);
    let chunk = sels.len().div_ceil(threads);
    let expected: Vec<Vec<u32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sels
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(|s| oracle(tuples, s)).collect()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| -> Vec<Vec<u32>> { h.join().expect("oracle thread") })
            .collect()
    });
    let queries = sels
        .into_iter()
        .zip(expected)
        .map(|(sel, expected)| Query { sel, expected })
        .collect();
    (queries, t0.elapsed().as_secs_f64())
}

/// Brute-force answer over a static relation with ids `0..tuples.len()`.
pub fn oracle(tuples: &[GeneralizedTuple], sel: &Selection) -> Vec<u32> {
    predicates::oracle_select(
        &sel.halfplane,
        sel.kind == SelectionKind::All,
        tuples.iter(),
    )
    .into_iter()
    .map(|i| i as u32)
    .collect()
}

/// The selection as constraint-SQL over relation `r`. `Display` for `f64`
/// is shortest-round-trip, so the parsed constraint is bit-equal.
pub fn sql_of(sel: &Selection) -> String {
    let hp = &sel.halfplane;
    let cmp = match hp.op {
        RelOp::Ge => ">=",
        RelOp::Le => "<=",
    };
    let kind = match sel.kind {
        SelectionKind::All => "ALL",
        SelectionKind::Exist => "EXIST",
    };
    // y θ a·x + b  ⇔  y − a·x θ b
    let a = hp.slope2d();
    let lhs = if a < 0.0 {
        format!("1*y + {}*x", -a)
    } else {
        format!("1*y - {a}*x")
    };
    format!("SELECT * FROM r WHERE {lhs} {cmp} {} {kind}", hp.intercept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = dataset(60, 5);
        assert_eq!(a, dataset(60, 5));
        assert_ne!(a, dataset(60, 6));
        let keys: Vec<DualKeys> = a.iter().map(|t| dual_keys(t, &slope_set())).collect();
        let q1 = restricted_queries(&keys, 4, 5);
        let q2 = restricted_queries(&keys, 4, 5);
        let q3 = restricted_queries(&keys, 4, 6);
        let sels = |qs: &[Query]| qs.iter().map(|q| q.sel.clone()).collect::<Vec<_>>();
        assert_eq!(sels(&q1), sels(&q2));
        assert_ne!(sels(&q1), sels(&q3));
        let (t1, _) = t2_queries(&a, 3, 5);
        let (t2, _) = t2_queries(&a, 3, 6);
        assert_ne!(sels(&t1), sels(&t2));
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
    }

    #[test]
    fn key_oracle_equals_predicate_oracle() {
        let tuples = dataset(300, 11);
        let slopes = slope_set();
        let keys: Vec<DualKeys> = tuples.iter().map(|t| dual_keys(t, &slopes)).collect();
        let queries = restricted_queries(&keys, 16, 11);
        assert_eq!(queries.len(), 32);
        for q in &queries {
            assert_eq!(q.expected, oracle(&tuples, &q.sel), "{:?}", q.sel);
            let share = q.expected.len() as f64 / tuples.len() as f64;
            assert!((0.09..=0.16).contains(&share), "selectivity {share}");
            assert!(slopes.position(q.sel.halfplane.slope2d()).is_some());
        }
    }

    #[test]
    fn t2_queries_carry_oracle_answers_in_band() {
        let tuples = dataset(200, 3);
        let (queries, _) = t2_queries(&tuples, 5, 3);
        assert_eq!(queries.len(), 10);
        let slopes = slope_set();
        for q in &queries {
            assert_eq!(q.expected, oracle(&tuples, &q.sel));
            assert!(slopes.position(q.sel.halfplane.slope2d()).is_none());
            let share = q.expected.len() as f64 / tuples.len() as f64;
            assert!((0.08..=0.17).contains(&share), "selectivity {share}");
        }
    }

    #[test]
    fn sql_text_names_the_same_half_plane() {
        let sel = Selection::exist(HalfPlane::below(-2.5, 7.25));
        assert_eq!(
            sql_of(&sel),
            "SELECT * FROM r WHERE 1*y + 2.5*x <= 7.25 EXIST"
        );
        let sel = Selection::all(HalfPlane::above(0.5, -3.0));
        assert_eq!(sql_of(&sel), "SELECT * FROM r WHERE 1*y - 0.5*x >= -3 ALL");
    }
}
