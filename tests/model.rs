//! One seeded model harness for every deployment shape.
//!
//! A seeded generator writes scripts of ops — relations created and dropped
//! at d ∈ {2, 3}; inserts (unbounded tuples, segments and points on a line,
//! tuples of the other dimension) and deletes; dual builds over slope sets
//! and slope points, R⁺ packs, and builds the engine must refuse; EXIST/ALL
//! selections under every strategy; line queries; single-constraint SQL
//! with and without `LIMIT`; `query_batch`; snapshot pins, checkpoints
//! and syncs — and drives them through `Api<B>`. One in-memory [`Model`]
//! predicts every answer (the brute-force predicate oracle over its live
//! `(id, tuple)`s), id (dense per incarnation of a relation), refusal and
//! plan case (from the indexes it knows usable: a write drops the
//! R⁺-tree). Nothing is compared with a second engine.
//!
//! The deployment [`Shape`] is the one parameter, each with its recovery
//! oracle: in memory, every answer is the model's; under a `FaultPager`
//! crashing at every op k, the file reopens only if a checkpoint committed,
//! to the model at the last one; under a seeded `FaultPlan::random` error
//! schedule, nothing panics, the file reopens if a checkpoint committed,
//! the heap holds the last checkpoint's tuples and every index answers as
//! the oracle over it; with the WAL armed and crashing at every WAL op k,
//! the recovered state is the model after a prefix between the acked and
//! the applied ops, and a failed sync leaves the synced LSN at the last
//! acked one; served over loopback, the answers are the in-memory
//! transcript. Snapshot pins are checked at the script's end, against the
//! model as it stood at each pin.
//!
//! Ops name a tuple by its rank among the live ones, never by id, so every
//! subsequence of a script is a script. A failure prints the seed, the
//! shape, the op index and a greedily minimised op list; to replay it, add
//! the seed to the test's seed list.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use cdb_prng::StdRng;
use constraint_db::geometry::{dual, parse::var_name, predicates};
use constraint_db::index::query::Strategy::{self, Auto, RPlus, Scan, T2};
use constraint_db::index::{ddim::SlopePoints, query::Side, slopes::StripEnd};
use constraint_db::index::{IndexKind, IndexSpec, PageSource, QueryResult, ReadSurface};
use constraint_db::index::{SlopeGeometry, Snapshot};
use constraint_db::net::client::Connection;
use constraint_db::net::server::{Server, ServerConfig};
use constraint_db::net::{Api, Backend, Client};
use constraint_db::prelude::*;
use constraint_db::storage::file::FilePager;
use constraint_db::storage::{wal_path, FaultPager, FaultPlan, WalFaultPlan};

// ------------------------------------------------------------------ ops

/// How an inserted tuple is drawn from its seed.
#[derive(Clone, Copy, Debug)]
enum Form {
    Small,
    Medium,
    Unbounded,
    /// The segment (`false`) or point (`true`) on line `j` of [`LINE_A`].
    OnLine(usize, bool),
    /// Tuple `j` of [`SPECIAL`].
    Special(usize),
    /// A tuple of the other dimension: refused.
    Foreign,
}

/// A query slope, resolved against the relation's dual index (or
/// `uniform_tan(4)` / a 3×3 grid where it has none).
#[derive(Clone, Copy, Debug)]
enum Slope {
    /// Member `i` of `S`.
    Member(usize),
    /// Sample `i` of the key columns' `C`: the ends of the handicap strips.
    Sample(usize),
    /// Just past max `S` (`true`) or min `S`, by 1e-6 relative.
    Past(bool),
    /// ±1e6: next to the vertical in 2-D, far outside the box in 3-D.
    Far(bool),
    Zero,
    Random(f64, f64),
    /// The slope of line `j` of [`LINE_A`].
    Line(usize),
}

/// A query intercept.
#[derive(Clone, Copy, Debug)]
enum Icpt {
    Random(f64),
    /// ±1e4: select all or none.
    Extreme(bool),
    /// One `f32` step up (`.2`) or down from the TOP (`.1`) or BOT key of
    /// the live tuple of rank `.0`, at the query slope: a member of `S`.
    Key(usize, bool, bool),
    /// The intercept of line `j` of [`LINE_C`].
    Line(usize),
}

#[derive(Clone, Copy, Debug)]
struct Probe(SelectionKind, RelOp, Slope, Icpt);

/// One op of a script, on relation `r0` … `r3` (which the ops of no
/// relation ignore).
type Step = (usize, Op);

#[derive(Clone, Debug)]
enum Op {
    Create(usize),
    Drop,
    /// `.2` tuples of form `.0`, from seeds `.1`, `.1 + 1`, ….
    Insert(Form, u64, usize),
    /// Deletes the live tuple of rank `.0`, or (`.1`) an id that is not live.
    Delete(usize, bool),
    Fetch(usize, bool),
    Build(IndexSpec),
    Query(Probe, Strategy),
    /// The line through the probe's slope and intercept.
    Line(Probe),
    /// SQL with an optional `LIMIT`, executed or (`.2`) `EXPLAIN ANALYZE`d.
    Sql(Probe, Option<usize>, bool),
    Batch(Vec<(Probe, Strategy)>),
    Pin,
    Checkpoint,
    Sync,
}

/// Lines `y = a·x + c` that tuples lie on and line queries ask for: at
/// `a = 0`, between members of `uniform_tan(4)`, past both ends of `S`.
const LINE_A: [f64; 7] = [0.0, 1.0, -1.3, 7.0, 120.0, -7.0, -1e3];
const LINE_C: [f64; 7] = [40.0, -10.0, 5.0, -60.0, 300.0, 80.0, 2e3];

const SPECIAL: [&str; 5] = [
    "y >= 2 && y <= 9",
    "x >= 5 && y >= x",
    "x <= -20 && y <= 0",
    "x >= 1 && x <= 3 && y >= x - 40",
    "y >= 0.5x + 3",
];

const STRATEGIES: [Strategy; 4] = [Auto, T2, Scan, RPlus];

fn tuple(dim: usize, form: Form, seed: u64) -> GeneralizedTuple {
    let size = [ObjectSize::Small, ObjectSize::Medium][matches!(form, Form::Medium) as usize];
    let mut g = TupleGen::new(seed, Rect::paper_window(), size);
    let text = match (dim, form) {
        (_, Form::Foreign) => return tuple(5 - dim, Form::Small, seed),
        (2, Form::Unbounded) => return g.unbounded_tuple(),
        (2, Form::OnLine(j, point)) => {
            let (a, c, x0) = (LINE_A[j % 7], LINE_C[j % 7], (seed % 13) as f64 - 6.0);
            let x1 = x0 + if point { 0.0 } else { 6.0 };
            format!("y = {a}x + {c} && x >= {x0} && x <= {x1}")
        }
        (2, Form::Special(j)) => SPECIAL[j % 5].into(),
        (2, _) => return g.bounded_tuple(),
        _ => {
            // A box in E^3; an unbounded one is open upward in z.
            let r = &mut StdRng::seed_from_u64(seed);
            let mut rows = Vec::new();
            for v in ["x", "y", "z"] {
                let (lo, width) = (r.gen_range(-40.0..35.0), r.gen_range(1.0..5.0));
                rows.push(format!("{v} >= {lo}"));
                if v != "z" || !matches!(form, Form::Unbounded) {
                    rows.push(format!("{v} <= {}", lo + width));
                }
            }
            rows.join(" && ")
        }
    };
    parse_tuple(&text).unwrap()
}

// ------------------------------------------------------------ generator

/// Draws one of `items`.
fn pick<T: Copy>(r: &mut StdRng, items: &[T]) -> T {
    items[r.gen_range(0..items.len())]
}

fn probe(r: &mut StdRng) -> Probe {
    let icpt = match r.gen_range(0..10u32) {
        0 => Icpt::Extreme(r.gen_bool(0.5)),
        1..=3 => Icpt::Key(r.gen_range(0..1000usize), r.gen_bool(0.5), r.gen_bool(0.5)),
        _ => Icpt::Random(r.gen_range(-60.0..60.0)),
    };
    // A key is stored at the members of `S` only.
    let slope = match (icpt, r.gen_range(0..11u32)) {
        (Icpt::Key(..), _) | (_, 0..=2) => Slope::Member(r.gen_range(0..9usize)),
        (_, 3) => Slope::Sample(r.gen_range(0..16usize)),
        (_, 4) => Slope::Past(r.gen_bool(0.5)),
        (_, 5) => Slope::Far(r.gen_bool(0.5)),
        (_, 6) => Slope::Zero,
        _ => Slope::Random(r.gen_range(-1.2..1.2), r.gen_range(-1.2..1.2)),
    };
    let kind = pick(r, &[SelectionKind::Exist, SelectionKind::All]);
    Probe(kind, pick(r, &[RelOp::Ge, RelOp::Le]), slope, icpt)
}

/// A line: one of the [`LINE_A`] lines, or a drawn slope at a random
/// intercept.
fn line(r: &mut StdRng) -> Probe {
    let (Probe(kind, op, slope, _), j) = (probe(r), r.gen_range(0..7usize));
    match r.gen_bool(0.5) {
        true => Probe(kind, op, slope, Icpt::Random(r.gen_range(-60.0..60.0))),
        false => Probe(kind, op, Slope::Line(j), Icpt::Line(j)),
    }
}

fn strategy(r: &mut StdRng) -> Strategy {
    pick(r, &[Auto, Auto, T2, T2, Scan, RPlus])
}

/// An index spec: slope sets (lopsided ones too), slope points of either
/// dimension, and R⁺ packs at fills the dispatcher takes or refuses.
fn spec(r: &mut StdRng, dim: usize) -> IndexSpec {
    let dim = if r.gen_bool(0.15) { 5 - dim } else { dim };
    let fill = pick(r, &[1.0, 0.8, 1.0, 0.8, 0.1, 1.5]);
    match r.gen_range(0..20u32) {
        0..=6 => IndexSpec::Dual(SlopeSet::uniform_tan(r.gen_range(2..6usize)).into()),
        7 | 8 => IndexSpec::Dual(SlopeSet::new(vec![0.5, 2.0]).into()),
        9..=13 => {
            let (per_axis, range) = (r.gen_range(2..4usize) + 3 - dim, pick(r, &[1.0, 2.0]));
            IndexSpec::Dual(SlopePoints::grid(dim, per_axis, range).into())
        }
        _ => IndexSpec::RPlus { fill },
    }
}

fn form(r: &mut StdRng) -> Form {
    match r.gen_range(0..20u32) {
        0..=9 => Form::Small,
        10..=12 => Form::Medium,
        13..=16 => Form::Unbounded,
        17 => Form::OnLine(r.gen_range(0..7usize), r.gen_bool(0.5)),
        18 => Form::Special(r.gen_range(0..5usize)),
        _ => Form::Foreign,
    }
}

/// One drawn op on `r0`, `r1` or now and then `r2`; `r3` is never created.
/// A crash script draws writes, syncs, checkpoints and queries only.
fn step(r: &mut StdRng, crash: bool, ops: &mut Vec<Step>) {
    let (rel, dim) = (
        [r.gen_range(0..2usize), 2][r.gen_bool(0.03) as usize],
        r.gen_range(2..4usize),
    );
    let n = [r.gen_range(1..3usize), 30][(!crash && r.gen_bool(0.1)) as usize];
    let limit = pick(r, &[None, Some(1), Some(5)]);
    let op = match r.gen_range(0..if crash { 60 } else { 100u32 }) {
        0 => return ops.push((3, Op::Create(0))),
        1..=3 => Op::Create(dim),
        4 => {
            ops.push((rel, Op::Drop));
            Op::Create(dim)
        }
        5..=18 => Op::Insert(form(r), r.next_u64(), n),
        19..=28 => Op::Delete(r.gen_range(0..1000usize), r.gen_bool(0.1)),
        29..=34 => Op::Build(spec(r, dim)),
        35..=37 => Op::Checkpoint,
        38..=43 => Op::Sync,
        60 | 61 => Op::Fetch(r.gen_range(0..1000usize), r.gen_bool(0.3)),
        62..=67 => Op::Line(line(r)),
        68..=76 => Op::Sql(probe(r), limit, r.gen_bool(0.2)),
        77..=79 => Op::Batch((0..6).map(|_| (probe(r), strategy(r))).collect()),
        80..=84 => Op::Pin,
        _ => Op::Query(probe(r), strategy(r)),
    };
    ops.push((rel, op));
}

/// What a script exercises, at what size; `self as usize` indexes the sizes.
#[derive(Clone, Copy, Debug)]
enum Profile {
    /// Short scripts of writes, syncs, checkpoints and queries, for the
    /// crash shapes.
    Small,
    /// Every op, on relations at d ∈ {2, 3}.
    Mixed,
}

impl Profile {
    fn script(self, seed: u64) -> Vec<Step> {
        let (r, small) = (&mut StdRng::seed_from_u64(seed), self as usize == 0);
        let n = [6, 40][self as usize];
        let mut ops = vec![(0, Op::Create(2)), (0, Op::Insert(Form::Small, seed, n))];
        if !small {
            // A segment or a point on each line that line queries ask for.
            let on = (0..7).map(|j| (0, Op::Insert(Form::OnLine(j, j % 2 == 1), seed, 1)));
            ops.extend(on);
        }
        // `r1` is dropped and re-created: its ids restart at 0.
        let tan3 = IndexSpec::Dual(SlopeSet::uniform_tan(3).into());
        ops.extend([
            (0, Op::Delete(seed as usize, false)),
            (0, Op::Build(tan3)),
            (1, Op::Create(3)),
            (1, Op::Insert(Form::Small, seed, 2)),
            (0, Op::Checkpoint),
            (1, Op::Drop),
            (1, Op::Create(2 + seed as usize % 2)),
            (1, Op::Insert(Form::Unbounded, seed, n / 4)),
            (3, Op::Build(IndexSpec::RPlus { fill: 1.5 })),
        ]);
        while ops.len() < [40, 240][self as usize] {
            step(r, small, &mut ops);
        }
        ops
    }
}

// ---------------------------------------------------------------- model

#[derive(Clone, Debug, Default)]
struct Table {
    dim: usize,
    /// The id the next insert is given: the inserts so far.
    next: u32,
    live: Vec<(u32, GeneralizedTuple)>,
    dual: Option<SlopeGeometry>,
    rplus: bool,
}

/// What an engine shows of a relation: not the id to come.
impl PartialEq for Table {
    fn eq(&self, o: &Table) -> bool {
        (self.dim, &self.live, &self.dual, self.rplus) == (o.dim, &o.live, &o.dual, o.rplus)
    }
}

/// Every relation, by name.
#[derive(Clone, Debug, Default, PartialEq)]
struct Model(BTreeMap<String, Table>);

/// A query's outcome as the wire carries it: ids and stats, or a refusal.
type Answer = Result<(Vec<u32>, QueryStats), String>;

/// What the model wants of an op: its outcome, or the refusal.
type Want<T> = Result<T, String>;

/// The answer the model wants: ids and the method that finds them.
type Ids = Want<(Vec<u32>, MethodKind)>;

/// Whether an op succeeded as the model predicts, or why the run stops.
type Settled = Result<bool, Stop>;

/// A check's outcome: what differs from the model, if anything.
type Verdict = Result<(), String>;

/// The refusal of an op on a relation that is not there.
const MISSING: &str = "RelationNotFound";

fn err<T>(refusal: &str) -> Result<T, String> {
    Err(refusal.into())
}

/// The leading identifier of a value's `Debug` text, under `NetError::Db`:
/// the name of a refusal or of a plan case.
fn tag(value: &impl Debug) -> String {
    let text = format!("{value:?}");
    let inner = text.strip_prefix("Db(").unwrap_or(&text);
    let mut words = inner.split(|c: char| !c.is_alphanumeric());
    words.next().unwrap().into()
}

fn answer(got: Result<QueryResult, impl Debug>) -> Answer {
    got.map(QueryResult::into_parts).map_err(|e| tag(&e))
}

/// Holds an answer to the model's: the ids by the method, every candidate
/// booked once (`rows + false hits + rejected by key + duplicates`) and,
/// unless it is a line's two halves, no duplicate on the dual index; or the
/// same refusal.
fn judge(got: &Answer, want: Ids, line: bool) -> Verdict {
    let ok = match (got, &want) {
        (Ok((ids, s)), Ok((w, m))) => {
            let booked = ids.len() as u64 + s.false_hits + s.rejected_by_key + s.duplicates;
            let dup_free = line || *m != MethodKind::Dual || s.duplicates == 0;
            ids == w && s.method == Some(*m) && s.candidates == booked && dup_free
        }
        (Err(e), Err(w)) => e == w,
        _ => false,
    };
    ok.then_some(())
        .ok_or_else(|| format!("got {got:?}, want {want:?}"))
}

impl Table {
    fn new(dim: usize) -> Table {
        Table {
            dim,
            ..Table::default()
        }
    }

    /// The slope set of the key columns, or `uniform_tan(4)`.
    fn set(&self) -> SlopeSet {
        match &self.dual {
            Some(SlopeGeometry::Set(s)) => s.clone(),
            _ => SlopeSet::uniform_tan(4),
        }
    }

    /// The members of `S`, points of `E^{d-1}`.
    fn members(&self) -> Vec<Vec<f64>> {
        match (&self.dual, self.dim) {
            (Some(SlopeGeometry::Points(p)), _) => p.as_slice().to_vec(),
            (None, 3) => SlopePoints::grid(3, 3, 1.0).as_slice().to_vec(),
            _ => self.set().as_slice().iter().map(|&a| vec![a]).collect(),
        }
    }

    /// The extent of `S` along each slope axis.
    fn bounds(&self) -> Vec<(f64, f64)> {
        let members = self.members();
        let extent = |j: usize| {
            let along = members.iter().map(|p| p[j]);
            along.fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)))
        };
        (0..self.dim - 1).map(extent).collect()
    }

    fn slope(&self, s: Slope) -> Vec<f64> {
        let (members, bounds, d, set) = (self.members(), self.bounds(), self.dim - 1, self.set());
        let member = |i: usize| members[i % members.len()].clone();
        let past = |(lo, hi): (f64, f64)| match s {
            Slope::Past(true) => hi + 1e-6 * hi.abs().max(1.0),
            _ => lo - 1e-6 * lo.abs().max(1.0),
        };
        let at = |(lo, hi): (f64, f64), w: f64| (lo + hi) / 2.0 + w * (hi - lo) / 2.0;
        match s {
            Slope::Member(i) => member(i),
            Slope::Sample(i) if d == 1 => {
                match set.mid(i / 2 % set.len(), [Side::Prev, Side::Next][i % 2]) {
                    StripEnd::Slope(a) => vec![a],
                    StripEnd::Swapped(t) => vec![if t == 0.0 { 1e6 } else { 1.0 / t }],
                }
            }
            // Midway between two points of a grid.
            Slope::Sample(i) => {
                let (p, q) = (member(i), member(i + 1));
                p.iter().zip(q).map(|(a, b)| (a + b) / 2.0).collect()
            }
            Slope::Past(_) => bounds.into_iter().map(past).collect(),
            Slope::Far(up) => vec![[-1e6, 1e6][up as usize]; d],
            Slope::Zero => vec![0.0; d],
            Slope::Random(u, v) if d == 1 => vec![u * if v.abs() > 1.0 { 20.0 } else { 3.0 }],
            Slope::Random(u, v) => vec![at(bounds[0], u), at(bounds[1], v)],
            Slope::Line(j) => vec![LINE_A[j % 7]; d],
        }
    }

    fn selection(&self, &Probe(kind, op, slope, icpt): &Probe) -> Selection {
        let slope = self.slope(slope);
        let b = match icpt {
            Icpt::Random(b) => b,
            Icpt::Extreme(up) => [-1e4, 1e4][up as usize],
            Icpt::Line(j) => LINE_C[j % 7],
            Icpt::Key(rank, top, up) => {
                let t = self.live.get(rank % self.live.len().max(1)).map(|(_, t)| t);
                let surface = if top { dual::top } else { dual::bot };
                match t.and_then(|t| surface(t, &slope)).filter(|k| k.is_finite()) {
                    Some(k) if up => f64::from((k as f32).next_up()),
                    Some(k) => f64::from((k as f32).next_down()),
                    None => 0.0,
                }
            }
        };
        let halfplane = HalfPlane::new(slope, b, op);
        Selection { kind, halfplane }
    }

    fn oracle(&self, sel: &Selection) -> Vec<u32> {
        let (all, live) = (sel.kind == SelectionKind::All, self.live.iter());
        let hits = predicates::oracle_select(&sel.halfplane, all, live.map(|(_, t)| t));
        hits.into_iter().map(|i| self.live[i].0).collect()
    }

    /// The method and plan case `strategy` runs `sel` with, or the refusal.
    fn plan(&self, sel: &Selection, strategy: Strategy) -> Want<(MethodKind, &'static str)> {
        let (slope, bounds) = (&sel.halfplane.slope, self.bounds());
        let within = |(&(lo, hi), v): (&(f64, f64), &f64)| lo <= *v && *v <= hi;
        let inside = bounds.iter().zip(slope).all(within);
        let case = self.dual.as_ref().map(|g| match g {
            SlopeGeometry::Set(s) if s.position(slope[0]).is_some() => Some("Member"),
            SlopeGeometry::Set(_) => Some("Between"),
            SlopeGeometry::Points(p) if p.position(slope).is_some() => Some("Member"),
            SlopeGeometry::Points(_) => inside.then_some("Cell"),
        });
        match (strategy, case) {
            (RPlus, _) if self.dim != 2 => err("UnsupportedQuery"),
            (RPlus, _) if !self.rplus => err("NoIndex"),
            (RPlus, _) => Ok((MethodKind::RPlus, "MbrSearch")),
            (T2, None) => err("NoIndex"),
            (T2, Some(None)) => err("UnsupportedQuery"),
            (T2 | Auto, Some(Some(case))) => Ok((MethodKind::Dual, case)),
            _ => Ok((MethodKind::SeqScan, "FullScan")),
        }
    }

    fn want(&self, sel: &Selection, strategy: Strategy) -> Ids {
        self.plan(sel, strategy)
            .map(|(method, _)| (self.oracle(sel), method))
    }

    /// The selections every strategy answers at a pin, the end or a
    /// recovery: eight draws of the generator.
    fn battery(&self) -> Vec<Selection> {
        let r = &mut StdRng::seed_from_u64(8);
        (0..8).map(|_| self.selection(&probe(r))).collect()
    }
}

impl Model {
    /// Where `seen` differs from the model, if it does.
    fn diff(&self, seen: &Model) -> Option<String> {
        let short = |m: &Model| -> Vec<_> {
            let row = |(n, t): (&String, &Table)| {
                (n.clone(), t.dim, t.live.len(), t.dual.is_some(), t.rplus)
            };
            m.0.iter().map(row).collect()
        };
        (self != seen).then(|| format!("state differs: {:?}, want {:?}", short(seen), short(self)))
    }
}

/// The state a read surface shows, as a model.
fn observe<P: PageSource>(s: &ReadSurface<P>) -> Result<Model, String> {
    let mut model = Model::default();
    for name in s.relation_names() {
        let rel = s.relation(&name).map_err(|e| tag(&e))?;
        let mut t = Table::new(rel.dim());
        let live = s.scan_relation(&name);
        t.live = live.map_err(|e| format!("scan {name}: {e}"))?;
        t.live.sort_by_key(|(id, _)| *id);
        if let Some(i) = rel.usable(IndexKind::Dual).and(rel.index()) {
            let set = i.slopes().cloned().map(SlopeGeometry::Set);
            t.dual = set.or(i.points().cloned().map(SlopeGeometry::Points));
        }
        t.rplus = rel.usable(IndexKind::RPlus).is_some();
        model.0.insert(name, t);
    }
    Ok(model)
}

/// Holds a read surface to `want`: its relations, live tuples and usable
/// indexes, and every strategy's answers to the battery. Returns the
/// answers checked.
fn holds<P: PageSource>(s: &ReadSurface<P>, want: &Model) -> Result<usize, String> {
    if let Some(diff) = want.diff(&observe(s)?) {
        return Err(diff);
    }
    let mut checked = 0;
    for (name, t) in &want.0 {
        let battery = t.battery();
        for (sel, strategy) in battery.iter().flat_map(|sel| STRATEGIES.map(|s| (sel, s))) {
            let got = answer(s.query_with(name, sel.clone(), strategy));
            let verdict = judge(&got, t.want(sel, strategy), false);
            verdict.map_err(|e| format!("battery: {name}: {strategy:?} {sel:?}: {e}"))?;
            checked += 1;
        }
    }
    Ok(checked)
}

// ---------------------------------------------------------------- shapes

#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    InMemory,
    PagerCrash,
    PagerFaults,
    WalCrash,
    Served,
}

/// A backend the harness drives, with the in-process engine behind it,
/// where there is one, for what the wire does not carry: batches, pins,
/// plans and syncs.
trait Driven: Backend {
    fn engine(&mut self) -> Option<&mut ConstraintDb>;
}

impl Driven for ConstraintDb {
    fn engine(&mut self) -> Option<&mut ConstraintDb> {
        Some(self)
    }
}

impl Driven for Connection {
    fn engine(&mut self) -> Option<&mut ConstraintDb> {
        None
    }
}

/// A database file in the temp dir, removed with its `.wal` sidecar when
/// dropped — by a failing check's unwinding too.
struct TempDb(PathBuf);

impl TempDb {
    fn new(shape: Shape) -> TempDb {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("cdb_model_{shape:?}_{}_{n}", std::process::id());
        TempDb(std::env::temp_dir().join(name))
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(wal_path(&self.0));
    }
}

/// What runs checked: the answers the wire carries, in order, and counts of
/// what was exercised.
#[derive(Default)]
struct Report {
    transcript: Vec<String>,
    ops: usize,
    checked: usize,
    seen: BTreeMap<String, usize>,
}

impl Report {
    fn saw(&mut self, what: impl Into<String>) {
        *self.seen.entry(what.into()).or_default() += 1;
    }

    fn merge(&mut self, other: Report) {
        (self.ops, self.checked) = (self.ops + other.ops, self.checked + other.checked);
        for (what, n) in other.seen {
            *self.seen.entry(what).or_default() += n;
        }
    }
}

/// Why a script stopped: the shape's fault fired, or a check failed.
enum Stop {
    Fault,
    Fail(String),
}

impl From<String> for Stop {
    fn from(why: String) -> Stop {
        Stop::Fail(why)
    }
}

/// The WAL shape's ledger: LSNs applied and acknowledged, and the model
/// after each mutation applied.
#[derive(Default)]
struct Ledger {
    lsn: u64,
    acked_lsn: u64,
    /// The acked LSN before the last checkpoint, whose log truncation may
    /// have crashed unseen.
    before_checkpoint: Option<u64>,
    history: Vec<Model>,
    acked: usize,
}

/// One script's run: the backend, the model, and what the shape's
/// recovery oracle needs.
struct Drive<B: Driven> {
    api: Api<B>,
    shape: Shape,
    model: Model,
    pins: Vec<(Snapshot, Model)>,
    report: Report,
    /// A random fault fired: the model no longer knows the state.
    blind: bool,
    /// The op runs on the in-process engine only: no part of the transcript.
    local: bool,
    /// The engine took a write since the last checkpoint.
    dirty: bool,
    /// A checkpoint committed a write: the file must reopen.
    any_commit: bool,
    /// The state of the last committed checkpoint: the model's, or after
    /// random faults the one the engine showed, when it could be read.
    committed: Option<Model>,
    ledger: Option<Ledger>,
}

impl<B: Driven> Drive<B> {
    fn new(api: Api<B>, shape: Shape) -> Self {
        let history = vec![Model::default()];
        let ledger = (shape == Shape::WalCrash).then(|| Ledger {
            history,
            ..Ledger::default()
        });
        Drive {
            api,
            shape,
            ledger,
            model: Model::default(),
            pins: Vec::new(),
            report: Report::default(),
            blind: false,
            local: false,
            dirty: false,
            any_commit: false,
            committed: None,
        }
    }

    fn faulty(&self) -> bool {
        matches!(
            self.shape,
            Shape::PagerCrash | Shape::PagerFaults | Shape::WalCrash
        )
    }

    /// Runs the script: whether the shape's fault fired, or the failing op's
    /// index and the mismatch.
    fn run(&mut self, ops: &[Step]) -> Result<bool, (Option<usize>, String)> {
        if let (Some(ledger), Some(db)) = (&mut self.ledger, self.api.0.engine()) {
            (ledger.lsn, ledger.acked_lsn) = (db.applied_lsn(), db.wal_synced_lsn());
        }
        for (i, (rel, op)) in ops.iter().enumerate() {
            self.report.ops += 1;
            self.local = matches!(op, Op::Batch(..) | Op::Pin | Op::Sync);
            match self.exec(format!("r{rel}"), op) {
                Ok(()) => {}
                Err(Stop::Fault) => return Ok(true),
                Err(Stop::Fail(why)) => return Err((Some(i), format!("{}: {why}", tag(op)))),
            }
        }
        if !self.faulty() {
            self.check_pins().map_err(|why| (None, why))?;
            // The pins never perturbed the writer.
            if let Some(db) = self.api.0.engine() {
                self.report.checked += holds(&**db, &self.model).map_err(|why| (None, why))?;
            }
        }
        Ok(false)
    }

    /// Settles an outcome and the model's verdict on it: in a faulty shape
    /// a mismatch that is an error is the fault; any other mismatch fails
    /// the run. `Ok(true)` when the op succeeded as predicted.
    fn settle<T: Debug>(&mut self, got: &Result<T, String>, verdict: Verdict) -> Settled {
        match verdict {
            _ if self.blind => Ok(false),
            Ok(()) => {
                self.report.checked += 1;
                if let Err(e) = got {
                    self.report.saw(e);
                }
                if !self.local {
                    self.report.transcript.push(format!("{got:?}"));
                }
                Ok(got.is_ok())
            }
            Err(why) if got.is_ok() || !self.faulty() => Err(Stop::Fail(why)),
            Err(_) if self.shape == Shape::PagerFaults => {
                self.blind = true;
                Ok(false)
            }
            Err(_) => Err(Stop::Fault),
        }
    }

    /// Settles an outcome the model predicts whole.
    fn expect<T: Debug + PartialEq>(
        &mut self,
        got: Result<T, impl Debug>,
        want: Want<T>,
    ) -> Settled {
        let got = got.map_err(|e| tag(&e));
        let verdict = match got == want {
            true => Ok(()),
            false => Err(format!("got {got:?}, want {want:?}")),
        };
        self.settle(&got, verdict)
    }

    /// Settles a write's outcome; where it succeeded as predicted, applies
    /// it to the model and books it.
    fn write<T: Debug + PartialEq, R>(
        &mut self,
        got: Result<T, impl Debug>,
        want: Want<T>,
        what: &str,
        apply: impl FnOnce(&mut BTreeMap<String, Table>) -> R,
    ) -> Result<(), Stop> {
        self.dirty |= got.is_ok();
        if self.expect(got, want)? {
            apply(&mut self.model.0);
            self.report.saw(what);
            if let Some(ledger) = &mut self.ledger {
                ledger.lsn += 1;
                ledger.history.push(self.model.clone());
            }
        }
        Ok(())
    }

    /// Settles an answer to `sel`, or (`line`) to the line through it, and
    /// holds the `Auto` plan of `sel` to the model's.
    fn answered(
        &mut self,
        name: &str,
        sel: &Selection,
        got: &Answer,
        want: Ids,
        line: bool,
    ) -> Settled {
        let verdict = judge(got, want, line).and_then(|()| match got {
            Ok(_) => self.plan_case(name, sel),
            Err(_) => Ok(()),
        });
        self.settle(got, verdict.map_err(|e| format!("{sel:?}: {e}")))
    }

    fn exec(&mut self, name: String, op: &Op) -> Result<(), Stop> {
        let known = self.model.0.get(&name).cloned();
        let t = known.clone().unwrap_or(Table::new(2));
        match op {
            Op::Create(dim) => {
                let want = match &known {
                    Some(_) => err("RelationExists"),
                    None if *dim == 0 => err("DimensionOutOfRange"),
                    None => Ok(()),
                };
                let got = self.api.create_relation(&name, *dim as u32);
                self.write(got, want, "create", |m| {
                    m.insert(name.clone(), Table::new(*dim))
                })?;
            }
            Op::Drop => {
                let want = known.as_ref().map_or(err(MISSING), |_| Ok(()));
                let got = self.api.drop_relation(&name);
                self.write(got, want, "drop", |m| m.remove(&name))?;
            }
            Op::Insert(form, seed, n) => {
                for seed in (0..*n as u64).map(|i| seed.wrapping_add(i)) {
                    let t = self.model.0.get(&name);
                    let tuple = tuple(t.map_or(2, |t| t.dim), *form, seed);
                    let want = match t {
                        None => err(MISSING),
                        Some(_) if matches!(form, Form::Foreign) => err("DimensionMismatch"),
                        Some(t) => Ok(t.next),
                    };
                    let got = self.api.insert(&name, tuple.clone());
                    self.write(got, want, "insert", |m| {
                        let t = m.get_mut(&name).unwrap();
                        t.live.push((t.next, tuple));
                        (t.next, t.rplus) = (t.next + 1, false);
                    })?;
                }
            }
            Op::Delete(rank, gone) | Op::Fetch(rank, gone) => {
                let live = t.live.get(rank % t.live.len().max(1)).filter(|_| !gone);
                let want = match (live, &known) {
                    (_, None) => err(MISSING),
                    (Some((_, tuple)), _) => Ok(tuple.clone()),
                    (None, _) => err("NoSuchTuple"),
                };
                // Else an id deleted before, or the next one.
                let id = live.map_or_else(
                    || {
                        let dead = (0..=t.next).filter(|id| t.live.iter().all(|(l, _)| l != id));
                        dead.cycle().nth(*rank).unwrap()
                    },
                    |(id, _)| *id,
                );
                if let Op::Fetch(..) = op {
                    let got = self.api.fetch_tuple(&name, id);
                    self.expect(got, want)?;
                } else {
                    let got = self.api.delete(&name, id);
                    self.write(got, want, "delete", |m| {
                        let t = m.get_mut(&name).unwrap();
                        t.live.retain(|(live, _)| *live != id);
                        t.rplus = false;
                    })?;
                }
            }
            Op::Build(spec) => {
                let dim = |g: &SlopeGeometry| match g {
                    SlopeGeometry::Set(_) => 2,
                    SlopeGeometry::Points(p) => p.dim(),
                };
                let want = match spec {
                    IndexSpec::RPlus { fill } if !(0.5..=1.0).contains(fill) => err("Malformed"),
                    _ if known.is_none() => err(MISSING),
                    IndexSpec::RPlus { .. } if t.dim != 2 => err("UnsupportedQuery"),
                    IndexSpec::Dual(g) if dim(g) != t.dim => err("DimensionMismatch"),
                    _ => Ok(()),
                };
                let got = self.api.build_index(&name, spec.clone());
                self.write(got, want, "build", |m| {
                    let t = m.get_mut(&name).unwrap();
                    match spec {
                        IndexSpec::Dual(g) => t.dual = Some(g.clone()),
                        IndexSpec::RPlus { .. } => t.rplus = true,
                    }
                })?;
            }
            Op::Query(p, strategy) => {
                let sel = t.selection(p);
                let got = answer(self.api.query(&name, sel.clone(), *strategy));
                let want = known
                    .as_ref()
                    .map_or(err(MISSING), |t| t.want(&sel, *strategy));
                if self.answered(&name, &sel, &got, want, false)? {
                    let (ids, stats) = got.unwrap();
                    self.report
                        .saw(format!("{strategy:?} {:?}", stats.method.unwrap()));
                    if matches!(p.3, Icpt::Extreme(_)) && [0, t.live.len()].contains(&ids.len()) {
                        self.report.saw("all or none");
                    }
                }
            }
            Op::Line(p) => {
                // At the relation's own slopes and keys, where it is 2-D.
                let half = [&t, &Table::new(2)][(t.dim != 2) as usize].selection(p);
                let (kind, a, c) = (half.kind, half.halfplane.slope[0], half.halfplane.intercept);
                let got = answer(self.api.query_line(&name, kind, a, c));
                let on = |t: &&(u32, GeneralizedTuple)| match kind {
                    SelectionKind::Exist => predicates::exist_hyperplane(&[a], c, &t.1),
                    SelectionKind::All => predicates::all_hyperplane(&[a], c, &t.1),
                };
                // A line's two halves are planned as their selections are.
                let want = match &known {
                    None => err(MISSING),
                    Some(t) if t.dim != 2 => err("DimensionMismatch"),
                    Some(t) => {
                        let ids = t.live.iter().filter(on).map(|(id, _)| *id).collect();
                        t.plan(&half, Auto).map(|(method, _)| (ids, method))
                    }
                };
                if self.answered(&name, &half, &got, want, true)? && !got.unwrap().0.is_empty() {
                    self.report.saw(format!("{kind:?} line hit"));
                }
            }
            Op::Sql(p, limit, analyze) => {
                let sel = t.selection(p);
                let hp = &sel.halfplane;
                let terms: String = (hp.slope.iter().enumerate())
                    .map(|(i, a)| format!(" + {a}*{}", var_name(i)))
                    .collect();
                let cmp = [">=", "<="][(hp.op == RelOp::Le) as usize];
                let kind = ["EXIST", "ALL"][(sel.kind == SelectionKind::All) as usize];
                let cut = limit.map_or(String::new(), |n| format!(" LIMIT {n}"));
                let y = var_name(t.dim - 1);
                let text = format!(
                    "SELECT * FROM {name} WHERE {y} {cmp} {}{terms} {kind}{cut}",
                    hp.intercept
                );
                let mode = [SqlMode::Execute, SqlMode::ExplainAnalyze][*analyze as usize];
                let got = self.api.sql(&text, mode).map_err(|e| tag(&e));
                let want = known.as_ref().map_or(err(MISSING), |t| Ok(t.oracle(&sel)));
                let full = want.as_ref().map_or(0, Vec::len);
                // A LIMIT keeps the lowest ids, in order.
                let rows = got.as_ref().map_err(Clone::clone).map(|o| {
                    let mut rows: Vec<u32> = o.rows.iter().map(|row| row.ids[0]).collect();
                    rows.sort_unstable_by_key(|id| limit.map_or(*id, |_| 0));
                    rows
                });
                // EXPLAIN ANALYZE executes the plan; under a LIMIT its scan
                // may stop early, so its count is no answer's.
                let plan = got.ok().and_then(|o| o.plan).unwrap_or_default();
                let counted = |n: usize| limit.is_some() || plan.contains(&format!(" {n} rows\n"));
                let ok = match (&rows, &want) {
                    (Ok(_), Ok(ids)) if *analyze => plan.contains("method=") && counted(ids.len()),
                    (Ok(rows), Ok(ids)) => *rows == ids[..full.min(limit.unwrap_or(full))],
                    (Err(e), Err(w)) => e == w,
                    _ => false,
                };
                let verdict = ok.then_some(());
                let verdict =
                    verdict.ok_or_else(|| format!("{text}, got {rows:?} {plan}, want {want:?}"));
                if self.settle(&rows, verdict)? && limit.is_some_and(|n| n < full) {
                    self.report.saw("limit cut");
                }
            }
            Op::Batch(probes) => {
                let Some(db) = self.api.0.engine() else {
                    return Ok(());
                };
                let batch: Vec<_> = probes.iter().map(|(p, s)| (t.selection(p), *s)).collect();
                let one = |(sel, s): &(Selection, Strategy)| {
                    answer(db.query_with(&name, sel.clone(), *s))
                };
                let alone: Vec<Answer> = batch.iter().map(one).collect();
                let batched =
                    [1, 3, 8].map(|threads| match db.query_batch(&name, &batch, threads) {
                        Ok(results) => results.into_iter().map(answer).collect(),
                        Err(e) => vec![err(&tag(&e)); batch.len()],
                    });
                // Each query alone answers as the model says; a batch as its
                // queries alone, at any thread count.
                for (got, (sel, s)) in alone.iter().zip(&batch) {
                    let want = known.as_ref().map_or(err(MISSING), |t| t.want(sel, *s));
                    self.answered(&name, sel, got, want, false)?;
                }
                for (got, threads) in batched.iter().zip([1, 3, 8]) {
                    let verdict = (*got == alone).then_some(());
                    let why =
                        || format!("{threads} threads: {got:?} ≠ the queries alone {alone:?}");
                    self.settle(&Ok::<_, String>(()), verdict.ok_or_else(why))?;
                }
            }
            Op::Pin => {
                let Some(db) = self.api.0.engine() else {
                    return Ok(());
                };
                let got = db.snapshot();
                if self.expect(got.as_ref().map(drop), Ok(()))? {
                    self.pins.push((got.unwrap(), self.model.clone()));
                }
            }
            Op::Checkpoint => {
                let got = self.api.checkpoint();
                // A checkpoint of a clean state commits nothing and leaves
                // the log alone.
                if got.is_ok() && self.dirty {
                    let seen = self.api.0.engine().and_then(|db| observe(&**db).ok());
                    let faults = self.shape == Shape::PagerFaults;
                    let model = Some(self.model.clone());
                    self.committed = if faults { seen } else { model };
                    (self.dirty, self.any_commit) = (false, true);
                    self.report.saw("checkpoint");
                    if let Some(l) = &mut self.ledger {
                        l.before_checkpoint = Some(l.acked_lsn);
                        (l.acked_lsn, l.acked) = (l.lsn, l.history.len() - 1);
                    }
                }
                if self.expect(got, Ok(()))? {
                    let names = self.api.relations();
                    self.expect(names, Ok(self.model.0.keys().cloned().collect()))?;
                }
            }
            Op::Sync => {
                let Some(db) = self.api.0.engine() else {
                    return Ok(());
                };
                let (got, synced) = (db.wal_sync(), db.wal_synced_lsn());
                if let Some(l) = &mut self.ledger {
                    if got.is_ok() {
                        (l.acked_lsn, l.acked, l.before_checkpoint) =
                            (l.lsn, l.history.len() - 1, None);
                    } else if synced != l.acked_lsn && Some(synced) != l.before_checkpoint {
                        let acked = l.acked_lsn;
                        Err(format!(
                            "a failed sync moved the synced LSN: {synced}, not {acked}"
                        ))?;
                    }
                }
                self.expect(got, Ok(()))?;
            }
        }
        Ok(())
    }

    /// On an in-process engine, holds the `Auto` plan of `sel` to the model's.
    fn plan_case(&mut self, name: &str, sel: &Selection) -> Verdict {
        let Some(db) = self.api.0.engine() else {
            return Ok(());
        };
        let plan = db.plan_query(name, sel);
        let got = plan.map(|plan| (plan.method, tag(&plan.case)));
        let want = self.model.0[name].plan(sel, Auto);
        match (got, want) {
            (Ok(got), Ok(want)) if got == (want.0, want.1.to_string()) => {
                self.report.saw(want.1);
                Ok(())
            }
            (got, want) => Err(format!("planned {got:?}, want {want:?}")),
        }
    }

    /// Holds every pin to the model as it stood at the pin, then lets them go.
    fn check_pins(&mut self) -> Verdict {
        for (i, (snap, model)) in std::mem::take(&mut self.pins).iter().enumerate() {
            self.report.checked += holds(snap, model).map_err(|e| format!("pin: {i}: {e}"))?;
            self.report.saw("pin");
        }
        Ok(())
    }
}

// ------------------------------------------------------------ the runs

/// Where and why a run failed: crash point or fault schedule, op index.
struct Failure(Option<u64>, Option<usize>, String);

/// Runs one script in one shape.
fn run(shape: Shape, ops: &[Step]) -> Result<Report, Failure> {
    let cfg = DbConfig::paper_1999();
    let fail = |k| move |(at, why)| Failure(k, at, why);
    match shape {
        Shape::InMemory => {
            let mut drive = Drive::new(Api(ConstraintDb::in_memory(cfg)), shape);
            drive.run(ops).map(|_| drive.report).map_err(fail(None))
        }
        Shape::Served => {
            let local = run(Shape::InMemory, ops)?;
            let db = ConstraintDb::in_memory(cfg);
            let server = Server::bind("127.0.0.1:0", db, ServerConfig::default()).unwrap();
            let (addr, stop) = (server.local_addr(), server.shutdown_handle());
            let thread = std::thread::spawn(move || server.run().map(drop));
            let mut served = Drive::new(Client::connect(addr).unwrap(), shape);
            let outcome = served.run(ops);
            stop.shutdown();
            thread.join().unwrap().unwrap();
            outcome.map_err(fail(None))?;
            let (got, want) = (&served.report.transcript, &local.transcript);
            match got.iter().zip(want).position(|(g, w)| g != w) {
                None if got.len() == want.len() => {
                    served.report.merge(local);
                    Ok(served.report)
                }
                at => Err(Failure(
                    None,
                    at,
                    format!("served transcript differs: {got:?}"),
                )),
            }
        }
        _ => {
            let mut total = Report::default();
            for k in 1.. {
                let file = TempDb::new(shape);
                let pager = |plan| {
                    let pager =
                        FaultPager::new(FilePager::create(&file.0, cfg.page_size).unwrap(), plan);
                    ConstraintDb::with_pager(Box::new(pager), cfg)
                };
                let db = match shape {
                    Shape::PagerCrash => pager(FaultPlan::new().crash_at(k)),
                    Shape::PagerFaults => pager(FaultPlan::random(k, 400, 0.04)),
                    _ => {
                        let mut db = ConstraintDb::create(&file.0, cfg).unwrap();
                        assert!(db.begin_wal().unwrap(), "a file-backed engine arms the log");
                        db.set_wal_fault_plan(WalFaultPlan::new().crash_at(k));
                        db
                    }
                };
                let mut drive = Drive::new(Api(db), shape);
                let faulted = drive.run(ops).map_err(fail(Some(k)))?;
                let (committed, ledger) = (drive.committed.take(), drive.ledger.take());
                let any_commit = drive.any_commit;
                total.merge(std::mem::take(&mut drive.report));
                drop(drive); // a crash: no close
                let db = ConstraintDb::open(&file.0).map_err(|e| e.to_string());
                let checked = recovered(db, shape, any_commit, committed, ledger);
                total.checked += checked.map_err(|why| Failure(Some(k), None, why))?;
                if [!faulted, k == 12][(shape == Shape::PagerFaults) as usize] {
                    total.seen.insert(format!("{shape:?} runs"), k as usize);
                    return Ok(total);
                }
            }
            unreachable!()
        }
    }
}

/// The recovery oracles of the faulty shapes, over the reopened engine.
fn recovered(
    db: Result<ConstraintDb, String>,
    shape: Shape,
    any_commit: bool,
    committed: Option<Model>,
    ledger: Option<Ledger>,
) -> Result<usize, String> {
    let db = match db {
        Ok(db) => db,
        // A catalog commit is never lost, and an armed log always opens.
        Err(e) if any_commit || ledger.is_some() => return Err(format!("open: {e}")),
        Err(_) => return Ok(0),
    };
    match ledger {
        // Replay keeps every acked mutation, and none but applied ones.
        Some(ledger) => {
            let prefixes = &ledger.history[ledger.acked..];
            match prefixes.iter().find_map(|m| holds(&*db, m).ok()) {
                Some(checked) if db.recovery_report().is_clean() => Ok(checked),
                _ => {
                    let diff = observe(&*db).map(|m| prefixes[0].diff(&m));
                    Err(format!("no acked prefix recovered: {diff:?}"))
                }
            }
        }
        // After random faults the heap is the truth the indexes answer, and
        // it holds the tuples of the last checkpoint.
        None if shape == Shape::PagerFaults => {
            let seen = observe(&*db)?;
            let live = |m: &Model| -> Vec<_> {
                m.0.iter()
                    .map(|(n, t)| (n.clone(), t.live.clone()))
                    .collect()
            };
            match committed {
                Some(want) if live(&want) != live(&seen) => {
                    Err(format!("not the last checkpoint: {:?}", want.diff(&seen)))
                }
                _ => holds(&*db, &seen),
            }
        }
        // A file no checkpoint committed does not open.
        None => match committed {
            Some(want) => holds(&*db, &want),
            None => Err("reopened with no committed checkpoint".into()),
        },
    }
}

/// What a failure says up to its first colon: a shorter script replaces the
/// failing one only when it fails alike.
fn gist(why: &str) -> &str {
    why.split(':').next().unwrap()
}

/// Drops ops while the script still fails alike: halves, quarters, …,
/// single ops.
fn minimise(shape: Shape, mut ops: Vec<Step>, failure: &str) -> Vec<Step> {
    let fails = |ops: &[Step]| match catch_unwind(AssertUnwindSafe(|| run(shape, ops))) {
        Ok(Ok(_)) => false,
        Ok(Err(Failure(_, _, why))) => gist(&why) == gist(failure),
        Err(_) => failure == "panicked",
    };
    let mut chunk = ops.len().div_ceil(2);
    while chunk > 0 {
        let mut at = 0;
        while at < ops.len() {
            let trial: Vec<Step> = [&ops[..at], &ops[(at + chunk).min(ops.len())..]].concat();
            match fails(&trial) {
                true => ops = trial,
                false => at += chunk,
            }
        }
        chunk /= 2;
    }
    ops
}

/// Runs each seed's script in `shape`; a failure panics with the seed, the
/// shape, the op index and the minimised script.
fn check(shape: Shape, profile: Profile, seeds: &[u64]) -> Report {
    let (mut total, started) = (Report::default(), std::time::Instant::now());
    for &seed in seeds {
        let ops = profile.script(seed);
        let (why, at) = match catch_unwind(AssertUnwindSafe(|| run(shape, &ops))) {
            Ok(Ok(report)) => {
                total.merge(report);
                continue;
            }
            Ok(Err(Failure(k, at, why))) => (why, format!("crash point {k:?}, op {at:?}")),
            Err(panic) => (
                "panicked".into(),
                format!("{:?}", panic.downcast_ref::<String>()),
            ),
        };
        let small = minimise(shape, ops, &why);
        let small: String = small.iter().map(|op| format!("\n  {op:?}")).collect();
        panic!("seed {seed:#x}, shape {shape:?}, {at}: {why}\nminimised:{small}");
    }
    let (ops, checked, seen, took) = (total.ops, total.checked, &total.seen, started.elapsed());
    println!("{shape:?} {profile:?}: {ops} ops, {checked} answers checked in {took:?}, {seen:?}");
    total
}

/// Asserts that the runs exercised each of the comma-separated `wanted`.
fn exercised(report: &Report, wanted: &str) {
    for what in wanted.split(", ") {
        let seen = &report.seen;
        assert!(seen.contains_key(what), "no run exercised {what}: {seen:?}");
    }
}

/// The in-memory run is held to the model op by op, and the served run's
/// transcript to the in-memory one.
#[test]
fn served_answers_give_the_in_memory_transcript() {
    let seeds = [0x5EED, 0xFACE, 0xA11CE, 0xB0B, 0xD3];
    let report = check(Shape::Served, Profile::Mixed, &seeds);
    exercised(&report, "Member, Between, Cell, FullScan, RPlus RPlus, pin");
    exercised(
        &report,
        "all or none, limit cut, Exist line hit, All line hit",
    );
    let refused = "RelationNotFound, RelationExists, DimensionOutOfRange, DimensionMismatch, \
        NoSuchTuple, NoIndex, UnsupportedQuery, Malformed";
    exercised(&report, refused);
}

#[test]
fn pager_crash_at_every_op_recovers_the_last_checkpoint() {
    let report = check(Shape::PagerCrash, Profile::Small, &[0x11]);
    exercised(&report, "delete, build, drop, checkpoint");
    assert!(report.seen["PagerCrash runs"] > 100, "a real matrix");
}

#[test]
fn random_pager_faults_never_panic_and_reopen_cleanly() {
    let report = check(Shape::PagerFaults, Profile::Small, &[0x21, 0x22]);
    exercised(&report, "delete, build, checkpoint");
}

#[test]
fn wal_crash_at_every_op_recovers_an_acked_prefix() {
    let report = check(Shape::WalCrash, Profile::Small, &[0x31, 0x32]);
    exercised(&report, "delete, build, drop, checkpoint");
    assert!(report.seen["WalCrash runs"] > 40, "a real matrix");
}
