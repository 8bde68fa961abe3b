//! The dual keys a 2-D index holds for each tuple, as in-memory columns,
//! and the decision they make on their own (Section 2: `TOP_P` is convex
//! and `BOT_P` concave in the slope).
//!
//! [`KeyColumns`] is an id-indexed copy of the keys of a 2-D
//! [`DualIndex`](super::DualIndex): per id, `TOP_P` then `BOT_P` at every
//! slope of `S`, as the same `f32` the trees store. It is derived, never
//! persisted: the index build fills it, every insert writes one row and
//! every delete clears one, and at open the verification walk reads it off
//! the leaves. Rows live in fixed-size chunks behind an `Arc` each, so a
//! clone (a published snapshot) copies no key and a later write copies the
//! one chunk it touches.
//!
//! [`KeyBracket`] bounds the surface a selection compares with its
//! intercept `b` at the query slope `a`, from a row's keys alone. For a
//! convex `f` sampled at `s₀ < … < s_{k−1}` and `sᵢ ≤ a ≤ sᵢ₊₁`, the chord
//! through the samples at `sᵢ` and `sᵢ₊₁` lies above `f` at `a`, and the
//! neighbouring chords, extended to `a`, lie below it; a concave `f` is the
//! mirror case. Every bound is a linear form in at most two keys, so its
//! weights are worked out once per query and a candidate costs a few
//! multiply-adds. A slope outside `[s₀, s_{k−1}]` is bracketed in the frame
//! swapped through the vertical, `t = 1/a`, where the tuple's surfaces are
//! `TOP′(t) = max(x − t·y)` (convex) and `BOT′(t) = min(x − t·y)`
//! (concave): `TOP′(1/s) = −BOT(s)/s` for `s > 0` and `−TOP(s)/s` for
//! `s < 0`, and `BOT′` the other way round.

use std::sync::Arc;

use cdb_btree::key_slack;
use cdb_geometry::constraint::RelOp;
use cdb_geometry::scalar::EPS;

use crate::query::{Selection, SelectionKind};

/// Rows per chunk: the most one write after a publish copies.
const CHUNK_ROWS: usize = 256;

/// The dual keys of a 2-D index per tuple id; see the module docs.
#[derive(Clone, Debug)]
pub(crate) struct KeyColumns {
    /// The slopes of `S`, ascending.
    slopes: Arc<[f64]>,
    /// `CHUNK_ROWS` rows of `2k` keys each; `NaN` where no row was written.
    chunks: Vec<Arc<Vec<f32>>>,
}

impl KeyColumns {
    /// Columns over the slopes of `S` (ascending), holding no row.
    pub(crate) fn new(slopes: &[f64]) -> Self {
        KeyColumns {
            slopes: slopes.into(),
            chunks: Vec::new(),
        }
    }

    fn width(&self) -> usize {
        2 * self.slopes.len()
    }

    /// The keys of `id` — `TOP` at every slope, then `BOT` — if a row of
    /// it was written.
    fn row(&self, id: u32) -> Option<&[f32]> {
        let (chunk, at) = (id as usize / CHUNK_ROWS, id as usize % CHUNK_ROWS);
        let w = self.width();
        self.chunks.get(chunk).map(|c| &c[at * w..(at + 1) * w])
    }

    /// The row of `id`, writable: the chunk is created, or copied when a
    /// clone still shares it.
    fn row_mut(&mut self, id: u32) -> &mut [f32] {
        let (chunk, at) = (id as usize / CHUNK_ROWS, id as usize % CHUNK_ROWS);
        let w = self.width();
        while self.chunks.len() <= chunk {
            self.chunks.push(Arc::new(vec![f32::NAN; CHUNK_ROWS * w]));
        }
        &mut Arc::make_mut(&mut self.chunks[chunk])[at * w..(at + 1) * w]
    }

    /// Writes one key of `id`: of `B^up` (`TOP`) or `B^down` (`BOT`) at
    /// slope `i`, rounded as the tree stores it.
    pub(crate) fn set(&mut self, id: u32, i: usize, up: bool, key: f64) {
        let k = self.slopes.len();
        self.row_mut(id)[if up { i } else { k + i }] = key as f32;
    }

    /// Forgets the row of `id`.
    pub(crate) fn clear(&mut self, id: u32) {
        if self.row(id).is_some() {
            self.row_mut(id).fill(f32::NAN);
        }
    }

    /// Bytes the chunks hold in memory, shared or not.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.chunks.len() * CHUNK_ROWS * self.width() * std::mem::size_of::<f32>()
    }
}

/// What the keys say of one candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The selection holds: accepted without a fetch.
    Yes,
    /// The selection does not hold: a false hit, not fetched.
    No,
    /// The keys cannot tell: fetched and refined.
    Fetch,
}

/// A linear form `Σ w·key` over at most two keys of a row, by column.
#[derive(Clone, Copy)]
struct Form([(usize, f64); 2]);

impl Form {
    /// The line through the samples `p` and `q` (`(position, column,
    /// coefficient)`, a sample's value being `coefficient · key`),
    /// evaluated at `x` and scaled by `scale`.
    fn line(p: (f64, usize, f64), q: (f64, usize, f64), x: f64, scale: f64) -> Self {
        let span = q.0 - p.0;
        let (wp, wq) = ((q.0 - x) / span, (x - p.0) / span);
        Form([(p.1, scale * wp * p.2), (q.1, scale * wq * q.2)])
    }

    /// The form's value, widened by the `f32` rounding of every key it
    /// reads ([`key_slack`] through its weight) toward `+∞` (`up`) or
    /// `−∞`; `None` when a key is missing or infinite.
    fn bound(&self, row: &[f32], up: bool) -> Option<f64> {
        let (mut value, mut slack) = (0.0, 0.0);
        for &(col, w) in &self.0 {
            let key = f64::from(row[col]);
            if !key.is_finite() {
                return None;
            }
            value += w * key;
            slack += w.abs() * key_slack(key);
        }
        Some(if up { value + slack } else { value - slack })
    }
}

/// The per-query weights of the key decision (see the module docs): the
/// surface the selection compares with `b`, bounded at the query slope by
/// one chord on one side and up to two extended chords on the other.
pub(crate) struct KeyBracket<'k> {
    keys: &'k KeyColumns,
    b: f64,
    /// Whether the predicate reads `b ≤ surface` (else `surface ≤ b`).
    b_below: bool,
    /// The chord through the samples around the query slope.
    chord: Option<Form>,
    /// The neighbouring chords, extended to the query slope.
    outer: [Option<Form>; 2],
    /// Whether the chord bounds the surface from above (the outer chords
    /// then bound it from below), or the reverse.
    chord_above: bool,
}

impl<'k> KeyBracket<'k> {
    /// The weights for `sel` over `keys`; `None` for a selection that is
    /// not 2-D, or a slope no two samples bracket from either side.
    pub(crate) fn new(keys: &'k KeyColumns, sel: &Selection) -> Option<Self> {
        let q = &sel.halfplane;
        if q.slope.len() != 1 || !q.intercept.is_finite() {
            return None;
        }
        let (a, b) = (q.slope[0], q.intercept);
        // ALL(≥) and EXIST(≤) read BOT; ALL(≤) and EXIST(≥) read TOP.
        let top = matches!(
            (sel.kind, q.op),
            (SelectionKind::All, RelOp::Le) | (SelectionKind::Exist, RelOp::Ge)
        );
        let b_below = q.op == RelOp::Ge;
        let slopes = &keys.slopes;
        let k = slopes.len();
        let (lo, hi) = (slopes[0], slopes[k - 1]);
        // Samples `(position, column, coefficient)` of a function `f` with
        // surface = scale · f(x), ascending by position; `convex` says
        // which way `f` bends.
        let column = |top: bool, j: usize| if top { j } else { k + j };
        // (A slope of 0 outside [lo, hi] has no reciprocal: it is bounded
        // in its own frame, from the end pair's extended chord alone.)
        let (samples, x, scale, convex): (Vec<(f64, usize, f64)>, f64, f64, bool) =
            if (lo..=hi).contains(&a) || a == 0.0 {
                let s = slopes.iter().enumerate();
                (
                    s.map(|(j, &s)| (s, column(top, j), 1.0)).collect(),
                    a,
                    1.0,
                    top,
                )
            } else {
                // Through the vertical: TOP(a) = −a·BOT′(1/a) and BOT(a) =
                // −a·TOP′(1/a) for a > 0; TOP(a) = −a·TOP′(1/a) and BOT(a)
                // = −a·BOT′(1/a) for a < 0.
                let top_prime = top == (a < 0.0);
                let mut s: Vec<(f64, usize, f64)> = slopes
                    .iter()
                    .enumerate()
                    .filter(|(_, &s)| s != 0.0)
                    .map(|(j, &s)| (1.0 / s, column(top_prime != (s > 0.0), j), -1.0 / s))
                    .collect();
                s.sort_by(|p, q| p.0.total_cmp(&q.0));
                (s, 1.0 / a, -a, top_prime)
            };
        let m = samples.len();
        if m < 2 || !x.is_finite() {
            return None;
        }
        // The pair of samples around `x` (clamped to the ends), and the
        // pairs beside it that `x` lies outside of.
        let i = samples.partition_point(|s| s.0 <= x).clamp(1, m - 1) - 1;
        let pair = |p: usize| Form::line(samples[p], samples[p + 1], x, scale);
        let inside = (samples[i].0..=samples[i + 1].0).contains(&x);
        let (chord, outer) = if inside {
            let left = (i >= 1).then(|| pair(i - 1));
            let right = (i + 2 < m).then(|| pair(i + 1));
            (Some(pair(i)), [left, right])
        } else {
            // Beyond the last sample on either side: the end pair alone.
            (None, [Some(pair(i)), None])
        };
        Some(KeyBracket {
            keys,
            b,
            b_below,
            chord,
            outer,
            // A convex f lies under its chords and over their extensions;
            // scaling by a negative factor swaps the two.
            chord_above: convex == (scale > 0.0),
        })
    }

    /// The decision for the candidate `id`: `Yes` or `No` only where the
    /// widened bounds clear `approx_le`'s tolerance on the right side of
    /// `b`; `Fetch` whenever a bound is missing (no row, an infinite key,
    /// no chord on that side).
    pub(crate) fn verdict(&self, id: u32) -> Verdict {
        let Some(row) = self.keys.row(id) else {
            return Verdict::Fetch;
        };
        let (chord_up, outer_up) = (self.chord_above, !self.chord_above);
        let chord = self.chord.and_then(|f| f.bound(row, chord_up));
        let outer = self
            .outer
            .iter()
            .flatten()
            .filter_map(|f| f.bound(row, outer_up));
        let outer = if outer_up {
            outer.fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.min(v))))
        } else {
            outer.fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.max(v))))
        };
        let (below, above) = if self.chord_above {
            (outer, chord)
        } else {
            (chord, outer)
        };
        let (below, above) = (
            below.unwrap_or(f64::NEG_INFINITY),
            above.unwrap_or(f64::INFINITY),
        );
        // The predicate is approx_le(l, r), with b on one side and the
        // surface, somewhere in [below, above], on the other.
        let ((l_lo, l_hi), (r_lo, r_hi)) = if self.b_below {
            ((self.b, self.b), (below, above))
        } else {
            ((below, above), (self.b, self.b))
        };
        if l_hi <= r_lo {
            Verdict::Yes
        } else if l_lo - r_hi > 8.0 * EPS * 1.0_f64.max(l_lo.abs()).max(r_hi.abs()) {
            Verdict::No
        } else {
            Verdict::Fetch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{ConstraintDb, DbConfig};
    use crate::index::forest::keys_at;
    use crate::query::Strategy;
    use crate::slopes::SlopeSet;
    use cdb_geometry::halfplane::HalfPlane;
    use cdb_geometry::predicates::oracle_select;
    use cdb_geometry::tuple::GeneralizedTuple;
    use cdb_geometry::Rect;
    use cdb_prng::StdRng;
    use cdb_workload::{ObjectSize, TupleGen};

    /// Columns holding the keys of `tuples` (ids in order) at `slopes`,
    /// each stored as `store(key, id)` makes it.
    fn columns(
        slopes: &SlopeSet,
        tuples: &[GeneralizedTuple],
        store: impl Fn(f64, usize) -> f32,
    ) -> KeyColumns {
        let mut cols = KeyColumns::new(slopes.as_slice());
        for (id, t) in tuples.iter().enumerate() {
            for (i, &s) in slopes.as_slice().iter().enumerate() {
                let (top, bot) = keys_at(t, &[s]);
                for (up, key) in [(true, top), (false, bot)] {
                    cols.set(id as u32, i, up, f64::from(store(key, id)));
                }
            }
        }
        cols
    }

    /// Every verdict of `cols` on every tuple, for every kind and operator
    /// at slope `a` and each intercept, against the exact predicate:
    /// `(yes, no, fetch)` counts; panics on a wrong decision.
    fn judge(cols: &KeyColumns, tuples: &[GeneralizedTuple], a: f64, bs: &[f64]) -> [usize; 3] {
        let mut counts = [0; 3];
        for &b in bs {
            for op in [RelOp::Ge, RelOp::Le] {
                for kind in [SelectionKind::Exist, SelectionKind::All] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new2d(a, b, op),
                    };
                    let Some(bracket) = KeyBracket::new(cols, &sel) else {
                        counts[2] += tuples.len();
                        continue;
                    };
                    for (id, t) in tuples.iter().enumerate() {
                        let verdict = bracket.verdict(id as u32);
                        let holds = sel.holds(t);
                        let at = match verdict {
                            Verdict::Yes => 0,
                            Verdict::No => 1,
                            Verdict::Fetch => 2,
                        };
                        assert!(
                            verdict == Verdict::Fetch || (verdict == Verdict::Yes) == holds,
                            "{verdict:?} but holds = {holds}: tuple {id} {t:?}, {sel:?}"
                        );
                        counts[at] += 1;
                    }
                }
            }
        }
        counts
    }

    /// The hard cases, none decided wrongly: keys one `f32` step off
    /// either way, intercepts exactly on a vertex's dual line, slopes on
    /// and just past the ends of `S` and near the vertical, `k = 2` (one
    /// side of the bracket only), and unbounded tuples with `±∞` keys.
    #[test]
    fn hard_cases_get_no_wrong_decision() {
        let mut g = TupleGen::new(0xB1, Rect::paper_window(), ObjectSize::Medium);
        let polygons: Vec<_> = (0..14).map(|_| g.bounded_polygon()).collect();
        let mut tuples: Vec<GeneralizedTuple> = polygons.iter().map(|p| p.to_tuple()).collect();
        tuples.extend((0..8).map(|_| g.unbounded_tuple()));
        // Each key as the f32 on its other side from the nearest one: a
        // whole f32 step from what the tree stores, within one of the key.
        let step = |key: f64, id: usize| {
            let near = key as f32;
            match (id % 3, f64::from(near).total_cmp(&key)) {
                (0, std::cmp::Ordering::Less) => near.next_up(),
                (1, std::cmp::Ordering::Greater) => near.next_down(),
                _ => near,
            }
        };
        let mut decided = [0; 3];
        for k in [2, 3, 4, 5] {
            let slopes = SlopeSet::uniform_tan(k);
            let (lo, hi) = (slopes.get(0), slopes.get(k - 1));
            let mut query_slopes = vec![0.0, 0.3, -1.7, 1e6, -1e6, 1e9, -1e9, 1e-7];
            for s in slopes.as_slice() {
                query_slopes.extend([*s, s.next_up(), s.next_down(), s * (1.0 + 1e-9)]);
            }
            query_slopes.extend([lo - 1e-9, hi + 1e-9, lo - 0.01, hi + 0.01]);
            for nudged in [false, true] {
                let cols = columns(&slopes, &tuples, |key, id| {
                    if nudged {
                        step(key, id)
                    } else {
                        key as f32
                    }
                });
                for &a in &query_slopes {
                    // Intercepts on every vertex's dual line `b = y − a·x`,
                    // plus some that separate nothing.
                    let mut bs: Vec<f64> = polygons
                        .iter()
                        .flat_map(|p| p.points().iter().map(|[x, y]| y - a * x))
                        .collect();
                    bs.extend([-1e12, -30.0, 0.0, 25.0, 1e12]);
                    let counts = judge(&cols, &tuples, a, &bs);
                    for (d, c) in decided.iter_mut().zip(counts) {
                        *d += c;
                    }
                }
            }
        }
        let [yes, no, fetch] = decided;
        assert!(yes > 0 && no > 0 && fetch > 0, "{decided:?}");
        assert!(yes + no > fetch, "the keys decide most: {decided:?}");
    }

    /// At `k = 2` there is no outer chord: each surface is bounded from
    /// one side only, between the slopes and through the vertical alike.
    #[test]
    fn two_slopes_decide_one_side_only() {
        let slopes = SlopeSet::new(vec![-1.0, 1.0]);
        let square = cdb_geometry::parse::parse_tuple("x >= 0 && x <= 1 && y >= 0 && y <= 1")
            .expect("a square");
        let cols = columns(&slopes, std::slice::from_ref(&square), |k, _| k as f32);
        let verdict = |sel: Selection| {
            let want = sel.holds(&square);
            let got = KeyBracket::new(&cols, &sel).unwrap().verdict(0);
            assert!(
                got == Verdict::Fetch || (got == Verdict::Yes) == want,
                "{sel:?}"
            );
            got
        };
        let exist = |a, b| Selection::exist(HalfPlane::above(a, b));
        // TOP(0) = 1, under the chord through TOP(−1) = 2 and TOP(1) = 1:
        // TOP(0) ≤ 1.5, and nothing bounds it from below.
        assert_eq!(verdict(exist(0.0, 3.0)), Verdict::No);
        assert_eq!(verdict(exist(0.0, 0.5)), Verdict::Fetch);
        assert_eq!(
            verdict(Selection::all(HalfPlane::below(0.0, 3.0))),
            Verdict::Yes
        );
        // TOP(2) = 1 = −2·BOT′(1/2), and BOT′(1/2) ≥ −0.75 on the chord
        // through BOT′(−1) = 0 and BOT′(1) = −1: TOP(2) ≤ 1.5.
        assert_eq!(verdict(exist(2.0, 2.0)), Verdict::No);
        assert_eq!(verdict(exist(2.0, -5.0)), Verdict::Fetch);
    }

    /// Maintained by insert and delete, restored at reopen and by log
    /// replay; a snapshot keeps the columns it was published with. At
    /// every step the columns hold exactly the live tuples' keys, every
    /// verdict agrees with the exact predicate, and T2, T1 and `Auto`
    /// answer as the oracle — on the engine and on a pinned snapshot.
    #[test]
    fn columns_follow_churn_reopen_and_replay() {
        fn rows(db: &ConstraintDb) -> Vec<Option<Vec<f32>>> {
            let idx = db.relation("r").unwrap().index().expect("a dual index");
            let cols = idx.keys.as_ref().expect("2-D indexes keep keys");
            let n = db.relation("r").unwrap().slots.len() as u32;
            let row = |id| cols.row(id).filter(|r| !r.iter().all(|k| k.is_nan()));
            (0..n).map(|id| row(id).map(<[f32]>::to_vec)).collect()
        }
        fn expected(
            model: &[Option<GeneralizedTuple>],
            slopes: &SlopeSet,
        ) -> Vec<Option<Vec<f32>>> {
            let keys = |t: &GeneralizedTuple| {
                let at = |s: &f64| keys_at(t, &[*s]);
                let (tops, bots): (Vec<f32>, Vec<f32>) = slopes
                    .as_slice()
                    .iter()
                    .map(|s| (at(s).0 as f32, at(s).1 as f32))
                    .unzip();
                [tops, bots].concat()
            };
            model.iter().map(|t| t.as_ref().map(keys)).collect()
        }
        fn answers(
            db: &impl Fn(&Selection, Strategy) -> Vec<u32>,
            model: &[Option<GeneralizedTuple>],
            rng: &mut StdRng,
            what: &str,
        ) {
            let live: Vec<(u32, &GeneralizedTuple)> = (0u32..)
                .zip(model)
                .filter_map(|(id, t)| t.as_ref().map(|t| (id, t)))
                .collect();
            for _ in 0..24 {
                let a = match rng.gen_range(0..4usize) {
                    0 => rng.gen_range(-3.0..3.0),
                    1 => rng.gen_range(-80.0..80.0),
                    2 => [-2.414213562373095, 0.41421356237309503][rng.gen_range(0..2usize)],
                    _ => rng.gen_range(-0.3..0.3),
                };
                let b = rng.gen_range(-90.0..90.0);
                let op = [RelOp::Ge, RelOp::Le][rng.gen_range(0..2usize)];
                for sel in [
                    Selection::exist(HalfPlane::new2d(a, b, op)),
                    Selection::all(HalfPlane::new2d(a, b, op)),
                ] {
                    let all = sel.kind == SelectionKind::All;
                    let hits = oracle_select(&sel.halfplane, all, live.iter().map(|(_, t)| *t));
                    let want: Vec<u32> = hits.into_iter().map(|i| live[i].0).collect();
                    for strategy in [Strategy::T2, Strategy::T1, Strategy::Auto] {
                        assert_eq!(db(&sel, strategy), want, "{what}: {strategy:?} {sel:?}");
                    }
                }
            }
        }
        fn verdicts(db: &ConstraintDb, model: &[Option<GeneralizedTuple>], what: &str) {
            let idx = db.relation("r").unwrap().index().unwrap();
            let cols = idx.keys.as_ref().unwrap();
            for (a, b) in [(0.2, 10.0), (-0.9, -20.0), (7.5, 30.0), (-30.0, 0.0)] {
                for op in [RelOp::Ge, RelOp::Le] {
                    for sel in [
                        Selection::exist(HalfPlane::new2d(a, b, op)),
                        Selection::all(HalfPlane::new2d(a, b, op)),
                    ] {
                        let bracket = KeyBracket::new(cols, &sel).unwrap();
                        for (id, t) in (0u32..).zip(model) {
                            let Some(t) = t else { continue };
                            match bracket.verdict(id) {
                                Verdict::Fetch => {}
                                v => assert_eq!(v == Verdict::Yes, sel.holds(t), "{what}: {id}"),
                            }
                        }
                    }
                }
            }
        }

        let path = std::env::temp_dir().join(format!("cdb_keys_churn_{}", std::process::id()));
        let log = path.with_extension("wal");
        let _ = (std::fs::remove_file(&path), std::fs::remove_file(&log));
        let slopes = SlopeSet::uniform_tan(4);
        let mut g = TupleGen::new(0xC4, Rect::paper_window(), ObjectSize::Small);
        let mut rng = StdRng::seed_from_u64(0xC5);
        let mut fresh = |rng: &mut StdRng| {
            if rng.gen_bool(0.15) {
                g.unbounded_tuple()
            } else {
                g.bounded_tuple()
            }
        };
        let mut db = ConstraintDb::create(&path, DbConfig::paper_1999()).unwrap();
        assert!(db.begin_wal().unwrap());
        db.create_relation("r", 2).unwrap();
        let mut model: Vec<Option<GeneralizedTuple>> = Vec::new();
        for _ in 0..300 {
            let t = fresh(&mut rng);
            db.insert("r", t.clone()).unwrap();
            model.push(Some(t));
        }
        db.build_dual_index("r", slopes.clone()).unwrap();
        let churn = |db: &mut ConstraintDb,
                     model: &mut Vec<Option<GeneralizedTuple>>,
                     rng: &mut StdRng,
                     fresh: &mut dyn FnMut(&mut StdRng) -> GeneralizedTuple| {
            for _ in 0..60 {
                let live: Vec<u32> = (0u32..)
                    .zip(model.iter())
                    .filter(|(_, t): &(u32, &Option<GeneralizedTuple>)| t.is_some())
                    .map(|(id, _)| id)
                    .collect();
                if rng.gen_bool(0.5) {
                    let id = live[rng.gen_range(0..live.len())];
                    db.delete("r", id).unwrap();
                    model[id as usize] = None;
                } else {
                    let t = fresh(rng);
                    let id = db.insert("r", t.clone()).unwrap();
                    assert_eq!(id as usize, model.len());
                    model.push(Some(t));
                }
            }
        };
        let check = |db: &ConstraintDb,
                     model: &[Option<GeneralizedTuple>],
                     rng: &mut StdRng,
                     what: &str| {
            assert_eq!(rows(db), expected(model, &slopes), "{what}: columns");
            verdicts(db, model, what);
            let ask =
                |sel: &Selection, s| db.query_with("r", sel.clone(), s).unwrap().ids().to_vec();
            answers(&ask, model, rng, what);
        };
        check(&db, &model, &mut rng, "built");
        churn(&mut db, &mut model, &mut rng, &mut fresh);
        check(&db, &model, &mut rng, "churned");

        // A snapshot pinned here keeps its own answers through later writes.
        let pinned = db.snapshot().unwrap();
        let (pinned_model, pinned_rows) = (model.clone(), rows(&db));
        churn(&mut db, &mut model, &mut rng, &mut fresh);
        check(&db, &model, &mut rng, "churned past a snapshot");
        let cols = pinned
            .relation("r")
            .unwrap()
            .index()
            .unwrap()
            .keys
            .as_ref()
            .unwrap();
        let n = pinned_rows.len() as u32;
        let row = |id| cols.row(id).filter(|r| !r.iter().all(|k| k.is_nan()));
        let kept: Vec<_> = (0..n).map(|id| row(id).map(<[f32]>::to_vec)).collect();
        assert_eq!(kept, pinned_rows, "the snapshot's columns");
        let ask = |sel: &Selection, s| {
            pinned
                .query_with("r", sel.clone(), s)
                .unwrap()
                .ids()
                .to_vec()
        };
        answers(&ask, &pinned_model, &mut rng, "pinned");
        drop(pinned);

        // Checkpointed and reopened: the verification walk reads them back.
        db.close().unwrap();
        let mut db = ConstraintDb::open(&path).unwrap();
        check(&db, &model, &mut rng, "reopened");
        // Writes only the log holds, then a crash: replay, then the walk.
        assert!(db.begin_wal().unwrap());
        churn(&mut db, &mut model, &mut rng, &mut fresh);
        db.wal_sync().unwrap();
        drop(db);
        let db = ConstraintDb::open(&path).unwrap();
        let replay = db.recovery_report().wal.clone().expect("a log was found");
        assert!(replay.replayed > 0 && replay.error.is_none(), "{replay:?}");
        check(&db, &model, &mut rng, "replayed");
        db.close().unwrap();
        let _ = (std::fs::remove_file(&path), std::fs::remove_file(&log));
    }
}
