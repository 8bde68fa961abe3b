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
//! one chunk it touches. A chunk is slope-major — each of its `2k` columns
//! is contiguous — so one pass over a run of rows reads each key column
//! front to back.
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
//!
//! [`KeyBracket::verdict`] is the one definition of the decision: each
//! bound widened by [`key_slack`] of every key it reads.
//! [`KeyBracket::settle`] reaches the same decision for a whole candidate
//! list, a group of rows at a time. The keys never exceed the columns'
//! `max_abs` in magnitude and `key_slack` grows with `|key|`, so a form's
//! widening is at most its margin — `key_slack(max_abs)` through the
//! weights, summed in the same order — and the widened bound lies between
//! the bare two-key value and that value moved by the margin, rounded
//! outward. Where these intervals settle the decision it is the verdict;
//! a row they leave open, or with a key that is not finite, is decided by
//! `verdict` itself.

use std::sync::Arc;

use cdb_btree::key_slack;
use cdb_geometry::constraint::RelOp;
use cdb_geometry::scalar::EPS;

use crate::query::{Selection, SelectionKind};

/// Rows per chunk: the most one write after a publish copies.
const CHUNK_ROWS: usize = 256;

/// Rows [`KeyBracket::settle`] decides in one pass, the first time a
/// candidate falls among them.
const GROUP_ROWS: usize = 64;

/// The dual keys of a 2-D index per tuple id; see the module docs.
#[derive(Clone, Debug)]
pub(crate) struct KeyColumns {
    /// The slopes of `S`, ascending.
    slopes: Arc<[f64]>,
    /// `CHUNK_ROWS` rows each, slope-major: key `c` of the chunk's row `r`
    /// at `c · CHUNK_ROWS + r`; `NaN` where no row was written.
    chunks: Vec<Arc<Vec<f32>>>,
    /// At least every finite `|key|` ever written: raised by `set`, never
    /// lowered, so a cleared key may leave it high.
    max_abs: f64,
}

impl KeyColumns {
    /// Columns over the slopes of `S` (ascending), holding no row.
    pub(crate) fn new(slopes: &[f64]) -> Self {
        KeyColumns {
            slopes: slopes.into(),
            chunks: Vec::new(),
            max_abs: 0.0,
        }
    }

    fn width(&self) -> usize {
        2 * self.slopes.len()
    }

    /// The chunk holding `id` and the row's place in it, if a row of the
    /// chunk was written.
    fn chunk(&self, id: u32) -> Option<(&[f32], usize)> {
        let (chunk, at) = (id as usize / CHUNK_ROWS, id as usize % CHUNK_ROWS);
        self.chunks.get(chunk).map(|c| (&c[..], at))
    }

    /// The chunk holding `id`, writable: created, or copied when a clone
    /// still shares it.
    fn chunk_mut(&mut self, id: u32) -> (&mut [f32], usize) {
        let (chunk, at) = (id as usize / CHUNK_ROWS, id as usize % CHUNK_ROWS);
        let w = self.width();
        while self.chunks.len() <= chunk {
            self.chunks.push(Arc::new(vec![f32::NAN; CHUNK_ROWS * w]));
        }
        (&mut Arc::make_mut(&mut self.chunks[chunk])[..], at)
    }

    /// Writes one key of `id`: of `B^up` (`TOP`) or `B^down` (`BOT`) at
    /// slope `i`, rounded as the tree stores it.
    pub(crate) fn set(&mut self, id: u32, i: usize, up: bool, key: f64) {
        let col = if up { i } else { self.slopes.len() + i };
        let key = key as f32;
        if key.is_finite() {
            self.max_abs = self.max_abs.max(f64::from(key.abs()));
        }
        let (chunk, at) = self.chunk_mut(id);
        chunk[col * CHUNK_ROWS + at] = key;
    }

    /// Forgets the row of `id`.
    pub(crate) fn clear(&mut self, id: u32) {
        if self.chunk(id).is_some() {
            let (chunk, at) = self.chunk_mut(id);
            for key in chunk[at..].iter_mut().step_by(CHUNK_ROWS) {
                *key = f32::NAN;
            }
        }
    }

    /// Bytes the chunks hold in memory, shared or not.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.chunks.len() * CHUNK_ROWS * self.width() * std::mem::size_of::<f32>()
    }
}

/// What the keys say of one candidate; the discriminants are
/// [`KeyBracket::settle`]'s codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The selection holds: accepted without a fetch.
    Yes = 1,
    /// The selection does not hold: a false hit, not fetched.
    No = 2,
    /// The keys cannot tell: fetched and refined.
    Fetch = 3,
}

/// What [`KeyBracket::settle`] made of one row, a byte each: the row's
/// group not passed over yet, a verdict the margins settled, or a row left
/// to [`KeyBracket::verdict`].
const UNSEEN: u8 = 0;
const YES: u8 = Verdict::Yes as u8;
const NO: u8 = Verdict::No as u8;
const FETCH: u8 = Verdict::Fetch as u8;
const EXACT: u8 = 4;
// `decide` counts down from `EXACT`.
const _: () = assert!(YES == EXACT - 3 && NO == EXACT - 2 && FETCH == EXACT - 1);

/// A linear form `Σ w·key` over two keys of a row, by column.
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

    /// The form's value on row `at` of `chunk`, widened by the `f32`
    /// rounding of every key it reads ([`key_slack`] through its weight)
    /// toward `+∞` (`up`) or `−∞`; `None` when a key is missing or
    /// infinite.
    fn bound(&self, chunk: &[f32], at: usize, up: bool) -> Option<f64> {
        let (mut value, mut slack) = (0.0, 0.0);
        for &(col, w) in &self.0 {
            let key = f64::from(chunk[col * CHUNK_ROWS + at]);
            if !key.is_finite() {
                return None;
            }
            value += w * key;
            slack += w.abs() * key_slack(key);
        }
        Some(if up { value + slack } else { value - slack })
    }

    /// The most [`bound`](Self::bound) widens the form by when no key it
    /// reads exceeds `max_abs` in magnitude: the same sum, in the same
    /// order, at `max_abs`.
    fn margin(&self, max_abs: f64) -> f64 {
        let mut slack = 0.0;
        for &(_, w) in &self.0 {
            slack += w.abs() * key_slack(max_abs);
        }
        slack
    }

    /// The form's columns over the `GROUP_ROWS` rows from `at` of `chunk`,
    /// its weights and its margin.
    fn lane<'c>(&self, chunk: &'c [f32], at: usize, margin: f64) -> Lane<'c> {
        let col = |c: usize| {
            let from = c * CHUNK_ROWS + at;
            <&[f32; GROUP_ROWS]>::try_from(&chunk[from..from + GROUP_ROWS])
                .expect("a group lies inside its chunk")
        };
        let [(c0, w0), (c1, w1)] = self.0;
        Lane {
            keys: [col(c0), col(c1)],
            w: [w0, w1],
            margin,
        }
    }
}

/// A form over a group of rows, for [`KeyBracket::settle`].
#[derive(Clone, Copy)]
struct Lane<'c> {
    keys: [&'c [f32; GROUP_ROWS]; 2],
    w: [f64; 2],
    margin: f64,
}

impl Lane<'_> {
    /// The bare value of the form on row `j` of the group: the sum
    /// [`Form::bound`] widens, bit for bit.
    #[inline(always)]
    fn value(&self, j: usize) -> f64 {
        self.w[0] * f64::from(self.keys[0][j]) + self.w[1] * f64::from(self.keys[1][j])
    }

    /// An interval holding the form's bound on row `j`, widened up (`up`)
    /// or down — `[v, v + m]` or `[v − m, v]` — and whether `v` is finite.
    #[inline(always)]
    fn interval(&self, j: usize, up: bool) -> (f64, f64, bool) {
        let v = self.value(j);
        let (lo, hi) = if up {
            (v, v + self.margin)
        } else {
            (v - self.margin, v)
        };
        (lo, hi, v.is_finite())
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
    /// The chord through the samples around the query slope, and its
    /// margin.
    chord: Option<(Form, f64)>,
    /// The neighbouring chords, extended to the query slope, and their
    /// margins.
    outer: [Option<(Form, f64)>; 2],
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
        let pair = |p: usize| {
            let form = Form::line(samples[p], samples[p + 1], x, scale);
            (form, form.margin(keys.max_abs))
        };
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
        let Some((chunk, at)) = self.keys.chunk(id) else {
            return Verdict::Fetch;
        };
        let (chord_up, outer_up) = (self.chord_above, !self.chord_above);
        let chord = self.chord.and_then(|(f, _)| f.bound(chunk, at, chord_up));
        let outer = self
            .outer
            .iter()
            .flatten()
            .filter_map(|(f, _)| f.bound(chunk, at, outer_up));
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

    /// Decides the candidates in `check` as [`verdict`](Self::verdict)
    /// does, in one pass over each group of rows they touch: a `Yes` moves
    /// to the end of `sure`, a `No` leaves `check`, and both lists keep
    /// their order. Returns how many were rejected.
    pub(crate) fn settle(&self, check: &mut Vec<u32>, sure: &mut Vec<u32>) -> u64 {
        let mut codes = vec![UNSEEN; self.keys.chunks.len() * CHUNK_ROWS];
        // Every candidate is written to both lists, and each list's end
        // moves past it only where it belongs: no branch on the verdict.
        let (mut kept, mut accepted, mut rejected) = (0, sure.len(), 0);
        sure.resize(accepted + check.len(), 0);
        for at in 0..check.len() {
            let id = check[at];
            let mut code = codes.get(id as usize).copied().unwrap_or(FETCH);
            if code == UNSEEN {
                let from = id as usize / GROUP_ROWS * GROUP_ROWS;
                let group = (&mut codes[from..from + GROUP_ROWS]).try_into();
                self.group(from, group.expect("whole groups"));
                code = codes[id as usize];
            }
            if code == EXACT {
                code = self.verdict(id) as u8;
            } else {
                debug_assert_eq!(code, self.verdict(id) as u8, "settled row {id}");
            }
            check[kept] = id;
            sure[accepted] = id;
            kept += usize::from(code == FETCH);
            accepted += usize::from(code == YES);
            rejected += u64::from(code == NO);
        }
        check.truncate(kept);
        sure.truncate(accepted);
        rejected
    }

    /// The codes of the `GROUP_ROWS` rows from row `from`.
    fn group(&self, from: usize, out: &mut [u8; GROUP_ROWS]) {
        let (chunk, at) = (&self.keys.chunks[from / CHUNK_ROWS][..], from % CHUNK_ROWS);
        match (self.b_below, self.chord_above) {
            (true, true) => self.group_as::<true, true>(chunk, at, out),
            (true, false) => self.group_as::<true, false>(chunk, at, out),
            (false, true) => self.group_as::<false, true>(chunk, at, out),
            (false, false) => self.group_as::<false, false>(chunk, at, out),
        }
    }

    /// [`group`](Self::group) for one side of `b` and one way the chord
    /// bounds the surface: per row, an interval around each side's bound,
    /// and the decision those intervals settle.
    fn group_as<const B_BELOW: bool, const CHORD_ABOVE: bool>(
        &self,
        chunk: &[f32],
        at: usize,
        out: &mut [u8; GROUP_ROWS],
    ) {
        // A side with no form is the constant verdict puts in its place.
        let (chord_none, outer_none) = if CHORD_ABOVE {
            (f64::INFINITY, f64::NEG_INFINITY)
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        };
        let chord = self.chord.map(|(f, m)| f.lane(chunk, at, m));
        let mut outer = self
            .outer
            .iter()
            .flatten()
            .map(|&(f, m)| f.lane(chunk, at, m));
        // One outer chord stands in for the missing other: min and max
        // are idempotent.
        let outer = outer
            .next()
            .map(|first| [first, outer.next().unwrap_or(first)]);
        // The outer chords' side: the least of bounds widened up, or the
        // greatest of bounds widened down.
        let both = |[p, q]: &[Lane<'_>; 2], j: usize| {
            let (p_lo, p_hi, p_finite) = p.interval(j, !CHORD_ABOVE);
            let (q_lo, q_hi, q_finite) = q.interval(j, !CHORD_ABOVE);
            // (Compare-and-select: a row whose value is not finite is never
            // settled, so no NaN rule is needed.)
            let (lo, hi) = if CHORD_ABOVE {
                (max(p_lo, q_lo), max(p_hi, q_hi))
            } else {
                (min(p_lo, q_lo), min(p_hi, q_hi))
            };
            (lo, hi, p_finite && q_finite)
        };
        let b = self.b;
        match (chord, outer) {
            (Some(c), Some(o)) => decide::<B_BELOW, CHORD_ABOVE>(
                b,
                |j| c.interval(j, CHORD_ABOVE),
                |j| both(&o, j),
                out,
            ),
            (Some(c), None) => decide::<B_BELOW, CHORD_ABOVE>(
                b,
                |j| c.interval(j, CHORD_ABOVE),
                |_| (outer_none, outer_none, true),
                out,
            ),
            (None, Some(o)) => decide::<B_BELOW, CHORD_ABOVE>(
                b,
                |_| (chord_none, chord_none, true),
                |j| both(&o, j),
                out,
            ),
            (None, None) => out.fill(FETCH),
        }
    }
}

/// The decision of [`KeyBracket::verdict`] on each row of a group from
/// intervals around its two sides' bounds (`(lo, hi, finite)` per row),
/// where they settle it; `EXACT` where they do not or a value is not
/// finite. Rounding is monotone, so `Yes` and "not `Yes`" hold for every
/// surface between the intervals when they hold at the interval's end.
/// `approx_le`'s tolerance at a surface `x` is `8·EPS·max(1, |b|, |x|)`,
/// at least `t = 8·EPS·max(1, |b|)`: an `x` at most `t/4` past `b` is not a
/// `No`, and one at least `3t` past `b` is, because `|x|` exceeds `|b|` by
/// at most `|x − b|`, so `|x − b| − 8·EPS·|x| ≥ 3t·(1 − 8·EPS) − t`.
/// Rounding moves these by `2⁻⁵²` of themselves; the thresholds sit at
/// `t/4` and `4t`, worked out once per group, and a row between them goes
/// to `verdict`.
#[inline(always)]
fn decide<const B_BELOW: bool, const CHORD_ABOVE: bool>(
    b: f64,
    chord: impl Fn(usize) -> (f64, f64, bool),
    outer: impl Fn(usize) -> (f64, f64, bool),
    out: &mut [u8; GROUP_ROWS],
) {
    let t = 8.0 * EPS * 1.0_f64.max(b.abs());
    // The side of b the surface lies on for a No.
    let past = if B_BELOW { -1.0 } else { 1.0 };
    let (far, near) = (b + past * 4.0 * t, b + past * (t / 4.0));
    for (j, code) in out.iter_mut().enumerate() {
        let (c_lo, c_hi, c_finite) = chord(j);
        let (o_lo, o_hi, o_finite) = outer(j);
        let ((w_lo, w_hi), (a_lo, a_hi)) = if CHORD_ABOVE {
            ((o_lo, o_hi), (c_lo, c_hi))
        } else {
            ((c_lo, c_hi), (o_lo, o_hi))
        };
        // `below` lies in [w_lo, w_hi] and `above` in [a_lo, a_hi]; a Yes
        // reads the one, a No the other.
        let (yes, not_yes, no, not_no) = if B_BELOW {
            (b <= w_lo, b > w_hi, a_hi <= far, a_lo >= near)
        } else {
            (a_hi <= b, a_lo > b, w_lo >= far, w_hi <= near)
        };
        // Branch-free: at most one of the three holds.
        let settled = c_finite & o_finite;
        let yes = settled & yes;
        let no = settled & !yes & not_yes & no;
        let fetch = settled & !yes & not_yes & not_no;
        *code = EXACT - 3 * u8::from(yes) - 2 * u8::from(no) - u8::from(fetch);
    }
}

#[inline(always)]
fn max(x: f64, y: f64) -> f64 {
    if x > y {
        x
    } else {
        y
    }
}

#[inline(always)]
fn min(x: f64, y: f64) -> f64 {
    if x < y {
        x
    } else {
        y
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

    /// The keys of `id` — `TOP` at every slope, then `BOT` — if a row of it
    /// is held and not cleared.
    fn row(cols: &KeyColumns, id: u32) -> Option<Vec<f32>> {
        let (chunk, at) = cols.chunk(id)?;
        let row: Vec<f32> = chunk[at..].iter().step_by(CHUNK_ROWS).copied().collect();
        (!row.iter().all(|k| k.is_nan())).then_some(row)
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

    /// What `settle` makes of `ids` (distinct, in the order given), per id:
    /// a `Yes` is what it moved to `sure`, a `Fetch` what it left in
    /// `check`, a `No` what it dropped — and both lists keep their order.
    fn settled(bracket: &KeyBracket, ids: &[u32]) -> Vec<Verdict> {
        let (mut check, mut sure) = (ids.to_vec(), vec![u32::MAX]);
        let rejected = bracket.settle(&mut check, &mut sure);
        assert_eq!(sure.remove(0), u32::MAX, "sure keeps what it held");
        let mut got = vec![Verdict::No; *ids.iter().max().unwrap() as usize + 1];
        for (list, verdict) in [(&sure, Verdict::Yes), (&check, Verdict::Fetch)] {
            for &id in list {
                got[id as usize] = verdict;
            }
            let order = ids.iter().filter(|&&id| got[id as usize] == verdict);
            assert!(order.eq(list.iter()), "{verdict:?} out of order");
        }
        let verdicts: Vec<Verdict> = ids.iter().map(|&id| got[id as usize]).collect();
        let no = verdicts.iter().filter(|&&v| v == Verdict::No).count();
        assert_eq!(rejected, no as u64);
        verdicts
    }

    /// The chunk pass decides every id as `verdict` does, over the dense
    /// list (every row in reverse, and an id past the last chunk) and a
    /// sparse one: keys a whole `f32` step off, `b` on every vertex's dual
    /// line, slopes at, just past and outside the ends of `S`, `k = 2…5`,
    /// `±∞` keys, cleared rows, a partial last chunk — and again once a
    /// deleted huge key has left the margins wide. Intercepts within a few
    /// `approx_le` tolerances of a bound, on the row whose key is the
    /// columns' largest (its margin is its slack), probe the thresholds.
    /// The margins settle most rows on their own.
    #[test]
    fn chunk_codes_agree_with_verdict() {
        let mut g = TupleGen::new(0xC0DE, Rect::paper_window(), ObjectSize::Medium);
        let polygons: Vec<_> = (0..4).map(|_| g.bounded_polygon()).collect();
        // Two whole chunks and a partial third; every ninth tuple unbounded.
        let n = 2 * CHUNK_ROWS + 44;
        let tuples: Vec<GeneralizedTuple> = (0..n)
            .map(|id| match (id < polygons.len(), id % 9 == 8) {
                (true, _) => polygons[id].to_tuple(),
                (false, true) => g.unbounded_tuple(),
                (false, false) => g.bounded_tuple(),
            })
            .collect();
        // Two rows in three store each key a whole f32 step past the
        // nearest one, up or down.
        let step = |key: f64, id: usize| {
            let near = key as f32;
            match id % 3 {
                0 if f64::from(near) < key => near.next_up(),
                1 if f64::from(near) > key => near.next_down(),
                _ => near,
            }
        };
        let past = (n.div_ceil(CHUNK_ROWS) * CHUNK_ROWS + 7) as u32;
        let mut dense: Vec<u32> = (0..n as u32).rev().collect();
        dense.push(past);
        let sparse = [0, 255, 256, 300, n as u32 - 1, past];
        let (mut settled_rows, mut rows) = (0, 0);
        for k in [2, 3, 4, 5] {
            let slopes = SlopeSet::uniform_tan(k);
            let mut cols = columns(&slopes, &tuples, step);
            for id in [5, 256, 257, n as u32 - 2] {
                cols.clear(id);
            }
            let largest = |id: u32| {
                let row = row(&cols, id).unwrap_or_default();
                row.into_iter()
                    .filter(|k| k.is_finite())
                    .fold(0.0, |m, k| k.abs().max(m))
            };
            let widest = (0..n as u32).max_by(|&p, &q| largest(p).total_cmp(&largest(q)));
            let widest = [0, widest.unwrap(), past];
            let (lo, hi) = (slopes.get(0), slopes.get(k - 1));
            let mut query_slopes = vec![0.0, 0.3, -1.7, 1e6, -1e9, 1e-7];
            query_slopes.extend([lo.next_down(), hi.next_up(), lo - 0.5, hi + 0.5]);
            query_slopes.extend(slopes.as_slice());
            for huge in [false, true] {
                if huge {
                    // A huge key written and deleted: the bound stays high.
                    for i in 0..k {
                        cols.set(past + 1, i, true, 3e30);
                    }
                    cols.clear(past + 1);
                    assert_eq!(cols.max_abs, f64::from(3e30_f32));
                }
                for &a in &query_slopes {
                    let on_vertices = polygons
                        .iter()
                        .flat_map(|p| p.points().iter().map(|[x, y]| y - a * x));
                    let bs: Vec<f64> = on_vertices.chain([-1e12, -30.0, 0.0, 25.0]).collect();
                    for op in [RelOp::Ge, RelOp::Le] {
                        for kind in [SelectionKind::Exist, SelectionKind::All] {
                            let sel = |b| Selection {
                                kind,
                                halfplane: HalfPlane::new2d(a, b, op),
                            };
                            let Some(probe) = KeyBracket::new(&cols, &sel(0.0)) else {
                                continue;
                            };
                            // Bounds do not depend on b: the probe's are every bracket's.
                            let forms = probe.chord.iter().chain(probe.outer.iter().flatten());
                            let near_bounds: Vec<f64> = forms
                                .flat_map(|(f, _)| {
                                    widest[..2].iter().flat_map(|&id| {
                                        let (chunk, at) = cols.chunk(id).unwrap();
                                        [true, false].map(|up| f.bound(chunk, at, up))
                                    })
                                })
                                .flatten()
                                .flat_map(|v| {
                                    [0.0, 2e-9, -2e-9, 5e-9, -5e-9, 2e-8, -2e-8, 1e-7, -1e-7]
                                        .map(|d| v * (1.0 + d))
                                })
                                .collect();
                            let lists = bs.iter().map(|&b| (b, &dense[..]));
                            let near = near_bounds.iter().map(|&b| (b, &widest[..]));
                            for (b, ids) in lists.chain(near) {
                                let sel = sel(b);
                                let bracket = KeyBracket::new(&cols, &sel).unwrap();
                                for ids in [ids, &sparse[..]] {
                                    let want: Vec<Verdict> =
                                        ids.iter().map(|&id| bracket.verdict(id)).collect();
                                    let got = settled(&bracket, ids);
                                    assert_eq!(got, want, "k = {k}, huge = {huge}, {sel:?}");
                                }
                                if huge || ids.len() != dense.len() {
                                    continue;
                                }
                                let mut group = [UNSEEN; GROUP_ROWS];
                                for from in (0..n / GROUP_ROWS).map(|g| g * GROUP_ROWS) {
                                    bracket.group(from, &mut group);
                                    settled_rows += group.iter().filter(|&&c| c != EXACT).count();
                                    rows += GROUP_ROWS;
                                }
                            }
                        }
                    }
                }
            }
        }
        // (Every ninth row has a key that is not finite, and goes to `verdict`.)
        assert!(
            settled_rows > rows * 4 / 5,
            "{settled_rows} of {rows} rows settled"
        );
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
    /// verdict agrees with the exact predicate, and T2 and `Auto`
    /// answer as the oracle — on the engine and on a pinned snapshot.
    #[test]
    fn columns_follow_churn_reopen_and_replay() {
        fn rows(db: &ConstraintDb) -> Vec<Option<Vec<f32>>> {
            let idx = db.relation("r").unwrap().index().expect("a dual index");
            let cols = idx.keys.as_ref().expect("2-D indexes keep keys");
            let n = db.relation("r").unwrap().slots.len() as u32;
            (0..n).map(|id| row(cols, id)).collect()
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
                    for strategy in [Strategy::T2, Strategy::Auto] {
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
        let kept: Vec<_> = (0..n).map(|id| row(cols, id)).collect();
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
