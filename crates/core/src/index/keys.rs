//! The dual keys a 2-D index holds for each tuple, as in-memory columns,
//! and the decision they make on their own (Section 2: `TOP_P` is convex
//! and `BOT_P` concave in the slope).
//!
//! [`KeyColumns`] is an id-indexed table of every tuple's surfaces at the
//! samples of a set `C` ([`SlopeSet::samples`]): the slopes of `S`, then
//! every distinct far end of a handicap strip ([`SlopeSet::mid`]) — at
//! `k = 4` the three midpoints between neighbours and the split of the
//! strip through the vertical, `2k` samples. A sample at a slope holds
//! `TOP_P` and `BOT_P` there; one in the frame swapped through the
//! vertical, `t = 1/a`, holds `TOP′(t) = max(x − t·y)` (convex in `t`)
//! and `BOT′(t) = min(x − t·y)` (concave). Beside each value it holds the
//! first coordinate in that frame (x, or y when swapped) of a vertex that
//! attains it, or `NaN` where no vertex was named (an infinite value, or a
//! tuple the simplex evaluated). Everything is the `f32` the trees would
//! store, so the keys at `S` are the trees' keys. The columns are derived,
//! never persisted: the index build fills them, every insert writes one
//! row and every delete clears one, and at open the verification pass
//! fills them from the heap (the leaves hold only `S`'s keys) and checks
//! every leaf against them. Rows live in fixed-size chunks behind an `Arc`
//! each, so a clone (a published snapshot) copies no key and a later write
//! copies the one chunk it touches. A chunk is column-major — each of its
//! `4·|C|` columns is contiguous — so one pass over a run of rows reads
//! each column front to back.
//!
//! [`KeyBracket`] bounds the surface a selection compares with its
//! intercept `b` at the query slope `a`, from a row alone. A frame in
//! which two samples of `C` lie around `a` is chosen — the plain one,
//! else the one swapped through the vertical, where the query reads
//! `TOP(a) = −a·BOT′(1/a)` and `BOT(a) = −a·TOP′(1/a)` for `a > 0`, the
//! other way round for `a < 0`, and a sample of the other frame is
//! converted the same way. For a convex `f` and samples `p ≤ x ≤ q`:
//!
//! * the chord through `f(p)` and `f(q)` lies above `f(x)`;
//! * each sample's tangent, the dual line of the vertex that attains it —
//!   `f(p) + (p − x)·v` for a sample of the query's frame, whose vertex
//!   has first coordinate `v` there; `−x·g + (1 − x·q)·v` for the value
//!   `g` and vertex `v` stored at `q` in the other frame — lies below.
//!
//! A concave `f` is the mirror case. A vertex's dual line lies between
//! the two surfaces at every slope, so a tangent is a bound whichever
//! attaining vertex was stored, ties included. Every bound is a linear
//! form in two columns of a row, so its weights are worked out once per
//! query and a candidate costs a few multiply-adds.
//!
//! [`KeyBracket::verdict`] is the one definition of the decision: each
//! bound widened by [`key_slack`] of every value it reads, through its
//! weight — for a vertex coordinate, the `f32` error of `v` times the
//! tangent's `|x − p|`. No key exceeds the columns' `max_key` in magnitude
//! and no vertex coordinate their `max_at`, and `key_slack` grows with
//! `|value|`, so a form's widening is at most its margin `m` — `key_slack`
//! of those maxima through the weights, summed in the same order.
//!
//! [`KeyBracket::settle`] reaches the same decision for a whole candidate
//! list in `f32` lanes. The candidates become a bit per row, one `u64` per
//! 64-row chunk, and each chunk they touch gets one pass over all its
//! rows: the chord and both tangents evaluated in `f32` with per-query
//! weights, signed so that a `Yes` reads `value ≥ b′` (`b′ = b` where the
//! predicate reads `b ≤ surface`, else `−b`), compared with per-query
//! `f32` thresholds, and the outcomes packed into a `Yes` and a `No` mask,
//! eight rows to a multiply. The pass reads only the columns the three
//! forms name, and a row it leaves open goes to `verdict`:
//!
//! * *The error bound.* Take a form `w₀·k₀ + w₁·k₁` whose columns hold at
//!   most `M₀` and `M₁` in magnitude, `W = |w₀|·M₀ + |w₁|·M₁`, and
//!   `u = 2⁻²⁴`. The pass computes `v = fl(fl(ŵ₀·k₀) + fl(ŵ₁·k₁))` with
//!   `ŵᵢ = fl(wᵢ)`, in `f32`, rounding to nearest, with no fused
//!   multiply-add. Rounding a weight errs by at most `u·|wᵢ| + 2⁻¹⁵⁰` (the
//!   absolute term is half the subnormal step, where relative error is
//!   unbounded), each product by `u·|ŵᵢ·kᵢ| + 2⁻¹⁵⁰`, and the sum by `u` of
//!   itself (sums of subnormals are exact). So while `v` is finite it lies
//!   within `(3u + 3u² + u³)·W + 2⁻¹⁴⁹·(2 + M₀ + M₁)` of the exact
//!   `V = w₀·k₀ + w₁·k₁`. `verdict` computes the same form in `f64`, within
//!   `2⁻⁵¹·W` of `V`, and widens it by a slack of at most `m`, rounded once
//!   more: its bound lies within `m + 2⁻⁵³·m + 2⁻⁵⁰·W` of `V` (`f64`
//!   underflow is far below `2⁻¹⁴⁹`). So the bound lies within
//!   `d = m + γ·(W + m) + 2⁻¹⁴⁹·(2 + M₀ + M₁)` of `v`, with `γ = 8u`,
//!   whose slack also covers working `d` out in `f64`.
//! * *The thresholds.* A form on the side a `Yes` reads settles `Yes` at
//!   `v ≥ ⌈b′ + d⌉` and rules its `Yes` out at `v < ⌊b′ − d⌋`. A form on the
//!   side a `No` reads is past the `No` threshold at `v ≤ ⌊b′ − 4t − d⌋`,
//!   with `t = 8·EPS·max(1, |b|)`: `approx_le`'s tolerance at a surface `x`
//!   is `8·EPS·max(1, |b|, |x|) ≤ t + 8·EPS·|x − b|`, so a surface `3t` or
//!   more past `b` is a `No`, and the step from `3t` to `4t` absorbs the
//!   `f64` rounding of `b′ − 4t` and of `verdict`'s own test. `⌈·⌉` and
//!   `⌊·⌋` take one `f64` step outward (which covers the rounding of the
//!   sum) and then round outward to `f32`; past `f32::MAX` they give `±∞`
//!   or `±f32::MAX`, which no finite `v` crosses the wrong way.
//! * *Why a settled code is the verdict.* A `Yes` needs a `Yes`-side form
//!   whose bound is then at least `b′`, so `verdict`'s bound on that side —
//!   the most of those forms' bounds, or the chord's alone — is too: a
//!   `Yes`. A `No` needs every `Yes`-side form's bound below `b′` (no `Yes`,
//!   which `verdict` tests first) and a `No`-side form's bound at most
//!   `b′ − 4t`, so the least of that side's bounds is past the tolerance: a
//!   `No`. A value that is not finite (`|v| ≤ f32::MAX` fails: a cleared
//!   row's `NaN`, a `±∞` key, an overflowed weight or product) settles
//!   nothing, nor does a `NaN` threshold. Every row the masks leave open —
//!   within `d` of a threshold, or not finite — goes to `verdict` itself,
//!   and debug builds check every settled row against it.

use std::sync::Arc;

use cdb_btree::key_slack;
use cdb_geometry::constraint::RelOp;
use cdb_geometry::dual::PlanarSurfaces;
use cdb_geometry::kernel2d::Extreme;
use cdb_geometry::scalar::EPS;
use cdb_geometry::tuple::TupleView;

use crate::query::{merge_ascending, order_ids, Selection, SelectionKind};
use crate::slopes::StripEnd;

#[cfg(doc)]
use crate::slopes::SlopeSet;

/// Rows per chunk: the most one write after a publish copies — 8 KiB of
/// `4·|C|` columns at k = 4 — and the rows of one mask word of
/// [`KeyBracket::settle`]'s pass.
const CHUNK_ROWS: usize = 64;
const _: () = assert!(CHUNK_ROWS == u64::BITS as usize);

/// A tuple's surfaces at every sample of `C`, in order: `(BOT, TOP)`, each
/// with its vertex, in the sample's frame.
pub(crate) type Row = Vec<(Extreme, Extreme)>;

/// The surfaces of every tuple at the samples of `C`, per id; see the
/// module docs.
#[derive(Clone, Debug)]
pub(crate) struct KeyColumns {
    /// The samples of `C`: the slopes of `S` first, in order, then the
    /// distinct strip ends.
    samples: Arc<[StripEnd]>,
    /// `CHUNK_ROWS` rows each, column-major: column `c` of the chunk's row
    /// `r` at `c · CHUNK_ROWS + r`; `NaN` where no row was written.
    chunks: Vec<Arc<Vec<f32>>>,
    /// At least every finite `|key|` ever written: raised by `set_row`,
    /// never lowered, so a cleared key may leave it high.
    max_key: f64,
    /// The same for every finite vertex coordinate.
    max_at: f64,
}

impl KeyColumns {
    /// Columns over the samples of `C`, holding no row.
    pub(crate) fn new(samples: Vec<StripEnd>) -> Self {
        KeyColumns {
            samples: samples.into(),
            chunks: Vec::new(),
            max_key: 0.0,
            max_at: 0.0,
        }
    }

    fn width(&self) -> usize {
        4 * self.samples.len()
    }

    /// The column of `TOP` (`up`) or `BOT` at sample `j`.
    fn key_col(&self, j: usize, up: bool) -> usize {
        if up {
            j
        } else {
            self.samples.len() + j
        }
    }

    /// The column of the vertex beside [`key_col`](Self::key_col).
    fn at_col(&self, j: usize, up: bool) -> usize {
        2 * self.samples.len() + self.key_col(j, up)
    }

    /// The most any finite value of column `col` has been in magnitude.
    fn max_abs(&self, col: usize) -> f64 {
        if col < 2 * self.samples.len() {
            self.max_key
        } else {
            self.max_at
        }
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

    /// A tuple's row: both surfaces and their vertices at every sample of
    /// `C`, from one enumeration of its vertices (over an owned tuple or a
    /// record in its page).
    ///
    /// # Panics
    /// On an unsatisfiable tuple (the relation layer rejects them at
    /// insert).
    pub(crate) fn row(&self, surfaces: &PlanarSurfaces<'_>) -> Row {
        let row = Self::sampled(&self.samples, surfaces);
        row.map(|e| e.expect("indexed tuples are satisfiable"))
            .collect()
    }

    /// [`row`](Self::row), one sample at a time; `None` where the tuple is
    /// empty.
    fn sampled<'s>(
        samples: &'s [StripEnd],
        surfaces: &'s PlanarSurfaces<'_>,
    ) -> impl Iterator<Item = Option<(Extreme, Extreme)>> + 's {
        samples.iter().map(|sample| match *sample {
            StripEnd::Slope(a) => surfaces.at(a),
            StripEnd::Swapped(t) => surfaces.swapped_at(t),
        })
    }

    /// Writes the row of `id` (one `(BOT, TOP)` per sample, in order),
    /// rounded as the trees store keys.
    pub(crate) fn set_row(&mut self, id: u32, row: impl IntoIterator<Item = (Extreme, Extreme)>) {
        let c = self.samples.len();
        let (mut max_key, mut max_at) = (self.max_key, self.max_at);
        let (chunk, at) = self.chunk_mut(id);
        for (j, (bot, top)) in row.into_iter().enumerate() {
            // The columns of `key_col` and `at_col`.
            for (col, e) in [(j, top), (c + j, bot)] {
                let (key, vertex) = (e.value as f32, e.at as f32);
                if key.is_finite() {
                    max_key = max_key.max(f64::from(key.abs()));
                }
                if vertex.is_finite() {
                    max_at = max_at.max(f64::from(vertex.abs()));
                }
                chunk[col * CHUNK_ROWS + at] = key;
                chunk[(2 * c + col) * CHUNK_ROWS + at] = vertex;
            }
        }
        (self.max_key, self.max_at) = (max_key, max_at);
    }

    /// Writes the rows of `records`, each an id and the bytes of its
    /// tuple as the heap stores them, evaluated half on another thread.
    /// `Err` names a record that is not a satisfiable 2-D tuple.
    pub(crate) fn fill(&mut self, records: &[(u32, &[u8])]) -> Result<(), String> {
        let c = self.samples.len();
        let none = Extreme {
            value: f64::NAN,
            at: f64::NAN,
        };
        let mut rows = vec![(none, none); records.len() * c];
        let samples = &self.samples;
        let evaluate = |records: &[(u32, &[u8])], rows: &mut [(Extreme, Extreme)]| {
            for (&(id, bytes), row) in records.iter().zip(rows.chunks_mut(c)) {
                let record = TupleView::new(bytes).filter(|r| r.dim() == 2);
                let record = record.ok_or_else(|| format!("record {id} is no 2-D tuple"))?;
                let surfaces = PlanarSurfaces::of_record(record);
                for (cell, e) in row.iter_mut().zip(Self::sampled(samples, &surfaces)) {
                    *cell = e.ok_or_else(|| format!("record {id} is empty"))?;
                }
            }
            Ok::<(), String>(())
        };
        let half = records.len() / 2;
        let (first, second) = records.split_at(half);
        let (first_rows, second_rows) = rows.split_at_mut(half * c);
        std::thread::scope(|scope| {
            let other = (half > 0).then(|| scope.spawn(|| evaluate(first, first_rows)));
            let mine = evaluate(second, second_rows);
            let other = other.map_or(Ok(()), |t| {
                t.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
            });
            other.and(mine)
        })?;
        for (&(id, _), row) in records.iter().zip(rows.chunks(c)) {
            self.set_row(id, row.iter().copied());
        }
        Ok(())
    }

    /// `TOP` (`up`) or `BOT` of `id` at sample `j` as stored, if its row
    /// is held.
    pub(crate) fn key(&self, id: u32, j: usize, up: bool) -> Option<f32> {
        let (chunk, at) = self.chunk(id)?;
        let key = chunk[self.key_col(j, up) * CHUNK_ROWS + at];
        (!key.is_nan()).then_some(key)
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

/// A linear form `Σ w·value` over two columns of a row.
#[derive(Clone, Copy)]
struct Form([(usize, f64); 2]);

impl Form {
    /// The form's value on row `at` of `chunk`, widened by the `f32`
    /// rounding of every value it reads ([`key_slack`] through its weight)
    /// toward `+∞` (`up`) or `−∞`; `None` when a value is missing or
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

    /// The most [`bound`](Self::bound) widens the form by when no value it
    /// reads exceeds its column's maximum in magnitude: the same sum, in
    /// the same order, at those maxima — with the form.
    fn with_margin(self, keys: &KeyColumns) -> (Self, f64) {
        let mut slack = 0.0;
        for &(col, w) in &self.0 {
            slack += w.abs() * key_slack(keys.max_abs(col));
        }
        (self, slack)
    }
}

/// One sample of `C` as the query's frame sees it: its position there,
/// and the columns and weights of its value and of its tangent at the
/// query's position `x`, each up to the query's `scale`.
#[derive(Clone, Copy)]
struct Seen {
    position: f64,
    value: (usize, f64),
    tangent: Form,
}

/// The per-query weights of the key decision (see the module docs): the
/// surface the selection compares with `b`, bounded at the query slope by
/// the chord through the two samples around it on one side and by their
/// tangents on the other.
pub(crate) struct KeyBracket<'k> {
    keys: &'k KeyColumns,
    b: f64,
    /// Whether the predicate reads `b ≤ surface` (else `surface ≤ b`).
    b_below: bool,
    /// The chord, and its margin.
    chord: (Form, f64),
    /// The two samples' tangents, and their margins.
    tangents: [(Form, f64); 2],
    /// Whether the chord bounds the surface from above (the tangents then
    /// bound it from below), or the reverse.
    chord_above: bool,
    /// Whether a `Yes` reads the chord (a `No` then reads the tangents), or
    /// the reverse.
    chord_says_yes: bool,
    /// The chord and the two tangents as the chunk pass reads them.
    narrow: [Narrow; 3],
}

impl<'k> KeyBracket<'k> {
    /// The weights for `sel` over `keys`; `None` for a selection that is
    /// not 2-D, or a slope no two samples bracket in either frame.
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
        // The surface is scale · f(x) in one of the frames, f convex when
        // it is a TOP: in `a`, else through the vertical in `t = 1/a`.
        let frame = |swapped: bool| {
            let (x, scale, convex) = if swapped {
                (1.0 / a, -a, top == (a < 0.0))
            } else {
                (a, 1.0, top)
            };
            let (p, q) = Self::around(keys, swapped, x, convex)?;
            Some((p, q, x, scale, convex))
        };
        let (p, q, x, scale, convex) = frame(false).or_else(|| frame(true))?;
        let span = q.position - p.position;
        let (wp, wq) = ((q.position - x) / span, (x - p.position) / span);
        let scaled = |form: Form| {
            let Form([(c0, w0), (c1, w1)]) = form;
            Form([(c0, scale * w0), (c1, scale * w1)]).with_margin(keys)
        };
        let chord = scaled(Form([
            (p.value.0, wp * p.value.1),
            (q.value.0, wq * q.value.1),
        ]));
        let tangents = [scaled(p.tangent), scaled(q.tangent)];
        // A convex f lies under its chords and over its tangents; scaling
        // by a negative factor swaps the two.
        let chord_above = convex == (scale > 0.0);
        // Signed so that Yes is `surface ≥ b`: the side a Yes reads is the
        // chord's when it bounds the surface from below.
        let sign = if b_below { 1.0 } else { -1.0 };
        let chord_says_yes = chord_above != b_below;
        let at = |(form, margin), says_yes| Narrow::new(keys, form, margin, sign, b, says_yes);
        Some(KeyBracket {
            keys,
            b,
            b_below,
            chord,
            tangents,
            chord_above,
            chord_says_yes,
            narrow: [
                at(chord, chord_says_yes),
                at(tangents[0], !chord_says_yes),
                at(tangents[1], !chord_says_yes),
            ],
        })
    }

    /// The two samples of `keys` around `x` in the frame (`swapped` or
    /// not) — the last at or below `x` and the first above it, or, at the
    /// last position, the two last — as `f` (a TOP-like surface when
    /// `convex`) reads them there; `None` where no two are. (One direction
    /// named in both frames counts once.)
    fn around(keys: &KeyColumns, swapped: bool, x: f64, convex: bool) -> Option<(Seen, Seen)> {
        let (mut below, mut above, mut before) = (None, None, None);
        let nearer = |best: Option<Seen>, p: f64, closer: fn(f64, f64) -> bool| {
            best.is_none_or(|b: Seen| closer(p, b.position))
        };
        for j in 0..keys.samples.len() {
            let Some(seen) = Self::seen(keys, j, swapped, x, convex) else {
                continue;
            };
            let p = seen.position;
            if p <= x && nearer(below, p, |p, b| p > b) {
                below = Some(seen);
            }
            if p > x && nearer(above, p, |p, a| p < a) {
                above = Some(seen);
            }
            if p < x && nearer(before, p, |p, b| p > b) {
                before = Some(seen);
            }
        }
        match (below, above) {
            (Some(p), Some(q)) => Some((p, q)),
            (Some(last), None) if last.position == x => Some((before?, last)),
            _ => None,
        }
    }

    /// Sample `j` as `f` reads it in the frame at `x`, if it has a
    /// position there.
    fn seen(keys: &KeyColumns, j: usize, swapped: bool, x: f64, convex: bool) -> Option<Seen> {
        let (native, q) = match keys.samples[j] {
            StripEnd::Slope(a) => (!swapped, a),
            StripEnd::Swapped(t) => (swapped, t),
        };
        if native {
            let (key, at) = (keys.key_col(j, convex), keys.at_col(j, convex));
            return Some(Seen {
                position: q,
                value: (key, 1.0),
                tangent: Form([(key, 1.0), (at, q - x)]),
            });
        }
        // Through the vertical: f(1/q) = −g(q)/q, g the other kind of
        // surface where q > 0, and the vertex (u, v) of g at q lies on the
        // line u − x·v of the other frame, where u = g + q·v.
        let up = convex == (q < 0.0);
        let (key, at) = (keys.key_col(j, up), keys.at_col(j, up));
        (q != 0.0).then(|| Seen {
            position: 1.0 / q,
            value: (key, -1.0 / q),
            tangent: Form([(key, -x), (at, 1.0 - x * q)]),
        })
    }

    /// The decision for the candidate `id`: `Yes` or `No` only where the
    /// widened bounds clear `approx_le`'s tolerance on the right side of
    /// `b`; `Fetch` whenever a bound is missing (no row, a value that is
    /// not finite).
    pub(crate) fn verdict(&self, id: u32) -> Verdict {
        let Some((chunk, at)) = self.keys.chunk(id) else {
            return Verdict::Fetch;
        };
        let (chord_up, tangent_up) = (self.chord_above, !self.chord_above);
        let chord = self.chord.0.bound(chunk, at, chord_up);
        let tangents = self
            .tangents
            .iter()
            .filter_map(|(f, _)| f.bound(chunk, at, tangent_up));
        let tangent = if tangent_up {
            tangents.fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.min(v))))
        } else {
            tangents.fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.max(v))))
        };
        let (below, above) = if self.chord_above {
            (tangent, chord)
        } else {
            (chord, tangent)
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

    /// Decides the candidates in `check` (distinct ids) as
    /// [`verdict`](Self::verdict) does, with one pass over each chunk of
    /// rows they touch: a `Yes` joins `sure`, a `No` leaves `check`, and
    /// both lists leave ascending. Returns how many were rejected.
    pub(crate) fn settle(&self, check: &mut Vec<u32>, sure: &mut Vec<u32>) -> u64 {
        let chunks = &self.keys.chunks;
        // A bit per candidate, a word per chunk; an id past the last chunk
        // has no row, so it is fetched.
        let mut candidates = vec![0u64; chunks.len()];
        let mut rowless = Vec::new();
        for &id in check.iter() {
            match candidates.get_mut(id as usize / CHUNK_ROWS) {
                Some(word) => *word |= 1 << (id as usize % CHUNK_ROWS),
                None => rowless.push(id),
            }
        }
        let (mut accepted, mut rejected) = (Vec::with_capacity(check.len()), 0);
        check.clear();
        let touched = chunks.iter().zip(&candidates).enumerate();
        for (at, (chunk, &word)) in touched.filter(|(_, (_, &word))| word != 0) {
            let from = (at * CHUNK_ROWS) as u32;
            let (yes, no) = self.chunk_masks(chunk);
            let (mut yes, mut no) = (yes & word, no & word);
            if cfg!(debug_assertions) {
                for (settled, verdict) in [(yes, Verdict::Yes), (no, Verdict::No)] {
                    for id in rows(from, settled) {
                        assert_eq!(self.verdict(id), verdict, "settled row {id}");
                    }
                }
            }
            for id in rows(from, word & !(yes | no)) {
                let bit = 1 << (id - from);
                match self.verdict(id) {
                    Verdict::Yes => yes |= bit,
                    Verdict::No => no |= bit,
                    Verdict::Fetch => {}
                }
            }
            check.extend(rows(from, word & !(yes | no)));
            accepted.extend(rows(from, yes));
            rejected += u64::from(no.count_ones());
        }
        rowless.sort_unstable();
        check.append(&mut rowless);
        order_ids(sure);
        merge_ascending(sure, &accepted);
        rejected
    }

    /// The rows of one chunk the `f32` forms settle as `Yes`, and those
    /// they settle as `No`, a bit each (see the module docs).
    fn chunk_masks(&self, chunk: &[f32]) -> (u64, u64) {
        if self.chord_says_yes {
            self.chunk_pass::<true>(chunk)
        } else {
            self.chunk_pass::<false>(chunk)
        }
    }

    /// [`chunk_masks`](Self::chunk_masks) where a `Yes` reads the chord
    /// (`CHORD_SAYS_YES`, a `No` then reads the tangents) or the reverse.
    fn chunk_pass<const CHORD_SAYS_YES: bool>(&self, chunk: &[f32]) -> (u64, u64) {
        let column = |c: usize| -> &[f32; CHUNK_ROWS] {
            chunk[c * CHUNK_ROWS..][..CHUNK_ROWS]
                .try_into()
                .expect("a column of a chunk")
        };
        let [c, p, q] = self
            .narrow
            .map(|f| (f, column(f.cols[0]), column(f.cols[1])));
        let value = |(f, k0, k1): (Narrow, &[f32; CHUNK_ROWS], &[f32; CHUNK_ROWS]), r: usize| {
            f.w[0] * k0[r] + f.w[1] * k1[r]
        };
        let (mut yes, mut no) = ([0u8; CHUNK_ROWS], [0u8; CHUNK_ROWS]);
        for r in 0..CHUNK_ROWS {
            let (vc, vp, vq) = (value(c, r), value(p, r), value(q, r));
            let finite = (vc.abs() <= f32::MAX) & (vp.abs() <= f32::MAX) & (vq.abs() <= f32::MAX);
            // (`not_yes` rules `says_yes` out: each form's `not_yes` lies
            // at or below its `yes`.)
            let (says_yes, not_yes, says_no) = if CHORD_SAYS_YES {
                (
                    vc >= c.0.yes,
                    vc < c.0.not_yes,
                    (vp <= p.0.no) | (vq <= q.0.no),
                )
            } else {
                (
                    (vp >= p.0.yes) | (vq >= q.0.yes),
                    (vp < p.0.not_yes) & (vq < q.0.not_yes),
                    vc <= c.0.no,
                )
            };
            yes[r] = u8::from(finite & says_yes);
            no[r] = u8::from(finite & not_yes & says_no);
        }
        (bits(&yes), bits(&no))
    }
}

/// `γ` of the module docs: eight units of `f32` rounding.
const GAMMA: f64 = 8.0 / 16_777_216.0;

/// The absolute term of the module docs' bound, per unit: `2⁻¹⁴⁹`, the
/// least subnormal `f32`.
const TINY: f64 = 1.401_298_464_324_817e-45;

/// A form of the bracket as the chunk pass reads it: its two columns, its
/// weights in `f32` times the sign that makes `Yes` read `value ≥ b`, and
/// its thresholds, each moved outward past every value `verdict` could
/// read for the form and rounded outward to `f32` (see the module docs).
#[derive(Clone, Copy)]
struct Narrow {
    cols: [usize; 2],
    w: [f32; 2],
    /// At or above it the form settles `Yes`.
    yes: f32,
    /// Below it the form leaves no `Yes`.
    not_yes: f32,
    /// At or below it the form is past the `No` threshold.
    no: f32,
}

impl Narrow {
    /// `form` and its margin, signed by `sign`, against the intercept `b`:
    /// read for a `Yes` (`says_yes`) or for a `No`.
    fn new(keys: &KeyColumns, form: Form, margin: f64, sign: f64, b: f64, says_yes: bool) -> Self {
        let Form([(c0, w0), (c1, w1)]) = form;
        let (m0, m1) = (keys.max_abs(c0), keys.max_abs(c1));
        let reach = w0.abs() * m0 + w1.abs() * m1;
        let d = margin + GAMMA * (reach + margin) + TINY * (2.0 + m0 + m1);
        let b = sign * b;
        let (yes, not_yes, no) = if says_yes {
            (up(b + d), down(b - d), f32::NEG_INFINITY)
        } else {
            // `approx_le`'s tolerance at b is at least t; a surface 4t
            // past b is a No (`verdict`'s docs).
            let t = 8.0 * EPS * 1.0_f64.max(b.abs());
            (f32::INFINITY, f32::INFINITY, down(b - 4.0 * t - d))
        };
        Narrow {
            cols: [c0, c1],
            w: [(sign * w0) as f32, (sign * w1) as f32],
            yes,
            not_yes,
            no,
        }
    }
}

/// The least `f32` at or above `x`, a sum just rounded to nearest: one
/// `f64` step up first. `NaN` stays `NaN`.
fn up(x: f64) -> f32 {
    let x = x.next_up();
    let y = x as f32;
    if f64::from(y) < x {
        y.next_up()
    } else {
        y
    }
}

/// The greatest `f32` at or below `x`, as [`up`] does the other way.
fn down(x: f64) -> f32 {
    -up(-x)
}

/// A bit per byte of `flags` (each 0 or 1), row `r` at bit `r`: eight
/// bytes at a time, each moved to its place by one multiply.
fn bits(flags: &[u8; CHUNK_ROWS]) -> u64 {
    let mut word = 0;
    for (i, eight) in flags.chunks_exact(8).enumerate() {
        let eight = u64::from_le_bytes(eight.try_into().expect("eight bytes"));
        word |= (eight.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
    }
    word
}

/// The rows of `word`'s set bits, ascending, counted from row `from`.
fn rows(from: u32, mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let r = word.trailing_zeros();
            word &= word - 1;
            from + r
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{ConstraintDb, DbConfig};
    use crate::query::Strategy;
    use crate::slopes::SlopeSet;
    use cdb_geometry::constraint::LinearConstraint;
    use cdb_geometry::halfplane::HalfPlane;
    use cdb_geometry::predicates::oracle_select;
    use cdb_geometry::tuple::GeneralizedTuple;
    use cdb_geometry::Rect;
    use cdb_prng::StdRng;
    use cdb_workload::{ObjectSize, TupleGen};

    /// Columns holding the rows of `tuples` (ids in order) over the
    /// samples of `slopes`, each key and vertex coordinate stored as
    /// `store(value, id)` makes it.
    fn columns(
        slopes: &SlopeSet,
        tuples: &[GeneralizedTuple],
        store: impl Fn(f64, usize) -> f32,
    ) -> KeyColumns {
        let mut cols = KeyColumns::new(slopes.samples());
        for (id, t) in tuples.iter().enumerate() {
            let stored = |e: Extreme| Extreme {
                value: f64::from(store(e.value, id)),
                at: f64::from(store(e.at, id)),
            };
            let row = cols.row(&PlanarSurfaces::new(t));
            let row: Vec<_> = row
                .into_iter()
                .map(|(b, t)| (stored(b), stored(t)))
                .collect();
            cols.set_row(id as u32, row);
        }
        cols
    }

    /// The columns of `id` — `TOP` at every sample, then `BOT`, then their
    /// vertices — if a row of it is held and not cleared.
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

    /// Query slopes at and just past every sample of `C` — each strip end
    /// and the vertical included — and beyond the ends of `S`.
    fn slopes_at_samples(slopes: &SlopeSet) -> Vec<f64> {
        let k = slopes.len();
        let (lo, hi) = (slopes.get(0), slopes.get(k - 1));
        let mut at = vec![0.3, -1.7, 1e6, -1e6, 1e-7, lo - 0.01, hi + 0.01];
        for sample in slopes.samples() {
            let a = match sample {
                StripEnd::Slope(a) => a,
                StripEnd::Swapped(t) if t != 0.0 => 1.0 / t,
                StripEnd::Swapped(_) => {
                    at.extend([1e300, -1e300, 1e15, -1e15]);
                    continue;
                }
            };
            at.extend([a, a.next_up(), a.next_down(), a * (1.0 + 1e-9)]);
        }
        at
    }

    /// The hard cases, none decided wrongly: keys and vertex coordinates
    /// one `f32` step off either way, intercepts exactly on a vertex's
    /// dual line, slopes at and just past every strip end and the ends of
    /// `S`, near and at the vertical, `k = 2…5`, `TOP` attained along an
    /// edge (a rectangle at slope 0 and at the vertical), rows the simplex
    /// evaluated (no vertex: a 20-gon, past the kernel's capacity), and
    /// unbounded tuples with `±∞` keys.
    #[test]
    fn hard_cases_get_no_wrong_decision() {
        let mut g = TupleGen::new(0xB1, Rect::paper_window(), ObjectSize::Medium);
        let polygons: Vec<_> = (0..14).map(|_| g.bounded_polygon()).collect();
        let mut points: Vec<[f64; 2]> = polygons.iter().flat_map(|p| p.points().to_vec()).collect();
        let mut tuples: Vec<GeneralizedTuple> = polygons.iter().map(|p| p.to_tuple()).collect();
        tuples.extend((0..8).map(|_| g.unbounded_tuple()));
        let rectangle = cdb_geometry::parse::parse_tuple("x >= -3 && x <= 5 && y >= 2 && y <= 7");
        tuples.push(rectangle.expect("a rectangle"));
        points.extend([[-3.0, 2.0], [5.0, 2.0], [5.0, 7.0], [-3.0, 7.0]]);
        // A 20-gon about (10, −4): past the kernel's rows, the simplex's.
        let corner = |i: usize| {
            let phi = std::f64::consts::TAU * i as f64 / 20.0;
            [10.0 + 8.0 * phi.cos(), -4.0 + 8.0 * phi.sin()]
        };
        let sides = (0..20).map(|i| {
            let ([x0, y0], [x1, y1]) = (corner(i), corner(i + 1));
            // Inside is to the left of each edge, anticlockwise.
            let (a, b) = (y0 - y1, x1 - x0);
            LinearConstraint::new2d(a, b, -(a * x0 + b * y0), RelOp::Ge)
        });
        let gon = GeneralizedTuple::new(sides.collect());
        assert!(PlanarSurfaces::new(&gon).at(0.3).unwrap().1.at.is_nan());
        tuples.push(gon);
        points.extend((0..20).map(corner));
        // Each value as the f32 on its other side from the nearest one: a
        // whole f32 step from what the tree stores, within one of the value.
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
            for nudged in [false, true] {
                let cols = columns(&slopes, &tuples, |key, id| {
                    if nudged {
                        step(key, id)
                    } else {
                        key as f32
                    }
                });
                for a in slopes_at_samples(&slopes) {
                    // Intercepts on every vertex's dual line `b = y − a·x`,
                    // plus some that separate nothing.
                    let mut bs: Vec<f64> = points.iter().map(|[x, y]| y - a * x).collect();
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

    /// What `settle` makes of `ids` (distinct, in any order), per id: a
    /// `Yes` is what it moved to `sure`, a `Fetch` what it left in `check`,
    /// a `No` what it dropped — and both lists ascend, `sure` with the ids
    /// it held before merged in.
    fn settled(bracket: &KeyBracket, ids: &[u32]) -> Vec<Verdict> {
        let held = [u32::MAX, u32::MAX - 1];
        let (mut check, mut sure) = (ids.to_vec(), held.to_vec());
        let rejected = bracket.settle(&mut check, &mut sure);
        assert_eq!(sure.split_off(sure.len() - 2), [u32::MAX - 1, u32::MAX]);
        let mut got = vec![Verdict::No; *ids.iter().max().unwrap() as usize + 1];
        for (list, verdict) in [(&sure, Verdict::Yes), (&check, Verdict::Fetch)] {
            for &id in list {
                got[id as usize] = verdict;
            }
            let mut want: Vec<u32> = ids
                .iter()
                .copied()
                .filter(|&id| got[id as usize] == verdict)
                .collect();
            want.sort_unstable();
            assert_eq!(list, &want, "{verdict:?} not ascending");
        }
        let verdicts: Vec<Verdict> = ids.iter().map(|&id| got[id as usize]).collect();
        let no = verdicts.iter().filter(|&&v| v == Verdict::No).count();
        assert_eq!(rejected, no as u64);
        verdicts
    }

    /// The chunk pass decides every id as `verdict` does, chords and
    /// tangents over `C` alike, over the dense list (every row in reverse,
    /// and an id past the last chunk) and a sparse one: keys and vertices
    /// a whole `f32` step off, `b` on every vertex's dual line, slopes at
    /// and just past every sample of `C` and outside the ends of `S`,
    /// `k = 2…5`, `±∞` keys, cleared rows, a partial last chunk — and
    /// again once a deleted huge row has left the margins wide. Intercepts within a few
    /// `approx_le` tolerances of a bound, on the row whose key is the
    /// columns' largest (its margin is its slack), probe the thresholds.
    /// The `f32` pass settles most rows, `Yes` or `No`, on its own.
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
        // Two rows in three store each key and vertex a whole f32 step past
        // the nearest one, up or down.
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
        let edge = CHUNK_ROWS as u32;
        let sparse = [0, edge - 1, edge, edge + 44, n as u32 - 1, past];
        let (mut settled_rows, mut rows) = (0, 0);
        for k in [2, 3, 4, 5] {
            let slopes = SlopeSet::uniform_tan(k);
            let mut cols = columns(&slopes, &tuples, step);
            for id in [5, edge, edge + 1, n as u32 - 2] {
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
            let query_slopes = slopes_at_samples(&slopes);
            for huge in [false, true] {
                if huge {
                    // A huge row written and deleted: the bounds stay high.
                    let e = Extreme {
                        value: 3e30,
                        at: -3e30,
                    };
                    cols.set_row(past + 1, vec![(e, e); cols.samples.len()]);
                    cols.clear(past + 1);
                    assert_eq!(cols.max_key, f64::from(3e30_f32));
                    assert_eq!(cols.max_at, f64::from(3e30_f32));
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
                            let forms = std::iter::once(&probe.chord).chain(&probe.tangents);
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
                                for chunk in &cols.chunks[..n / CHUNK_ROWS] {
                                    let (yes, no) = bracket.chunk_masks(chunk);
                                    settled_rows += (yes | no).count_ones() as usize;
                                    rows += CHUNK_ROWS;
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

    /// The `f32` pass at its edges, id by id against `verdict` — in release
    /// builds too, where `settle`'s own check is compiled out: intercepts
    /// one `f32` step either side of where each form's widened thresholds
    /// meet a row's `f32` value, `b = ±1e300`, slopes through the vertical
    /// whose weights are large (up to past `f32::MAX`), cleared (`NaN`)
    /// rows, unbounded tuples' `±∞` keys, a partial last chunk and an id
    /// past it, on ordinary tuples and on tiny ones (where `key_slack`'s
    /// floor dominates); then with `max_key` and `max_at` at 3e30, where the pass
    /// must leave every ordinary row to `verdict` at every intercept among
    /// their values, and the huge row's products overflow at the steep
    /// slopes.
    #[test]
    fn f32_pass_agrees_with_verdict_at_its_edges() {
        let mut g = TupleGen::new(0xF32, Rect::paper_window(), ObjectSize::Medium);
        // Two whole chunks and a partial third; every seventh tuple unbounded.
        let n = 2 * CHUNK_ROWS + 21;
        let ordinary: Vec<GeneralizedTuple> = (0..n)
            .map(|id| {
                if id % 7 == 6 {
                    g.unbounded_tuple()
                } else {
                    g.bounded_tuple()
                }
            })
            .collect();
        // Squares a millionth across: every key so small that `key_slack`'s
        // absolute floor, not `γ`, is most of each form's `d`.
        let mut rng = StdRng::seed_from_u64(0xF32);
        let tiny: Vec<GeneralizedTuple> = (0..n)
            .map(|_| {
                let (x, y) = (rng.gen_range(-1e-5..1e-5), rng.gen_range(-1e-5..1e-5));
                let square = format!(
                    "x >= {x:.12} && x <= {:.12} && y >= {y:.12} && y <= {:.12}",
                    x + 1e-6,
                    y + 1e-6
                );
                cdb_geometry::parse::parse_tuple(&square).expect("a square")
            })
            .collect();
        let past = (n.div_ceil(CHUNK_ROWS) * CHUNK_ROWS + 3) as u32;
        let huge = n as u32 - 2;
        let ids: Vec<u32> = (0..n as u32).chain([past]).collect();
        let probed = [0, 1, 2, 64, 65, 130];
        // The f32 value the pass computes for `form` on row `id`.
        let value = |cols: &KeyColumns, form: &Narrow, id: u32| {
            let (chunk, at) = cols.chunk(id).unwrap();
            let [k0, k1] = form.cols.map(|c| chunk[c * CHUNK_ROWS + at]);
            form.w[0] * k0 + form.w[1] * k1
        };
        // Whether the pass settled row `id`.
        let passed = |cols: &KeyColumns, bracket: &KeyBracket, id: u32| {
            let (chunk, at) = cols.chunk(id).unwrap();
            let (yes, no) = bracket.chunk_masks(chunk);
            (yes | no) >> at & 1 == 1
        };
        let (mut settled_probes, mut open_probes, mut overflowed) = (0, 0, 0);
        for (k, tuples) in [(2, &ordinary), (4, &ordinary), (5, &ordinary), (4, &tiny)] {
            let slopes = SlopeSet::uniform_tan(k);
            let mut cols = columns(&slopes, tuples, |v, _| v as f32);
            for id in [3, CHUNK_ROWS as u32, n as u32 - 1] {
                cols.clear(id);
            }
            let mut query_slopes = slopes_at_samples(&slopes);
            for steep in [30.0, 150.0, 1e3, 1e9, 1e30, 1e39] {
                query_slopes.extend([steep, -steep]);
            }
            for huge_row in [false, true] {
                if huge_row {
                    let e = Extreme {
                        value: 3e30,
                        at: 3e30,
                    };
                    cols.set_row(huge, vec![(e, e); cols.samples.len()]);
                }
                for &a in &query_slopes {
                    for op in [RelOp::Ge, RelOp::Le] {
                        for kind in [SelectionKind::Exist, SelectionKind::All] {
                            let sel = |b| Selection {
                                kind,
                                halfplane: HalfPlane::new2d(a, b, op),
                            };
                            let Some(probe) = KeyBracket::new(&cols, &sel(0.0)) else {
                                continue;
                            };
                            // In the signed frame Yes reads `value ≥ b`, so
                            // b lands a Yes-side form's thresholds on v at
                            // v ∓ d, and a No-side form's past the No
                            // tolerance, at v + 4t + d. Each form's d is
                            // read back from its thresholds at b = 0, where
                            // 4t = 32·EPS.
                            let sign = if op == RelOp::Ge { 1.0 } else { -1.0 };
                            let mut bs = vec![1e300, -1e300, 0.0];
                            for &id in &probed {
                                for form in &probe.narrow {
                                    let v = f64::from(value(&cols, form, id));
                                    let [yes, not_yes, no] =
                                        [form.yes, form.not_yes, form.no].map(f64::from);
                                    let ats = if no == f64::NEG_INFINITY {
                                        let d = yes.min(-not_yes);
                                        vec![v - d, v + d]
                                    } else {
                                        let at = v + (-no - 32.0 * EPS);
                                        vec![at + 32.0 * EPS * at.abs().max(1.0)]
                                    };
                                    if !v.is_finite() || ats.iter().any(|at| !at.is_finite()) {
                                        continue;
                                    }
                                    for at in ats {
                                        let step = f64::from((at as f32).abs().next_up())
                                            - f64::from((at as f32).abs());
                                        bs.extend([at - step, at, at + step].map(|b| sign * b));
                                    }
                                }
                            }
                            for b in bs {
                                let sel = sel(b);
                                let bracket = KeyBracket::new(&cols, &sel).unwrap();
                                let want: Vec<Verdict> =
                                    ids.iter().map(|&id| bracket.verdict(id)).collect();
                                assert_eq!(settled(&bracket, &ids), want, "k = {k}, {sel:?}");
                                for &id in &probed {
                                    if passed(&cols, &bracket, id) {
                                        settled_probes += 1;
                                    } else {
                                        open_probes += 1;
                                    }
                                }
                                // (Intercepts past 3e30's margins settle.)
                                if !huge_row || b.abs() > 1e6 {
                                    continue;
                                }
                                for id in (0..n as u32).filter(|&id| id != huge) {
                                    assert!(!passed(&cols, &bracket, id), "row {id}, {sel:?}");
                                }
                                let products = bracket.narrow.iter().map(|f| value(&cols, f, huge));
                                if products.clone().any(|v| v.is_infinite()) {
                                    overflowed += 1;
                                    assert!(!passed(&cols, &bracket, huge), "{sel:?}");
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            settled_probes > 0 && open_probes > 0,
            "{settled_probes} / {open_probes}"
        );
        assert!(overflowed > 0, "no huge product overflowed");
    }

    /// At `k = 2` the tangents bound each surface from the side no chord
    /// does, so both sides are decided, between the slopes and through the
    /// vertical alike: `C` is −1, 1, the midpoint 0 and the vertical.
    #[test]
    fn two_slopes_decide_both_sides() {
        let slopes = SlopeSet::new(vec![-1.0, 1.0]);
        assert_eq!(
            slopes.samples(),
            [
                StripEnd::Slope(-1.0),
                StripEnd::Slope(1.0),
                StripEnd::Swapped(0.0),
                StripEnd::Slope(0.0)
            ]
        );
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
        // TOP(0) = 1 is a sample: its chord and tangent both give 1.
        assert_eq!(verdict(exist(0.0, 3.0)), Verdict::No);
        assert_eq!(verdict(exist(0.0, 0.5)), Verdict::Yes);
        assert_eq!(
            verdict(Selection::all(HalfPlane::below(0.0, 3.0))),
            Verdict::Yes
        );
        // TOP(0.5) = 1, under the chord through TOP(0) = 1 and TOP(1) = 1
        // and over the tangent of (0, 1): both sides of b = 1 ± 0.01.
        assert_eq!(verdict(exist(0.5, 1.01)), Verdict::No);
        assert_eq!(verdict(exist(0.5, 0.99)), Verdict::Yes);
        // TOP(2) = 1 = −2·BOT′(1/2): under the chord through BOT′(0) = 0
        // and BOT′(1) = −1, BOT′(1/2) ≥ −1/2, so TOP(2) ≤ 1; and the
        // vertex of BOT′(0) (x = 0, y ∈ [0, 1]) bounds TOP(2) from below
        // by y ≥ 0.
        assert_eq!(verdict(exist(2.0, 2.0)), Verdict::No);
        assert_eq!(verdict(exist(2.0, -5.0)), Verdict::Yes);
    }

    /// Maintained by insert and delete, restored at reopen and by log
    /// replay; a snapshot keeps the columns it was published with. At
    /// every step the columns hold exactly the live tuples' keys, every
    /// verdict agrees with the exact predicate, and T2 and `Auto`
    /// answer as the oracle — on the engine and on a pinned snapshot.
    #[test]
    fn columns_follow_churn_reopen_and_replay() {
        // Rows as bits: a vertex the simplex named is NaN.
        fn bits(cols: &KeyColumns, id: u32) -> Option<Vec<u32>> {
            Some(row(cols, id)?.into_iter().map(f32::to_bits).collect())
        }
        fn rows(db: &ConstraintDb) -> Vec<Option<Vec<u32>>> {
            let idx = db.relation("r").unwrap().index().expect("a dual index");
            let cols = idx.keys.as_ref().expect("2-D indexes keep keys");
            let n = db.relation("r").unwrap().slots.len() as u32;
            (0..n).map(|id| bits(cols, id)).collect()
        }
        fn expected(
            model: &[Option<GeneralizedTuple>],
            slopes: &SlopeSet,
        ) -> Vec<Option<Vec<u32>>> {
            let tuples: Vec<GeneralizedTuple> = model.iter().flatten().cloned().collect();
            let cols = columns(slopes, &tuples, |v, _| v as f32);
            let mut live = (0u32..).map(|id| bits(&cols, id));
            let expect = |t: &Option<GeneralizedTuple>| t.as_ref().and_then(|_| live.next()?);
            model.iter().map(expect).collect()
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
        let kept: Vec<_> = (0..n).map(|id| bits(cols, id)).collect();
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
