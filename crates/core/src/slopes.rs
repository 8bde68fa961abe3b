//! The predefined slope set `S` and its neighbourhood structure.
//!
//! Slopes are angular coefficients of non-vertical lines. The natural
//! topology is the *angle* `φ = atan(a) mod π ∈ (0, π)`: rotating a line
//! continuously walks `tan φ` from `0` up through `+∞`, wraps to `−∞` and
//! returns to `0`. The paper's Table 1 cases correspond to the cyclic
//! predecessor/successor in this angle order:
//!
//! * `a₁ < a < a₂` — the query slope lies between two slopes of `S`;
//! * `a₁ < a, a₂ < a` / `a < a₁, a < a₂` — the rotation wraps through the
//!   vertical.

use cdb_storage::{CodecError, RecordReader, RecordWriter, Wire};

use crate::query::Side;

/// A predefined, sorted set of `k ≥ 2` distinct slopes.
#[derive(Clone, Debug, PartialEq)]
pub struct SlopeSet {
    /// Slope values, ascending.
    slopes: Vec<f64>,
}

/// The slopes as a counted `f64` list. Persisted sets are canonical
/// (ascending, distinct), so anything [`SlopeSet::try_new`] would have to
/// reorder is damage, not input.
impl Wire for SlopeSet {
    fn put(&self, w: &mut RecordWriter) {
        self.slopes.put(w)
    }
    fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
        let raw = Vec::<f64>::get(r)?;
        match SlopeSet::try_new(raw.clone()) {
            Ok(set) if set.slopes == raw => Ok(set),
            _ => Err(CodecError::Invalid("slope set")),
        }
    }
}

/// Neighbourhood of a query slope (Table 1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bracket {
    /// The slope is (numerically) a member of `S`.
    Member(usize),
    /// `slopes[i] < a < slopes[i+1]`: the main case.
    Between(usize, usize),
    /// `a` is outside `[min S, max S]`: the rotation wraps through the
    /// vertical; `(clockwise, anticlockwise)` neighbour indices.
    Wrapped(usize, usize),
}

impl SlopeSet {
    /// Builds a slope set from arbitrary values (sorted, deduplicated).
    ///
    /// # Panics
    /// Panics where [`try_new`](Self::try_new) refuses.
    pub fn new(slopes: Vec<f64>) -> Self {
        Self::try_new(slopes).unwrap_or_else(|why| panic!("{why}"))
    }

    /// [`new`](Self::new) for values from outside the program (a request, a
    /// log record, the catalog): the one place a slope set is validated.
    ///
    /// # Errors
    /// The reason, with fewer than 2 distinct finite slopes.
    pub fn try_new(mut slopes: Vec<f64>) -> Result<Self, &'static str> {
        const REFUSED: &str = "a slope set needs at least 2 distinct finite slopes";
        if !slopes.iter().all(|s| s.is_finite()) {
            return Err(REFUSED);
        }
        slopes.sort_by(|a, b| a.partial_cmp(b).expect("finite slopes compare"));
        slopes.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        if slopes.len() < 2 {
            return Err(REFUSED);
        }
        Ok(SlopeSet { slopes })
    }

    /// `k` slopes `tan(φ)` at angles `φ` evenly spread over `(0, π)` away
    /// from the vertical — the paper's experimental configuration for
    /// `k ∈ {2, 3, 4, 5}`.
    pub fn uniform_tan(k: usize) -> Self {
        assert!(k >= 2, "k must be at least 2");
        let slopes = (0..k)
            .map(|i| {
                let phi = std::f64::consts::PI * (i as f64 + 0.5) / k as f64;
                // Nudge angles that fall on the vertical.
                let phi = if (phi - std::f64::consts::FRAC_PI_2).abs() < 0.05 {
                    phi + 0.1
                } else {
                    phi
                };
                phi.tan()
            })
            .collect();
        SlopeSet::new(slopes)
    }

    /// Number of slopes `k`.
    pub fn len(&self) -> usize {
        self.slopes.len()
    }

    /// Never true: construction requires `k ≥ 2`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Slope value at index `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.slopes[i]
    }

    /// All slopes, ascending.
    pub fn as_slice(&self) -> &[f64] {
        &self.slopes
    }

    /// Index of `a` if it is (numerically) in the set.
    ///
    /// The tolerance is relative to the *larger* magnitude of the two slopes
    /// being compared. Scaling by `|a|` alone made membership asymmetric for
    /// near-vertical slopes: a stored slope of `1e9` matched the query
    /// `1e9 + 100.0` (tolerance scaled up by the query) while the reverse
    /// comparison used a tolerance too small to match, so `bracket` routed
    /// one of the two equivalent queries to the approximate techniques.
    pub fn position(&self, a: f64) -> Option<usize> {
        self.slopes
            .iter()
            .position(|&s| (s - a).abs() <= 1e-9 * 1.0_f64.max(s.abs()).max(a.abs()))
    }

    /// Classifies a query slope per Table 1.
    pub fn bracket(&self, a: f64) -> Bracket {
        if let Some(i) = self.position(a) {
            return Bracket::Member(i);
        }
        let k = self.slopes.len();
        if a < self.slopes[0] || a > self.slopes[k - 1] {
            // Wrapped through the vertical: clockwise neighbour is the
            // largest slope, anticlockwise the smallest (in angle order the
            // extremes are cyclically adjacent through φ = 0/π).
            return Bracket::Wrapped(k - 1, 0);
        }
        let i = self.slopes.partition_point(|&s| s < a) - 1;
        Bracket::Between(i, i + 1)
    }

    /// The far end of the handicap strip on `side` of slope `i` (Section
    /// 4.2 Step 1): the midpoint `(sᵢ + sⱼ)/2` toward a neighbour `sⱼ`; at
    /// an end of `S`, the split of the strip wrapping from max `S` through
    /// the vertical to min `S`, in `t = 1/a` where the end's piece holds
    /// the vertical, else in `a`.
    pub fn mid(&self, i: usize, side: Side) -> StripEnd {
        let (k, s) = (self.slopes.len(), &self.slopes);
        match side {
            Side::Prev if i > 0 => StripEnd::Slope((s[i - 1] + s[i]) / 2.0),
            Side::Next if i + 1 < k => StripEnd::Slope((s[i] + s[i + 1]) / 2.0),
            _ if (i == 0 && s[i] < 0.0) || (i + 1 == k && s[i] > 0.0) => {
                StripEnd::Swapped(self.wrap_split())
            }
            _ => StripEnd::Slope(1.0 / self.wrap_split()),
        }
    }

    /// `t = 1/a` of the split of the wrap strip: where both ends hold the
    /// vertical, midway between them in `t` — the vertical itself where
    /// min S = −max S (to the tolerance of `position`); else the wrap holds
    /// `a = 0` too, and splits midway in angle between the two, at ∓1.
    fn wrap_split(&self) -> f64 {
        let (lo, hi) = (self.slopes[0], self.slopes[self.slopes.len() - 1]);
        match (lo < 0.0, hi > 0.0) {
            (true, true) if (lo + hi).abs() <= 1e-9 * hi.max(-lo) => 0.0,
            (true, true) => (1.0 / lo + 1.0 / hi) / 2.0,
            (false, _) => -1.0,
            (true, false) => 1.0,
        }
    }

    /// For a slope `a` outside `[min S, max S]`, the end of `S` whose piece
    /// of the wrap strip holds it, with the side that piece lies on: max
    /// `S` and [`Side::Next`] up to the split, then min `S` and
    /// [`Side::Prev`], turning anticlockwise from max `S`.
    pub(crate) fn wrapped_end(&self, a: f64) -> (usize, Side) {
        let k = self.slopes.len();
        let turn = |a: f64| (a.atan() - self.slopes[k - 1].atan()).rem_euclid(std::f64::consts::PI);
        if turn(a) <= turn(1.0 / self.wrap_split()) {
            (k - 1, Side::Next)
        } else {
            (0, Side::Prev)
        }
    }
}

/// The far end of a handicap strip of one slope of `S`, where a tuple's
/// reach over the strip is evaluated besides at the slope itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StripEnd {
    /// A slope `a`: the strip is an interval in `a`.
    Slope(f64),
    /// `t = 1/a` in the frame swapped through the vertical (`t = 0` is the
    /// vertical): the strip is an interval in `t`.
    Swapped(f64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_tan_counts_and_order() {
        for k in 2..=5 {
            let s = SlopeSet::uniform_tan(k);
            assert_eq!(s.len(), k);
            for w in s.as_slice().windows(2) {
                assert!(w[0] < w[1], "ascending");
            }
            // Mixed signs: angles spread over (0, π) on both sides of the
            // vertical (slopes are sorted, so the negative ones come first).
            assert!(
                s.get(0) < 0.0,
                "some angle beyond π/2 gives a negative slope"
            );
            assert!(
                s.get(k - 1) > 0.0,
                "some angle below π/2 gives a positive slope"
            );
        }
    }

    #[test]
    fn bracket_member() {
        let s = SlopeSet::new(vec![-1.0, 0.5, 2.0]);
        assert_eq!(s.bracket(0.5), Bracket::Member(1));
        assert_eq!(s.position(0.5 + 1e-12), Some(1));
    }

    #[test]
    fn position_tolerance_is_symmetric_for_large_slopes() {
        // Near-vertical slopes: |s| dominates |a| and vice versa. The
        // relative tolerance must scale with the larger magnitude, so the
        // same pair matches regardless of which value is stored and which
        // is queried.
        let huge = 4.0e9;
        let wiggle = 1.0; // well inside 1e-9 * 4e9 = 4.0
        let s = SlopeSet::new(vec![-huge, 0.25]);
        assert_eq!(s.position(-huge + wiggle), Some(0));
        assert_eq!(s.position(-huge - wiggle), Some(0));
        // And the mirrored configuration: query below the stored magnitude.
        let s2 = SlopeSet::new(vec![0.25, huge - wiggle]);
        assert_eq!(s2.position(huge), Some(1));
        // Far-off slopes still miss.
        assert_eq!(s.position(-huge + 100.0), None);
        assert_eq!(s.position(0.2500001), None);
    }

    #[test]
    fn bracket_between() {
        let s = SlopeSet::new(vec![-1.0, 0.5, 2.0]);
        assert_eq!(s.bracket(0.0), Bracket::Between(0, 1));
        assert_eq!(s.bracket(1.0), Bracket::Between(1, 2));
    }

    #[test]
    fn bracket_wrapped() {
        let s = SlopeSet::new(vec![-1.0, 0.5, 2.0]);
        assert_eq!(s.bracket(5.0), Bracket::Wrapped(2, 0));
        assert_eq!(s.bracket(-3.0), Bracket::Wrapped(2, 0));
    }

    #[test]
    fn mid_points() {
        let s = SlopeSet::new(vec![-1.0, 1.0, 3.0]);
        assert_eq!(s.mid(1, Side::Prev), StripEnd::Slope(0.0));
        assert_eq!(s.mid(1, Side::Next), StripEnd::Slope(2.0));
        // The wrap splits midway in t = 1/a between -1 and 3.
        let split = StripEnd::Swapped((1.0 / -1.0 + 1.0 / 3.0) / 2.0);
        assert_eq!(s.mid(0, Side::Prev), split);
        assert_eq!(s.mid(2, Side::Next), split);
    }

    /// The wrap strip's split: at the vertical where min S = −max S; in t
    /// for any S around a = 0; at a = ∓1 when S lies on one side of it,
    /// where the end facing a = 0 keeps its piece in a.
    #[test]
    fn wrap_splits_and_ends() {
        let symmetric = SlopeSet::uniform_tan(4);
        assert_eq!(symmetric.mid(0, Side::Prev), StripEnd::Swapped(0.0));
        assert_eq!(symmetric.mid(3, Side::Next), StripEnd::Swapped(0.0));
        for (a, end) in [(2.5, 3), (1e6, 3), (-1e6, 0), (-2.5, 0)] {
            let side = if end == 3 { Side::Next } else { Side::Prev };
            assert_eq!(symmetric.wrapped_end(a), (end, side), "a = {a}");
        }
        let positive = SlopeSet::new(vec![0.5, 2.0]);
        assert_eq!(positive.mid(1, Side::Next), StripEnd::Swapped(-1.0));
        assert_eq!(positive.mid(0, Side::Prev), StripEnd::Slope(-1.0));
        for (a, end) in [
            (2.5, 1),
            (1e6, 1),
            (-1e6, 1),
            (-1.0, 1),
            (-0.5, 0),
            (0.0, 0),
            (0.4, 0),
        ] {
            let side = if end == 1 { Side::Next } else { Side::Prev };
            assert_eq!(positive.wrapped_end(a), (end, side), "a = {a}");
        }
        let negative = SlopeSet::new(vec![-3.0, 0.0]);
        assert_eq!(negative.mid(0, Side::Prev), StripEnd::Swapped(1.0));
        assert_eq!(negative.mid(1, Side::Next), StripEnd::Slope(1.0));
        for (a, end) in [(0.5, 1), (1.0, 1), (1.5, 0), (1e6, 0), (-1e6, 0), (-4.0, 0)] {
            let side = if end == 1 { Side::Next } else { Side::Prev };
            assert_eq!(negative.wrapped_end(a), (end, side), "a = {a}");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_single_slope() {
        SlopeSet::new(vec![1.0, 1.0 + 1e-15]);
    }

    #[test]
    fn dedups_and_sorts() {
        let s = SlopeSet::new(vec![2.0, -1.0, 2.0, 0.0]);
        assert_eq!(s.as_slice(), &[-1.0, 0.0, 2.0]);
    }
}
