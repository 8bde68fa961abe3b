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

    /// The strip midpoint `(sᵢ + sⱼ)/2` toward the given side of slope `i`
    /// (Section 4.2 Step 1), or `None` at the ends of the set.
    pub fn mid(&self, i: usize, side: Side) -> Option<f64> {
        match side {
            Side::Prev if i > 0 => Some((self.slopes[i - 1] + self.slopes[i]) / 2.0),
            Side::Next if i + 1 < self.slopes.len() => {
                Some((self.slopes[i] + self.slopes[i + 1]) / 2.0)
            }
            _ => None,
        }
    }
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
        assert_eq!(s.mid(1, Side::Prev), Some(0.0));
        assert_eq!(s.mid(1, Side::Next), Some(2.0));
        assert_eq!(s.mid(0, Side::Prev), None);
        assert_eq!(s.mid(2, Side::Next), None);
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
