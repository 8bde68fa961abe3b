//! Technique T1 as an ablation: Table 1's app-queries (Section 4.1) and
//! the d-dimensional simplex covering (Section 4.4), composed over the
//! engine's public API. The engine itself answers every slope outside `S`
//! with T2; T1 is what its experiments compare T2 against.
//!
//! An app-query is a restricted search at a member of `S`, forced per
//! leg. Every leg keeps the query's intercept `b`, so the legs' lines meet
//! the query's at `P = (0, …, 0, b)`, and any point of it makes them
//! covering: a tuple the query selects is selected by some leg. An ALL
//! query keeps ALL on its first leg only; the others run EXIST, since two
//! ALL legs can both miss a tuple the query contains (Figure 4). The legs'
//! answers overlap — T1's duplication problem — and their union is a
//! candidate superset that an exact refinement filters down.
//!
//! In `E^d` the legs are at the `d` vertices of a simplex of slope points
//! containing the query slope (`SlopePoints::containing_simplex`), each
//! with the query's operator. Covering proof: if a point `x` fails every
//! app-query (`x_d < sʲ·x' + b` for all `j`), the convex combination with
//! the barycentric weights of the query slope gives `x_d < s·x' + b`.

use std::cell::Cell;
use std::io;

use cdb_core::slopes::Bracket;
use cdb_core::{ConstraintDb, QueryStats, Selection, SelectionKind, SlopeSet, Strategy};
use cdb_geometry::constraint::RelOp;
use cdb_geometry::halfplane::HalfPlane;
use cdb_storage::{IoStats, PageId, PageReader};

/// The app-queries of `sel` at the given `(slope, operator)` legs: each
/// keeps the intercept, the first keeps the kind, the others are EXIST.
pub fn legs(sel: &Selection, at: impl IntoIterator<Item = (Vec<f64>, RelOp)>) -> Vec<Selection> {
    let b = sel.halfplane.intercept;
    at.into_iter()
        .enumerate()
        .map(|(li, (slope, op))| Selection {
            kind: if li == 0 {
                sel.kind
            } else {
                SelectionKind::Exist
            },
            halfplane: HalfPlane::new(slope, b, op),
        })
        .collect()
}

/// Table 1: the app-queries of a 2-D selection at the slopes of `S` that
/// bracket its slope `a` in angle order. Between `a₁ < a < a₂` both keep
/// `θ`; wrapped through the vertical the neighbours are max `S` (`a₁`,
/// clockwise) and min `S` (`a₂`): beyond max `S` `θ₁ = θ, θ₂ = ¬θ`, below
/// min `S` `θ₁ = ¬θ, θ₂ = θ`. At a member of `S` the one leg is the query.
pub fn table1(slopes: &SlopeSet, sel: &Selection) -> Vec<Selection> {
    let (a, theta) = (sel.halfplane.slope2d(), sel.halfplane.op);
    let at = |i: usize, op: RelOp| (vec![slopes.get(i)], op);
    let pair = match slopes.bracket(a) {
        Bracket::Member(i) => vec![at(i, theta)],
        Bracket::Between(i, j) => vec![at(i, theta), at(j, theta)],
        Bracket::Wrapped(cw, acw) if a > slopes.get(cw) => {
            vec![at(cw, theta), at(acw, theta.negated())]
        }
        Bracket::Wrapped(cw, acw) => vec![at(cw, theta.negated()), at(acw, theta)],
    };
    legs(sel, pair)
}

/// Reads through to `inner`, counting one access per run of reads of the
/// same page: a refinement that fetches ascending ids — the heap's storage
/// order when tuples were only ever appended — pays one access per
/// distinct heap page, as the engine's page-batched fetch does.
struct PageRuns<'a> {
    inner: &'a dyn PageReader,
    last: Cell<Option<PageId>>,
    runs: Cell<u64>,
}

impl PageReader for PageRuns<'_> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        if self.last.replace(Some(id)) != Some(id) {
            self.runs.set(self.runs.get() + 1);
        }
        self.inner.read(id, buf)
    }

    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }

    fn stats(&self) -> IoStats {
        IoStats {
            reads: self.runs.get(),
            ..IoStats::default()
        }
    }
}

/// Runs `sel` over relation `name` as T1: every leg of `legs` as a forced
/// restricted search, then the union of their answers refined against
/// `sel` by fetching each candidate, ascending. Returns the answer and its
/// accounting: `candidates` the legs' answers with repeats, `duplicates`
/// the repeats, `false_hits` the candidates refinement dropped;
/// `index_io` the legs' tree pages, `heap_io` their boundary fetches plus
/// one access per distinct heap page holding a candidate (exact while the
/// relation was only ever appended to).
///
/// # Panics
/// When a leg is not at a member of `S`.
pub fn run(
    db: &ConstraintDb,
    name: &str,
    sel: &Selection,
    legs: &[Selection],
) -> (QueryStats, Vec<u32>) {
    let mut stats = QueryStats::default();
    let mut union: Vec<u32> = Vec::new();
    for leg in legs {
        let r = db
            .query_with(name, leg.clone(), Strategy::Restricted)
            .expect("a leg at a member of S");
        stats.index_io = stats.index_io.plus(&r.stats.index_io);
        stats.heap_io = stats.heap_io.plus(&r.stats.heap_io);
        union.extend_from_slice(r.ids());
    }
    stats.candidates = union.len() as u64;
    union.sort_unstable();
    union.dedup();
    stats.duplicates = stats.candidates - union.len() as u64;
    let rel = db.relation(name).expect("queried above");
    let pages = PageRuns {
        inner: db.reader(),
        last: Cell::new(None),
        runs: Cell::new(0),
    };
    let mut ids = Vec::new();
    for id in union {
        let tuple = rel.fetch(&pages, id).expect("a live candidate");
        if sel.holds(&tuple) {
            ids.push(id);
        } else {
            stats.false_hits += 1;
        }
    }
    stats.heap_io = stats.heap_io.plus(&pages.stats());
    (stats, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_geometry::parse::parse_tuple;
    use cdb_geometry::tuple::GeneralizedTuple;
    use cdb_geometry::Rect;
    use cdb_workload::{ObjectSize, TupleGen};

    /// Table 1's covering property, row by row: over random tuples,
    /// bounded and unbounded, every tuple a query selects is selected by
    /// one of its app-queries — between two slopes of `S`, beyond max `S`
    /// and below min `S`, for both operators and both kinds.
    #[test]
    fn table1_covering() {
        let slopes = SlopeSet::new(vec![-1.0, 0.5]);
        let mut g = TupleGen::new(0x7AB1, Rect::paper_window(), ObjectSize::Medium);
        let mut tuples: Vec<GeneralizedTuple> = (0..150).map(|_| g.bounded_tuple()).collect();
        tuples.extend((0..50).map(|_| g.unbounded_tuple()));
        let mut rows = [0usize; 3];
        for a in [0.0, -0.4, 0.3, 3.0, 40.0, -4.0, -25.0] {
            let row = match slopes.bracket(a) {
                Bracket::Between(..) => 0,
                Bracket::Wrapped(cw, _) if a > slopes.get(cw) => 1,
                Bracket::Wrapped(..) => 2,
                Bracket::Member(_) => unreachable!("no query slope is in S"),
            };
            for b in [-40.0, -5.0, 0.0, 12.0, 35.0] {
                for op in [RelOp::Ge, RelOp::Le] {
                    for kind in [SelectionKind::Exist, SelectionKind::All] {
                        let halfplane = HalfPlane::new2d(a, b, op);
                        let sel = Selection { kind, halfplane };
                        let legs = table1(&slopes, &sel);
                        assert_eq!(legs.len(), 2);
                        for t in tuples.iter().filter(|t| sel.holds(*t)) {
                            rows[row] += 1;
                            assert!(
                                legs.iter().any(|leg| leg.holds(t)),
                                "{t} escapes the app-queries {legs:?} of {sel:?}"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            rows.iter().all(|&n| n > 0),
            "every row selected tuples: {rows:?}"
        );
    }

    /// Figure 4: approximating ALL by two ALL app-queries is incorrect. A
    /// wide flat box above the x-axis lies inside `y ≥ 0` but in neither
    /// tilted half-plane; Table 1's second leg runs EXIST and catches it.
    #[test]
    fn fig4_two_all_queries_incorrect() {
        let slopes = SlopeSet::new(vec![-1.0, 1.0]);
        let sel = Selection::all(HalfPlane::above(0.0, 0.0));
        let t = parse_tuple("y >= 1 && y <= 2 && x >= -10 && x <= 10").unwrap();
        assert!(sel.holds(&t), "the box lies inside the query");
        let legs = table1(&slopes, &sel);
        let all_legs = legs.iter().map(|leg| Selection::all(leg.halfplane.clone()));
        assert!(
            !all_legs.clone().any(|leg| leg.holds(&t)),
            "two ALL legs both miss it"
        );
        let kinds: Vec<SelectionKind> = legs.iter().map(|leg| leg.kind).collect();
        assert_eq!(kinds, [SelectionKind::All, SelectionKind::Exist]);
        assert!(
            legs.iter().any(|leg| leg.holds(&t)),
            "ALL + EXIST catches it"
        );
    }
}
