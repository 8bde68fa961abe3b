//! The index seam and the dual index.
//!
//! [`IndexKind`] names the access structures a relation can own,
//! [`IndexSpec`] says what to build, [`Index`] is what was built:
//! everything the engine does per kind (build, verify, count, free) is a
//! method of [`Index`], so the rest of the engine loops over a relation's
//! slots instead of spelling the kinds out; `Relation::method` hands a
//! slot to the planner as a [`crate::plan::AccessMethod`]. What a
//! write does to each kind is one rule in `Relation::maintained`: the dual
//! index is maintained, the R⁺-tree is dropped.
//!
//! [`DualIndex`] is the paper's structure: a `B^up`/`B^down` forest over
//! the elements of its [`SlopeGeometry`] — a [`SlopeSet`] in 2-D,
//! [`SlopePoints`] in `E^d` — built, maintained and searched the same way
//! whichever it is; each geometry has its own routing table, and the
//! restricted (Section 3) and T2 (Sections 4.2–4.4) searches each have a
//! submodule.

pub mod ddim;
pub(crate) mod forest;
pub mod handicap;
mod heap_source;
mod keys;
mod restricted;
mod rplus;
mod t2;

use std::io;

pub(crate) use heap_source::HeapSource;
pub(crate) use keys::KeyColumns;
pub use rplus::RPlusIndex;

use cdb_geometry::dual::{self, DualSurfaces};
use cdb_geometry::halfplane::HalfPlane;
use cdb_geometry::predicates;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_storage::{PageReader, Pager, TrackedReader};

use crate::error::CdbError;
use crate::plan::{MethodKind, PlanCase, Rejection, TreeAt};
use crate::query::{QueryResult, QueryStats, Selection, SelectionKind, Side, Strategy};
use crate::slopes::{Bracket, SlopeSet, StripEnd};
use ddim::SlopePoints;
use forest::{keys_at, Forest};
use keys::KeyBracket;

/// The access structures a relation can own, in slot order. The one owner
/// of their names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// The dual index (Sections 3–4.4), over either geometry.
    Dual,
    /// The R⁺-tree baseline (Section 5).
    RPlus,
}

impl IndexKind {
    /// Every kind, in slot order.
    pub const ALL: [IndexKind; 2] = [IndexKind::Dual, IndexKind::RPlus];

    /// The name reports, health verdicts and the wire use.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Dual => "dual",
            IndexKind::RPlus => "rplus",
        }
    }
}

/// The build parameters of one index: what
/// [`ConstraintDb::build_index`](crate::ConstraintDb::build_index) takes,
/// the log and the catalog persist, and a rebuild reuses.
#[derive(Clone, Debug, PartialEq)]
pub enum IndexSpec {
    /// The dual index over a slope set (2-D) or slope points (`E^d`).
    Dual(SlopeGeometry),
    /// The R⁺-tree baseline, bulk-packed at a fill factor.
    RPlus {
        /// Node fill factor, in `[0.5, 1]`.
        fill: f64,
    },
}

impl IndexSpec {
    /// Which slot this spec fills.
    pub fn kind(&self) -> IndexKind {
        match self {
            IndexSpec::Dual(_) => IndexKind::Dual,
            IndexSpec::RPlus { .. } => IndexKind::RPlus,
        }
    }

    /// What is wrong with the parameters themselves, whatever relation
    /// they are meant for. Slope sets and slope points are validated by
    /// their own constructors, which leaves the fill factor.
    pub fn check_parameters(&self) -> Result<(), &'static str> {
        match self {
            IndexSpec::RPlus { fill } if !(0.5..=1.0).contains(fill) => {
                Err("fill factor must be in [0.5, 1.0]")
            }
            _ => Ok(()),
        }
    }

    /// Whether this index can be built over a `dim`-dimensional relation.
    /// Every build goes through here, so no parameter from a request, a log
    /// record or a catalog reaches an `assert!` further down.
    ///
    /// # Errors
    /// [`CdbError::UnsupportedQuery`] for bad parameters or the R⁺-tree on
    /// another dimension than 2; [`CdbError::DimensionMismatch`] for a
    /// geometry of another dimension (a slope set's is 2).
    pub fn check(&self, dim: usize) -> Result<(), CdbError> {
        self.check_parameters()
            .map_err(|why| CdbError::UnsupportedQuery(why.into()))?;
        match self {
            IndexSpec::Dual(geometry) if geometry.dim() != dim => {
                Err(CdbError::DimensionMismatch {
                    expected: dim,
                    got: geometry.dim(),
                })
            }
            IndexSpec::RPlus { .. } if dim != 2 => Err(CdbError::UnsupportedQuery(
                "the R⁺-tree baseline requires a 2-D relation".into(),
            )),
            _ => Ok(()),
        }
    }
}

/// One built access structure of a relation.
#[derive(Clone)]
pub enum Index {
    /// The dual index.
    Dual(DualIndex),
    /// The R⁺-tree baseline.
    RPlus(RPlusIndex),
}

impl Index {
    /// Builds what `spec` (already [`check`](IndexSpec::check)ed) asks for
    /// over `(id, tuple)` pairs.
    pub(crate) fn build(
        pager: &mut dyn Pager,
        spec: IndexSpec,
        tuples: &[(u32, GeneralizedTuple)],
    ) -> Result<Self, CdbError> {
        Ok(match spec {
            IndexSpec::Dual(geometry) => Index::Dual(DualIndex::build(pager, geometry, tuples)?),
            IndexSpec::RPlus { fill } => Index::RPlus(RPlusIndex::build(pager, fill, tuples)?),
        })
    }

    /// The parameters this index was built with (persisted, so a rebuild
    /// after corruption reuses them).
    pub fn spec(&self) -> IndexSpec {
        match self {
            Index::Dual(idx) => IndexSpec::Dual(idx.geometry.clone()),
            Index::RPlus(rp) => IndexSpec::RPlus { fill: rp.fill },
        }
    }

    /// Reads every page of the structure through `pager`; under a
    /// checksumming pager any torn or stale page surfaces here. A dual
    /// index over a slope set hands back the key columns the walk read off
    /// its leaves.
    pub(crate) fn verify(&self, pager: &dyn PageReader) -> io::Result<Option<KeyColumns>> {
        match self {
            Index::Dual(idx) => idx.verify(pager),
            Index::RPlus(rp) => rp.tree.collect_pages(pager).map(|_| None),
        }
    }

    /// Pages owned by the structure (the space metric of Figure 10).
    pub fn page_count(&self) -> u64 {
        match self {
            Index::Dual(idx) => idx.page_count(),
            Index::RPlus(rp) => rp.tree.page_count(),
        }
    }

    /// Frees every page back to the pager; on an error, pages already
    /// freed stay freed.
    pub(crate) fn destroy(self, pager: &mut dyn Pager) -> io::Result<()> {
        match self {
            Index::Dual(idx) => idx.forest.destroy(pager),
            Index::RPlus(rp) => rp.tree.destroy(pager),
        }
    }
}

/// Source of tuples for the exact refinement step.
///
/// The batch signature lets real implementations group candidate fetches by
/// heap page — one page access per *distinct* page, the way a production
/// executor refines. Any `Fn(&dyn PageReader, u32) -> GeneralizedTuple`
/// closure is also a (non-batching, infallible) source, which the tests use.
///
/// Sources are `&self` so one source can serve many concurrent queries; the
/// per-query read accounting happens in the reader, not the source.
pub trait TupleSource {
    /// Fetches the tuples for `ids` (result aligned with the input),
    /// charging page accesses to `pager`.
    ///
    /// # Errors
    /// [`CdbError::CorruptRecord`] when a stored record fails to decode.
    fn fetch_batch(
        &self,
        pager: &dyn PageReader,
        ids: &[u32],
    ) -> Result<Vec<GeneralizedTuple>, CdbError>;

    /// Shows the stored form of every tuple in `ids` to `visit`, as
    /// `(position in ids, surfaces)`, in whatever order is cheapest for the
    /// source — what the refinement step consumes. The default materializes
    /// the tuples with [`fetch_batch`](Self::fetch_batch); a source that
    /// owns the records (the engine's heap) lends each one's encoded bytes
    /// out of its page instead, so refinement copies and decodes nothing.
    /// Page accesses and errors are those of `fetch_batch`.
    fn visit_batch(
        &self,
        pager: &dyn PageReader,
        ids: &[u32],
        visit: &mut dyn FnMut(usize, &dyn DualSurfaces),
    ) -> Result<(), CdbError> {
        for (at, tuple) in self.fetch_batch(pager, ids)?.iter().enumerate() {
            visit(at, tuple);
        }
        Ok(())
    }
}

impl<F> TupleSource for F
where
    F: Fn(&dyn PageReader, u32) -> GeneralizedTuple,
{
    fn fetch_batch(
        &self,
        pager: &dyn PageReader,
        ids: &[u32],
    ) -> Result<Vec<GeneralizedTuple>, CdbError> {
        Ok(ids.iter().map(|&id| self(pager, id)).collect())
    }
}

/// One handicap region of an element of `S`: the [`Side`] whose leaf slots
/// answer for it, and its corners besides the element.
type Region = (Side, Vec<Corner>);

/// A corner of a handicap region: where a tuple's reach over the region is
/// evaluated besides at the region's element.
#[derive(Clone, Debug)]
enum Corner {
    /// A slope, or slope point, of the query frame: the tuple's keys there.
    Slope(Vec<f64>),
    /// `t` in the frame swapped through the vertical, `t = 1/a`, for the
    /// trees at slope `s`: the extremes of `−s·(x − t·y)` over the tuple,
    /// which are its keys there at `t = 1/s`. Along `t` the maximum is
    /// convex and the minimum concave, as `TOP_P` and `BOT_P` are along `a`.
    Swapped { s: f64, t: f64 },
}

impl Corner {
    /// A tuple's `(TOP_P, BOT_P)` at the corner, in the units of the keys.
    fn keys(&self, tuple: &GeneralizedTuple) -> (f64, f64) {
        match *self {
            Corner::Slope(ref slope) => keys_at(tuple, slope),
            Corner::Swapped { s, t } => {
                let (min, max) =
                    dual::swapped_bot_top(tuple, t).expect("indexed tuples are satisfiable");
                let (p, q) = (-s * min, -s * max);
                (p.max(q), p.min(q))
            }
        }
    }
}

/// The predefined set `S` a [`DualIndex`] is built over. Section 4.4
/// changes only what an element of `S` is — a slope in 2-D, a slope point
/// in `E^{d-1}` — so the index builds, maintains, searches and refines
/// both alike; the geometry supplies the elements its forest is keyed by,
/// the regions of slope space each element's handicaps answer for, and
/// its routing table.
#[derive(Clone, Debug, PartialEq)]
pub enum SlopeGeometry {
    /// The slopes of a 2-D relation (Sections 3–4.3).
    Set(SlopeSet),
    /// Slope points of a `d`-dimensional relation (Section 4.4).
    Points(SlopePoints),
}

// A tag byte, then the geometry in its own layout: the one layout of the
// log, the catalog and the wire.
cdb_storage::wire_enum!(SlopeGeometry {
    0 => Set(slopes),
    1 => Points(points),
});

impl From<SlopeSet> for SlopeGeometry {
    fn from(slopes: SlopeSet) -> Self {
        SlopeGeometry::Set(slopes)
    }
}

impl From<SlopePoints> for SlopeGeometry {
    fn from(points: SlopePoints) -> Self {
        SlopeGeometry::Points(points)
    }
}

impl SlopeGeometry {
    /// The dimension of the relations it indexes.
    pub(crate) fn dim(&self) -> usize {
        match self {
            SlopeGeometry::Set(_) => 2,
            SlopeGeometry::Points(points) => points.dim(),
        }
    }

    /// The number `k` of elements of `S`.
    pub(crate) fn len(&self) -> usize {
        match self {
            SlopeGeometry::Set(slopes) => slopes.len(),
            SlopeGeometry::Points(points) => points.len(),
        }
    }

    /// The elements of `S` as points of slope space `E^{d-1}`, in order.
    fn elements(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.len()).map(|i| match self {
            SlopeGeometry::Set(slopes) => std::slice::from_ref(&slopes.as_slice()[i]),
            SlopeGeometry::Points(points) => points.as_slice()[i].as_slice(),
        })
    }

    /// The handicap regions of element `i`, each the convex hull of the
    /// element and the listed corners, so a tuple's reach over it (`TOP_P`
    /// convex, `BOT_P` concave) is attained at one of them: the strips from
    /// a slope to [`SlopeSet::mid`] on either side (Section 4.2) — at an
    /// end of `S`, its piece of the strip wrapping through the vertical;
    /// under [`Side::Prev`], the vertices of a slope point's Voronoi cell
    /// clipped to the bounding box of `S` (Section 4.4).
    fn regions(&self, i: usize) -> Vec<Region> {
        match self {
            SlopeGeometry::Set(slopes) => [Side::Prev, Side::Next]
                .into_iter()
                .map(|side| {
                    let corner = match slopes.mid(i, side) {
                        StripEnd::Slope(a) => Corner::Slope(vec![a]),
                        StripEnd::Swapped(t) => Corner::Swapped {
                            s: slopes.get(i),
                            t,
                        },
                    };
                    (side, vec![corner])
                })
                .collect(),
            SlopeGeometry::Points(points) => {
                let corners = points.cell(i).into_iter().map(Corner::Slope);
                vec![(Side::Prev, corners.collect())]
            }
        }
    }
}

/// Dual-representation index over a generalized relation: 2-D over a
/// [`SlopeSet`], `E^d` over [`SlopePoints`].
///
/// ```
/// use cdb_core::{DualIndex, Selection, SlopeSet, Strategy};
/// use cdb_geometry::parse::parse_tuple;
/// use cdb_geometry::tuple::GeneralizedTuple;
/// use cdb_geometry::HalfPlane;
/// use cdb_storage::{MemPager, PageReader};
///
/// let tuples = vec![
///     (0, parse_tuple("y >= 0 && y <= 1 && x >= 0 && x <= 1").unwrap()),
///     (1, parse_tuple("y >= x && x >= 5").unwrap()), // unbounded wedge
/// ];
/// let mut pager = MemPager::paper_1999();
/// let idx = DualIndex::build(&mut pager, SlopeSet::uniform_tan(3), &tuples).unwrap();
///
/// let lookup = tuples.clone();
/// let fetch = move |_: &dyn PageReader, id: u32| -> GeneralizedTuple {
///     lookup.iter().find(|(i, _)| *i == id).unwrap().1.clone()
/// };
/// // EXIST with an arbitrary slope runs technique T2 — from `&self` and a
/// // shared read-only pager, so many queries can run concurrently.
/// let sel = Selection::exist(HalfPlane::above(0.25, 3.0)); // y >= x/4 + 3
/// let r = idx.execute(&pager, &sel, Strategy::T2, &fetch).unwrap();
/// assert_eq!(r.ids(), &[1], "only the wedge reaches that high");
/// assert_eq!(r.stats.duplicates, 0);
/// ```
#[derive(Clone, Debug)]
pub struct DualIndex {
    /// The predefined set `S`.
    pub(crate) geometry: SlopeGeometry,
    /// [`SlopeGeometry::regions`] of every element, computed once.
    regions: Vec<Vec<Region>>,
    pub(crate) forest: Forest,
    /// The trees' keys per id, in memory, over a slope set: the key
    /// decision brackets 2-D slopes between its members. Never persisted.
    keys: Option<KeyColumns>,
}

/// A tuple's `(max TOP_P, min BOT_P)` over a region: its `keys` at the
/// element folded with those at the region's `corners`.
fn reach(tuple: &GeneralizedTuple, keys: (f64, f64), corners: &[Corner]) -> (f64, f64) {
    let at_corners = corners.iter().map(|c| c.keys(tuple));
    at_corners.fold(keys, |(max_top, min_bot), (top, bot)| {
        (max_top.max(top), min_bot.min(bot))
    })
}

impl DualIndex {
    /// Bulk-builds the index over `(id, tuple)` pairs. All tuples must be
    /// satisfiable and of the geometry's dimension.
    ///
    /// # Errors
    /// [`CdbError::Io`] when the pager fails while writing tree pages.
    pub fn build(
        pager: &mut dyn Pager,
        geometry: impl Into<SlopeGeometry>,
        tuples: &[(u32, GeneralizedTuple)],
    ) -> Result<Self, CdbError> {
        let geometry = geometry.into();
        // Every tuple's keys at every element, computed once: they sort
        // the trees, fill the key columns and anchor the reaches.
        let keys: Vec<Vec<(f64, f64)>> = geometry
            .elements()
            .map(|slope| tuples.iter().map(|(_, t)| keys_at(t, slope)).collect())
            .collect();
        let forest = Forest::build(pager, tuples, &keys)?;
        let mut idx = Self::from_parts(geometry, forest);
        // The key columns, and every leaf's handicap values from the
        // tuples bucketed into it (Section 4.2 Steps 1–2).
        let DualIndex {
            regions,
            forest,
            keys: columns,
            ..
        } = &mut idx;
        for (i, (keys, regions)) in keys.iter().zip(&*regions).enumerate() {
            if let Some(columns) = columns {
                for ((id, _), &(top, bot)) in tuples.iter().zip(keys) {
                    columns.set(*id, i, true, top);
                    columns.set(*id, i, false, bot);
                }
            }
            let mut reaches = Vec::new();
            for (side, corners) in regions {
                let over = tuples.iter().zip(keys);
                let over = over.map(|((_, t), &k)| reach(t, k, corners));
                reaches.push((*side, over.collect()));
            }
            if !reaches.is_empty() {
                forest.assign_handicaps(pager, i, keys, &reaches)?;
            }
        }
        Ok(idx)
    }

    /// Re-attaches an index from persisted metadata. The trees' node pages
    /// (handicaps included — they live in the bucket leaves) are already on
    /// disk; `forest` holds one tree pair per element, in the order of `S`.
    /// The key columns start with no row, so the keys decide nothing until
    /// the open-time [`verify`](Self::verify) walk hands them over.
    pub(crate) fn from_parts(geometry: SlopeGeometry, forest: Forest) -> Self {
        let regions = (0..geometry.len()).map(|i| geometry.regions(i));
        let mut idx = DualIndex {
            regions: regions.collect(),
            keys: None,
            geometry,
            forest,
        };
        idx.keys = idx.no_keys();
        idx
    }

    /// Key columns with no row, where the index keeps them.
    fn no_keys(&self) -> Option<KeyColumns> {
        self.slopes()
            .map(|slopes| KeyColumns::new(slopes.as_slice()))
    }

    /// The slope set `S`, if the index is over one.
    pub fn slopes(&self) -> Option<&SlopeSet> {
        match &self.geometry {
            SlopeGeometry::Set(slopes) => Some(slopes),
            SlopeGeometry::Points(_) => None,
        }
    }

    /// The slope-point set `S`, if the index is over one.
    pub fn points(&self) -> Option<&SlopePoints> {
        match &self.geometry {
            SlopeGeometry::Points(points) => Some(points),
            SlopeGeometry::Set(_) => None,
        }
    }

    /// Pages owned by the index (the space metric of Figure 10).
    pub fn page_count(&self) -> u64 {
        self.forest.page_count()
    }

    /// Bytes the key columns hold in memory — not pages: nothing of them
    /// is stored.
    pub fn key_bytes(&self) -> usize {
        self.keys.as_ref().map_or(0, KeyColumns::resident_bytes)
    }

    /// Reads every page of every tree through `pager`, returning the key
    /// columns as the walk read them off the leaves.
    pub(crate) fn verify(&self, pager: &dyn PageReader) -> io::Result<Option<KeyColumns>> {
        let mut columns = self.no_keys();
        self.forest.verify(pager, |i, up, key, id| {
            if let Some(columns) = columns.as_mut() {
                columns.set(id, i, up, key);
            }
        })?;
        Ok(columns)
    }

    /// Takes over key columns a [`verify`](Self::verify) walk of this
    /// index's trees read.
    pub(crate) fn adopt_keys(&mut self, keys: KeyColumns) {
        self.keys = Some(keys);
    }

    /// Adds one tuple to every tree and folds its reach over every handicap
    /// region into the bucket leaves' handicaps — the paper's
    /// `O(k log_B n)` amortized update (Theorems 3.1/4.2). The fold is
    /// monotone (min/max), so correctness is maintained incrementally;
    /// handicaps only become *looser* over time, and only a
    /// [`build`](Self::build) over the current tuples re-tightens them.
    pub fn insert(
        &mut self,
        pager: &mut dyn Pager,
        id: u32,
        tuple: &GeneralizedTuple,
    ) -> Result<(), CdbError> {
        let elements = self.geometry.elements().zip(&self.regions);
        for (i, (slope, regions)) in elements.enumerate() {
            let keys = keys_at(tuple, slope);
            let reaches: Vec<_> = regions
                .iter()
                .map(|(side, corners)| (*side, reach(tuple, keys, corners)))
                .collect();
            self.forest.insert(pager, i, id, keys, &reaches)?;
            if let Some(columns) = self.keys.as_mut() {
                columns.set(id, i, true, keys.0);
                columns.set(id, i, false, keys.1);
            }
        }
        Ok(())
    }

    /// Removes one tuple from every tree. Handicaps are left in place
    /// (conservative: they may over-cover deleted tuples, never under-cover
    /// live ones; emptied leaves migrate their bounds inside the B⁺-tree).
    pub fn remove(
        &mut self,
        pager: &mut dyn Pager,
        id: u32,
        tuple: &GeneralizedTuple,
    ) -> Result<bool, CdbError> {
        if let Some(columns) = self.keys.as_mut() {
            columns.clear(id);
        }
        let elements = self.geometry.elements();
        Ok(self.forest.remove(pager, elements, id, tuple)?)
    }

    /// Sweeps for `sel` along `case`, a route of this index, and refines
    /// with `exact` in the one filter-then-refine step, `index::refine`.
    ///
    /// # Errors
    /// [`CdbError::UnsupportedQuery`] for a case of the other geometry's
    /// routing table (or no dual index's), or one naming a tree or handicap
    /// region this index does not have.
    pub fn run(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        case: &PlanCase,
        exact: Exact,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        let forest = &self.forest;
        refine(pager, sel, exact, fetch, self.keys.as_ref(), |pager| {
            // A guided search trusts the handicaps of one region; where the
            // geometry has none they are neutral and it would miss tuples.
            // Over a strip swapped through the vertical, the trees answer
            // their own threshold query through the query line's
            // x-intercept.
            let guided = |i: usize, side: Side| {
                let mut regions = self.regions.get(i).into_iter().flatten();
                match regions.find(|(s, _)| *s == side).map(|(_, c)| &c[..]) {
                    None => Err(foreign(case)),
                    Some([Corner::Swapped { s, .. }]) => {
                        forest.guided(pager, &through_x_intercept(sel, *s), i, side)
                    }
                    Some(_) => forest.guided(pager, sel, i, side),
                }
            };
            use SlopeGeometry::{Points, Set};
            match (case, &self.geometry) {
                // Exact restricted query; boundary band verified exactly.
                (PlanCase::Member { i, .. }, _) => forest.restricted(pager, sel, *i),
                (PlanCase::Between { near, side, .. }, Set(_)) => guided(near.i, *side),
                // The whole-cell handicaps live in the `Prev` leaf slots.
                (PlanCase::Cell(i), Points(_)) => guided(*i, Side::Prev),
                _ => Err(foreign(case)),
            }
        })
    }

    /// Executes a selection with the requested strategy, `Auto` being the
    /// paper's deployment: restricted when the slope is in `S`, otherwise
    /// T2 — which is what T2 [routes](Self::route) to.
    ///
    /// `fetch` loads a tuple for the exact refinement step, charging its
    /// page accesses to `pager`. Execution is `&self` over a read-only
    /// pager: the per-query I/O windows in the returned
    /// [`QueryStats`] come from a private [`TrackedReader`], so they stay
    /// exact even when many queries share `pager` concurrently.
    ///
    /// # Errors
    /// [`CdbError::UnsupportedQuery`] — the [`Rejection`] of the route
    /// (`Restricted` with a slope outside `S`, a query of another
    /// dimension, ...), or `Scan`/`RPlus` (handled a level up by the
    /// planner, which owns the non-dual access methods).
    pub fn execute(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        strategy: Strategy,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        self.front(pager, sel, strategy, Exact::Selection, fetch)
    }

    /// Footnote 2 of the paper: *equality* queries. Retrieves tuples whose
    /// extension intersects (`Exist`) or is contained in (`All`) the
    /// hyperplane `x_d = a·x' + c` — e.g. the query generalized tuple
    /// `y = a x + c` — as [`Exact::Line`] over [`Selection::line_superset`].
    pub fn execute_hyperplane(
        &self,
        pager: &dyn PageReader,
        slope: f64,
        c: f64,
        kind: SelectionKind,
        strategy: Strategy,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        let superset = Selection::line_superset(slope, c);
        self.front(pager, &superset, strategy, Exact::Line(kind), fetch)
    }

    /// The public front: strategy → technique → route → run.
    fn front(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        strategy: Strategy,
        exact: Exact,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        let technique = match strategy.forced() {
            None => MethodKind::T2,
            Some(k @ (MethodKind::Restricted | MethodKind::T2)) => k,
            Some(other) => {
                return Err(CdbError::UnsupportedQuery(format!(
                    "{other} is executed by the planner, not the dual index"
                )))
            }
        };
        let case = self
            .route(technique, sel)
            .map_err(|why| CdbError::UnsupportedQuery(why.to_string()))?;
        self.run(pager, sel, &case, exact, fetch)
    }

    /// Which trees `technique` — one of this index's two, `Restricted` and
    /// `T2` (anything else is the caller's bug, and routed as `T2` is) —
    /// sweeps for `sel`, in which way: the routing table of the index's
    /// geometry.
    ///
    /// # Errors
    /// The [`Rejection`]: a query of another dimension, `Restricted` with a
    /// slope outside `S`, T2 outside the bounding box of slope points.
    pub fn route(&self, technique: MethodKind, sel: &Selection) -> Result<PlanCase, Rejection> {
        use MethodKind::{Restricted, T2};
        debug_assert!(matches!(technique, Restricted | T2), "{technique}");
        match &self.geometry {
            SlopeGeometry::Set(slopes) => slopes.route(technique, sel),
            SlopeGeometry::Points(points) => points.route(technique, sel),
        }
    }
}

impl SlopeSet {
    /// The routing table of a slope set: Section 3's member case, else
    /// Section 4.2's nearer tree — at every slope, the paper's "similarly
    /// handled" wrapped cases included.
    fn route(&self, technique: MethodKind, sel: &Selection) -> Result<PlanCase, Rejection> {
        Rejection::dimension(2, sel)?;
        let a = sel.halfplane.slope2d();
        let (lo, hi, (near, side)) = match self.bracket(a) {
            Bracket::Member(i) => {
                let slope = vec![self.get(i)];
                return Ok(PlanCase::Member { i, slope });
            }
            _ if technique == MethodKind::Restricted => {
                return Err(Rejection::SlopeNotInS(vec![a]))
            }
            // Nearest slope in *slope* distance (the paper's |a1−a| <
            // |a2−a|), i.e. by comparison with a_mid — this must match the
            // handicap strips, which are computed over the slope intervals
            // [aᵢ, (aᵢ+aⱼ)/2]: routing by any other metric (e.g. angle) can
            // send a query to a tree whose strip does not contain its
            // slope, under-covering the reaches and missing results.
            Bracket::Between(i, j) if a <= (self.get(i) + self.get(j)) / 2.0 => {
                (i, j, (i, Side::Next))
            }
            Bracket::Between(i, j) => (i, j, (j, Side::Prev)),
            // Wrapped through the vertical, from max S (clockwise) to min
            // S: the end whose piece of the wrap strip holds the slope.
            Bracket::Wrapped(cw, acw) => (cw, acw, self.wrapped_end(a)),
        };
        Ok(PlanCase::Between {
            lo: self.get(lo),
            hi: self.get(hi),
            near: TreeAt {
                i: near,
                slope: self.get(near),
            },
            side,
        })
    }
}

/// The threshold query, at slope `s`, of the line through the x-intercept
/// `(−b/a, 0)` of `sel`'s line: intercept `b·s/a`, with Table 1's operator
/// — `θ` where `a` and `s` share a sign, `¬θ` where not. Over a strip
/// swapped through the vertical the trees at `s` answer `sel` by it:
/// `−s·(x − y/a)` is `(s/a)·(y − a·x)`, so a tuple meets `sel` exactly
/// where its [`Corner::Swapped`] extremes at `t = 1/a` meet this query.
fn through_x_intercept(sel: &Selection, s: f64) -> Selection {
    let (a, q) = (sel.halfplane.slope2d(), &sel.halfplane);
    let op = if (a > 0.0) == (s > 0.0) {
        q.op
    } else {
        q.op.negated()
    };
    Selection {
        kind: sel.kind,
        halfplane: HalfPlane::new2d(s, q.intercept * s / a, op),
    }
}

/// The error for a [`PlanCase`] handed to an index that did not route it.
pub(crate) fn foreign(case: &PlanCase) -> CdbError {
    CdbError::UnsupportedQuery(format!("internal: not a route of this index: {case}"))
}

/// What the refinement step decides per candidate, and whether the index
/// keys already decide it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exact {
    /// The selection's own predicate (Proposition 2.2). At a member slope
    /// the swept tree's key test *is* this predicate, so entries clear of
    /// the `f32` rounding band are accepted from their keys.
    Selection,
    /// An equality query: the selection is its
    /// [superset](Selection::line_superset) and every candidate is shown to
    /// the hyperplane predicate of this kind (keys alone decide nothing
    /// here: `BOT` is not in the swept tree).
    Line(SelectionKind),
}

impl Exact {
    /// The exact predicate on a candidate's stored form.
    pub(crate) fn keep(self, sel: &Selection, t: &dyn DualSurfaces) -> bool {
        let q = &sel.halfplane;
        match self {
            Exact::Selection => sel.holds(t),
            Exact::Line(SelectionKind::Exist) => {
                predicates::exist_hyperplane(&q.slope, q.intercept, t)
            }
            Exact::Line(SelectionKind::All) => predicates::all_hyperplane(&q.slope, q.intercept, t),
        }
    }
}

/// What a search hands to [`refine`]: the distinct ids it produced,
/// split into those its keys decide and those still to check, and how
/// many repeats it dropped on the way.
#[derive(Default)]
pub(crate) struct Candidates {
    /// Ids whose keys decide [`Exact::Selection`] (Section 3's exact
    /// restricted search): accepted without a fetch.
    pub sure: Vec<u32>,
    /// Ids to show to [`Exact::keep`].
    pub check: Vec<u32>,
    /// Entries the search produced for an id it had already produced: the
    /// R⁺-tree's clipping; the dual index's searches produce none.
    pub duplicates: u64,
}

impl Candidates {
    /// Distinct ids, none decided by key.
    pub(crate) fn check(ids: Vec<u32>) -> Self {
        Candidates {
            check: ids,
            ..Candidates::default()
        }
    }
}

/// Filter, then refine — the one step behind every access method, the
/// sequential scan included. Runs `search` (the filter) under a private
/// [`TrackedReader`], so the I/O windows are this query's own even when
/// many queries share `pager`; then decides what `keys` — the key columns
/// of the 2-D dual index that searched, if it was one — can decide of the
/// candidates still to check ([`KeyBracket`]), and shows the rest to
/// [`Exact::keep`] through `fetch` (batched by the source, so the cost is
/// one page access per distinct heap page; the engine's heap source runs
/// it on the record bytes in the page). Keys decide only
/// [`Exact::Selection`]: for any other predicate every candidate is
/// checked. The answer is the ids accepted by key plus those kept; a
/// candidate the keys reject is booked in `rejected_by_key`, one
/// refinement drops in `false_hits`.
pub(crate) fn refine(
    pager: &dyn PageReader,
    sel: &Selection,
    exact: Exact,
    fetch: &dyn TupleSource,
    keys: Option<&KeyColumns>,
    search: impl FnOnce(&dyn PageReader) -> Result<Candidates, CdbError>,
) -> Result<QueryResult, CdbError> {
    let tracked = TrackedReader::new(pager);
    let pager: &dyn PageReader = &tracked;
    let before = pager.stats();
    let Candidates {
        mut sure,
        mut check,
        duplicates,
    } = search(pager)?;
    if exact != Exact::Selection {
        check.append(&mut sure);
    }
    let mut stats = QueryStats {
        candidates: (sure.len() + check.len()) as u64 + duplicates,
        duplicates,
        ..QueryStats::default()
    };
    stats.index_io = pager.stats().since(&before);
    let keys = keys.filter(|_| exact == Exact::Selection && !check.is_empty());
    if let Some(bracket) = keys.and_then(|keys| KeyBracket::new(keys, sel)) {
        stats.rejected_by_key += bracket.settle(&mut check, &mut sure);
    }
    stats.accepted_by_key = sure.len() as u64;
    let heap_before = pager.stats();
    let mut kept = vec![false; check.len()];
    fetch.visit_batch(pager, &check, &mut |at, t| kept[at] = exact.keep(sel, t))?;
    stats.heap_io = pager.stats().since(&heap_before);
    let mut verdicts = kept.iter();
    check.retain(|_| *verdicts.next().expect("one verdict per candidate"));
    stats.false_hits += (kept.len() - check.len()) as u64;
    sure.append(&mut check);
    Ok(QueryResult::new(sure, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_geometry::constraint::RelOp;
    use cdb_geometry::halfplane::HalfPlane;
    use cdb_geometry::predicates::oracle_select;
    use cdb_storage::MemPager;
    use cdb_workload::{DatasetSpec, ObjectSize, QueryGen, QueryKind, TupleGen};

    fn build_index(
        pager: &mut MemPager,
        tuples: &[GeneralizedTuple],
        k: usize,
    ) -> (DualIndex, Vec<(u32, GeneralizedTuple)>) {
        let pairs: Vec<(u32, GeneralizedTuple)> = tuples
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, t)| (i as u32, t))
            .collect();
        let idx = DualIndex::build(pager, SlopeSet::uniform_tan(k), &pairs).unwrap();
        (idx, pairs)
    }

    fn run(
        idx: &DualIndex,
        pager: &MemPager,
        pairs: &[(u32, GeneralizedTuple)],
        sel: &Selection,
        strategy: Strategy,
    ) -> QueryResult {
        let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs.iter().cloned().collect();
        let fetch = move |_: &dyn PageReader, id: u32| lookup[&id].clone();
        idx.execute(pager, sel, strategy, &fetch).expect("query")
    }

    fn oracle(pairs: &[(u32, GeneralizedTuple)], sel: &Selection) -> Vec<u32> {
        let tuples: Vec<&GeneralizedTuple> = pairs.iter().map(|(_, t)| t).collect();
        oracle_select(&sel.halfplane, sel.kind == SelectionKind::All, tuples)
            .into_iter()
            .map(|i| pairs[i].0)
            .collect()
    }

    #[test]
    fn restricted_matches_oracle_on_member_slopes() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(300, ObjectSize::Small, 1).generate();
        let (idx, pairs) = build_index(&mut pager, &tuples, 4);
        for i in 0..idx.slopes().unwrap().len() {
            let s = idx.slopes().unwrap().get(i);
            for b in [-30.0, 0.0, 25.0] {
                for kind in [SelectionKind::All, SelectionKind::Exist] {
                    for op in [RelOp::Ge, RelOp::Le] {
                        let sel = Selection {
                            kind,
                            halfplane: HalfPlane::new2d(s, b, op),
                        };
                        let got = run(&idx, &pager, &pairs, &sel, Strategy::Restricted);
                        assert_eq!(
                            got.ids(),
                            oracle(&pairs, &sel),
                            "{kind:?} {op:?} s={s} b={b}"
                        );
                        assert_eq!(got.stats.duplicates, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn restricted_rejects_foreign_slope() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(20, ObjectSize::Small, 2).generate();
        let (idx, pairs) = build_index(&mut pager, &tuples, 3);
        let sel = Selection::exist(HalfPlane::above(0.123456, 0.0));
        let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs.iter().cloned().collect();
        let fetch = move |_: &dyn PageReader, id: u32| lookup[&id].clone();
        let err = idx
            .execute(&pager, &sel, Strategy::Restricted, &fetch)
            .unwrap_err();
        assert!(matches!(err, CdbError::UnsupportedQuery(_)));
    }

    /// Query slopes outside `[min S, max S]` run T2 in the trees at an end
    /// of `S`, on both sides of the lopsided set's split (t = −2/7, so
    /// a = −3.5): exact and duplicate-free.
    #[test]
    fn t2_wrapped_slopes() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(150, ObjectSize::Small, 4).generate();
        let pairs: Vec<(u32, GeneralizedTuple)> = tuples
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, t)| (i as u32, t))
            .collect();
        let idx = DualIndex::build(&mut pager, SlopeSet::new(vec![-0.5, 0.7]), &pairs).unwrap();
        for a in [5.0, -4.0, 1.5, -1.0] {
            for kind in [SelectionKind::All, SelectionKind::Exist] {
                for op in [RelOp::Ge, RelOp::Le] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new2d(a, 3.0, op),
                    };
                    let case = idx.route(MethodKind::T2, &sel).unwrap();
                    assert!(matches!(case, PlanCase::Between { lo, hi, .. } if lo > hi));
                    let got = run(&idx, &pager, &pairs, &sel, Strategy::T2);
                    assert_eq!(got.ids(), oracle(&pairs, &sel), "{kind:?} {op:?} a={a}");
                    assert_eq!(got.stats.duplicates, 0);
                }
            }
        }
    }

    #[test]
    fn t2_matches_oracle_and_produces_no_duplicates() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(400, ObjectSize::Small, 5).generate();
        let (idx, pairs) = build_index(&mut pager, &tuples, 4);
        let mut qg = QueryGen::new(13);
        for kind in [QueryKind::All, QueryKind::Exist] {
            for sel_frac in [0.05, 0.15, 0.4] {
                let q = qg.calibrated(&tuples, kind, sel_frac);
                let sel = Selection {
                    kind: if kind == QueryKind::All {
                        SelectionKind::All
                    } else {
                        SelectionKind::Exist
                    },
                    halfplane: q.halfplane,
                };
                let got = run(&idx, &pager, &pairs, &sel, Strategy::T2);
                assert_eq!(got.ids(), oracle(&pairs, &sel), "{kind:?} {sel_frac}");
                assert_eq!(got.stats.duplicates, 0);
            }
        }
    }

    #[test]
    fn t2_handles_unbounded_tuples() {
        let mut pager = MemPager::paper_1999();
        let mut g = TupleGen::new(9, cdb_geometry::Rect::paper_window(), ObjectSize::Small);
        let mut tuples: Vec<GeneralizedTuple> = (0..60).map(|_| g.bounded_tuple()).collect();
        tuples.extend((0..40).map(|_| g.unbounded_tuple()));
        let (idx, pairs) = build_index(&mut pager, &tuples, 4);
        for a in [0.3, -0.8, 2.0] {
            for kind in [SelectionKind::All, SelectionKind::Exist] {
                for op in [RelOp::Ge, RelOp::Le] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new2d(a, -5.0, op),
                    };
                    let got = run(&idx, &pager, &pairs, &sel, Strategy::T2);
                    assert_eq!(got.ids(), oracle(&pairs, &sel), "{kind:?} {op:?} a={a}");
                }
            }
        }
    }

    /// What the index itself refuses, as errors: a strategy that names no
    /// technique of its own, and a case naming a tree or a strip it does
    /// not have, or out of the d-D routing table (run, a `Cell` would
    /// trust the `Prev` strip alone and miss tuples).
    #[test]
    fn foreign_strategies_and_trees_are_errors_not_panics() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(20, ObjectSize::Small, 8).generate();
        let (idx, _) = build_index(&mut pager, &tuples, 3);
        let fetch = |_: &dyn PageReader, _: u32| -> GeneralizedTuple { unreachable!() };
        let sel = Selection::exist(HalfPlane::above(0.3, 0.0));
        for strategy in [Strategy::Scan, Strategy::RPlus] {
            let got = idx.execute(&pager, &sel, strategy, &fetch);
            assert!(matches!(got, Err(CdbError::UnsupportedQuery(_))), "{got:?}");
        }
        let at = |i| crate::plan::TreeAt { i, slope: 0.3 };
        let between = |near, side| PlanCase::Between {
            lo: 0.0,
            hi: 1.0,
            near,
            side,
        };
        for case in [
            PlanCase::Member {
                i: 3,
                slope: vec![0.3],
            },
            between(at(3), Side::Next), // k = 3: no tree pair 3
            PlanCase::Cell(1),
        ] {
            let got = idx.run(&pager, &sel, &case, Exact::Selection, &fetch);
            assert!(
                matches!(got, Err(CdbError::UnsupportedQuery(_))),
                "{case}: {got:?}"
            );
        }
    }

    /// Both geometries stay exact under maintenance — the slope set, grids,
    /// random point sets and points all on one hyperplane: build, insert
    /// (handicaps folded, never re-tightened), delete, handicap-guided
    /// searches ≡ oracle and duplicate-free; then a fresh build over the
    /// kept tuples — the one way to re-tighten — which is as exact and
    /// packs into fewer pages.
    #[test]
    fn every_geometry_keeps_t2_exact_under_churn() {
        fn row(
            what: &str,
            geometry: impl Into<SlopeGeometry>,
            mut pairs: Vec<(u32, GeneralizedTuple)>,
            late: Vec<GeneralizedTuple>,
            slopes: &[&[f64]],
        ) {
            let geometry = geometry.into();
            let mut pager = MemPager::paper_1999();
            let mut idx = DualIndex::build(&mut pager, geometry.clone(), &pairs).unwrap();
            for (id, t) in (5000u32..).zip(late) {
                // (2-D: `insert_then_query_after_refresh`.)
                idx.insert(&mut pager, id, &t).unwrap();
                pairs.push((id, t));
            }
            let (gone, kept): (Vec<_>, Vec<_>) = pairs.into_iter().partition(|(id, _)| id % 4 == 1);
            for (id, t) in &gone {
                // (2-D: `remove_then_query`; d-D: `insert_remove_round_trip`.)
                assert!(
                    idx.remove(&mut pager, *id, t).unwrap(),
                    "{what}: remove {id}"
                );
            }
            let (id, t) = &gone[0];
            assert!(!idx.remove(&mut pager, *id, t).unwrap(), "{what}: absent");
            let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
                kept.iter().cloned().collect();
            let fetch = |_: &dyn PageReader, id: u32| lookup[&id].clone();
            let exact = |idx: &DualIndex, pager: &MemPager, when: &str| {
                for (slope, b) in slopes
                    .iter()
                    .zip([-25.0, 0.0, 12.0, 40.0].into_iter().cycle())
                {
                    for kind in [SelectionKind::All, SelectionKind::Exist] {
                        for op in [RelOp::Ge, RelOp::Le] {
                            let halfplane = HalfPlane::new(slope.to_vec(), b, op);
                            let sel = Selection { kind, halfplane };
                            let case = idx.route(MethodKind::T2, &sel).unwrap();
                            let guided =
                                matches!(case, PlanCase::Between { .. } | PlanCase::Cell(_));
                            assert!(guided, "{what}: {case}");
                            let got = idx
                                .run(pager, &sel, &case, Exact::Selection, &fetch)
                                .unwrap();
                            // (2-D: `t2_is_correct_without_refresh_after_updates`;
                            // d-D: `t2d_incremental_inserts_stay_correct`.)
                            assert_eq!(got.ids(), oracle(&kept, &sel), "{what} {when}: {sel:?}");
                            assert_eq!(got.stats.duplicates, 0, "{what} {when}: {sel:?}");
                        }
                    }
                }
            };
            exact(&idx, &pager, "after churn");
            // Leaves packed full again: fewer pages than churn split them
            // into. (Candidate counts are not ordered: the fresh leaves are
            // fewer and wider, so their handicaps need not be tighter.)
            let mut pager = MemPager::paper_1999();
            let rebuilt = DualIndex::build(&mut pager, geometry, &kept).unwrap();
            exact(&rebuilt, &pager, "rebuilt");
            assert!(
                rebuilt.page_count() < idx.page_count(),
                "{what}: {} vs {} pages",
                rebuilt.page_count(),
                idx.page_count()
            );
        }
        let flat = |n, size, seed| DatasetSpec::paper_1999(n, size, seed).generate();
        let numbered = |tuples: Vec<GeneralizedTuple>| (0u32..).zip(tuples).collect::<Vec<_>>();
        let boxes = |n, seed| ddim::tests::random_boxes(3, n, seed);
        let late = |dim, seed| ddim::tests::random_boxes(dim, 60, seed).into_iter();
        let late_boxes = || late(3, 38).map(|(_, t)| t).collect();
        let cloud = |dim: usize, k: usize, seed: u64| {
            let mut rng = cdb_prng::StdRng::seed_from_u64(seed);
            let mut point = || (1..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            SlopePoints::new(dim, (0..k).map(|_| point()).collect())
        };
        // Query slopes inside the hull, so inside the box: midpoints.
        let mids = |points: &SlopePoints| -> Vec<Vec<f64>> {
            let p = points.as_slice();
            let mid = |(i, j): (usize, usize)| p[i].iter().zip(&p[j]).map(|(a, b)| (a + b) / 2.0);
            [(0, 1), (2, 3), (1, 4), (3, 0)]
                .map(|ij| mid(ij).collect())
                .to_vec()
        };
        fn slices(slopes: &[Vec<f64>]) -> Vec<&[f64]> {
            slopes.iter().map(Vec::as_slice).collect()
        }
        row(
            "slope set",
            SlopeSet::uniform_tan(4),
            numbered(flat(120, ObjectSize::Small, 10)),
            flat(80, ObjectSize::Medium, 11),
            &[&[-1.9], &[-1.2], &[-0.9], &[0.2], &[0.9], &[1.9]],
        );
        row(
            "2-D grid",
            SlopePoints::grid(2, 4, 2.0),
            numbered(flat(120, ObjectSize::Small, 10)),
            flat(80, ObjectSize::Medium, 11),
            &[&[-1.9], &[-1.2], &[-0.9], &[0.2], &[0.9], &[1.9]],
        );
        row(
            "3-D grid",
            SlopePoints::grid(3, 3, 1.0),
            boxes(100, 37),
            late_boxes(),
            &[&[0.2, -0.1], &[-0.9, -0.8], &[0.7, 0.3], &[-0.4, 0.95]],
        );
        let line = cloud(2, 5, 51);
        row(
            "5 random points on a line",
            line.clone(),
            numbered(flat(120, ObjectSize::Small, 10)),
            flat(80, ObjectSize::Medium, 11),
            &slices(&mids(&line)),
        );
        let plane = cloud(3, 12, 52);
        row(
            "12 random points in E²",
            plane.clone(),
            boxes(100, 37),
            late_boxes(),
            &slices(&mids(&plane)),
        );
        let space = cloud(4, 16, 53);
        row(
            "16 random points in E³",
            space.clone(),
            ddim::tests::random_boxes(4, 100, 54),
            late(4, 55).map(|(_, t)| t).collect(),
            &slices(&mids(&space)),
        );
        // All on the line b = a/2 − 1/5, a hyperplane of slope space:
        // slopes off it are routed to the nearest point's cell all the same.
        let on_a_line = (0..8).map(|i| {
            let a = -0.9 + 0.25 * f64::from(i);
            vec![a, 0.5 * a - 0.2]
        });
        row(
            "8 points on a hyperplane of E²",
            SlopePoints::new(3, on_a_line.collect()),
            boxes(100, 37),
            late_boxes(),
            &[&[0.2, -0.3], &[-0.5, 0.1], &[0.6, -0.5], &[-0.8, -0.6]],
        );
    }

    /// The one-descent update ≡ the per-fold reference, page for page:
    /// twin indexes take one seeded stream of inserts (splitting leaves,
    /// internal nodes and the root of 128-byte-page trees) and deletes,
    /// one through [`DualIndex::insert`], the other through
    /// [`forest::tests::insert_per_fold`]. After the stream every tree page
    /// of the two — entries, links and handicaps — is bit-identical, every
    /// tree validates, and T2 answers as the oracle.
    #[test]
    fn one_descent_update_matches_the_per_fold_reference() {
        fn stream(
            what: &str,
            geometry: impl Into<SlopeGeometry>,
            mut live: Vec<(u32, GeneralizedTuple)>,
            late: Vec<GeneralizedTuple>,
            slopes: &[&[f64]],
        ) {
            let geometry = geometry.into();
            let (mut pager, mut twin_pager) = (MemPager::new(128), MemPager::new(128));
            let mut idx = DualIndex::build(&mut pager, geometry.clone(), &live).unwrap();
            let mut twin = DualIndex::build(&mut twin_pager, geometry, &live).unwrap();
            let built = idx.page_count();
            let mut rng = cdb_prng::StdRng::seed_from_u64(71);
            for (id, t) in (5000u32..).zip(late) {
                idx.insert(&mut pager, id, &t).unwrap();
                let elements = twin.geometry.elements().zip(&twin.regions);
                for (i, (slope, regions)) in elements.enumerate() {
                    let keys = keys_at(&t, slope);
                    let reaches: Vec<_> = regions
                        .iter()
                        .map(|(side, corners)| (*side, reach(&t, keys, corners)))
                        .collect();
                    let forest = &mut twin.forest;
                    forest::tests::insert_per_fold(forest, &mut twin_pager, i, id, keys, &reaches);
                }
                live.push((id, t));
                if rng.gen_bool(0.3) {
                    let (id, t) = live.swap_remove(rng.gen_range(0..live.len()));
                    assert!(idx.remove(&mut pager, id, &t).unwrap(), "{what}: {id}");
                    assert!(
                        twin.remove(&mut twin_pager, id, &t).unwrap(),
                        "{what}: {id}"
                    );
                }
            }
            assert!(idx.page_count() > built, "{what}: no insert split a leaf");
            for i in 0..idx.geometry.elements().count() {
                for up in [true, false] {
                    let (tree, reference) = (idx.forest.tree(i, up), twin.forest.tree(i, up));
                    tree.validate(&pager).unwrap();
                    let shape =
                        |t: &cdb_btree::BTree| (t.root(), t.height(), t.len(), t.page_count());
                    assert_eq!(shape(tree), shape(reference), "{what}: tree {i} {up}");
                    let pages = tree.collect_pages(&pager).unwrap();
                    assert_eq!(pages, reference.collect_pages(&twin_pager).unwrap());
                    let (mut a, mut b) = (vec![0u8; 128], vec![0u8; 128]);
                    for page in pages {
                        pager.read(page, &mut a).unwrap();
                        twin_pager.read(page, &mut b).unwrap();
                        assert_eq!(a, b, "{what}: tree {i} {up}, page {page}");
                    }
                }
            }
            let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
                live.iter().cloned().collect();
            let fetch = |_: &dyn PageReader, id: u32| lookup[&id].clone();
            for (slope, b) in slopes
                .iter()
                .zip([-25.0, 0.0, 12.0, 40.0].into_iter().cycle())
            {
                for kind in [SelectionKind::All, SelectionKind::Exist] {
                    for op in [RelOp::Ge, RelOp::Le] {
                        let halfplane = HalfPlane::new(slope.to_vec(), b, op);
                        let sel = Selection { kind, halfplane };
                        let case = idx.route(MethodKind::T2, &sel).unwrap();
                        let guided = matches!(case, PlanCase::Between { .. } | PlanCase::Cell(_));
                        assert!(guided, "{what}: {case}");
                        let got = idx
                            .run(&pager, &sel, &case, Exact::Selection, &fetch)
                            .unwrap();
                        let mut want = oracle(&live, &sel);
                        want.sort_unstable();
                        assert_eq!(got.ids(), want, "{what}: {sel:?}");
                    }
                }
            }
        }
        let flat = |n, size, seed| {
            let tuples = DatasetSpec::paper_1999(n, size, seed).generate();
            (0u32..).zip(tuples).collect::<Vec<_>>()
        };
        let late = |n| DatasetSpec::paper_1999(n, ObjectSize::Medium, 72).generate();
        for (k, n) in [(2, 9), (4, 300), (5, 180)] {
            let set = SlopeSet::uniform_tan(k);
            // A third and two thirds of the way between neighbours of S.
            let between = set
                .as_slice()
                .windows(2)
                .flat_map(|w| [1.0, 2.0].map(|t| vec![w[0] + (w[1] - w[0]) * t / 3.0]));
            let slopes: Vec<Vec<f64>> = between.collect();
            let slopes: Vec<&[f64]> = slopes.iter().map(Vec::as_slice).collect();
            let what = format!("k = {k}");
            stream(
                &what,
                set,
                flat(n, ObjectSize::Small, 70),
                late(150),
                &slopes,
            );
        }
        let boxes = |n, seed| ddim::tests::random_boxes(3, n, seed);
        let late_boxes = boxes(150, 74).into_iter().map(|(_, t)| t).collect();
        stream(
            "3-D grid",
            SlopePoints::grid(3, 3, 1.0),
            boxes(200, 73),
            late_boxes,
            &[&[0.2, -0.1], &[-0.9, -0.8], &[0.7, 0.3], &[-0.4, 0.95]],
        );
    }

    #[test]
    fn auto_uses_restricted_for_member_slopes() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(80, ObjectSize::Small, 12).generate();
        let (idx, pairs) = build_index(&mut pager, &tuples, 3);
        let s = idx.slopes().unwrap().get(1);
        let sel = Selection::exist(HalfPlane::above(s, 0.0));
        let got = run(&idx, &pager, &pairs, &sel, Strategy::Auto);
        assert_eq!(got.ids(), oracle(&pairs, &sel));
        // Restricted executions never fetch tuples.
        assert_eq!(got.stats.heap_io.accesses(), 0);
    }

    #[test]
    fn space_grows_linearly_in_k() {
        let mut pager2 = MemPager::paper_1999();
        let mut pager4 = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(500, ObjectSize::Small, 14).generate();
        let (idx2, _) = build_index(&mut pager2, &tuples, 2);
        let (idx4, _) = build_index(&mut pager4, &tuples, 4);
        let ratio = idx4.page_count() as f64 / idx2.page_count() as f64;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "k=4 should use ~2x the pages of k=2, got {ratio}"
        );
    }

    #[test]
    fn hyperplane_equality_queries() {
        let mut pager = MemPager::paper_1999();
        let mut g =
            cdb_workload::TupleGen::new(3, cdb_geometry::Rect::paper_window(), ObjectSize::Small);
        let mut tuples: Vec<GeneralizedTuple> = (0..150).map(|_| g.bounded_tuple()).collect();
        tuples.extend((0..30).map(|_| g.unbounded_tuple()));
        let (idx, pairs) = build_index(&mut pager, &tuples, 4);
        let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs.iter().cloned().collect();
        for (a, c) in [(0.3, 0.0), (-1.2, 15.0), (2.0, -30.0), (0.7, 44.0)] {
            for kind in [SelectionKind::Exist, SelectionKind::All] {
                let l1 = lookup.clone();
                let fetch = move |_: &dyn PageReader, id: u32| l1[&id].clone();
                let got = idx
                    .execute_hyperplane(&pager, a, c, kind, Strategy::T2, &fetch)
                    .unwrap();
                let want: Vec<u32> = pairs
                    .iter()
                    .filter(|(_, t)| match kind {
                        SelectionKind::Exist => {
                            cdb_geometry::predicates::exist_hyperplane(&[a], c, t)
                        }
                        SelectionKind::All => cdb_geometry::predicates::all_hyperplane(&[a], c, t),
                    })
                    .map(|(id, _)| *id)
                    .collect();
                assert_eq!(got.ids(), want, "{kind:?} line y = {a}x + {c}");
            }
        }
        // A degenerate tuple lying exactly on a line is ALL-selected by it.
        let segment =
            cdb_geometry::parse::parse_tuple("y = 0.5x + 2 && x >= 0 && x <= 10").unwrap();
        let mut pairs2 = pairs.clone();
        let mut idx2 = idx.clone();
        idx2.insert(&mut pager, 9000, &segment).unwrap();
        pairs2.push((9000, segment));
        let lookup2: std::collections::HashMap<u32, GeneralizedTuple> =
            pairs2.iter().cloned().collect();
        let fetch = move |_: &dyn PageReader, id: u32| lookup2[&id].clone();
        let got = idx2
            .execute_hyperplane(&pager, 0.5, 2.0, SelectionKind::All, Strategy::T2, &fetch)
            .unwrap();
        assert_eq!(got.ids(), &[9000]);
    }

    /// Regression: routing T2 by angle distance instead of slope distance
    /// sent slope −1.159 (between −2.414 and −0.414, k = 4) to the tree at
    /// −2.414, whose handicap strip [−2.414, −1.414] does not contain the
    /// query slope — and EXIST results were silently missed.
    #[test]
    fn t2_routing_matches_handicap_strips() {
        let mut pager = MemPager::paper_1999();
        let tuples = DatasetSpec::paper_1999(4000, ObjectSize::Small, 0x5E1).generate();
        let (idx, pairs) = build_index(&mut pager, &tuples, 4);
        let sel = Selection::exist(HalfPlane::below(-1.1591839945660445, -13.65694655564986));
        let got = run(&idx, &pager, &pairs, &sel, Strategy::T2);
        assert_eq!(got.ids(), oracle(&pairs, &sel));
        // And a sweep of slopes straddling both halves of every gap.
        for a in [-2.0, -1.5, -1.2, -0.9, -0.5, -0.2, 0.2, 0.9, 1.2, 2.0] {
            for op in [RelOp::Ge, RelOp::Le] {
                for kind in [SelectionKind::All, SelectionKind::Exist] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new2d(a, -10.0, op),
                    };
                    let got = run(&idx, &pager, &pairs, &sel, Strategy::T2);
                    assert_eq!(got.ids(), oracle(&pairs, &sel), "{kind:?} {op:?} a={a}");
                }
            }
        }
    }
}
