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
use std::time::Instant;

pub(crate) use heap_source::HeapSource;
pub(crate) use keys::KeyColumns;
pub use rplus::RPlusIndex;

use cdb_btree::key_slack;
use cdb_geometry::dual::{self, DualSurfaces, PlanarSurfaces};
use cdb_geometry::halfplane::HalfPlane;
use cdb_geometry::kernel2d::Extreme;
use cdb_geometry::tuple::GeneralizedTuple;
use cdb_storage::{PageReader, Pager, TrackedReader};

use crate::error::CdbError;
use crate::plan::{MethodKind, PlanCase, Rejection, TreeAt};
use crate::query::{
    merge_ascending, QueryResult, QueryStats, QueryTimings, Selection, Side, Strategy,
};
use crate::slopes::{Bracket, SlopeSet, StripEnd};
use ddim::SlopePoints;
use forest::{Forest, Reaches};
use keys::{KeyBracket, Row};

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

// The wire's one build request carries this layout.
cdb_storage::wire_enum!(IndexSpec {
    0 => Dual(geometry),
    1 => RPlus { fill as cdb_storage::codec::finite },
});

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
    /// index over a slope set is also checked against the heap — `live`
    /// shows it every live record — and hands back the key columns filled
    /// from it.
    pub(crate) fn verify(
        &self,
        pager: &dyn PageReader,
        live: impl FnOnce(&mut Records<'_>) -> Result<(), CdbError>,
    ) -> io::Result<Option<KeyColumns>> {
        match self {
            Index::Dual(idx) => idx.verify(pager, live),
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

/// A corner of a handicap region: where a tuple's reaches over the region
/// are evaluated besides at the region's element.
#[derive(Clone, Debug)]
enum Corner {
    /// A slope point of `E^{d−1}`: the tuple's keys there.
    Point(Vec<f64>),
    /// The far end of a strip of the slope `s` (Section 4.2), sample `j`
    /// of the key columns: the tuple's keys there, or, at `t` in the frame
    /// swapped through the vertical (`t = 1/a`), the extremes of
    /// `−s·(x − t·y)` over the tuple, which are its keys at `t = 1/s`.
    /// Along `t` the maximum is convex and the minimum concave, as `TOP_P`
    /// and `BOT_P` are along `a`.
    Strip { j: usize, end: StripEnd, s: f64 },
}

/// A tuple's surfaces at any slope of its space: from one enumeration of
/// its vertices in 2-D (`planar`), by the simplex at each slope beyond.
struct Surfaces<'t> {
    tuple: &'t GeneralizedTuple,
    planar: Option<PlanarSurfaces<'t>>,
}

impl<'t> Surfaces<'t> {
    fn new(tuple: &'t GeneralizedTuple) -> Self {
        let planar = (tuple.dim() == 2).then(|| PlanarSurfaces::new(tuple));
        Surfaces { tuple, planar }
    }

    /// `(TOP_P, BOT_P)` at `slope`; panics on unsatisfiable tuples (the
    /// relation layer rejects them at insert).
    fn keys(&self, slope: &[f64]) -> (f64, f64) {
        let (bot, top) = match &self.planar {
            Some(planar) => planar.at(slope[0]).map(|(bot, top)| (bot.value, top.value)),
            None => dual::bot_top(self.tuple, slope),
        }
        .expect("indexed tuples are satisfiable");
        (top, bot)
    }
}

/// What shows a dual index the heap's live records, as `(id, the bytes
/// of its tuple)`.
pub(crate) type Records<'v> = dyn FnMut(u32, &[u8]) + 'v;

/// What a [`DualIndex`] keeps of one tuple, from one evaluation of its
/// surfaces.
struct Keyed {
    /// `(TOP_P, BOT_P)` at every element of `S`: the trees' keys.
    keys: Vec<(f64, f64)>,
    /// Per element, the [`Reaches`] over each of its handicap regions.
    reaches: Vec<Vec<(Side, Reaches)>>,
    /// Over a slope set, the key columns' row.
    row: Option<Row>,
}

/// The dual line of a vertex that attains a surface at one end of a
/// handicap strip, in the strip's frame: the end's position, the surface
/// there, and the line's slope.
#[derive(Clone, Copy, Debug)]
struct Tangent {
    position: f64,
    value: f64,
    slope: f64,
}

/// A tuple's [`Reaches`] over the strip of the slope `s` (Section 4.2:
/// "the extremum of its surface over the strip") from its key-column
/// samples at the strip's two ends — `near` at `s`, `far` at `end`, each
/// `(BOT, TOP)` in its own frame with a vertex attaining it. The end
/// values give `B^up`'s max and `B^down`'s min, which a convex `TOP_P` and
/// a concave `BOT_P` reach at an end; `B^up`'s min and `B^down`'s max may
/// lie inside the strip and are bounded by [`strip_extremum`], never past
/// the shared `(max TOP_P, min BOT_P)` (Section 4.3's reading, which is
/// looser) that stays the fallback where that has no finite bound. A
/// strip through the vertical is an interval of `t = 1/a`, where the trees
/// at `s` are keyed by the extremes of `−s·(x − t·y)`: a vertex `(x, y)`
/// is the line `−s·x + s·t·y`, convex at the max and concave at the min as
/// the surfaces are along `a`.
fn strip_reaches(
    near: (Extreme, Extreme),
    far: (Extreme, Extreme),
    end: StripEnd,
    s: f64,
) -> Reaches {
    let line = |position, value, slope| Tangent {
        position,
        value,
        slope,
    };
    // Per tree, its surface's tangents at the two ends: B^up's, B^down's.
    let [up, down] = match end {
        StripEnd::Slope(m) => {
            let plain = |near: Extreme, far: Extreme| {
                [line(s, near.value, -near.at), line(m, far.value, -far.at)]
            };
            [plain(near.1, far.1), plain(near.0, far.0)]
        }
        StripEnd::Swapped(t) => {
            // At `t = 1/s` the vertex lies at x = `at`, y = value + s·x; at
            // `t`, `far` names y and the value is x − t·y.
            let at_s = |e: Extreme| line(1.0 / s, e.value, s * (e.value + s * e.at));
            let at_t = |e: Extreme| line(t, -s * e.value, s * e.at);
            let (max, min) = if s > 0.0 { far } else { (far.1, far.0) };
            [[at_s(near.1), at_t(max)], [at_s(near.0), at_t(min)]]
        }
    };
    let max = up[0].value.max(up[1].value);
    let min = down[0].value.min(down[1].value);
    let up_min = strip_extremum(up, true).map_or(min, |bound| bound.max(min));
    let down_max = strip_extremum(down, false).map_or(max, |bound| bound.min(max));
    [(max, up_min), (down_max, min)]
}

/// The strip-extremum bound: a bound past a surface's extremum over a
/// strip on the side its end values do not give — below a convex
/// surface's minimum (`convex`), above a concave one's maximum — from its
/// tangents at the strip's two ends. Each is a vertex's dual line, which
/// lies below a convex surface (above a concave one) at every position, so
/// the surface is past the upper (lower) envelope of the tangents it has.
/// Over the strip that envelope is past its values at the ends and, where
/// two tangents cross inside the strip, at the crossing. Two lines cross
/// once, so at any position the one farther from the surface is at least
/// as far out as their crossing: taking it at a rounded crossing stays on
/// the safe side. The result is widened outward by [`key_slack`] of the
/// largest term. `None` where neither end names a vertex with a
/// finite value (an infinite surface, a tuple the simplex evaluated).
fn strip_extremum(ends: [Tangent; 2], convex: bool) -> Option<f64> {
    // The concave case is the convex one of −f.
    let sign = if convex { 1.0 } else { -1.0 };
    let [p, q] = ends.map(|e| Tangent {
        value: sign * e.value,
        slope: sign * e.slope,
        ..e
    });
    let named = |e: &Tangent| e.value.is_finite() && e.slope.is_finite();
    // The lowest of the envelope, and the largest term summed on the way.
    let (low, scale) = match (named(&p), named(&q)) {
        (true, true) => {
            let cross = (q.value - p.value + p.slope * p.position - q.slope * q.position)
                / (p.slope - q.slope);
            let (dp, dq) = (
                p.slope * (cross - p.position),
                q.slope * (cross - q.position),
            );
            // Parallel tangents cross nowhere (`cross` is not finite), and a
            // crossing outside the strip bounds nothing there: both leave
            // the ends' values. (Selected rather than branched on.)
            let inside = p.position.min(q.position) <= cross && cross <= p.position.max(q.position);
            let (ends, at_cross) = (p.value.min(q.value), (p.value + dp).min(q.value + dq));
            let low = if inside && at_cross < ends {
                at_cross
            } else {
                ends
            };
            let drift = if inside { dp.abs().max(dq.abs()) } else { 0.0 };
            (low, p.value.abs().max(q.value.abs()).max(drift))
        }
        // One tangent: its lower end over the strip.
        (true, false) | (false, true) => {
            let (e, other) = if named(&p) { (p, q) } else { (q, p) };
            let d = e.slope * (other.position - e.position);
            (e.value.min(e.value + d), e.value.abs().max(d.abs()))
        }
        (false, false) => return None,
    };
    Some(sign * (low - key_slack(scale)))
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

    /// The handicap regions of every element, each the convex hull of the
    /// element and the listed corners, so `TOP_P`'s max and `BOT_P`'s min
    /// over it (convex, concave) are attained at one of them, and over a
    /// strip the tangents there bound the other two ([`strip_reaches`]):
    /// the strips from a slope to [`SlopeSet::mid`] on either side
    /// (Section 4.2) — at an end of `S`, its piece of the strip wrapping
    /// through the vertical;
    /// under [`Side::Prev`], the vertices of a slope point's Voronoi cell
    /// clipped to the bounding box of `S` (Section 4.4).
    fn regions(&self) -> Vec<Vec<Region>> {
        match self {
            SlopeGeometry::Set(slopes) => {
                let samples = slopes.samples();
                let strip = |i: usize, side: Side| {
                    let end = slopes.mid(i, side);
                    let j = samples.iter().position(|&c| c == end);
                    let j = j.expect("every strip end is a sample of C");
                    let s = slopes.get(i);
                    (side, vec![Corner::Strip { j, end, s }])
                };
                let sides = |i| [Side::Prev, Side::Next].map(|side| strip(i, side)).to_vec();
                (0..slopes.len()).map(sides).collect()
            }
            SlopeGeometry::Points(points) => (0..points.len())
                .map(|i| {
                    let corners = points.cell(i).into_iter().map(Corner::Point);
                    vec![(Side::Prev, corners.collect())]
                })
                .collect(),
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
        let mut idx = Self::from_parts(geometry.into(), Forest::default());
        // Every tuple's surfaces evaluated once: they key the trees, fill
        // the key columns and give the reaches.
        let keyed: Vec<Keyed> = tuples.iter().map(|(_, t)| idx.keyed(t)).collect();
        let keys: Vec<Vec<(f64, f64)>> = (0..idx.geometry.len())
            .map(|i| keyed.iter().map(|k| k.keys[i]).collect())
            .collect();
        idx.forest = Forest::build(pager, tuples, &keys)?;
        if let Some(columns) = idx.keys.as_mut() {
            for ((id, _), k) in tuples.iter().zip(&keyed) {
                columns.set_row(*id, k.row.iter().flatten().copied());
            }
        }
        // Every leaf's handicap values from the tuples bucketed into it
        // (Section 4.2 Steps 1–2).
        for (i, (keys, regions)) in keys.iter().zip(&idx.regions).enumerate() {
            let reaches: Vec<_> = (regions.iter().enumerate())
                .map(|(r, (side, _))| (*side, keyed.iter().map(|k| k.reaches[i][r].1).collect()))
                .collect();
            if !reaches.is_empty() {
                idx.forest.assign_handicaps(pager, i, keys, &reaches)?;
            }
        }
        Ok(idx)
    }

    /// Re-attaches an index from persisted metadata. The trees' node pages
    /// (handicaps included — they live in the bucket leaves) are already on
    /// disk; `forest` holds one tree pair per element, in the order of `S`.
    /// The key columns start with no row, so the keys decide nothing until
    /// the open-time [`verify`](Self::verify) pass hands them over.
    pub(crate) fn from_parts(geometry: SlopeGeometry, forest: Forest) -> Self {
        let mut idx = DualIndex {
            regions: geometry.regions(),
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
            .map(|slopes| KeyColumns::new(slopes.samples()))
    }

    /// A tuple's keys, reaches and key-column row, from one evaluation of
    /// its surfaces: over a slope set every key and strip end is a sample
    /// of the row.
    fn keyed(&self, tuple: &GeneralizedTuple) -> Keyed {
        let surfaces = Surfaces::new(tuple);
        let row = match (&surfaces.planar, &self.keys) {
            (Some(planar), Some(columns)) => Some(columns.row(planar)),
            _ => None,
        };
        let keys: Vec<(f64, f64)> = match &row {
            Some(row) => row[..self.geometry.len()]
                .iter()
                .map(|(bot, top)| (top.value, bot.value))
                .collect(),
            None => self.geometry.elements().map(|e| surfaces.keys(e)).collect(),
        };
        let over = |i: usize, corners: &[Corner]| -> Reaches {
            match (corners, &row) {
                (&[Corner::Strip { j, end, s }], Some(row)) => {
                    strip_reaches(row[i], row[j], end, s)
                }
                // A slope point's cell: both trees take the shared `(max
                // TOP_P, min BOT_P)` over its vertices.
                _ => {
                    let at_corners = corners.iter().map(|c| match c {
                        Corner::Point(point) => surfaces.keys(point),
                        Corner::Strip { .. } => unreachable!("strips belong to slope sets"),
                    });
                    let shared = at_corners.fold(keys[i], |(max_top, min_bot), (top, bot)| {
                        (max_top.max(top), min_bot.min(bot))
                    });
                    [shared; 2]
                }
            }
        };
        let reaches = (self.regions.iter().enumerate())
            .map(|(i, regions)| {
                (regions.iter())
                    .map(|(side, corners)| (*side, over(i, corners)))
                    .collect()
            })
            .collect();
        Keyed { keys, reaches, row }
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

    /// Reads every page of every tree through `pager`. Over a slope set
    /// it also fills key columns from the records `live_records` shows it
    /// — every live tuple of the heap, in the heap's page order — and
    /// holds the trees to them: every leaf entry must be its tuple's key,
    /// bit for bit as `f32`, and each tree must hold exactly the live ids.
    /// Returns the columns; a tree that disagrees with the heap is an
    /// [`io::ErrorKind::InvalidData`] error, as a page that fails its
    /// checksum is.
    pub(crate) fn verify(
        &self,
        pager: &dyn PageReader,
        live_records: impl FnOnce(&mut Records<'_>) -> Result<(), CdbError>,
    ) -> io::Result<Option<KeyColumns>> {
        let Some(mut columns) = self.no_keys() else {
            self.forest.verify(pager, |_, _, _, _| {})?;
            return Ok(None);
        };
        let stale = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
        // The records out of their pages, then evaluated off them.
        let (mut bytes, mut records) = (Vec::new(), Vec::new());
        live_records(&mut |id, record| {
            records.push((id, bytes.len()..bytes.len() + record.len()));
            bytes.extend_from_slice(record);
        })
        .map_err(|e| stale(format!("the heap could not be read: {e}")))?;
        let records: Vec<(u32, &[u8])> = (records.into_iter())
            .map(|(id, at)| (id, &bytes[at]))
            .collect();
        columns.fill(&records).map_err(stale)?;
        let live = records.len();
        let ids = records.iter().map(|&(id, _)| id as usize + 1).max();
        let ids = ids.unwrap_or(0);
        // Per tree, the entries read and the ids among them.
        let trees = 2 * self.geometry.len();
        let (mut count, mut seen) = (vec![0; trees], vec![false; trees * ids]);
        let mut wrong = None;
        self.forest.verify(pager, |i, up, key, id| {
            let tree = 2 * i + usize::from(!up);
            count[tree] += 1;
            let at = tree * ids + id as usize;
            let fresh = (id as usize) < ids && !std::mem::replace(&mut seen[at], true);
            let held = columns.key(id, i, up).map(f32::to_bits);
            if !fresh || held != Some((key as f32).to_bits()) {
                let which = if up { "up" } else { "down" };
                let why =
                    format!("tree {i} {which} holds key {key} for id {id}, the heap {held:?}");
                wrong.get_or_insert(why);
            }
        })?;
        if let Some(tree) = count.iter().position(|&n| n != live) {
            let n = count[tree];
            wrong.get_or_insert(format!("tree {tree} holds {n} of {live} live ids"));
        }
        match wrong {
            Some(why) => Err(stale(why)),
            None => Ok(Some(columns)),
        }
    }

    /// Takes over the key columns a [`verify`](Self::verify) pass filled.
    pub(crate) fn adopt_keys(&mut self, keys: KeyColumns) {
        self.keys = Some(keys);
    }

    /// Adds one tuple to every tree and folds each tree's own reach over
    /// every handicap region into its bucket leaves' handicaps — the paper's
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
        let keyed = self.keyed(tuple);
        for (i, (&keys, reaches)) in keyed.keys.iter().zip(&keyed.reaches).enumerate() {
            self.forest.insert(pager, i, id, keys, reaches)?;
        }
        if let (Some(columns), Some(row)) = (self.keys.as_mut(), keyed.row) {
            columns.set_row(id, row);
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
        let keys = self.keyed(tuple).keys;
        Ok(self.forest.remove(pager, &keys, id)?)
    }

    /// Sweeps for `sel` along `case`, a route of this index, and refines
    /// in the one filter-then-refine step, `index::refine`.
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
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        let forest = &self.forest;
        refine(pager, sel, fetch, self.keys.as_ref(), |pager| {
            // A guided search trusts the handicaps of one region; where the
            // geometry has none they are neutral and it would miss tuples.
            // Over a strip swapped through the vertical, the trees answer
            // their own threshold query through the query line's
            // x-intercept.
            let guided = |i: usize, side: Side| {
                let mut regions = self.regions.get(i).into_iter().flatten();
                match regions.find(|(s, _)| *s == side).map(|(_, c)| &c[..]) {
                    None => Err(foreign(case)),
                    Some(
                        [Corner::Strip {
                            end: StripEnd::Swapped(_),
                            s,
                            ..
                        }],
                    ) => forest.guided(pager, &through_x_intercept(sel, *s), i, side),
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

    /// Executes a selection along the index's [route](Self::route) — the
    /// paper's deployment: restricted when the slope is in `S`, otherwise
    /// T2. `Auto` and `T2` both name this index.
    ///
    /// `fetch` loads a tuple for the exact refinement step, charging its
    /// page accesses to `pager`. Execution is `&self` over a read-only
    /// pager: the per-query I/O windows in the returned
    /// [`QueryStats`] come from a private [`TrackedReader`], so they stay
    /// exact even when many queries share `pager` concurrently.
    ///
    /// # Errors
    /// [`CdbError::UnsupportedQuery`] — the [`Rejection`] of the route
    /// (a query of another dimension, a slope outside the box of slope
    /// points), or `Scan`/`RPlus` (handled a level up by the planner,
    /// which owns the non-dual access methods).
    pub fn execute(
        &self,
        pager: &dyn PageReader,
        sel: &Selection,
        strategy: Strategy,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        if let Some(other @ (MethodKind::SeqScan | MethodKind::RPlus)) = strategy.forced() {
            return Err(CdbError::UnsupportedQuery(format!(
                "{other} is executed by the planner, not the dual index"
            )));
        }
        let case = self
            .route(sel)
            .map_err(|why| CdbError::UnsupportedQuery(why.to_string()))?;
        self.run(pager, sel, &case, fetch)
    }

    /// Which trees the index sweeps for `sel`, in which way: the routing
    /// table of the index's geometry.
    ///
    /// # Errors
    /// The [`Rejection`]: a query of another dimension, or a slope outside
    /// the bounding box of slope points.
    pub fn route(&self, sel: &Selection) -> Result<PlanCase, Rejection> {
        match &self.geometry {
            SlopeGeometry::Set(slopes) => slopes.route(sel),
            SlopeGeometry::Points(points) => points.route(sel),
        }
    }
}

impl SlopeSet {
    /// The routing table of a slope set: Section 3's member case, else
    /// Section 4.2's nearer tree — at every slope, the paper's "similarly
    /// handled" wrapped cases included.
    fn route(&self, sel: &Selection) -> Result<PlanCase, Rejection> {
        Rejection::dimension(2, sel)?;
        let a = sel.halfplane.slope2d();
        let (lo, hi, (near, side)) = match self.bracket(a) {
            Bracket::Member(i) => {
                let slope = vec![self.get(i)];
                return Ok(PlanCase::Member { i, slope });
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
/// where its [`Corner::Strip`] extremes at `t = 1/a` meet this query.
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

/// What a search hands to [`refine`]: the distinct ids it produced,
/// split into those its keys decide and those still to check, and how
/// many repeats it dropped on the way.
#[derive(Default)]
pub(crate) struct Candidates {
    /// Ids whose keys decide the selection (Section 3's exact restricted
    /// search): accepted without a fetch.
    pub sure: Vec<u32>,
    /// Ids to show to [`Selection::holds`].
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
/// [`Selection::holds`] through `fetch` (batched by the source, so the cost
/// is one page access per distinct heap page; the engine's heap source
/// runs it on the record bytes in the page). The answer is the ids
/// accepted by key plus those kept; a candidate the keys reject is booked
/// in `rejected_by_key`, one refinement drops in `false_hits`. The bracket
/// leaves both lists ascending, so the kept ids are merged in; without it
/// the answer is sorted. The result's [`QueryTimings`] are read at the four
/// phases' boundaries.
pub(crate) fn refine(
    pager: &dyn PageReader,
    sel: &Selection,
    fetch: &dyn TupleSource,
    keys: Option<&KeyColumns>,
    search: impl FnOnce(&dyn PageReader) -> Result<Candidates, CdbError>,
) -> Result<QueryResult, CdbError> {
    let started = Instant::now();
    let tracked = TrackedReader::new(pager);
    let pager: &dyn PageReader = &tracked;
    let before = pager.stats();
    let Candidates {
        mut sure,
        mut check,
        duplicates,
    } = search(pager)?;
    let mut stats = QueryStats {
        candidates: (sure.len() + check.len()) as u64 + duplicates,
        duplicates,
        ..QueryStats::default()
    };
    stats.index_io = pager.stats().since(&before);
    let searched = Instant::now();
    let keys = keys.filter(|_| !check.is_empty());
    let bracket = keys.and_then(|keys| KeyBracket::new(keys, sel));
    if let Some(bracket) = &bracket {
        stats.rejected_by_key += bracket.settle(&mut check, &mut sure);
    }
    stats.accepted_by_key = sure.len() as u64;
    let bracketed = Instant::now();
    let heap_before = pager.stats();
    let mut kept = vec![false; check.len()];
    fetch.visit_batch(pager, &check, &mut |at, t| kept[at] = sel.holds(t))?;
    stats.heap_io = pager.stats().since(&heap_before);
    let mut verdicts = kept.iter();
    check.retain(|_| *verdicts.next().expect("one verdict per candidate"));
    stats.false_hits += (kept.len() - check.len()) as u64;
    let fetched = Instant::now();
    if bracket.is_some() {
        merge_ascending(&mut sure, &check);
    } else {
        sure.append(&mut check);
    }
    let mut result = QueryResult::new(sure, stats);
    let ordered = Instant::now();
    let ns = |from: Instant, to: Instant| to.duration_since(from).as_nanos() as u64;
    result.timings = QueryTimings {
        search_ns: ns(started, searched),
        bracket_ns: ns(searched, bracketed),
        fetch_ns: ns(bracketed, fetched),
        order_ns: ns(fetched, ordered),
    };
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::SelectionKind;
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

    /// The line `y = a·x + c` along `idx`'s route, as the read surface
    /// runs a line query: its two half-plane selections of `kind`, `≥` and
    /// `≤`, [intersected](QueryResult::intersect).
    pub(super) fn line(
        idx: &DualIndex,
        pager: &dyn PageReader,
        (a, c): (f64, f64),
        kind: SelectionKind,
        fetch: &dyn TupleSource,
    ) -> Result<QueryResult, CdbError> {
        let half = |op| {
            let sel = Selection {
                kind,
                halfplane: HalfPlane::new2d(a, c, op),
            };
            let case = idx
                .route(&sel)
                .map_err(|why| CdbError::UnsupportedQuery(why.to_string()))?;
            idx.run(pager, &sel, &case, fetch)
        };
        Ok(half(RelOp::Ge)?.intersect(half(RelOp::Le)?))
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
                        let case = idx.route(&sel).unwrap();
                        assert!(matches!(case, PlanCase::Member { i: m, .. } if m == i));
                        let got = run(&idx, &pager, &pairs, &sel, Strategy::T2);
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
                    let case = idx.route(&sel).unwrap();
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

    /// What the index itself refuses, as errors: a strategy that names
    /// another access method, and a case naming a tree or a strip it does
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
            let got = idx.run(&pager, &sel, &case, &fetch);
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
                            let case = idx.route(&sel).unwrap();
                            let guided =
                                matches!(case, PlanCase::Between { .. } | PlanCase::Cell(_));
                            assert!(guided, "{what}: {case}");
                            let got = idx.run(pager, &sel, &case, &fetch).unwrap();
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

    /// An index and its twin over one pager layout each, as built from the
    /// same tuples.
    type Twins<'a> = (
        (&'a mut DualIndex, &'a mut MemPager),
        (&'a mut DualIndex, &'a mut MemPager),
    );

    /// Churns twin indexes: `late` goes into the first through
    /// [`DualIndex::insert`] and into the second through
    /// [`forest::tests::insert_per_fold`], and after about three in ten
    /// inserts a random live tuple leaves both. Afterwards every tree page
    /// of the two — entries, links and handicaps — is bit-identical and
    /// every tree validates; `live` follows the stream.
    fn churn_twins(
        what: &str,
        ((idx, pager), (twin, twin_pager)): Twins<'_>,
        live: &mut Vec<(u32, GeneralizedTuple)>,
        late: Vec<GeneralizedTuple>,
        rng: &mut cdb_prng::StdRng,
    ) {
        for (id, t) in (5000u32..).zip(late) {
            idx.insert(pager, id, &t).unwrap();
            let keyed = twin.keyed(&t);
            for (i, (&keys, reaches)) in keyed.keys.iter().zip(&keyed.reaches).enumerate() {
                forest::tests::insert_per_fold(&mut twin.forest, twin_pager, i, id, keys, reaches);
            }
            live.push((id, t));
            if rng.gen_bool(0.3) {
                let (id, t) = live.swap_remove(rng.gen_range(0..live.len()));
                assert!(idx.remove(pager, id, &t).unwrap(), "{what}: {id}");
                assert!(twin.remove(twin_pager, id, &t).unwrap(), "{what}: {id}");
            }
        }
        let size = pager.page_size();
        for i in 0..idx.geometry.len() {
            for up in [true, false] {
                let (tree, reference) = (idx.forest.tree(i, up), twin.forest.tree(i, up));
                tree.validate(&*pager).unwrap();
                let shape = |t: &cdb_btree::BTree| (t.root(), t.height(), t.len(), t.page_count());
                assert_eq!(shape(tree), shape(reference), "{what}: tree {i} {up}");
                let pages = tree.collect_pages(&*pager).unwrap();
                assert_eq!(pages, reference.collect_pages(&*twin_pager).unwrap());
                let (mut a, mut b) = (vec![0u8; size], vec![0u8; size]);
                for page in pages {
                    pager.read(page, &mut a).unwrap();
                    twin_pager.read(page, &mut b).unwrap();
                    assert_eq!(a, b, "{what}: tree {i} {up}, page {page}");
                }
            }
        }
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
            let twins = ((&mut idx, &mut pager), (&mut twin, &mut twin_pager));
            churn_twins(what, twins, &mut live, late, &mut rng);
            assert!(idx.page_count() > built, "{what}: no insert split a leaf");
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
                        let case = idx.route(&sel).unwrap();
                        let guided = matches!(case, PlanCase::Between { .. } | PlanCase::Cell(_));
                        assert!(guided, "{what}: {case}");
                        let got = idx.run(&pager, &sel, &case, &fetch).unwrap();
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

    /// Open holds every leaf of a file-backed dual index to the heap: one
    /// forged leaf entry — its key one `f32` step off, its id another live
    /// tuple's, its id no tuple's — sealed with a good checksum, and the
    /// reopened relation is `Degraded` with the dual index corrupt (where
    /// the checksums alone passed it as `Healthy`), answers through the
    /// scan, and is repaired by a rebuild.
    #[test]
    fn open_holds_every_leaf_to_the_heap() {
        use crate::db::{ConstraintDb, DbConfig};
        use crate::relation::RelationHealth;
        use cdb_btree::{Direction, SweepControl};
        use cdb_storage::FilePager;

        let path = std::env::temp_dir().join(format!("cdb_forged_leaf_{}", std::process::id()));
        let forged = path.with_extension("forged");
        let _ = std::fs::remove_file(&path);
        let mut db = ConstraintDb::create(&path, DbConfig::paper_1999()).unwrap();
        db.create_relation("r", 2).unwrap();
        for t in DatasetSpec::paper_1999(400, ObjectSize::Small, 23).generate() {
            db.insert("r", t).unwrap();
        }
        db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
        // The first two entries of a leaf of B^down at the second slope.
        let mut entries = Vec::new();
        let tree = db
            .relation("r")
            .unwrap()
            .index()
            .unwrap()
            .forest
            .tree(1, false);
        tree.sweep(Direction::Up, db.reader(), f64::NEG_INFINITY, |leaf| {
            entries.extend((0..2).map(|j| (leaf.page(), leaf.key(j) as f32, leaf.id(j))));
            SweepControl::Stop
        })
        .unwrap();
        let sel = Selection::exist(HalfPlane::above(0.37, -2.0));
        let want = db.query_with("r", sel.clone(), Strategy::T2).unwrap();
        db.close().unwrap();
        assert!(ConstraintDb::open(&path)
            .unwrap()
            .recovery_report()
            .is_clean());

        let (page, key, id) = entries[0];
        let other = entries[1].2;
        let entry = |key: f32, id: u32| [key.to_le_bytes(), id.to_le_bytes()].concat();
        for (what, forgery) in [
            (
                "a key one step off",
                entry(f32::from_bits(key.to_bits() + 1), id),
            ),
            ("another live tuple's id", entry(key, other)),
            ("no tuple's id", entry(key, 90_000)),
        ] {
            std::fs::copy(&path, &forged).unwrap();
            let mut pager = FilePager::open(&forged).unwrap();
            let mut buf = vec![0u8; pager.page_size()];
            pager.read(page, &mut buf).unwrap();
            let at = buf.windows(8).position(|w| w == entry(key, id)).unwrap();
            buf[at..at + 8].copy_from_slice(&forgery);
            pager.write(page, &buf).unwrap();
            pager.close().unwrap();

            let mut db = ConstraintDb::open(&forged).unwrap();
            let dual = vec!["dual".to_string()];
            let health = db.relation("r").unwrap().health().clone();
            let corrupt = RelationHealth::Degraded {
                corrupt_indexes: dual.clone(),
            };
            assert_eq!(health, corrupt, "{what}");
            assert!(db.query_with("r", sel.clone(), Strategy::T2).is_err());
            let scan = db.query_with("r", sel.clone(), Strategy::Auto).unwrap();
            assert_eq!(scan.ids(), want.ids(), "{what}");
            assert_eq!(db.rebuild_indexes("r").unwrap(), dual);
            assert_eq!(db.relation("r").unwrap().health(), &RelationHealth::Healthy);
            let rebuilt = db.query_with("r", sel.clone(), Strategy::T2).unwrap();
            assert_eq!(rebuilt.ids(), want.ids(), "{what}");
        }
        let _ = (std::fs::remove_file(&path), std::fs::remove_file(&forged));
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
        // The restricted search never fetches tuples.
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
                let got = line(&idx, &pager, (a, c), kind, &fetch).unwrap();
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
        let got = line(&idx2, &pager, (0.5, 2.0), SelectionKind::All, &fetch).unwrap();
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

    /// ROADMAP I(b) as a test oracle: every tuple of `live` is bounded by
    /// the handicaps a first sweep from its own-surface reach folds — per
    /// element, tree, direction and side, those of the leaf the reach
    /// buckets it into (the first non-empty leaf on the sweep's way whose
    /// far edge is not before the reach, clamped to the last) and of every
    /// leaf after it, which a sweep from any start up to the reach visits
    /// too. (A leaf's far edge moves under churn: an insert that widens a
    /// leaf makes it the bucket of reaches its neighbour's slot holds.)
    /// One line per tuple a slot fails.
    pub(crate) fn handicap_violations(
        idx: &DualIndex,
        pager: &dyn PageReader,
        live: &[(u32, GeneralizedTuple)],
    ) -> Vec<String> {
        use cdb_btree::{Direction, LeafInfo};
        let keyed: Vec<Keyed> = live.iter().map(|(_, t)| idx.keyed(t)).collect();
        let mut out = Vec::new();
        for (i, regions) in idx.regions.iter().enumerate() {
            for (t, up) in [true, false].into_iter().enumerate() {
                let tree = idx.forest.tree(i, up);
                let leaves = tree.leaves(pager).unwrap();
                let slots: Vec<_> = (leaves.iter())
                    .map(|leaf| tree.read_handicaps(pager, leaf.page).unwrap())
                    .collect();
                for (r, (side, _)) in regions.iter().enumerate() {
                    for dir in Direction::BOTH {
                        // The leaves in the order `dir` meets them, and the
                        // fold of each one's slot with those of all after it.
                        let mut order: Vec<usize> = (0..leaves.len()).collect();
                        if dir == Direction::Down {
                            order.reverse();
                        }
                        let mut folds = vec![dir.end(); order.len() + 1];
                        for p in (0..order.len()).rev() {
                            folds[p] = dir.earlier(folds[p + 1], slots[order[p]].get(dir, *side));
                        }
                        let far_edge = |leaf: &LeafInfo| dir.of((leaf.max_key, leaf.min_key));
                        let full: Vec<usize> = (0..order.len())
                            .filter(|&p| leaves[order[p]].count > 0)
                            .collect();
                        for ((id, _), k) in live.iter().zip(&keyed) {
                            let reach = dir.of(k.reaches[i][r].1[t]);
                            // Slots hold the unrounded key the fold took.
                            let key = if up { k.keys[i].0 } else { k.keys[i].1 };
                            let bucket = (full.iter().copied())
                                .find(|&p| !dir.before(far_edge(&leaves[order[p]]), reach))
                                .or(full.last().copied());
                            let which = if up { "B^up" } else { "B^down" };
                            let Some(p) = bucket else {
                                out.push(format!("element {i} {which}: id {id} in an empty tree"));
                                continue;
                            };
                            if dir.before(key, folds[p]) {
                                out.push(format!(
                                    "element {i} {which} {dir:?} {side:?}: id {id} keyed {key} \
                                     reaching {reach} is bucketed where the slots give {}",
                                    folds[p]
                                ));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// A trapezoid `cx − w ≤ x ≤ cx + w`, `c + a₀·(x − cx) ≤ y ≤ c + h +
    /// a₁·(x − cx)`, `|cx| < w`, whose `BOT_P(a) = c − a·cx − w·|a − a₀|`
    /// peaks at `a₀` and whose `TOP_P` dips at `a₁`; `transposed`, the same
    /// with `x` and `y` exchanged, whose extremes of `x − t·y` turn at
    /// `t = a₀` and `a₁` in the frame through the vertical.
    fn peaked(a0: f64, a1: f64, (cx, c): (f64, f64), w: f64, transposed: bool) -> GeneralizedTuple {
        use cdb_geometry::constraint::LinearConstraint;
        let h = (a0 - a1).abs() * w + 1.0;
        let rows = [
            ([1.0, 0.0], w - cx, RelOp::Ge),
            ([1.0, 0.0], -(cx + w), RelOp::Le),
            ([-a0, 1.0], a0 * cx - c, RelOp::Ge),
            ([-a1, 1.0], a1 * cx - c - h, RelOp::Le),
        ];
        let rows = rows.map(|([p, q], c, op)| {
            let coeffs = if transposed { vec![q, p] } else { vec![p, q] };
            LinearConstraint::new(coeffs, c, op)
        });
        GeneralizedTuple::new(rows.to_vec())
    }

    /// `n` tuples for an index over `slopes`: random small ones, unbounded
    /// ones where `unbounded` (a surface infinite over a strip leaves no
    /// vertex, so their reaches fall back to the shared rule) and, per
    /// handicap strip, [`peaked`] ones whose surfaces turn a third and two
    /// thirds of the way into it — in `t = 1/a` through the vertical.
    fn extremal_dataset(
        slopes: &SlopeSet,
        n: usize,
        seed: u64,
        unbounded: bool,
    ) -> Vec<GeneralizedTuple> {
        use cdb_geometry::Rect;
        let mut g = cdb_workload::TupleGen::new(seed, Rect::paper_window(), ObjectSize::Small);
        let mut rng = cdb_prng::StdRng::seed_from_u64(seed);
        let strips: Vec<(f64, f64, bool)> = (0..slopes.len())
            .flat_map(|i| [Side::Prev, Side::Next].map(|side| (i, side)))
            .map(|(i, side)| {
                let s = slopes.get(i);
                match slopes.mid(i, side) {
                    StripEnd::Slope(m) => (s, m, false),
                    StripEnd::Swapped(t) => (1.0 / s, t, true),
                }
            })
            .collect();
        (0..n)
            .map(|j| match j % 4 {
                0 if unbounded => g.unbounded_tuple(),
                0 | 1 => g.bounded_tuple(),
                _ => {
                    let (u0, u1, swapped) = strips[(j / 4) % strips.len()];
                    let (third, two) = (u0 + (u1 - u0) / 3.0, u0 + 2.0 * (u1 - u0) / 3.0);
                    let (a0, a1) = if j % 4 == 2 {
                        (third, two)
                    } else {
                        (two, third)
                    };
                    let w = rng.gen_range(2.0..12.0);
                    let centre = (w * rng.gen_range(-0.8..0.8), rng.gen_range(-40.0..40.0));
                    peaked(a0, a1, centre, w, swapped)
                }
            })
            .collect()
    }

    /// Where `tuple`'s surfaces turn inside the handicap strips of `slopes`,
    /// as query slopes: per strip and surface whose extremum over a grid of
    /// the strip lies past both of its ends, in the strip's frame (`a`, or
    /// `t = 1/a` through the vertical), that extremum and the crossing of
    /// the surface's tangents at the two ends.
    fn extremal_slopes(slopes: &SlopeSet, tuple: &GeneralizedTuple) -> Vec<f64> {
        let surfaces = PlanarSurfaces::new(tuple);
        let mut out = Vec::new();
        for (i, side) in (0..slopes.len()).flat_map(|i| [Side::Prev, Side::Next].map(|d| (i, d))) {
            let s = slopes.get(i);
            let (u0, u1, swapped) = match slopes.mid(i, side) {
                StripEnd::Slope(m) => (s, m, false),
                StripEnd::Swapped(t) => (1.0 / s, t, true),
            };
            // (BOT, TOP) in the frame, each with a vertex's first coordinate.
            let at = |u: f64| {
                let (bot, top) = if swapped {
                    surfaces.swapped_at(u)
                } else {
                    surfaces.at(u)
                }
                .expect("indexed tuples are satisfiable");
                [bot, top]
            };
            // (Short of the vertical: a slope past 10³ meets the oracle's
            // rounding before the index's.)
            let inside = |u: f64| u > u0.min(u1) && u < u0.max(u1) && (!swapped || u.abs() > 1e-3);
            let frame = |u: f64| if swapped { 1.0 / u } else { u };
            for e in 0..2 {
                // BOT turns at its highest, TOP at its lowest.
                let past = |x: f64, y: f64| if e == 0 { x > y } else { x < y };
                let (p, q) = (at(u0)[e], at(u1)[e]);
                let grid = (1..32).map(|g| u0 + (u1 - u0) * f64::from(g) / 32.0);
                let turn = grid
                    .map(|u| (u, at(u)[e].value))
                    .filter(|&(_, v)| v.is_finite() && past(v, p.value) && past(v, q.value))
                    .reduce(|x, y| if past(y.1, x.1) { y } else { x });
                let Some((u, _)) = turn.filter(|&(u, _)| inside(u)) else {
                    continue;
                };
                // The tangent at u' of a vertex at first coordinate v has
                // slope −v.
                let cross = (q.value - p.value - p.at * u0 + q.at * u1) / (q.at - p.at);
                out.push(frame(u));
                out.extend(Some(cross).filter(|&c| inside(c)).map(frame));
            }
        }
        out
    }

    /// Per `every`-th live tuple (from one that moves with the number
    /// live), selections at its [`extremal_slopes`] that it barely
    /// answers: each threshold just inside its own surface there —
    /// ALL(≥) under `BOT`, ALL(≤) over `TOP`, EXIST(≥) under `TOP`,
    /// EXIST(≤) over `BOT`.
    fn extremal_selections(
        slopes: &SlopeSet,
        live: &[(u32, GeneralizedTuple)],
        every: usize,
    ) -> Vec<Selection> {
        let mut out = Vec::new();
        let picked = live.iter().skip(live.len() % every);
        for (_, tuple) in picked.step_by(every) {
            let surfaces = PlanarSurfaces::new(tuple);
            for a in extremal_slopes(slopes, tuple) {
                let (bot, top) = surfaces.at(a).expect("indexed tuples are satisfiable");
                let near = |v: f64, past: f64| v + past * 1e-6 * v.abs().max(1.0);
                for (kind, v, op) in [
                    (SelectionKind::All, bot.value, RelOp::Ge),
                    (SelectionKind::All, top.value, RelOp::Le),
                    (SelectionKind::Exist, top.value, RelOp::Ge),
                    (SelectionKind::Exist, bot.value, RelOp::Le),
                ] {
                    if v.is_finite() {
                        let past = if op == RelOp::Ge { -1.0 } else { 1.0 };
                        let halfplane = HalfPlane::new2d(a, near(v, past), op);
                        out.push(Selection { kind, halfplane });
                    }
                }
            }
        }
        out
    }

    /// Each tree's reaches bound its own surface over each strip, in both
    /// frames: at 65 positions across every strip of k = 2…5, `B^up`'s
    /// `(max, min)` holds `TOP_P` (the max of `−s·(x − t·y)` through the
    /// vertical) and `B^down`'s holds `BOT_P` (the min), and neither is
    /// looser than the shared `(max TOP_P, min BOT_P)`.
    #[test]
    fn reaches_bound_each_tree_surface_over_its_strips() {
        for k in 2..=5 {
            let slopes = SlopeSet::uniform_tan(k);
            let mut pager = MemPager::paper_1999();
            let idx = DualIndex::build(&mut pager, slopes.clone(), &[]).unwrap();
            for tuple in extremal_dataset(&slopes, 60, 0xB1 + k as u64, true) {
                let surfaces = PlanarSurfaces::new(&tuple);
                let keyed = idx.keyed(&tuple);
                for (i, regions) in keyed.reaches.iter().enumerate() {
                    let s = slopes.get(i);
                    for &(side, [up, down]) in regions {
                        assert!(up.0 >= down.0 && up.1 >= down.1, "within the shared reach");
                        let at = |g: f64| match slopes.mid(i, side) {
                            StripEnd::Slope(m) => {
                                let (bot, top) = surfaces.at(s + (m - s) * g).unwrap();
                                (top.value, bot.value)
                            }
                            StripEnd::Swapped(t) => {
                                let (bot, top) =
                                    surfaces.swapped_at(1.0 / s + (t - 1.0 / s) * g).unwrap();
                                let (p, q) = (-s * bot.value, -s * top.value);
                                (p.max(q), p.min(q))
                            }
                        };
                        // (The two frames round a strip's near end apart.)
                        let le = |a: f64, b: f64| a <= b || a - b <= 1e-9 * b.abs().max(1.0);
                        for g in (0..=64).map(|g| f64::from(g) / 64.0) {
                            let (top, bot) = at(g);
                            let what = format!("k = {k}, element {i} {side:?} at {g}: {tuple:?}");
                            assert!(le(up.1, top) && le(top, up.0), "B^up {up:?}, {top}: {what}");
                            assert!(
                                le(down.1, bot) && le(bot, down.0),
                                "B^down {down:?}, {bot}: {what}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The oracle's answer to `sel` over `live`, ascending.
    fn sorted_oracle(live: &[(u32, GeneralizedTuple)], sel: &Selection) -> Vec<u32> {
        let mut want = oracle(live, sel);
        want.sort_unstable();
        want
    }

    /// Own-surface reaches, end to end, k = 2…5: T2 EXIST/ALL ≡ the oracle
    /// at query slopes where a live tuple's strip-end tangents cross and
    /// where its surfaces turn inside a strip, in both frames, with
    /// thresholds just inside the tuple's own surface — over random,
    /// unbounded and [`peaked`] tuples — and the I(b) oracle
    /// ([`handicap_violations`]) finds every live tuple covered. In memory
    /// after build and after churn, where `DualIndex::insert` leaves every
    /// tree page as the per-fold reference
    /// ([`forest::tests::insert_per_fold`]) does; on a file after build,
    /// churn, close + reopen, and WAL replay.
    #[test]
    fn own_surface_reaches_stay_exact_at_their_extrema() {
        use crate::db::{ConstraintDb, DbConfig};

        let exact =
            |what: &str, idx: &DualIndex, pager: &MemPager, live: &[(u32, GeneralizedTuple)]| {
                let lookup: std::collections::HashMap<u32, GeneralizedTuple> =
                    live.iter().cloned().collect();
                let fetch = |_: &dyn PageReader, id: u32| lookup[&id].clone();
                let sels = extremal_selections(idx.slopes().unwrap(), live, 3);
                assert!(
                    sels.len() > live.len() / 2,
                    "{what}: {} selections",
                    sels.len()
                );
                for sel in &sels {
                    let got = idx.execute(pager, sel, Strategy::T2, &fetch).unwrap();
                    assert_eq!(got.ids(), sorted_oracle(live, sel), "{what}: {sel:?}");
                }
                let violations = handicap_violations(idx, pager, live);
                assert!(violations.is_empty(), "{what}: {violations:#?}");
            };
        for k in 2..=5 {
            let slopes = SlopeSet::uniform_tan(k);
            let what = format!("k = {k}");
            let tuples = extremal_dataset(&slopes, 120, 0x51 + k as u64, true);
            let mut live: Vec<(u32, GeneralizedTuple)> = (0u32..).zip(tuples).collect();
            // 128-byte pages: 10 entries a leaf, so every tree has many.
            let (mut pager, mut twin_pager) = (MemPager::new(128), MemPager::new(128));
            let mut idx = DualIndex::build(&mut pager, slopes.clone(), &live).unwrap();
            let mut twin = DualIndex::build(&mut twin_pager, slopes.clone(), &live).unwrap();
            exact(&format!("{what}, built"), &idx, &pager, &live);
            let mut rng = cdb_prng::StdRng::seed_from_u64(0x61 + k as u64);
            let late = extremal_dataset(&slopes, 80, 0x71 + k as u64, true);
            let twins = ((&mut idx, &mut pager), (&mut twin, &mut twin_pager));
            churn_twins(&what, twins, &mut live, late, &mut rng);
            exact(&format!("{what}, churned"), &idx, &pager, &live);
        }

        // On a file, one relation per k: built, churned, reopened, replayed.
        let path = std::env::temp_dir().join(format!("cdb_own_reaches_{}", std::process::id()));
        let log = path.with_extension("wal");
        let _ = (std::fs::remove_file(&path), std::fs::remove_file(&log));
        let names = ["k2", "k3", "k4", "k5"];
        let check = |db: &ConstraintDb, model: &[Option<GeneralizedTuple>], when: &str| {
            let live: Vec<(u32, GeneralizedTuple)> = (0u32..)
                .zip(model)
                .filter_map(|(id, t)| Some((id, t.clone()?)))
                .collect();
            for name in names {
                let idx = db.relation(name).unwrap().index().expect("a dual index");
                for sel in extremal_selections(idx.slopes().unwrap(), &live, 16) {
                    let got = db.query_with(name, sel.clone(), Strategy::T2).unwrap();
                    assert_eq!(
                        got.ids(),
                        sorted_oracle(&live, &sel),
                        "{name} {when}: {sel:?}"
                    );
                }
                let violations = handicap_violations(idx, db.reader(), &live);
                assert!(violations.is_empty(), "{name} {when}: {violations:#?}");
            }
        };
        let mut rng = cdb_prng::StdRng::seed_from_u64(0x81);
        let mut fresh = extremal_dataset(&SlopeSet::uniform_tan(4), 200, 0x82, true).into_iter();
        let mut churn = |db: &mut ConstraintDb, model: &mut Vec<Option<GeneralizedTuple>>| {
            for _ in 0..40 {
                let live: Vec<u32> = (0u32..)
                    .zip(model.iter())
                    .filter_map(|(id, t)| t.as_ref().map(|_| id))
                    .collect();
                if rng.gen_bool(0.4) {
                    let id = live[rng.gen_range(0..live.len())];
                    for name in names {
                        db.delete(name, id).unwrap();
                    }
                    model[id as usize] = None;
                } else {
                    let t = fresh.next().expect("enough fresh tuples");
                    for name in names {
                        let id = db.insert(name, t.clone()).unwrap();
                        assert_eq!(id as usize, model.len());
                    }
                    model.push(Some(t));
                }
            }
        };
        // 256-byte pages: many leaves a tree.
        let config = DbConfig { page_size: 256 };
        let mut db = ConstraintDb::create(&path, config).unwrap();
        assert!(db.begin_wal().unwrap());
        let mut model: Vec<Option<GeneralizedTuple>> = Vec::new();
        let base = extremal_dataset(&SlopeSet::uniform_tan(3), 160, 0x83, true);
        for (k, name) in (2..).zip(names) {
            db.create_relation(name, 2).unwrap();
            for t in &base {
                db.insert(name, t.clone()).unwrap();
            }
            db.build_dual_index(name, SlopeSet::uniform_tan(k)).unwrap();
        }
        model.extend(base.into_iter().map(Some));
        check(&db, &model, "built");
        churn(&mut db, &mut model);
        check(&db, &model, "churned");
        db.close().unwrap();
        let mut db = ConstraintDb::open(&path).unwrap();
        check(&db, &model, "reopened");
        // Writes only the log holds, then a crash: replayed at open.
        assert!(db.begin_wal().unwrap());
        churn(&mut db, &mut model);
        db.wal_sync().unwrap();
        drop(db);
        let db = ConstraintDb::open(&path).unwrap();
        let replay = db.recovery_report().wal.clone().expect("a log was found");
        assert!(replay.replayed > 0 && replay.error.is_none(), "{replay:?}");
        check(&db, &model, "replayed");
        db.close().unwrap();
        let _ = (std::fs::remove_file(&path), std::fs::remove_file(&log));
    }

    /// The I(b) oracle finds a handicap one `f32` step too tight: a build
    /// leaves each slot of the last leaf a search going its way meets
    /// holding the key of a tuple bucketed there and nowhere after it, so
    /// moving the slot to the first `f32` past it toward the sweep strands
    /// that tuple — in every tree, direction and side that has one.
    #[test]
    fn handicap_oracle_reports_a_slot_one_step_too_tight() {
        use cdb_btree::Direction;
        let slopes = SlopeSet::uniform_tan(3);
        let live: Vec<(u32, GeneralizedTuple)> = (0u32..)
            .zip(extremal_dataset(&slopes, 90, 0x91, false))
            .collect();
        let mut pager = MemPager::new(128);
        let idx = DualIndex::build(&mut pager, slopes, &live).unwrap();
        let v = handicap_violations(&idx, &pager, &live);
        assert!(v.is_empty(), "{v:#?}");
        let mut tried = 0;
        for i in 0..3 {
            for up in [true, false] {
                let tree = idx.forest.tree(i, up);
                for dir in Direction::BOTH {
                    for side in [Side::Prev, Side::Next] {
                        let page = tree.end_leaf(dir);
                        let h = tree.read_handicaps(&pager, page).unwrap();
                        let slot = h.get(dir, side);
                        if !slot.is_finite() {
                            continue;
                        }
                        // The first f32 past the slot toward the sweep.
                        let rounded = slot as f32;
                        let tighter = match dir {
                            Direction::Up if f64::from(rounded) > slot => rounded,
                            Direction::Up => rounded.next_up(),
                            Direction::Down if f64::from(rounded) < slot => rounded,
                            Direction::Down => rounded.next_down(),
                        };
                        let mut forged = h;
                        *forged.slot(dir, side) = f64::from(tighter);
                        tree.set_handicaps(&mut pager, page, forged).unwrap();
                        let found = handicap_violations(&idx, &pager, &live);
                        assert!(!found.is_empty(), "{i} {up} {dir:?} {side:?}");
                        tree.set_handicaps(&mut pager, page, h).unwrap();
                        tried += 1;
                    }
                }
            }
        }
        assert!(tried >= 12, "only {tried} slots to tighten");
        assert!(handicap_violations(&idx, &pager, &live).is_empty());
    }

    /// An index whose handicaps were assigned under the shared `(max TOP_P,
    /// min BOT_P)` rule — every index built before each tree bucketed by
    /// its own surface — stays exact and covered: the shared reaches are
    /// past the own ones. Rebuilt, the bound every ALL return sweep folds
    /// is as tight or tighter from every start leaf, and strictly from
    /// some, its EXIST slots are unchanged, and its ALL searches produce
    /// fewer candidates. (A healthy relation's `rebuild_indexes` is a
    /// no-op, so the rebuild is the build over the persisted spec that
    /// `rebuild_indexes` runs for a corrupt one.)
    #[test]
    fn shared_rule_handicaps_stay_sound_until_a_rebuild_tightens_them() {
        use crate::db::{ConstraintDb, DbConfig};
        use crate::relation::RelationHealth;
        use cdb_btree::{Direction, Handicaps, LeafInfo};
        use cdb_storage::FilePager;

        let path = std::env::temp_dir().join(format!("cdb_shared_rule_{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let slopes = SlopeSet::uniform_tan(4);
        let tuples = extremal_dataset(&slopes, 300, 0xA1, false);
        let live: Vec<(u32, GeneralizedTuple)> = (0u32..).zip(tuples.iter().cloned()).collect();
        // 256-byte pages: many leaves a tree.
        let mut db = ConstraintDb::create(&path, DbConfig { page_size: 256 }).unwrap();
        db.create_relation("r", 2).unwrap();
        for t in tuples {
            db.insert("r", t).unwrap();
        }
        db.build_dual_index("r", slopes.clone()).unwrap();
        let idx = db.relation("r").unwrap().index().unwrap().clone();
        db.close().unwrap();

        // Every element's handicaps reassigned under the shared rule, in
        // place on the file.
        let mut pager = FilePager::open(&path).unwrap();
        let keyed: Vec<Keyed> = live.iter().map(|(_, t)| idx.keyed(t)).collect();
        for (i, regions) in idx.regions.iter().enumerate() {
            let keys: Vec<(f64, f64)> = keyed.iter().map(|k| k.keys[i]).collect();
            let reaches: Vec<(Side, Vec<Reaches>)> = (regions.iter().enumerate())
                .map(|(r, (side, _))| {
                    let shared = |k: &Keyed| {
                        let [up, down] = k.reaches[i][r].1;
                        [(up.0, down.1); 2]
                    };
                    (*side, keyed.iter().map(shared).collect())
                })
                .collect();
            idx.forest
                .assign_handicaps(&mut pager, i, &keys, &reaches)
                .unwrap();
        }
        pager.close().unwrap();

        // Per tree, its leaves and their slots; per kind, the candidates.
        type Slots = Vec<Vec<(LeafInfo, Handicaps)>>;
        let slots = |db: &ConstraintDb| -> Slots {
            let forest = &db.relation("r").unwrap().index().unwrap().forest;
            (0..4)
                .flat_map(|i| [true, false].map(|up| forest.tree(i, up)))
                .map(|tree| {
                    let leaves = tree.leaves(db.reader()).unwrap();
                    let read = |leaf: LeafInfo| {
                        (leaf, tree.read_handicaps(db.reader(), leaf.page).unwrap())
                    };
                    leaves.into_iter().map(read).collect()
                })
                .collect()
        };
        let exact = |db: &ConstraintDb, when: &str| -> [u64; 2] {
            let mut candidates = [0; 2];
            for sel in extremal_selections(&slopes, &live, 8) {
                let got = db.query_with("r", sel.clone(), Strategy::T2).unwrap();
                assert_eq!(got.ids(), sorted_oracle(&live, &sel), "{when}: {sel:?}");
                candidates[usize::from(sel.kind == SelectionKind::All)] += got.stats.candidates;
            }
            let idx = db.relation("r").unwrap().index().unwrap();
            let violations = handicap_violations(idx, db.reader(), &live);
            assert!(violations.is_empty(), "{when}: {violations:#?}");
            candidates
        };
        let mut db = ConstraintDb::open(&path).unwrap();
        assert_eq!(db.relation("r").unwrap().health(), &RelationHealth::Healthy);
        let (shared, shared_slots) = (exact(&db, "shared"), slots(&db));
        db.build_index("r", IndexSpec::Dual(slopes.clone().into()))
            .unwrap();
        let (own, own_slots) = (exact(&db, "rebuilt"), slots(&db));
        assert_eq!(own[0], shared[0], "EXIST candidates");
        assert!(own[1] < shared[1], "ALL candidates: {own:?} vs {shared:?}");
        let mut tighter = 0;
        for (t, (before, after)) in shared_slots.iter().zip(&own_slots).enumerate() {
            // EXIST reads B^up going up and B^down going down, ALL the other.
            let (exist, all) = if t % 2 == 0 {
                (Direction::Up, Direction::Down)
            } else {
                (Direction::Down, Direction::Up)
            };
            assert_eq!(before.len(), after.len(), "tree {t}");
            for ((leaf, _), (again, _)) in before.iter().zip(after) {
                assert_eq!((leaf.min_key, leaf.max_key), (again.min_key, again.max_key));
            }
            for side in [Side::Prev, Side::Next] {
                let get = |slots: &[(LeafInfo, Handicaps)], dir: Direction| -> Vec<f64> {
                    slots.iter().map(|(_, h)| h.get(dir, side)).collect()
                };
                assert_eq!(get(before, exist), get(after, exist), "tree {t}");
                // A return sweep's bound folds the slots from its start to
                // the end: that fold, from each leaf, is as tight or tighter
                // (a slot alone may take a tuple from a leaf further on).
                let folds = |slots: Vec<f64>| -> Vec<f64> {
                    let mut order = slots;
                    if all == Direction::Down {
                        order.reverse();
                    }
                    let mut acc = all.end();
                    let mut out: Vec<f64> = (order.iter().rev())
                        .map(|&h| {
                            acc = all.earlier(acc, h);
                            acc
                        })
                        .collect();
                    out.reverse();
                    out
                };
                let (old, new) = (folds(get(before, all)), folds(get(after, all)));
                for (old, new) in old.iter().zip(&new) {
                    assert!(!all.before(*new, *old), "tree {t}: {new} looser than {old}");
                    tighter += usize::from(all.before(*old, *new));
                }
            }
        }
        assert!(tighter > 0, "no ALL slot tightened");
        db.close().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
