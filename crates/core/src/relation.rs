//! A stored relation: tuples in a heap file plus the indexes it owns, as
//! slots in the fixed order of [`IndexKind`] — dual, rplus: the order
//! pages are allocated and the catalog is laid out in. Everything
//! per-kind is behind [`Index`], so the methods here loop over slots.

use std::collections::BTreeSet;
use std::io;

use cdb_geometry::tuple::GeneralizedTuple;
use cdb_storage::{HeapFile, PageId, PageReader, Pager, RecordId};

use crate::error::CdbError;
use crate::index::{
    DualIndex, HeapSource, Index, IndexKind, IndexSpec, KeyColumns, Records, TupleSource,
};
use crate::plan::{AccessMethod, MethodKind};

/// Verdict of the open-time verification pass for one relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RelationHealth {
    /// Every heap and index page read back and verified.
    Healthy,
    /// The heap is intact but the named index structures have unreadable
    /// pages, or were found out of step with the heap. Queries keep running on the remaining access methods;
    /// [`ConstraintDb::rebuild_indexes`](crate::ConstraintDb::rebuild_indexes)
    /// re-derives the corrupt ones from the heap.
    Degraded {
        /// Which structures failed verification, by [`IndexKind::name`].
        corrupt_indexes: Vec<String>,
    },
    /// The heap itself has unreadable pages — there is no trustworthy
    /// source to rebuild from, so queries and mutations are refused with
    /// [`CdbError::Quarantined`] until the data is restored.
    Quarantined {
        /// First verification failure, for diagnostics.
        detail: String,
    },
}

cdb_storage::wire_enum!(RelationHealth {
    0 => Healthy,
    1 => Degraded { corrupt_indexes },
    2 => Quarantined { detail },
});

impl std::fmt::Display for RelationHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelationHealth::Healthy => write!(f, "healthy"),
            RelationHealth::Degraded { corrupt_indexes } => {
                write!(f, "degraded (corrupt: {})", corrupt_indexes.join(", "))
            }
            RelationHealth::Quarantined { detail } => {
                write!(f, "quarantined ({detail})")
            }
        }
    }
}

impl RelationHealth {
    pub(crate) fn is_corrupt(&self, kind: IndexKind) -> bool {
        matches!(self, RelationHealth::Degraded { corrupt_indexes }
            if corrupt_indexes.iter().any(|c| c == kind.name()))
    }
}

/// Point-in-time operational statistics for one relation, as reported by
/// [`ConstraintDb::stats_snapshot`](crate::ConstraintDb::stats_snapshot)
/// (and served over the wire by the STATS operation).
#[derive(Clone, Debug, PartialEq)]
pub struct RelationStats {
    /// Relation name.
    pub name: String,
    /// Tuple dimension.
    pub dim: usize,
    /// Live tuple count.
    pub live: u64,
    /// Pages of the heap file alone.
    pub heap_pages: u64,
    /// Heap + index pages owned.
    pub total_pages: u64,
    /// Built access structures, by [`IndexKind::name`].
    pub indexes: Vec<String>,
    /// Verdict of the last verification pass.
    pub health: RelationHealth,
}

cdb_storage::wire_struct!(RelationStats {
    name,
    dim,
    live,
    heap_pages,
    total_pages,
    indexes,
    health
});

/// A stored generalized relation: tuples in a heap file and its built
/// indexes.
///
/// `Clone` copies the in-memory descriptors (slot table, tree roots) but
/// not the pages themselves — a clone paired with a frozen
/// [`cdb_storage::SnapshotReader`] view of the pager is exactly what a
/// [`Snapshot`](crate::Snapshot) serves queries from.
#[derive(Clone)]
pub struct Relation {
    pub(crate) name: String,
    pub(crate) dim: usize,
    pub(crate) heap: HeapFile,
    /// Tuple id -> heap record (`None` = deleted): the heap's only map.
    /// Persisted by the catalog; `live` is derived from it on open.
    pub(crate) slots: Vec<Option<RecordId>>,
    pub(crate) live: u64,
    /// Built indexes; slot `kind as usize` holds the index of that kind.
    pub(crate) indexes: [Option<Index>; 2],
    /// Verdict of the last verification pass, with the indexes flagged
    /// corrupt since (persisted, so a flag survives checkpoint + reopen).
    pub(crate) health: RelationHealth,
}

impl Relation {
    /// An empty relation over `heap`, for a dimension some tuple can be
    /// stored in: [`CdbError::DimensionOutOfRange`] for zero, or past the
    /// last dimension whose one-constraint tuple fits a heap page (and the
    /// tuple header's `u16`).
    pub(crate) fn new(name: &str, dim: usize, heap: HeapFile) -> Result<Self, CdbError> {
        let fits = |d: &usize| GeneralizedTuple::encoded_len(*d, 1) <= heap.max_record_len();
        let max = (1..=usize::from(u16::MAX))
            .take_while(fits)
            .last()
            .unwrap_or(0);
        if !(1..=max).contains(&dim) {
            return Err(CdbError::DimensionOutOfRange { dim, max });
        }
        Ok(Relation {
            name: name.to_string(),
            dim,
            heap,
            slots: Vec::new(),
            live: 0,
            indexes: [None, None],
            health: RelationHealth::Healthy,
        })
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dimension of the tuples.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of live tuples.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// `true` when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The index of one kind, if built (trustworthy or not).
    pub fn built(&self, kind: IndexKind) -> Option<&Index> {
        self.indexes[kind as usize].as_ref()
    }

    /// The index of one kind, if built and not marked corrupt: what
    /// queries may read and mutations must maintain.
    pub fn usable(&self, kind: IndexKind) -> Option<&Index> {
        self.built(kind).filter(|_| !self.health.is_corrupt(kind))
    }

    /// The dual index, if built.
    pub fn index(&self) -> Option<&DualIndex> {
        match self.built(IndexKind::Dual)? {
            Index::Dual(index) => Some(index),
            Index::RPlus(_) => None,
        }
    }

    /// Verdict of the open-time verification pass.
    pub fn health(&self) -> &RelationHealth {
        &self.health
    }

    /// Refuses quarantined relations; every query and mutation path goes
    /// through this gate.
    pub(crate) fn ensure_usable(&self) -> Result<(), CdbError> {
        if matches!(self.health, RelationHealth::Quarantined { .. }) {
            return Err(CdbError::Quarantined(self.name.clone()));
        }
        Ok(())
    }

    /// Sets or clears one index structure's corruption flag. A flagged
    /// structure degrades the relation — the planner routes around it until
    /// it is rebuilt from the heap; with nothing left flagged the relation
    /// is healthy again. Quarantine is not touched.
    pub(crate) fn set_corrupt(&mut self, kind: IndexKind, corrupt: bool) {
        let mut flagged = match std::mem::replace(&mut self.health, RelationHealth::Healthy) {
            RelationHealth::Healthy => Vec::new(),
            RelationHealth::Degraded { corrupt_indexes } => corrupt_indexes,
            quarantined => return self.health = quarantined,
        };
        flagged.retain(|c| c != kind.name());
        if corrupt {
            flagged.push(kind.name().to_string());
        }
        if !flagged.is_empty() {
            self.health = RelationHealth::Degraded {
                corrupt_indexes: flagged,
            };
        }
    }

    /// Pages of the heap file alone (what a sequential scan reads).
    pub fn heap_pages(&self) -> u64 {
        self.heap.page_count() as u64
    }

    /// Page ids owned by the heap file, in allocation order. Index pages
    /// are whatever else the pager has allocated — corruption tooling and
    /// tests use the difference to aim at one structure or the other.
    pub fn heap_page_ids(&self) -> &[PageId] {
        self.heap.pages()
    }

    /// Heap + index pages currently owned.
    pub fn page_count(&self) -> u64 {
        let indexes = self.indexes.iter().flatten();
        self.heap_pages() + indexes.map(Index::page_count).sum::<u64>()
    }

    /// Sizes, built indexes and health: this relation's row of STATS.
    pub fn stats(&self) -> RelationStats {
        let built = IndexKind::ALL
            .into_iter()
            .filter(|&k| self.built(k).is_some());
        RelationStats {
            name: self.name.clone(),
            dim: self.dim,
            live: self.live,
            heap_pages: self.heap_pages(),
            total_pages: self.page_count(),
            indexes: built.map(|k| k.name().to_string()).collect(),
            health: self.health.clone(),
        }
    }

    /// Fetches a tuple by id, charging the page read to `pager`.
    ///
    /// # Errors
    /// [`CdbError::NoSuchTuple`] for dead/unknown ids;
    /// [`CdbError::CorruptRecord`] when the stored bytes fail to decode;
    /// [`CdbError::Io`] when the page cannot be read.
    pub fn fetch(&self, pager: &dyn PageReader, id: u32) -> Result<GeneralizedTuple, CdbError> {
        let mut found = self.tuple_source().fetch_batch(pager, &[id])?;
        Ok(found.pop().expect("one tuple per id asked for"))
    }

    /// The ids of every live tuple, ascending: the sequential scan's
    /// candidates.
    pub(crate) fn live_ids(&self) -> Vec<u32> {
        let ids = self.slots.iter().enumerate();
        ids.filter_map(|(id, rid)| rid.map(|_| id as u32)).collect()
    }

    /// `(id, tuple)` for every live tuple, ascending by id — the heap's
    /// storage order, since inserts only append — fetched through the
    /// slot table with one read per heap page that holds a live tuple.
    ///
    /// # Errors
    /// [`CdbError::CorruptRecord`] when a stored record fails to decode;
    /// [`CdbError::NoSuchTuple`] when a slot names a deleted record;
    /// [`CdbError::Io`] when a heap page cannot be read.
    pub fn scan(&self, pager: &dyn PageReader) -> Result<Vec<(u32, GeneralizedTuple)>, CdbError> {
        let ids = self.live_ids();
        let tuples = self.tuple_source().fetch_batch(pager, &ids)?;
        Ok(ids.into_iter().zip(tuples).collect())
    }

    /// Page-batched candidate fetcher over this relation's heap, for
    /// access-method execution.
    pub(crate) fn tuple_source(&self) -> HeapSource<'_> {
        HeapSource::new(&self.heap, &self.slots)
    }

    /// Access method `kind` on this relation, if it can run: the
    /// sequential scan always; an index-backed method once its structure
    /// is built — and not while the structure is marked corrupt, so a
    /// degraded relation plans around the damage instead of reading bad
    /// pages.
    pub fn method(&self, kind: MethodKind) -> Option<AccessMethod<'_>> {
        let index = match kind {
            MethodKind::SeqScan => return Some(AccessMethod::SeqScan(self)),
            MethodKind::Dual => IndexKind::Dual,
            MethodKind::RPlus => IndexKind::RPlus,
        };
        Some(match self.usable(index)? {
            Index::Dual(index) => AccessMethod::Dual(index),
            Index::RPlus(index) => AccessMethod::RPlus(index),
        })
    }

    /// One verification pass: reads every page the relation owns through
    /// the checksumming pager. The heap decides quarantine — it is the
    /// ground truth every index rebuild needs; unreadable index pages only
    /// degrade the relation, as does an index already flagged corrupt.
    /// Well-formed stale pages pass every checksum, so a dual index over a
    /// slope set is also held to the heap: it fills key columns from the
    /// live records the heap pass shows it, and a leaf that disagrees
    /// degrades the relation too. Also returns those columns.
    pub(crate) fn verify(&self, pager: &dyn PageReader) -> (RelationHealth, Option<KeyColumns>) {
        // A flagged index is not walked: its pages are not trusted.
        let usable = |kind| self.built(kind).filter(|_| !self.health.is_corrupt(kind));
        // The dual index reads the heap in the one pass over it, where it
        // reads it at all.
        let mut heap = None;
        let dual = usable(IndexKind::Dual).map(|index| {
            index.verify(pager, |visit| match self.read_heap(pager, Some(visit)) {
                Ok(shown) => {
                    heap = Some(Ok(()));
                    shown
                }
                Err(detail) => {
                    heap = Some(Err(detail));
                    Err(CdbError::Io("the heap is unreadable".into()))
                }
            })
        });
        let heap = heap.unwrap_or_else(|| self.read_heap(pager, None).map(|_| ()));
        if let Err(detail) = heap {
            return (RelationHealth::Quarantined { detail }, None);
        }
        let rplus = usable(IndexKind::RPlus).map(|index| index.verify(pager, |_| Ok(())));
        let (mut keys, mut corrupt_indexes) = (None, Vec::new());
        for (kind, read) in [(IndexKind::Dual, dual), (IndexKind::RPlus, rplus)] {
            match read {
                Some(Ok(read)) => keys = keys.or(read),
                _ if self.built(kind).is_some() => corrupt_indexes.push(kind.name().to_string()),
                _ => {}
            }
        }
        let health = if corrupt_indexes.is_empty() {
            RelationHealth::Healthy
        } else {
            RelationHealth::Degraded { corrupt_indexes }
        };
        (health, keys)
    }

    /// Reads every heap page through `pager`; `Err` names the first that
    /// fails (torn, or stale), which quarantines the relation. With a
    /// `visit`, each live record is shown to it on the way and only the
    /// pages holding none are read besides; `Ok(Err)` is a record that
    /// could not be shown, after which every page is read all the same.
    fn read_heap(
        &self,
        pager: &dyn PageReader,
        visit: Option<&mut Records<'_>>,
    ) -> Result<Result<(), CdbError>, String> {
        let (mut shown, mut read) = (Ok(()), BTreeSet::new());
        if let Some(visit) = visit {
            let ids = self.live_ids();
            let rids: Vec<RecordId> = self.slots.iter().flatten().copied().collect();
            let visited = self.heap.visit_many(pager, &rids, |at, record| {
                let id = ids[at];
                visit(id, record.ok_or(CdbError::NoSuchTuple(id))?);
                Ok(())
            });
            match visited {
                Ok(()) => read = rids.iter().map(|rid| rid.page).collect(),
                Err(CdbError::Io(e)) => return Err(format!("heap: {e}")),
                Err(e) => shown = Err(e),
            }
        }
        let mut buf = vec![0u8; pager.page_size()];
        for &p in self.heap.pages().iter().filter(|p| !read.contains(p)) {
            pager
                .read(p, &mut buf)
                .map_err(|e| format!("heap page {p}: {e}"))?;
        }
        Ok(shown)
    }

    /// Whether `tuple` may be stored here: [`CdbError::DimensionMismatch`],
    /// [`CdbError::TupleTooLarge`] (decided before the heap is touched) or
    /// [`CdbError::UnsatisfiableTuple`] if not.
    pub(crate) fn admits(&self, tuple: &GeneralizedTuple) -> Result<(), CdbError> {
        if self.dim != tuple.dim() {
            return Err(CdbError::DimensionMismatch {
                expected: self.dim,
                got: tuple.dim(),
            });
        }
        let (len, max) = (
            GeneralizedTuple::encoded_len(tuple.dim(), tuple.len()),
            self.heap.max_record_len(),
        );
        if len > max {
            return Err(CdbError::TupleTooLarge { len, max });
        }
        if !tuple.is_satisfiable() {
            return Err(CdbError::UnsatisfiableTuple);
        }
        Ok(())
    }

    /// Stores an [admitted](Self::admits) tuple and adds it to the usable
    /// dual index (`O(k log_B n)` tree inserts; handicaps are folded in
    /// incrementally) and drops the R⁺-tree. Structures marked corrupt are
    /// skipped — they will be rebuilt wholesale from the heap. Returns the
    /// new id. An error after the heap took the record leaves the tuple
    /// stored; every index that could not follow is
    /// [dropped](Self::maintained).
    pub(crate) fn insert(
        &mut self,
        pager: &mut dyn Pager,
        tuple: &GeneralizedTuple,
    ) -> Result<u32, CdbError> {
        let rid = self.heap.insert(pager, &tuple.encode())?;
        let id = self.slots.len() as u32;
        self.slots.push(Some(rid));
        self.live += 1;
        self.maintained(pager, |index, pager| {
            index.insert(pager, id, tuple).map(|()| true)
        })?;
        Ok(id)
    }

    /// Removes the live tuple `id`, whose stored form is `tuple`, from the
    /// heap and from the usable dual index, and drops the R⁺-tree. An
    /// error after the heap let the record go leaves the tuple deleted;
    /// every index that could not follow is [dropped](Self::maintained).
    pub(crate) fn delete(
        &mut self,
        pager: &mut dyn Pager,
        id: u32,
        tuple: &GeneralizedTuple,
    ) -> Result<(), CdbError> {
        let rid = self.slots[id as usize].expect("the caller fetched this id");
        self.heap.delete(pager, rid)?;
        self.slots[id as usize] = None;
        self.live -= 1;
        self.maintained(pager, |index, pager| index.remove(pager, id, tuple))
    }

    /// One rule for what a heap change does to each index, run after the
    /// heap has changed; the heap is the truth, so the change stands
    /// whatever the indexes do. A usable dual index takes the `change`
    /// incrementally; answering `false` (a delete missed the entry it
    /// should have held: a dangling id would surface as `NoSuchTuple` in
    /// the middle of a query), it is flagged corrupt; the catalog persists
    /// the flag. One that *fails* has changed some of its pages and not
    /// others: it is dropped, as after a failed
    /// [`build_index`](Self::build_index), its pages freed as far as they
    /// can be walked. The R⁺-tree is packed once and never maintained: it
    /// is dropped too, corrupt or not. The first error is returned.
    fn maintained(
        &mut self,
        pager: &mut dyn Pager,
        change: impl FnOnce(&mut DualIndex, &mut dyn Pager) -> Result<bool, CdbError>,
    ) -> Result<(), CdbError> {
        let (dual, rplus) = (IndexKind::Dual, IndexKind::RPlus);
        let mut outcome = Ok(());
        let usable = !self.health.is_corrupt(dual);
        if let Some(Index::Dual(index)) = self.indexes[dual as usize].as_mut().filter(|_| usable) {
            match change(index, pager) {
                Ok(true) => {}
                Ok(false) => self.set_corrupt(dual, true),
                Err(e) => {
                    let _ = self.drop_index(pager, dual);
                    outcome = Err(e);
                }
            }
        }
        // Unreadable pages of a corrupt tree cannot be walked.
        let corrupt = self.health.is_corrupt(rplus);
        let freed = self.drop_index(pager, rplus);
        if !corrupt {
            outcome = outcome.and(freed.map_err(CdbError::from));
        }
        outcome
    }

    /// Empties slot `kind`, clears its corrupt flag and frees the pages of
    /// the index it held, as far as they can be walked.
    fn drop_index(&mut self, pager: &mut dyn Pager, kind: IndexKind) -> io::Result<()> {
        self.set_corrupt(kind, false);
        match self.indexes[kind as usize].take() {
            Some(index) => index.destroy(pager),
            None => Ok(()),
        }
    }

    /// Builds (or rebuilds) the index `spec` — already
    /// [`check`](IndexSpec::check)ed against this relation — over `tuples`,
    /// the relation's scan. A previous index's pages are freed first
    /// (best-effort when it is marked corrupt — unreadable pages cannot be
    /// walked to the free list); building clears the corruption flag.
    pub(crate) fn build_index(
        &mut self,
        pager: &mut dyn Pager,
        spec: IndexSpec,
        tuples: &[(u32, GeneralizedTuple)],
    ) -> Result<(), CdbError> {
        let kind = spec.kind();
        if let Some(old) = self.indexes[kind as usize].take() {
            let freed = old.destroy(pager);
            if !self.health.is_corrupt(kind) {
                freed?;
            }
        }
        self.indexes[kind as usize] = Some(Index::build(pager, spec, tuples)?);
        self.set_corrupt(kind, false);
        Ok(())
    }

    /// The build parameters of every index marked corrupt, in slot order.
    pub(crate) fn corrupt_specs(&self) -> Vec<IndexSpec> {
        IndexKind::ALL
            .into_iter()
            .filter(|&k| self.health.is_corrupt(k))
            .filter_map(|k| self.built(k).map(Index::spec))
            .collect()
    }

    /// Frees the heap and every index. On an unhealthy relation, structures
    /// too corrupt to walk are skipped (their pages stay allocated until
    /// the file is rebuilt) instead of failing the drop.
    pub(crate) fn destroy(self, pager: &mut dyn Pager) -> Result<(), CdbError> {
        let salvage = self.health != RelationHealth::Healthy;
        self.heap.destroy(pager);
        for index in self.indexes.into_iter().flatten() {
            let freed = index.destroy(pager);
            if !salvage {
                freed?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{ConstraintDb, DbConfig};
    use crate::index::ddim::SlopePoints;
    use crate::index::Exact;
    use crate::plan::{MethodKind, PlanCase, Planner};
    use crate::query::{QueryResult, Selection, SelectionKind};
    use crate::slopes::SlopeSet;
    use cdb_geometry::constraint::{LinearConstraint, RelOp};
    use cdb_geometry::halfplane::HalfPlane;
    use cdb_geometry::predicates::oracle_select;
    use cdb_prng::StdRng;

    /// Random axis-aligned boxes in E^d, plus — every fifth — a slab
    /// unbounded in all but the last coordinate.
    fn tuples(dim: usize, n: usize, seed: u64) -> Vec<GeneralizedTuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let bounded_axes = if i % 5 == 4 { dim - 1..dim } else { 0..dim };
                let mut cs = Vec::new();
                for axis in bounded_axes {
                    let lo: f64 = rng.gen_range(-50.0..45.0);
                    let mut unit = vec![0.0; dim];
                    unit[axis] = 1.0;
                    cs.push(LinearConstraint::new(unit.clone(), -lo, RelOp::Ge));
                    let hi = lo + rng.gen_range(0.5..5.0);
                    cs.push(LinearConstraint::new(unit, -hi, RelOp::Le));
                }
                GeneralizedTuple::new(cs)
            })
            .collect()
    }

    /// EXIST and ALL, above and below, at a slope of `S`-friendly and one
    /// arbitrary direction of the relation's dimension.
    fn selections(dim: usize) -> Vec<Selection> {
        let mut out = Vec::new();
        for (slope, b) in [(0.0, 3.0), (0.3, -8.0)] {
            let slope: Vec<f64> = (0..dim - 1).map(|j| slope / (j + 1) as f64).collect();
            for op in [RelOp::Ge, RelOp::Le] {
                let q = HalfPlane::new(slope.clone(), b, op);
                out.extend([Selection::exist(q.clone()), Selection::all(q)]);
            }
        }
        out
    }

    /// Plans with `forced` over the relation's current access methods and
    /// executes the chosen one as [`Relation::method`] hands it out:
    /// `(chosen method, ids)`.
    fn run(
        db: &ConstraintDb,
        sel: &Selection,
        forced: Option<MethodKind>,
    ) -> Result<(MethodKind, Vec<u32>), CdbError> {
        let rel = db.relation("r")?;
        let (_, plan) = Planner::choose(rel, sel, forced)?;
        let method = rel
            .method(plan.method)
            .expect("the planner chose an offered method");
        let source = rel.tuple_source();
        let result = method.execute(db.reader(), sel, &plan.case, Exact::Selection, &source)?;
        Ok((plan.method, result.ids().to_vec()))
    }

    fn assert_matches_oracle(
        db: &ConstraintDb,
        model: &[(u32, GeneralizedTuple)],
        forced: Option<MethodKind>,
        what: &str,
    ) {
        let dim = db.relation("r").unwrap().dim();
        for sel in selections(dim) {
            let all = sel.kind == SelectionKind::All;
            let want: Vec<u32> = oracle_select(&sel.halfplane, all, model.iter().map(|(_, t)| t))
                .into_iter()
                .map(|i| model[i].0)
                .collect();
            let (_, got) = run(db, &sel, forced).unwrap();
            assert_eq!(got, want, "{what}: {sel:?}");
        }
    }

    /// The seam, one row per [`IndexKind`] and geometry: build, a fixed
    /// insert/delete
    /// script, forced-method answers ≡ oracle, page accounting ≡ pager;
    /// then that one kind marked corrupt — the planner routes around it,
    /// DML skips it, `rebuild_indexes` restores it from its persisted
    /// `spec()`, and `drop_relation` frees every page. The R⁺-tree is
    /// packed once: the script drops it (a forced query is refused, its
    /// pages are freed) and it is packed again; marked corrupt, the next
    /// write drops it as well, and `rebuild_indexes` leaves it gone.
    #[test]
    fn every_index_kind_lives_behind_the_seam() {
        let rows = [
            (
                IndexSpec::Dual(SlopeSet::uniform_tan(3).into()),
                2,
                MethodKind::Dual,
            ),
            (
                IndexSpec::Dual(SlopePoints::grid(3, 3, 1.5).into()),
                3,
                MethodKind::Dual,
            ),
            (IndexSpec::RPlus { fill: 0.8 }, 2, MethodKind::RPlus),
        ];
        for (spec, dim, method) in rows {
            let kind = spec.kind();
            let what = kind.name();
            let packed_once = kind == IndexKind::RPlus;
            let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
            db.create_relation("r", dim).unwrap();
            let mut model: Vec<(u32, GeneralizedTuple)> = Vec::new();
            let insert = |db: &mut ConstraintDb, model: &mut Vec<_>, n, seed| {
                for t in tuples(dim, n, seed) {
                    model.push((db.insert("r", t.clone()).unwrap(), t));
                }
            };
            let dropped = |db: &ConstraintDb| {
                let rel = db.relation("r").unwrap();
                assert!(rel.built(kind).is_none(), "{what}");
                assert_eq!(rel.health(), &RelationHealth::Healthy, "{what}");
                assert_eq!(rel.page_count(), db.live_pages() as u64, "{what}");
                for sel in selections(dim) {
                    let refused = run(db, &sel, Some(method)).err();
                    assert_eq!(refused, Some(CdbError::NoIndex("r".into())), "{what}");
                }
            };
            insert(&mut db, &mut model, 60, 1);
            db.build_index("r", spec.clone()).unwrap();
            insert(&mut db, &mut model, 30, 2);
            for id in (0..90).step_by(4) {
                db.delete("r", id).unwrap();
                model.retain(|(i, _)| *i != id);
            }
            if packed_once {
                dropped(&db);
                db.build_index("r", spec.clone()).unwrap();
            }
            assert_matches_oracle(&db, &model, Some(method), what);
            let rel = db.relation("r").unwrap();
            assert_eq!(rel.page_count(), db.live_pages() as u64, "{what}");
            assert_eq!(rel.stats().indexes, vec![what.to_string()]);

            // Corrupt: absent for the planner, skipped (R⁺: dropped) by DML.
            db.for_update("r").unwrap().1.set_corrupt(kind, true);
            let rel = db.relation("r").unwrap();
            assert!(rel.usable(kind).is_none() && rel.built(kind).is_some());
            assert!(rel.method(method).is_none(), "{what}");
            for sel in selections(dim) {
                assert!(run(&db, &sel, Some(method)).is_err(), "{what}");
                assert_ne!(run(&db, &sel, None).unwrap().0, method, "{what}");
            }
            assert_matches_oracle(&db, &model, None, what);
            let before = db.io_stats().accesses();
            insert(&mut db, &mut model, 1, 3);
            let skipped = db.io_stats().accesses() - before;
            let (gone, _) = model.remove(0);
            db.delete("r", gone).unwrap();
            if packed_once {
                dropped(&db);
                assert!(db.rebuild_indexes("r").unwrap().is_empty(), "{what}");
                dropped(&db);
                db.drop_relation("r").unwrap();
                assert_eq!(db.live_pages(), 0, "{what}: every page freed");
                continue;
            }
            let degraded = RelationHealth::Degraded {
                corrupt_indexes: vec![what.to_string()],
            };
            assert_eq!(db.relation("r").unwrap().health(), &degraded, "{what}");

            // Rebuilt from the heap with the parameters it was built with.
            assert_eq!(db.rebuild_indexes("r").unwrap(), vec![what.to_string()]);
            let rel = db.relation("r").unwrap();
            assert_eq!(rel.health(), &RelationHealth::Healthy, "{what}");
            assert_eq!(rel.usable(kind).map(Index::spec), Some(spec), "{what}");
            assert_matches_oracle(&db, &model, Some(method), what);
            assert_eq!(rel.page_count(), db.live_pages() as u64, "{what}");
            let before = db.io_stats().accesses();
            insert(&mut db, &mut model, 1, 3);
            let maintained = db.io_stats().accesses() - before;
            assert!(maintained > skipped, "{what}: {maintained} vs {skipped}");

            db.drop_relation("r").unwrap();
            assert_eq!(db.live_pages(), 0, "{what}: every page freed");
        }
    }

    /// The relation's own heap source, recording every id it is shown.
    struct Counting<'a>(HeapSource<'a>, std::cell::RefCell<Vec<u32>>);

    impl TupleSource for Counting<'_> {
        fn fetch_batch(
            &self,
            pager: &dyn PageReader,
            ids: &[u32],
        ) -> Result<Vec<GeneralizedTuple>, CdbError> {
            self.1.borrow_mut().extend_from_slice(ids);
            self.0.fetch_batch(pager, ids)
        }

        fn visit_batch(
            &self,
            pager: &dyn PageReader,
            ids: &[u32],
            visit: &mut dyn FnMut(usize, &dyn cdb_geometry::dual::DualSurfaces),
        ) -> Result<(), CdbError> {
            self.1.borrow_mut().extend_from_slice(ids);
            self.0.visit_batch(pager, ids, visit)
        }
    }

    /// Every case an access method can run, each through a [`Counting`]
    /// source: forced Scan, the dual index (the restricted search at a
    /// member slope, T2 between slopes of `S` and through the vertical),
    /// R⁺ and Auto on a churned 2-D relation, for selections and line queries; the scan,
    /// member-point and cell cases on a 3-D one.
    /// `(what, result, the ids the source was shown)`.
    fn every_refinement() -> Vec<(String, QueryResult, Vec<u32>)> {
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("plane", 2).unwrap();
        for t in tuples(2, 150, 7) {
            db.insert("plane", t).unwrap();
        }
        for id in (0..150).step_by(5) {
            db.delete("plane", id).unwrap();
        }
        let slopes = SlopeSet::uniform_tan(4);
        let member = slopes.get(1);
        db.build_index("plane", IndexSpec::Dual(slopes.into()))
            .unwrap();
        db.build_index("plane", IndexSpec::RPlus { fill: 0.8 })
            .unwrap();
        db.create_relation("space", 3).unwrap();
        for t in tuples(3, 90, 8) {
            db.insert("space", t).unwrap();
        }
        let grid = SlopePoints::grid(3, 3, 1.5);
        db.build_index("space", IndexSpec::Dual(grid.into()))
            .unwrap();

        let mut asked: Vec<(&str, Selection, Exact, MethodKind, PlanCase)> = Vec::new();
        let mut plan = |name, sel: Selection, exact, forced| {
            let rel = db.relation(name).unwrap();
            if let Ok((_, plan)) = Planner::choose(rel, &sel, forced) {
                asked.push((name, sel, exact, plan.method, plan.case));
            }
        };
        use MethodKind::{Dual, RPlus, SeqScan};
        for slope in [member, 0.3, -7.0] {
            for b in [-20.0, 4.0] {
                for forced in [None, Some(SeqScan), Some(Dual), Some(RPlus)] {
                    for kind in [SelectionKind::Exist, SelectionKind::All] {
                        let line = Selection::line_superset(slope, b);
                        plan("plane", line, Exact::Line(kind), forced);
                        for op in [RelOp::Ge, RelOp::Le] {
                            let q = HalfPlane::new2d(slope, b, op);
                            plan(
                                "plane",
                                Selection { kind, halfplane: q },
                                Exact::Selection,
                                forced,
                            );
                        }
                    }
                }
            }
        }
        for slope in [vec![0.0, 1.5], vec![0.3, -0.7]] {
            for forced in [None, Some(SeqScan), Some(Dual)] {
                for sel in selections(3) {
                    let sel = Selection {
                        halfplane: HalfPlane::new(
                            slope.clone(),
                            sel.halfplane.intercept,
                            sel.halfplane.op,
                        ),
                        ..sel
                    };
                    plan("space", sel, Exact::Selection, forced);
                }
            }
        }
        let mut out = Vec::new();
        for (name, sel, exact, method, case) in asked {
            let rel = db.relation(name).unwrap();
            let counting = Counting(rel.tuple_source(), Default::default());
            let method = rel.method(method).unwrap();
            let result = method
                .execute(db.reader(), &sel, &case, exact, &counting)
                .unwrap();
            let what = format!("{name}: {case} {exact:?} {sel:?}");
            out.push((what, result, counting.1.into_inner()));
        }
        out
    }

    /// A slot table entry naming a slot past its heap page's directory, or
    /// a slot whose extent overruns the page, is a typed error wherever the
    /// tuple is read — the relation's scan and refinement alike — not a
    /// panic.
    #[test]
    fn damaged_heap_slots_are_typed_errors_at_read() {
        let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
        db.create_relation("r", 2).unwrap();
        for t in tuples(2, 20, 3) {
            db.insert("r", t).unwrap();
        }
        db.build_index("r", IndexSpec::Dual(SlopeSet::uniform_tan(3).into()))
            .unwrap();
        let everything = Selection::exist(HalfPlane::new2d(0.3, -1e6, RelOp::Ge));
        let read = |db: &ConstraintDb| {
            let rel = db.relation("r").unwrap();
            let scan = rel.scan(db.reader()).map(|_| ());
            (
                scan,
                run(db, &everything, Some(MethodKind::SeqScan)).map(|_| ()),
            )
        };
        let rel = db.for_update("r").unwrap().1;
        let kept = rel.slots[3].unwrap();
        rel.slots[3] = Some(RecordId { slot: 999, ..kept });
        let missing = Err(CdbError::NoSuchTuple(3));
        assert_eq!(read(&db), (missing.clone(), missing));
        db.for_update("r").unwrap().1.slots[3] = Some(kept);
        assert_eq!(read(&db), (Ok(()), Ok(())));
        // The record's length overruns its page.
        let pager = db.for_update("r").unwrap().0;
        let mut page = vec![0u8; pager.page_size()];
        pager.read(kept.page, &mut page).unwrap();
        let len_at = 4 + 4 * kept.slot as usize + 2;
        page[len_at..len_at + 2].copy_from_slice(&0x0FFFu16.to_le_bytes());
        pager.write(kept.page, &page).unwrap();
        let damaged = Err(CdbError::CorruptRecord(3));
        assert_eq!(read(&db), (damaged.clone(), damaged));
    }

    /// Refinement books every candidate once: as an answer, a false hit, a
    /// rejection by key or a duplicate — whichever method produced it, the
    /// scan included.
    #[test]
    fn every_method_accounts_for_each_candidate_once() {
        let runs = every_refinement();
        assert!(runs.len() > 150, "only {} queries", runs.len());
        for (what, result, _) in &runs {
            let s = &result.stats;
            let booked = result.len() as u64 + s.false_hits + s.rejected_by_key + s.duplicates;
            assert_eq!(s.candidates, booked, "{what}: {s:?}");
        }
        for case in [
            "full scan",
            "member slope ",
            "through the vertical",
            "handicap-guided",
            "MBR",
            "member slope point",
            "Voronoi cell",
            "Line(All)",
            "Line(Exist)",
        ] {
            let ran = runs.iter().filter(|(what, ..)| what.contains(case)).count();
            assert!(ran >= 4, "{case}: {ran} queries");
        }
    }

    /// Every method refines through the source handed to `execute`, which
    /// is shown each candidate not decided by key exactly once: an answer
    /// was either accepted by key or shown, and every false hit was shown.
    /// Only the key columns of the 2-D dual index reject: where there are
    /// none (the scan, the R⁺-tree, the index over slope points) or the
    /// predicate is not
    /// the selection's (line queries), the source is shown every candidate
    /// not accepted by key.
    #[test]
    fn every_method_refines_through_the_source_it_is_handed() {
        let mut rejected_by_key = 0;
        for (what, result, mut seen) in every_refinement() {
            let s = &result.stats;
            seen.sort_unstable();
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "{what}: shown twice");
            let answered = seen.iter().filter(|id| result.ids().contains(id)).count() as u64;
            assert_eq!(
                answered + s.accepted_by_key,
                result.len() as u64,
                "{what}: {s:?}"
            );
            let refined_out = seen.len() as u64 - answered;
            assert_eq!(s.false_hits, refined_out, "{what}: {s:?}");
            let checked = s.candidates - s.duplicates - s.accepted_by_key;
            let by_key = s.rejected_by_key;
            assert_eq!(seen.len() as u64 + by_key, checked, "{what}: {s:?}");
            let keyless = ["full scan", "MBR", "Line(", "space:"];
            if keyless.iter().any(|case| what.contains(case)) {
                assert_eq!(by_key, 0, "{what}: {s:?}");
            }
            rejected_by_key += by_key;
        }
        assert!(rejected_by_key > 0, "the keys rejected nothing");
    }
}
