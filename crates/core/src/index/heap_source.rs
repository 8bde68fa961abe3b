//! The engine's [`TupleSource`]: a relation's heap file plus its id → record
//! map. Candidate fetches cost one page access per *distinct* heap page, and
//! refinement reads each record where it lies — a validated [`TupleView`]
//! of the bytes in the page buffer, no copy, no decode.

use cdb_geometry::dual::DualSurfaces;
use cdb_geometry::tuple::{GeneralizedTuple, TupleView};
use cdb_storage::{HeapFile, PageReader, RecordId};

use super::TupleSource;
use crate::error::CdbError;

/// Page-batched tuple source over a relation's heap.
pub(crate) struct HeapSource<'a> {
    heap: &'a HeapFile,
    slots: &'a [Option<RecordId>],
}

impl<'a> HeapSource<'a> {
    /// A source over `heap`, resolving tuple id `i` through `slots[i]`
    /// (`None` = deleted).
    pub(crate) fn new(heap: &'a HeapFile, slots: &'a [Option<RecordId>]) -> Self {
        HeapSource { heap, slots }
    }

    /// Shows the validated record of every id to `visit`, in heap order.
    ///
    /// # Errors
    /// [`CdbError::NoSuchTuple`] for an unknown or tombstoned id,
    /// [`CdbError::CorruptRecord`] for bytes that do not validate.
    fn visit_records(
        &self,
        pager: &dyn PageReader,
        ids: &[u32],
        mut visit: impl FnMut(usize, TupleView<'_>),
    ) -> Result<(), CdbError> {
        let rids = ids
            .iter()
            .map(|&id| {
                self.slots
                    .get(id as usize)
                    .and_then(|r| *r)
                    .ok_or(CdbError::NoSuchTuple(id))
            })
            .collect::<Result<Vec<RecordId>, CdbError>>()?;
        self.heap.visit_many(pager, &rids, |at, bytes| {
            let id = ids[at];
            let bytes = bytes.ok_or(CdbError::NoSuchTuple(id))?;
            visit(
                at,
                TupleView::new(bytes).ok_or(CdbError::CorruptRecord(id))?,
            );
            Ok(())
        })
    }
}

impl TupleSource for HeapSource<'_> {
    fn fetch_batch(
        &self,
        pager: &dyn PageReader,
        ids: &[u32],
    ) -> Result<Vec<GeneralizedTuple>, CdbError> {
        let mut out: Vec<Option<GeneralizedTuple>> = vec![None; ids.len()];
        self.visit_records(pager, ids, |at, record| out[at] = Some(record.to_tuple()))?;
        Ok(out
            .into_iter()
            .map(|t| t.expect("every position visited"))
            .collect())
    }

    fn visit_batch(
        &self,
        pager: &dyn PageReader,
        ids: &[u32],
        visit: &mut dyn FnMut(usize, &dyn DualSurfaces),
    ) -> Result<(), CdbError> {
        self.visit_records(pager, ids, |at, record| visit(at, &record))
    }
}

/// Path equivalence: refinement through the heap source's borrowed-bytes
/// visitor and through a `fetch_batch`-only source over the same heap must
/// be indistinguishable — same ids, same `QueryStats`, same errors.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddim::SlopePoints;
    use crate::index::tests::line;
    use crate::index::{refine, Candidates, DualIndex, Exact};
    use crate::plan::PlanCase;
    use crate::query::{QueryResult, Selection, SelectionKind, Strategy};
    use crate::slopes::SlopeSet;
    use cdb_geometry::constraint::{LinearConstraint, RelOp};
    use cdb_geometry::halfplane::HalfPlane;
    use cdb_geometry::{dual, predicates, Rect};
    use cdb_prng::StdRng;
    use cdb_storage::{MemPager, Pager};
    use cdb_workload::{ObjectSize, TupleGen};

    /// The same heap through `fetch_batch` alone: what a closure source or
    /// `perf`'s timing source is to the refinement loop.
    struct FetchOnly<'a>(HeapSource<'a>);

    impl TupleSource for FetchOnly<'_> {
        fn fetch_batch(
            &self,
            pager: &dyn PageReader,
            ids: &[u32],
        ) -> Result<Vec<GeneralizedTuple>, CdbError> {
            self.0.fetch_batch(pager, ids)
        }
    }

    /// A relation as the engine lays it out: heap first, then the index.
    struct Bed {
        pager: MemPager,
        heap: HeapFile,
        slots: Vec<Option<RecordId>>,
        pairs: Vec<(u32, GeneralizedTuple)>,
    }

    impl Bed {
        fn load(tuples: Vec<GeneralizedTuple>) -> Bed {
            let mut pager = MemPager::paper_1999();
            let mut heap = HeapFile::new(&mut pager);
            let slots = tuples
                .iter()
                .map(|t| Some(heap.insert(&mut pager, &t.encode()).unwrap()))
                .collect();
            let pairs = tuples
                .into_iter()
                .enumerate()
                .map(|(i, t)| (i as u32, t))
                .collect();
            Bed {
                pager,
                heap,
                slots,
                pairs,
            }
        }

        fn source(&self) -> HeapSource<'_> {
            HeapSource::new(&self.heap, &self.slots)
        }

        /// Runs `query` against both sources and returns the (identical)
        /// outcome.
        fn both(
            &self,
            what: &str,
            query: impl Fn(&dyn TupleSource) -> Result<QueryResult, CdbError>,
        ) -> Result<QueryResult, CdbError> {
            let fast = query(&self.source());
            let plain = query(&FetchOnly(self.source()));
            match (&fast, &plain) {
                (Ok(f), Ok(p)) => {
                    assert_eq!(f.ids(), p.ids(), "{what}: ids");
                    assert_eq!(f.stats, p.stats, "{what}: stats");
                }
                (f, p) => assert_eq!(f.as_ref().err(), p.as_ref().err(), "{what}: errors"),
            }
            fast
        }
    }

    fn planar_bed(seed: u64) -> Bed {
        let mut g = TupleGen::new(seed, Rect::paper_window(), ObjectSize::Small);
        let mut tuples: Vec<GeneralizedTuple> = (0..400).map(|_| g.bounded_tuple()).collect();
        tuples.extend((0..60).map(|_| g.unbounded_tuple()));
        let mut g = TupleGen::new(seed + 1, Rect::paper_window(), ObjectSize::Medium);
        tuples.extend((0..60).map(|_| g.bounded_tuple()));
        Bed::load(tuples)
    }

    #[test]
    fn refine_paths_agree_for_restricted_t2_and_lines() {
        let mut bed = planar_bed(0xE0);
        let idx = DualIndex::build(&mut bed.pager, SlopeSet::uniform_tan(4), &bed.pairs).unwrap();
        let mut rng = StdRng::seed_from_u64(0xE1);
        let mut g = TupleGen::new(0xE2, Rect::paper_window(), ObjectSize::Small);
        let mut refined = 0u64;
        for round in 0..24 {
            // Arbitrary slopes and slopes past the ends of S (T2), and
            // member slopes (the restricted search); on member slopes every
            // third intercept sits exactly on a stored key, so the f32 check
            // band is fetched and refined.
            let member = idx.slopes().unwrap().get(round % 4);
            let wrapped = [2.5, 40.0, -1e6, -3.0][round % 4];
            let (_, on_key) = &bed.pairs[rng.gen_range(0..bed.pairs.len())];
            let cases = [
                (g.slope(), rng.gen_range(-60.0..60.0), Strategy::T2),
                (wrapped, rng.gen_range(-60.0..60.0), Strategy::T2),
                (
                    member,
                    if round % 3 == 0 {
                        dual::top(on_key, &[member]).unwrap()
                    } else {
                        rng.gen_range(-60.0..60.0)
                    },
                    Strategy::Auto,
                ),
            ];
            for (a, b, strategy) in cases {
                let b = if b.is_finite() { b } else { 0.0 };
                for kind in [SelectionKind::All, SelectionKind::Exist] {
                    for op in [RelOp::Ge, RelOp::Le] {
                        let sel = Selection {
                            kind,
                            halfplane: HalfPlane::new2d(a, b, op),
                        };
                        let what = format!("{strategy:?} {kind:?} {op:?} a={a} b={b}");
                        let got = bed
                            .both(&what, |src| idx.execute(&bed.pager, &sel, strategy, src))
                            .unwrap();
                        let want: Vec<u32> = bed
                            .pairs
                            .iter()
                            .filter(|(_, t)| sel.holds(&dual::Lp(t)))
                            .map(|(id, _)| *id)
                            .collect();
                        assert_eq!(got.ids(), want, "{what}: oracle");
                        refined += got.stats.candidates - got.stats.accepted_by_key;
                    }
                }
                for kind in [SelectionKind::Exist, SelectionKind::All] {
                    let what = format!("line {strategy:?} {kind:?} y = {a}x + {b}");
                    let got = bed
                        .both(&what, |src| line(&idx, &bed.pager, (a, b), kind, src))
                        .unwrap();
                    let want: Vec<u32> = bed
                        .pairs
                        .iter()
                        .filter(|(_, t)| match kind {
                            SelectionKind::Exist => {
                                predicates::exist_hyperplane(&[a], b, &dual::Lp(t))
                            }
                            SelectionKind::All => predicates::all_hyperplane(&[a], b, &dual::Lp(t)),
                        })
                        .map(|(id, _)| *id)
                        .collect();
                    assert_eq!(got.ids(), want, "{what}: oracle");
                    // One pass: every candidate fetched once, none by key.
                    assert_eq!(got.stats.accepted_by_key, 0, "{what}");
                    assert_eq!(
                        got.stats.false_hits + got.len() as u64,
                        got.stats.candidates - got.stats.duplicates,
                        "{what}"
                    );
                    assert!(
                        got.stats.heap_io.reads <= bed.heap.page_count() as u64,
                        "{what}: a heap page read twice"
                    );
                }
            }
        }
        assert!(refined > 10_000, "only {refined} candidates refined");
    }

    #[test]
    fn refine_paths_agree_in_three_dimensions() {
        let mut rng = StdRng::seed_from_u64(0xD3);
        let boxes: Vec<GeneralizedTuple> = (0..300)
            .map(|_| {
                let mut cs = Vec::new();
                for axis in 0..3 {
                    let lo: f64 = rng.gen_range(-50.0..45.0);
                    let hi = lo + rng.gen_range(0.5..5.0);
                    let mut a = vec![0.0; 3];
                    a[axis] = 1.0;
                    cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
                    cs.push(LinearConstraint::new(a, -hi, RelOp::Le));
                }
                GeneralizedTuple::new(cs)
            })
            .collect();
        let mut bed = Bed::load(boxes);
        let idx =
            DualIndex::build(&mut bed.pager, SlopePoints::grid(3, 3, 1.0), &bed.pairs).unwrap();
        for n in 0..30 {
            // Grid members (exact + check band), in-hull slopes (T2 cells).
            let slope = if n % 3 == 0 {
                vec![1.0, -1.0]
            } else {
                vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]
            };
            let b = rng.gen_range(-60.0..60.0);
            for kind in [SelectionKind::All, SelectionKind::Exist] {
                for op in [RelOp::Ge, RelOp::Le] {
                    let sel = Selection {
                        kind,
                        halfplane: HalfPlane::new(slope.clone(), b, op),
                    };
                    let what = format!("{kind:?} {op:?} {slope:?} {b}");
                    let case = idx.route(&sel).unwrap();
                    let run = |case: &PlanCase, src: &dyn TupleSource| {
                        idx.run(&bed.pager, &sel, case, Exact::Selection, src)
                    };
                    let got = bed.both(&what, |src| run(&case, src)).unwrap();
                    let want: Vec<u32> = bed
                        .pairs
                        .iter()
                        .filter(|(_, t)| sel.holds(t))
                        .map(|(id, _)| *id)
                        .collect();
                    assert_eq!(got.ids(), want, "{what}: oracle");
                }
            }
        }
    }

    #[test]
    fn refine_paths_report_the_same_errors() {
        let mut bed = planar_bed(0xE7);
        let sel = Selection::exist(HalfPlane::above(0.3, -100.0));
        let run = |bed: &Bed, ids: &[u32]| {
            bed.both(&format!("refine {ids:?}"), |src| {
                let search = |_: &dyn PageReader| Ok(Candidates::check(ids.to_vec()));
                refine(&bed.pager, &sel, Exact::Selection, src, None, search)
            })
        };
        assert_eq!(run(&bed, &[3, 4, 5]).unwrap().ids(), &[3, 4, 5]);
        // Out of range, and a deleted tuple whose slot is gone.
        assert_eq!(
            run(&bed, &[3, 9_999, 5]).unwrap_err(),
            CdbError::NoSuchTuple(9_999)
        );
        let rid = bed.slots[4].take().unwrap();
        assert_eq!(run(&bed, &[3, 4, 5]).unwrap_err(), CdbError::NoSuchTuple(4));
        // Tombstoned in the heap while the slot map still points at it (a
        // dangling index entry in the making).
        bed.slots[4] = Some(rid);
        bed.heap.delete(&mut bed.pager, rid).unwrap();
        assert_eq!(run(&bed, &[3, 4, 5]).unwrap_err(), CdbError::NoSuchTuple(4));
        // Damaged record bytes: an operator byte that is neither ≤ nor ≥,
        // then a non-finite coefficient.
        let victim = bed.slots[7].unwrap();
        let clean = bed.pairs[7].1.encode();
        let mut page = vec![0u8; bed.pager.page_size()];
        bed.pager.read(victim.page, &mut page).unwrap();
        let at = page
            .windows(clean.len())
            .position(|w| w == clean.as_slice())
            .expect("record bytes in its page");
        for (offset, poison) in [(4usize, vec![9u8]), (13, f64::NAN.to_le_bytes().to_vec())] {
            let mut damaged = page.clone();
            damaged[at + offset..at + offset + poison.len()].copy_from_slice(&poison);
            bed.pager.write(victim.page, &damaged).unwrap();
            assert_eq!(
                run(&bed, &[6, 7, 8]).unwrap_err(),
                CdbError::CorruptRecord(7)
            );
        }
        bed.pager.write(victim.page, &page).unwrap();
        assert_eq!(run(&bed, &[6, 7, 8]).unwrap().ids(), &[6, 7, 8]);
    }
}
