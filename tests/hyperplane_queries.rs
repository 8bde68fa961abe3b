//! Randomized coverage for the paper's footnote 2: *equality* (line)
//! queries `y = a·x + c`, served by the dual index as an exact EXIST
//! half-plane superset ([`Selection::line_superset`]) plus one refinement
//! pass ([`Exact::Line`]). Every search — restricted (member slopes) and
//! T2 — must agree with the brute-force oracle on mixed bounded/unbounded
//! relations.

use std::collections::HashMap;

use constraint_db::geometry::predicates;
use constraint_db::index::error::CdbError;
use constraint_db::index::index::{Exact, TupleSource};
use constraint_db::index::query::{QueryResult, SelectionKind};
use constraint_db::prelude::*;
use constraint_db::storage::{HeapFile, PageReader, RecordId};

fn mixed_relation(seed: u64, bounded: usize, unbounded: usize) -> Vec<(u32, GeneralizedTuple)> {
    let mut g = TupleGen::new(seed, Rect::paper_window(), ObjectSize::Small);
    let mut tuples: Vec<GeneralizedTuple> = (0..bounded).map(|_| g.bounded_tuple()).collect();
    tuples.extend((0..unbounded).map(|_| g.unbounded_tuple()));
    tuples
        .into_iter()
        .enumerate()
        .map(|(i, t)| (i as u32, t))
        .collect()
}

fn oracle(pairs: &[(u32, GeneralizedTuple)], a: f64, c: f64, kind: SelectionKind) -> Vec<u32> {
    pairs
        .iter()
        .filter(|(_, t)| match kind {
            SelectionKind::Exist => predicates::exist_hyperplane(&[a], c, t),
            SelectionKind::All => predicates::all_hyperplane(&[a], c, t),
        })
        .map(|(id, _)| *id)
        .collect()
}

/// The line `y = a·x + c` along `idx`'s route, as the planner runs a line
/// query on a dual index.
fn line(
    idx: &DualIndex,
    pager: &dyn PageReader,
    (a, c): (f64, f64),
    kind: SelectionKind,
    fetch: &dyn TupleSource,
) -> Result<QueryResult, CdbError> {
    let superset = Selection::line_superset(a, c);
    let case = idx
        .route(&superset)
        .expect("a dual index routes every line");
    idx.run(pager, &superset, &case, Exact::Line(kind), fetch)
}

#[test]
fn random_lines_agree_with_oracle_across_strategies() {
    for seed in [5u64, 6, 7] {
        let pairs = mixed_relation(seed, 250, 50);
        let mut pager = MemPager::paper_1999();
        let slopes = SlopeSet::uniform_tan(4);
        let idx = DualIndex::build(&mut pager, slopes.clone(), &pairs).unwrap();
        let lookup: HashMap<u32, GeneralizedTuple> = pairs.iter().cloned().collect();
        let fetch = |_: &dyn PageReader, id: u32| -> GeneralizedTuple { lookup[&id].clone() };

        let mut rng = cdb_prng::StdRng::seed_from_u64(seed * 1001);
        let mut g = TupleGen::new(seed * 13, Rect::paper_window(), ObjectSize::Small);
        for qi in 0..24 {
            // Half the lines use foreign slopes (T2's approximation path),
            // half a member slope (restricted search is exact and must
            // agree too).
            let member = qi % 2 == 0;
            let a = if member {
                slopes.get(qi % slopes.len())
            } else {
                g.slope()
            };
            let c: f64 = rng.gen_range(-60.0..60.0);
            let case = idx.route(&Selection::line_superset(a, c)).unwrap();
            assert_eq!(matches!(case, PlanCase::Member { .. }), member, "{case}");
            for kind in [SelectionKind::Exist, SelectionKind::All] {
                let want = oracle(&pairs, a, c, kind);
                let got = line(&idx, &pager, (a, c), kind, &fetch)
                    .unwrap_or_else(|e| panic!("seed {seed} line {qi}: {e}"));
                assert_eq!(got.ids(), want, "seed {seed} {kind:?} y = {a}x + {c}");
            }
        }
    }
}

#[test]
fn unbounded_tuples_are_found_by_line_queries() {
    // Pure unbounded relation: strips, wedges and half-planes cross almost
    // every line, and the ALL case stays empty (nothing full-dimensional is
    // contained in a line).
    let pairs = mixed_relation(91, 0, 60);
    let mut pager = MemPager::paper_1999();
    let idx = DualIndex::build(&mut pager, SlopeSet::uniform_tan(3), &pairs).unwrap();
    let lookup: HashMap<u32, GeneralizedTuple> = pairs.iter().cloned().collect();
    let fetch = |_: &dyn PageReader, id: u32| -> GeneralizedTuple { lookup[&id].clone() };
    let mut rng = cdb_prng::StdRng::seed_from_u64(0x11E);
    let mut nonempty = 0;
    for _ in 0..10 {
        let a: f64 = rng.gen_range(-2.0..2.0);
        let c: f64 = rng.gen_range(-30.0..30.0);
        let want = oracle(&pairs, a, c, SelectionKind::Exist);
        let got = line(&idx, &pager, (a, c), SelectionKind::Exist, &fetch).unwrap();
        assert_eq!(got.ids(), want);
        if !want.is_empty() {
            nonempty += 1;
        }
        let all = line(&idx, &pager, (a, c), SelectionKind::All, &fetch).unwrap();
        assert_eq!(all.ids(), oracle(&pairs, a, c, SelectionKind::All));
    }
    assert!(nonempty >= 8, "unbounded objects should meet most lines");
}

#[test]
fn facade_line_queries_match_the_oracle() {
    let pairs = mixed_relation(17, 120, 30);
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("r", 2).unwrap();
    for (_, t) in &pairs {
        db.insert("r", t.clone()).unwrap();
    }
    db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
    let mut rng = cdb_prng::StdRng::seed_from_u64(0xFACE);
    for _ in 0..12 {
        let a: f64 = rng.gen_range(-3.0..3.0);
        let c: f64 = rng.gen_range(-50.0..50.0);
        let r = db.exist_line("r", a, c).unwrap();
        assert_eq!(r.ids(), oracle(&pairs, a, c, SelectionKind::Exist));
        let r = db.all_line("r", a, c).unwrap();
        assert_eq!(r.ids(), oracle(&pairs, a, c, SelectionKind::All));
    }
    // A degenerate segment lying on a line is ALL-selected exactly by it.
    let id = db
        .insert(
            "r",
            parse_tuple("y = 0.5x + 2 && x >= 0 && x <= 10").unwrap(),
        )
        .unwrap();
    let r = db.all_line("r", 0.5, 2.0).unwrap();
    assert_eq!(r.ids(), &[id]);
}

/// The engine's candidate fetch rebuilt from public parts: the tuples'
/// stored form in a [`HeapFile`], read with one page access per distinct
/// page, charged to the reader the query hands in.
struct HeapReplica {
    heap: HeapFile,
    records: Vec<RecordId>,
}

impl TupleSource for HeapReplica {
    fn fetch_batch(
        &self,
        pager: &dyn PageReader,
        ids: &[u32],
    ) -> Result<Vec<GeneralizedTuple>, CdbError> {
        let rids: Vec<RecordId> = ids.iter().map(|&id| self.records[id as usize]).collect();
        let mut out = vec![None; ids.len()];
        self.heap.visit_many(pager, &rids, |at, bytes| {
            out[at] = GeneralizedTuple::decode(bytes.expect("live record"));
            Ok::<(), CdbError>(())
        })?;
        Ok(out.into_iter().map(|t| t.expect("decodes")).collect())
    }
}

/// Regression: the line query's second pass used to run on the caller's
/// shared reader, so a line query running beside another one booked the
/// other's heap reads into its own `heap_io` window.
///
/// Line queries are planned like selections, and what one search reads
/// for one line does not depend on how the two threads interleave. The
/// reference is total — every line under every search the relation can
/// route it to (the dual index, the scan), computed off to the side: the
/// dual index's route on a stand-alone [`DualIndex`] over a
/// replica of the heap, the scan on an index-less twin relation.
#[test]
fn concurrent_line_queries_report_their_own_heap_io() {
    let pairs = mixed_relation(23, 1500, 100);
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    let mut pager = MemPager::paper_1999();
    let mut replica = HeapReplica {
        heap: HeapFile::new(&mut pager),
        records: Vec::new(),
    };
    db.create_relation("r", 2).unwrap();
    db.create_relation("twin", 2).unwrap();
    for (_, t) in &pairs {
        db.insert("r", t.clone()).unwrap();
        db.insert("twin", t.clone()).unwrap();
        let rid = replica.heap.insert(&mut pager, &t.encode()).unwrap();
        replica.records.push(rid);
    }
    db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
    let idx = DualIndex::build(&mut pager, SlopeSet::uniform_tan(4), &pairs).unwrap();

    let mut rng = cdb_prng::StdRng::seed_from_u64(0xC0C0);
    let lines: Vec<(f64, f64)> = (0..24)
        .map(|_| (rng.gen_range(-3.0..3.0), rng.gen_range(-50.0..50.0)))
        .collect();
    let counts = |ran: MethodKind, r: &QueryResult| QueryStats {
        method: Some(ran),
        ..r.stats
    };
    let reference: Vec<HashMap<MethodKind, QueryStats>> = lines
        .iter()
        .map(|&(a, c)| {
            let dual = line(&idx, &pager, (a, c), SelectionKind::Exist, &replica).unwrap();
            let scan = db.exist_line("twin", a, c).unwrap();
            assert_eq!(scan.stats.method, Some(MethodKind::SeqScan));
            HashMap::from([
                (MethodKind::Dual, counts(MethodKind::Dual, &dual)),
                (MethodKind::SeqScan, counts(MethodKind::SeqScan, &scan)),
            ])
        })
        .collect();
    let check = |i: usize, r: &QueryResult, when: &str| {
        let ran = r.stats.method.expect("planned");
        let want = reference[i]
            .get(&ran)
            .unwrap_or_else(|| panic!("{when} line {i}: no route to {ran}"));
        assert_eq!(counts(ran, r), *want, "{when} line {i} via {ran}");
    };
    for (i, &(a, c)) in lines.iter().enumerate() {
        let r = db.exist_line("r", a, c).unwrap();
        assert_eq!(r.ids(), oracle(&pairs, a, c, SelectionKind::Exist));
        assert!(r.stats.heap_io.reads > 0, "line {i} refined nothing");
        check(i, &r, "sequential");
    }

    let (db, check) = (&db, &check);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let (lines, start) = (&lines, &start);
                scope.spawn(move || {
                    start.wait();
                    // Opposite orders, several passes: the two threads are
                    // inside different queries nearly all of the time.
                    for pass in 0..6 {
                        for n in 0..lines.len() {
                            let i = if w == 0 { n } else { lines.len() - 1 - n };
                            let (a, c) = lines[i];
                            let r = db.exist_line("r", a, c).unwrap();
                            check(i, &r, &format!("thread {w} pass {pass}"));
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("line-query thread");
        }
    });
}
