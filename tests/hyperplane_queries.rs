//! Randomized coverage for the paper's footnote 2: *equality* (line)
//! queries `y = a·x + c`, answered as the two half-plane selections
//! `y ≥ a·x + c` and `y ≤ a·x + c` of the query's kind, intersected
//! ([`QueryResult::intersect`]). Every search — restricted (member slopes)
//! and T2 — must agree with the brute-force hyperplane oracle on mixed
//! bounded/unbounded relations.

use std::collections::HashMap;

use constraint_db::geometry::predicates;
use constraint_db::index::error::CdbError;
use constraint_db::index::index::TupleSource;
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

/// The half-plane selection of `kind` bounded by the line `y = a·x + c`.
fn half(kind: SelectionKind, (a, c): (f64, f64), op: RelOp) -> Selection {
    Selection {
        kind,
        halfplane: HalfPlane::new2d(a, c, op),
    }
}

/// The line `y = a·x + c` along `idx`'s route, as the engine runs a line
/// query on a dual index: its two half-plane selections, intersected.
fn line(
    idx: &DualIndex,
    pager: &dyn PageReader,
    (a, c): (f64, f64),
    kind: SelectionKind,
    fetch: &dyn TupleSource,
) -> Result<QueryResult, CdbError> {
    let run = |op| {
        let sel = half(kind, (a, c), op);
        let case = idx.route(&sel).expect("a dual index routes every line");
        idx.run(pager, &sel, &case, fetch)
    };
    Ok(run(RelOp::Ge)?.intersect(run(RelOp::Le)?))
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
            let case = idx
                .route(&half(SelectionKind::Exist, (a, c), RelOp::Ge))
                .unwrap();
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

/// The segment `x ∈ [x0, x0 + 6]` and the point at `x0` of the line
/// `y = a·x + c`: tuples only an ALL line query of that line selects.
fn on_the_line((a, c): (f64, f64), x0: f64) -> [GeneralizedTuple; 2] {
    let on = |op| LinearConstraint::new2d(-a, 1.0, -c, op);
    let x = |v: f64, op| LinearConstraint::new2d(1.0, 0.0, -v, op);
    let y = |v: f64, op| LinearConstraint::new2d(0.0, 1.0, -v, op);
    let at = a * x0 + c;
    [
        GeneralizedTuple::new(vec![
            on(RelOp::Ge),
            on(RelOp::Le),
            x(x0, RelOp::Ge),
            x(x0 + 6.0, RelOp::Le),
        ]),
        GeneralizedTuple::new(vec![
            x(x0, RelOp::Ge),
            x(x0, RelOp::Le),
            y(at, RelOp::Ge),
            y(at, RelOp::Le),
        ]),
    ]
}

/// A line query is its two half-plane selections: on a dual-indexed and
/// an index-less relation holding the same churned mix of bounded,
/// unbounded and degenerate tuples (a segment and a point on every line
/// of the table), `exist_line`/`all_line` answer what the `≥` and `≤`
/// selections of their kind both answer, and what the hyperplane oracle
/// answers — at member slopes of `S`, between them and past both ends
/// (through the vertical) — and every result books each candidate once.
#[test]
fn line_queries_are_their_two_half_plane_selections() {
    let slopes = SlopeSet::uniform_tan(4);
    let table: Vec<(&str, f64, f64)> = vec![
        ("member", slopes.get(0), 12.0),
        ("member", slopes.get(1), -4.0),
        ("member", slopes.get(2), 30.0),
        ("member", slopes.get(3), -25.0),
        ("between", 0.0, 40.0),
        ("between", 1.0, -10.0),
        ("between", -1.3, 5.0),
        ("past max S", 7.0, -60.0),
        ("past max S", 120.0, 300.0),
        ("past min S", -7.0, 80.0),
        ("past min S", -1e3, 2e3),
    ];
    let mut g = TupleGen::new(41, Rect::paper_window(), ObjectSize::Small);
    let mut tuples: Vec<GeneralizedTuple> = (0..300).map(|_| g.bounded_tuple()).collect();
    tuples.extend((0..60).map(|_| g.unbounded_tuple()));
    for (n, &(_, a, c)) in table.iter().enumerate() {
        tuples.extend(on_the_line((a, c), n as f64 * 0.5 - 3.0));
    }
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("indexed", 2).unwrap();
    db.create_relation("bare", 2).unwrap();
    db.build_dual_index("indexed", slopes).unwrap();
    // Churn: every tuple inserted, a third deleted, the survivors kept in
    // the model by id.
    let mut live: Vec<(u32, GeneralizedTuple)> = Vec::new();
    for (n, t) in tuples.into_iter().enumerate() {
        let id = db.insert("indexed", t.clone()).unwrap();
        assert_eq!(db.insert("bare", t.clone()).unwrap(), id);
        live.push((id, t));
        if n % 3 == 2 && n < 360 {
            let (gone, _) = live.remove(live.len() / 2);
            db.delete("indexed", gone).unwrap();
            db.delete("bare", gone).unwrap();
        }
    }
    for &(what, a, c) in &table {
        let plan = db.plan_query("indexed", &half(SelectionKind::Exist, (a, c), RelOp::Ge));
        let case = plan.unwrap().case.to_string();
        let through = case.contains("through the vertical");
        assert_eq!(what.starts_with("past"), through, "{what} {a}: {case}");
        assert_eq!(
            what == "member",
            case.starts_with("member"),
            "{what} {a}: {case}"
        );
    }
    let booked = |r: &QueryResult| {
        let s = &r.stats;
        r.len() as u64 + s.false_hits + s.rejected_by_key + s.duplicates
    };
    for (rel, method) in [("indexed", MethodKind::Dual), ("bare", MethodKind::SeqScan)] {
        for &(what, a, c) in &table {
            for kind in [SelectionKind::Exist, SelectionKind::All] {
                let what = format!("{rel} {what} {kind:?} y = {a}x + {c}");
                let got = match kind {
                    SelectionKind::Exist => db.exist_line(rel, a, c),
                    SelectionKind::All => db.all_line(rel, a, c),
                }
                .unwrap();
                let halves = [RelOp::Ge, RelOp::Le].map(|op| {
                    let r = db.query(rel, half(kind, (a, c), op)).unwrap();
                    assert_eq!(
                        r.stats.candidates,
                        booked(&r),
                        "{what} {op:?}: {:?}",
                        r.stats
                    );
                    assert_eq!(r.stats.method, Some(method), "{what} {op:?}");
                    r
                });
                let both: Vec<u32> = (halves[0].ids().iter())
                    .filter(|id| halves[1].ids().contains(id))
                    .copied()
                    .collect();
                assert_eq!(got.ids(), both, "{what}: ≠ the two selections");
                let want: Vec<u32> = (live.iter())
                    .filter(|(_, t)| match kind {
                        SelectionKind::Exist => predicates::exist_hyperplane(&[a], c, t),
                        SelectionKind::All => predicates::all_hyperplane(&[a], c, t),
                    })
                    .map(|(id, _)| *id)
                    .collect();
                assert_eq!(got.ids(), want, "{what}: ≠ the hyperplane oracle");
                assert_eq!(
                    got.stats.candidates,
                    booked(&got),
                    "{what}: {:?}",
                    got.stats
                );
                assert_eq!(got.stats.method, Some(method), "{what}");
                // Its segment and its point, at least.
                assert!(kind == SelectionKind::Exist || got.len() >= 2, "{what}");
            }
        }
    }
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
/// other's heap reads into its own `heap_io` window. (The key columns now
/// decide most candidates, so a line may read no heap page at all; what is
/// held is that every window equals the stand-alone reference's.)
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
    let dual_heap_reads: u64 = (reference.iter())
        .map(|r| r[&MethodKind::Dual].heap_io.reads)
        .sum();
    assert!(dual_heap_reads > 0, "no line fetched a tuple");
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
