//! End-to-end equivalence: every query strategy must return exactly the
//! oracle (sequential scan with exact predicates) on randomized workloads —
//! bounded, unbounded and mixed relations, all selection kinds, operators
//! and slope regimes.

use constraint_db::index::query::Strategy;
use constraint_db::prelude::*;

fn build_db(tuples: &[GeneralizedTuple], k: usize) -> ConstraintDb {
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("r", 2).unwrap();
    for t in tuples {
        db.insert("r", t.clone()).unwrap();
    }
    db.build_dual_index("r", SlopeSet::uniform_tan(k)).unwrap();
    db
}

fn check_all_strategies(db: &mut ConstraintDb, q: HalfPlane, context: &str) {
    for sel in [Selection::exist(q.clone()), Selection::all(q.clone())] {
        let want = db.query_with("r", sel.clone(), Strategy::Scan).unwrap();
        for strat in [Strategy::T2, Strategy::Auto] {
            let got = db.query_with("r", sel.clone(), strat).unwrap();
            assert_eq!(
                got.ids(),
                want.ids(),
                "{context}: {strat:?} {:?} {q}",
                sel.kind
            );
        }
    }
}

#[test]
fn bounded_relations_random_queries() {
    for seed in [1u64, 2, 3] {
        let tuples = DatasetSpec::paper_1999(200, ObjectSize::Small, seed).generate();
        for k in [2, 5] {
            let mut db = build_db(&tuples, k);
            let mut qg = QueryGen::new(seed * 31);
            for q in qg.battery(&tuples, 3, 0.05, 0.5) {
                check_all_strategies(&mut db, q.halfplane, &format!("seed={seed} k={k}"));
            }
        }
    }
}

#[test]
fn mixed_bounded_unbounded_relations() {
    for seed in [11u64, 12] {
        let mut g = TupleGen::new(seed, Rect::paper_window(), ObjectSize::Small);
        let mut tuples: Vec<GeneralizedTuple> = (0..80).map(|_| g.bounded_tuple()).collect();
        tuples.extend((0..40).map(|_| g.unbounded_tuple()));
        let mut db = build_db(&tuples, 4);
        for (a, b) in [
            (0.31, -10.0),
            (-1.7, 5.0),
            (2.9, 0.0),
            (-0.05, 44.0),
            (7.5, -3.0),  // wrapped slope: T2 through the vertical
            (-9.0, 12.0), // wrapped slope
        ] {
            check_all_strategies(&mut db, HalfPlane::above(a, b), &format!("seed={seed}"));
            check_all_strategies(&mut db, HalfPlane::below(a, b), &format!("seed={seed}"));
        }
    }
}

#[test]
fn member_slope_queries_use_restricted_and_agree() {
    let tuples = DatasetSpec::paper_1999(150, ObjectSize::Medium, 21).generate();
    let db = build_db(&tuples, 3);
    let slopes: Vec<f64> = {
        let rel = db.relation("r").unwrap();
        rel.index().unwrap().slopes().unwrap().as_slice().to_vec()
    };
    for s in slopes {
        for b in [-20.0, 0.0, 15.0] {
            let q = HalfPlane::above(s, b);
            let want = db
                .query_with("r", Selection::exist(q.clone()), Strategy::Scan)
                .unwrap();
            let got = db
                .query_with("r", Selection::exist(q.clone()), Strategy::Restricted)
                .unwrap();
            assert_eq!(got.ids(), want.ids(), "restricted s={s} b={b}");
        }
    }
}

#[test]
fn extreme_intercepts_select_everything_or_nothing() {
    let tuples = DatasetSpec::paper_1999(100, ObjectSize::Small, 31).generate();
    let db = build_db(&tuples, 3);
    // Far below every object: EXIST(q(>=)) selects all, ALL(q(<=)) none.
    let low = HalfPlane::above(0.37, -10_000.0);
    assert_eq!(db.exist("r", low.clone()).unwrap().len(), 100);
    assert_eq!(db.all("r", low.clone().complement()).unwrap().len(), 0);
    // Far above: mirrored.
    let high = HalfPlane::above(0.37, 10_000.0);
    assert_eq!(db.exist("r", high.clone()).unwrap().len(), 0);
    assert_eq!(db.all("r", high.complement()).unwrap().len(), 100);
    // Containment in the upward half-plane from far below: everything.
    assert_eq!(
        db.all("r", HalfPlane::above(0.37, -10_000.0))
            .unwrap()
            .len(),
        100
    );
}

#[test]
fn interleaved_updates_stay_consistent() {
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("r", 2).unwrap();
    db.build_dual_index("r", SlopeSet::uniform_tan(3)).unwrap();
    let mut g = TupleGen::new(77, Rect::paper_window(), ObjectSize::Small);
    let mut live: Vec<u32> = Vec::new();
    for round in 0..6 {
        // Insert a batch.
        for _ in 0..30 {
            let t = if live.len().is_multiple_of(5) {
                g.unbounded_tuple()
            } else {
                g.bounded_tuple()
            };
            live.push(db.insert("r", t).unwrap());
        }
        // Delete a few.
        if round % 2 == 1 {
            for _ in 0..10 {
                let id = live.remove(round % live.len());
                db.delete("r", id).unwrap();
            }
        }
        // Query and compare with scan.
        let q = HalfPlane::above(0.3 + round as f64 * 0.1, -5.0);
        check_all_strategies(&mut db, q, &format!("round={round}"));
    }
    assert_eq!(db.relation("r").unwrap().len() as usize, live.len());
}

#[test]
fn rplustree_agrees_with_dual_index_on_bounded_data() {
    use constraint_db::rplustree::RPlusTree;
    use constraint_db::storage::MemPager;
    use constraint_db::workload::tuple_mbr;

    let tuples = DatasetSpec::paper_1999(300, ObjectSize::Small, 41).generate();
    let db = build_db(&tuples, 4);
    let mut pager = MemPager::paper_1999();
    let items: Vec<_> = tuples
        .iter()
        .enumerate()
        .map(|(i, t)| (tuple_mbr(t), i as u32))
        .collect();
    let tree = RPlusTree::pack(&mut pager, &items, 1.0).unwrap();
    let mut qg = QueryGen::new(43);
    for q in qg.battery(&tuples, 4, 0.1, 0.3) {
        let sel = Selection {
            kind: if q.kind == constraint_db::workload::QueryKind::All {
                constraint_db::index::query::SelectionKind::All
            } else {
                constraint_db::index::query::SelectionKind::Exist
            },
            halfplane: q.halfplane.clone(),
        };
        let want = db.query_with("r", sel.clone(), Strategy::Scan).unwrap();
        // R+ candidates + exact refinement.
        let (candidates, _) = tree.search_halfplane(&pager, &q.halfplane).unwrap();
        let refined: Vec<u32> = candidates
            .into_iter()
            .filter(|&id| {
                let t = &tuples[id as usize];
                match sel.kind {
                    constraint_db::index::query::SelectionKind::All => {
                        constraint_db::geometry::predicates::all(&q.halfplane, t)
                    }
                    constraint_db::index::query::SelectionKind::Exist => {
                        constraint_db::geometry::predicates::exist(&q.halfplane, t)
                    }
                }
            })
            .collect();
        assert_eq!(refined, want.ids(), "R+ vs dual index on {:?}", q.halfplane);
    }
}
