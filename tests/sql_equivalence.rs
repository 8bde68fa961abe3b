//! SQL ≡ typed ≡ oracle: the constraint-SQL surface must answer exactly
//! like the typed query path (`Strategy::Auto`), which must answer exactly
//! like the geometric predicate oracle — across EXIST and ALL, d = 2 and
//! d = 3, conjunctions, joins, projections and the wire protocol. Plus a
//! seeded fuzz pass over the parser: no panics, spans in bounds.

use std::collections::BTreeSet;

use cdb_prng::StdRng;
use constraint_db::geometry::predicates;
use constraint_db::index::db::{ConstraintDb, DbConfig};
use constraint_db::index::ddim::SlopePoints;
use constraint_db::index::sql;
use constraint_db::net::server::{Server, ServerConfig};
use constraint_db::net::Client;
use constraint_db::prelude::*;

/// Random axis-aligned boxes (same shape as the net round-trip workload).
fn random_boxes(dim: usize, n: usize, seed: u64) -> Vec<GeneralizedTuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut cs = Vec::new();
            for k in 0..dim {
                let lo: f64 = rng.gen_range(-50.0..45.0);
                let hi = lo + rng.gen_range(1.0..6.0);
                let mut a = vec![0.0; dim];
                a[k] = 1.0;
                cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
                cs.push(LinearConstraint::new(a, -hi, RelOp::Le));
            }
            GeneralizedTuple::new(cs)
        })
        .collect()
}

/// Renders `coeffs·vars (op) rhs` in the shell's SQL grammar.
fn sql_comparison(coeffs: &[f64], rhs: f64, op: RelOp) -> String {
    let mut lhs = String::new();
    for (i, &c) in coeffs.iter().enumerate() {
        if c == 0.0 {
            continue;
        }
        let v = sql::var_name(i);
        if lhs.is_empty() {
            lhs.push_str(&format!("{c}*{v}"));
        } else if c < 0.0 {
            lhs.push_str(&format!(" - {}*{v}", -c));
        } else {
            lhs.push_str(&format!(" + {c}*{v}"));
        }
    }
    assert!(!lhs.is_empty(), "degenerate all-zero comparison");
    let cmp = match op {
        RelOp::Le => "<=",
        RelOp::Ge => ">=",
    };
    format!("{lhs} {cmp} {rhs}")
}

fn kind_word(kind: SelectionKind) -> &'static str {
    match kind {
        SelectionKind::Exist => "EXIST",
        SelectionKind::All => "ALL",
    }
}

/// A random non-vertical comparison as (SQL text fragment, constraint).
fn random_comparison(rng: &mut StdRng, dim: usize) -> (String, LinearConstraint) {
    let mut coeffs: Vec<f64> = (0..dim)
        .map(|_| (rng.gen_range(-20i64..21) as f64) / 10.0)
        .collect();
    // Non-vertical: the last variable must participate.
    if coeffs[dim - 1] == 0.0 {
        coeffs[dim - 1] = 1.0;
    }
    let rhs = (rng.gen_range(-400i64..401) as f64) / 10.0;
    let op = if rng.gen_bool(0.5) {
        RelOp::Le
    } else {
        RelOp::Ge
    };
    let text = sql_comparison(&coeffs, rhs, op);
    // `coeffs·x op rhs` ⇔ `coeffs·x - rhs op 0`.
    (text, LinearConstraint::new(coeffs, -rhs, op))
}

fn sorted_single_ids(outcome: &SqlOutcome) -> Vec<u32> {
    let mut ids: Vec<u32> = outcome.rows.iter().map(|r| r.ids[0]).collect();
    ids.sort_unstable();
    ids
}

fn single_relation_db(dim: usize, n: usize, seed: u64) -> ConstraintDb {
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("r", dim).unwrap();
    for t in random_boxes(dim, n, seed) {
        db.insert("r", t).unwrap();
    }
    if dim == 2 {
        db.build_dual_index("r", SlopeSet::uniform_tan(6)).unwrap();
    } else {
        db.build_dual_index("r", SlopePoints::grid(dim, 2, 1.0))
            .unwrap();
    }
    db
}

/// Single-comparison WHERE: SQL ids == typed `Strategy::Auto` ids ==
/// predicate-oracle ids, for both kinds and both dimensions.
#[test]
fn single_constraint_sql_matches_typed_and_oracle() {
    for (dim, n, seed) in [(2usize, 200usize, 0xC1u64), (3, 120, 0xC2)] {
        let db = single_relation_db(dim, n, seed);
        let tuples = db.scan_relation("r").unwrap();
        let mut rng = StdRng::seed_from_u64(seed * 7 + 1);
        for round in 0..24 {
            let (text, c) = random_comparison(&mut rng, dim);
            let kind = if round % 2 == 0 {
                SelectionKind::Exist
            } else {
                SelectionKind::All
            };
            let hp = HalfPlane::from_constraint(&c).expect("non-vertical by construction");
            let sel = Selection {
                kind,
                halfplane: hp.clone(),
            };
            let typed = db.query_with("r", sel, Strategy::Auto).unwrap();
            let stmt = format!("SELECT * FROM r WHERE {text} {}", kind_word(kind));
            let got = db.sql(&stmt, SqlMode::Execute).unwrap();
            let oracle: Vec<u32> = tuples
                .iter()
                .filter(|(_, t)| match kind {
                    SelectionKind::Exist => predicates::exist(&hp, t),
                    SelectionKind::All => predicates::all(&hp, t),
                })
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(typed.ids(), oracle.as_slice(), "typed vs oracle: {stmt}");
            assert_eq!(sorted_single_ids(&got), oracle, "sql vs oracle: {stmt}");
        }
    }
}

/// Conjunctions (including vertical constraints the index cannot serve):
/// EXIST is joint satisfiability of region ∧ WHERE, ALL distributes over
/// conjuncts. The oracle works directly on the scanned regions.
#[test]
fn conjunction_where_matches_lp_oracle() {
    let db = single_relation_db(2, 150, 0xD1);
    let tuples = db.scan_relation("r").unwrap();
    let mut rng = StdRng::seed_from_u64(0xD2);
    for round in 0..16 {
        let (t1, c1) = random_comparison(&mut rng, 2);
        let (t2, c2) = random_comparison(&mut rng, 2);
        // Every third round adds a vertical conjunct (x-only), which no
        // half-plane index can serve — it must still be answered exactly.
        let vertical = round % 3 == 0;
        let (t3, c3) = if vertical {
            let rhs = (rng.gen_range(-300i64..301) as f64) / 10.0;
            (
                sql_comparison(&[1.0], rhs, RelOp::Le),
                LinearConstraint::new(vec![1.0], -rhs, RelOp::Le),
            )
        } else {
            random_comparison(&mut rng, 2)
        };
        let kind = if round % 2 == 0 {
            SelectionKind::Exist
        } else {
            SelectionKind::All
        };
        let stmt = format!(
            "SELECT * FROM r WHERE {t1} AND {t2} AND {t3} {}",
            kind_word(kind)
        );
        let got = db.sql(&stmt, SqlMode::Execute).unwrap();
        let conjuncts = [&c1, &c2, &c3];
        let oracle: Vec<u32> = tuples
            .iter()
            .filter(|(_, t)| match kind {
                SelectionKind::Exist => {
                    let mut sys = t.constraints().to_vec();
                    for c in conjuncts {
                        let mut coeffs = c.coeffs.clone();
                        coeffs.resize(2, 0.0);
                        sys.push(LinearConstraint::new(coeffs, c.constant, c.op));
                    }
                    GeneralizedTuple::new(sys).is_satisfiable()
                }
                SelectionKind::All => conjuncts.iter().all(|c| {
                    let mut coeffs = c.coeffs.clone();
                    coeffs.resize(2, 0.0);
                    let lifted = LinearConstraint::new(coeffs, c.constant, c.op);
                    match HalfPlane::from_constraint(&lifted) {
                        Some(hp) => predicates::all(&hp, t),
                        // Vertical ALL: bound the support function.
                        None => {
                            use constraint_db::geometry::simplex::LpResult;
                            match lifted.op {
                                RelOp::Le => match t.maximize(&lifted.coeffs) {
                                    LpResult::Optimal { value, .. } => {
                                        value + lifted.constant <= 1e-9
                                    }
                                    LpResult::Unbounded => false,
                                    LpResult::Infeasible => true,
                                },
                                RelOp::Ge => match t.minimize(&lifted.coeffs) {
                                    LpResult::Optimal { value, .. } => {
                                        value + lifted.constant >= -1e-9
                                    }
                                    LpResult::Unbounded => false,
                                    LpResult::Infeasible => true,
                                },
                            }
                        }
                    }
                }),
            })
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(sorted_single_ids(&got), oracle, "{stmt}");
    }
}

/// Joins are conjunctions over the shared variable space: the oracle is a
/// nested loop over the cartesian product testing joint satisfiability.
#[test]
fn joins_match_cartesian_oracle() {
    let mut db = ConstraintDb::in_memory(DbConfig::paper_1999());
    db.create_relation("r", 2).unwrap();
    for t in random_boxes(2, 25, 0xE1) {
        db.insert("r", t).unwrap();
    }
    db.build_dual_index("r", SlopeSet::uniform_tan(4)).unwrap();
    db.create_relation("s", 2).unwrap();
    for t in random_boxes(2, 20, 0xE2) {
        db.insert("s", t).unwrap();
    }
    let rt = db.scan_relation("r").unwrap();
    let st = db.scan_relation("s").unwrap();

    let mut rng = StdRng::seed_from_u64(0xE3);
    for round in 0..8 {
        let (text, c) = random_comparison(&mut rng, 2);
        let kind = if round % 4 == 3 {
            SelectionKind::All
        } else {
            SelectionKind::Exist
        };
        let stmt = format!("SELECT * FROM r JOIN s WHERE {text} {}", kind_word(kind));
        let got = db.sql(&stmt, SqlMode::Execute).unwrap();
        let got_pairs: BTreeSet<(u32, u32)> = got
            .rows
            .iter()
            .map(|row| (row.ids[0], row.ids[1]))
            .collect();
        let hp = HalfPlane::from_constraint(&c).unwrap();
        let mut want = BTreeSet::new();
        for (rid, rtup) in &rt {
            for (sid, stup) in &st {
                let mut sys = rtup.constraints().to_vec();
                sys.extend(stup.constraints().iter().cloned());
                let joined = GeneralizedTuple::new(sys);
                if !joined.is_satisfiable() {
                    continue;
                }
                let keep = match kind {
                    SelectionKind::Exist => predicates::exist(&hp, &joined),
                    SelectionKind::All => predicates::all(&hp, &joined),
                };
                if keep {
                    want.insert((*rid, *sid));
                }
            }
        }
        assert_eq!(got_pairs, want, "{stmt}");
    }
}

/// `SELECT <vars>` projects by Fourier–Motzkin elimination; each returned
/// region must be the exact shadow of the stored tuple (checked by point
/// membership on a grid, both directions).
#[test]
fn projection_regions_are_exact_shadows() {
    let db = single_relation_db(2, 40, 0xF1);
    let got = db
        .sql("SELECT x FROM r WHERE y >= -100 EXIST", SqlMode::Execute)
        .unwrap();
    assert_eq!(got.columns, vec!["id(r)".to_string(), "region(x)".into()]);
    assert_eq!(got.rows.len(), 40);
    for row in &got.rows {
        let region = row.region.as_ref().expect("projection keeps regions");
        assert_eq!(region.dim(), 1);
        let full = db.fetch_tuple("r", row.ids[0]).unwrap();
        for step in -110..=110 {
            let x = step as f64 / 2.0;
            let in_shadow = region.contains(&[x]);
            // x is in the shadow iff the line {x} × ℝ meets the tuple.
            let mut sys = full.constraints().to_vec();
            sys.push(LinearConstraint::new(vec![1.0, 0.0], -x, RelOp::Le));
            sys.push(LinearConstraint::new(vec![1.0, 0.0], -x, RelOp::Ge));
            let meets = GeneralizedTuple::new(sys).is_satisfiable();
            assert_eq!(in_shadow, meets, "tuple {} at x={x}", row.ids[0]);
        }
    }
}

/// LIMIT caps the row count without changing which rows are legal.
#[test]
fn limit_caps_rows() {
    let db = single_relation_db(2, 30, 0xF2);
    let all = db
        .sql("SELECT * FROM r WHERE y >= -100 EXIST", SqlMode::Execute)
        .unwrap();
    assert_eq!(all.rows.len(), 30);
    let capped = db
        .sql(
            "SELECT * FROM r WHERE y >= -100 EXIST LIMIT 7",
            SqlMode::Execute,
        )
        .unwrap();
    assert_eq!(capped.rows.len(), 7);
    let full: BTreeSet<u32> = all.rows.iter().map(|r| r.ids[0]).collect();
    assert!(capped.rows.iter().all(|r| full.contains(&r.ids[0])));
}

/// Unsatisfiable WHERE clauses short-circuit to an Empty plan.
#[test]
fn unsatisfiable_where_returns_empty_plan() {
    let db = single_relation_db(2, 10, 0xF3);
    let o = db
        .sql(
            "SELECT * FROM r WHERE y >= 10 AND y <= 0 EXIST",
            SqlMode::Execute,
        )
        .unwrap();
    assert!(o.rows.is_empty());
    let e = db
        .sql(
            "SELECT * FROM r WHERE y >= 10 AND y <= 0 EXIST",
            SqlMode::Explain,
        )
        .unwrap();
    assert!(e.plan.as_deref().unwrap_or("").contains("Empty"), "{e:?}");
}

/// Seeded fuzz over the parser: mutated statements must never panic, and
/// every error's span must stay inside the input.
#[test]
fn parser_fuzz_no_panics_spans_in_bounds() {
    let bases = [
        "SELECT * FROM r WHERE y >= 0.3x - 5 EXIST",
        "SELECT x, y FROM r JOIN s WHERE 2x + 3y <= 10 AND x >= 0 ALL LIMIT 5",
        "select x2 from rel where 1.5e2*x1 - x2 = 7;",
        "SELECT w FROM t WHERE x + y + z + w >= -1e-3 EXIST",
    ];
    let mut rng = StdRng::seed_from_u64(0xFACE);
    let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyzXYZ0123456789 <>=!&|+-*,;.()\u{3bb}"
        .chars()
        .collect();
    for round in 0..600 {
        let base = bases[round % bases.len()];
        let mut chars: Vec<char> = base.chars().collect();
        for _ in 0..rng.gen_range(1usize..6) {
            let i = rng.gen_range(0..chars.len());
            let c = alphabet[rng.gen_range(0..alphabet.len())];
            if rng.gen_bool(0.3) {
                chars.insert(i, c);
            } else if rng.gen_bool(0.3) && chars.len() > 1 {
                chars.remove(i);
            } else {
                chars[i] = c;
            }
        }
        let text: String = chars.into_iter().collect();
        match sql::parse(&text) {
            Ok(_) => {}
            Err(e) => {
                assert!(e.span.start <= e.span.end, "span order: {e} on {text:?}");
                assert!(
                    e.span.end <= text.len(),
                    "span out of bounds: {e} on {text:?}"
                );
            }
        }
    }
}

/// A join + projection SQL statement round-trips over the wire with
/// byte-identical rows, and the remote EXPLAIN plan equals the local one.
#[test]
fn sql_round_trips_over_the_wire() {
    let mut oracle = ConstraintDb::in_memory(DbConfig::paper_1999());
    oracle.create_relation("r", 2).unwrap();
    for t in random_boxes(2, 30, 0xAB) {
        oracle.insert("r", t).unwrap();
    }
    oracle
        .build_dual_index("r", SlopeSet::uniform_tan(4))
        .unwrap();
    oracle.create_relation("s", 2).unwrap();
    for t in random_boxes(2, 20, 0xAC) {
        oracle.insert("s", t).unwrap();
    }

    let server = Server::bind(
        "127.0.0.1:0",
        ConstraintDb::in_memory(DbConfig::paper_1999()),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    client.create_relation("r", 2).unwrap();
    for t in random_boxes(2, 30, 0xAB) {
        client.insert("r", t).unwrap();
    }
    client
        .build_dual("r", SlopeSet::uniform_tan(4).as_slice().to_vec())
        .unwrap();
    client.create_relation("s", 2).unwrap();
    for t in random_boxes(2, 20, 0xAC) {
        client.insert("s", t).unwrap();
    }

    let stmt = "SELECT x, y FROM r JOIN s WHERE y >= 0.25x - 2 EXIST";
    let local = oracle.sql(stmt, SqlMode::Execute).unwrap();
    let remote = client.sql(stmt, SqlMode::Execute).unwrap();
    assert!(!local.rows.is_empty(), "workload should produce matches");
    assert_eq!(remote.columns, local.columns);
    assert_eq!(remote.rows, local.rows);

    // EXPLAIN (no execution) is deterministic: identical plan text on
    // both sides, through the one shared pretty-printer.
    let local_plan = oracle.sql(stmt, SqlMode::Explain).unwrap().plan.unwrap();
    let remote_plan = client.sql(stmt, SqlMode::Explain).unwrap().plan.unwrap();
    assert_eq!(remote_plan, local_plan);
    assert!(local_plan.contains("NestedLoopJoin"), "{local_plan}");
    assert!(local_plan.contains("Project"), "{local_plan}");

    // EXPLAIN ANALYZE carries per-node plans and observed rows/time.
    let analyzed = client.sql(stmt, SqlMode::ExplainAnalyze).unwrap();
    let plan = analyzed.plan.unwrap();
    assert!(plan.contains("method="), "{plan}");
    assert!(plan.contains("rows"), "{plan}");
    assert!(plan.contains("time:"), "{plan}");

    // Bad SQL surfaces as a structured error, not a dropped session.
    let err = client.sql("SELECT * FROM nope WHERE x <= 1 EXIST", SqlMode::Execute);
    assert!(err.is_err());
    client.ping().unwrap();

    client.shutdown().unwrap();
    server_thread.join().unwrap();
}

// ------------------------------------------------------------ batches
//
// Operators exchange batches of rows (DESIGN §9). What a statement answers
// must not depend on where a batch ends.

/// Rows an index scan fetches regions for at a time — `physical.rs`'s
/// private `REGION_CHUNK`, mirrored. It appears below in upper bounds
/// only, which a larger chunk keeps true.
const CHUNK: usize = 256;

/// A half-plane every tuple of `random_boxes` meets.
const EVERYTHING: &str = "y >= -1000";

/// The ids of a single-relation result, in the order the rows came.
fn single_ids(outcome: &SqlOutcome) -> Vec<u32> {
    outcome.rows.iter().map(|r| r.ids[0]).collect()
}

/// SQL ≡ typed ≡ the LP oracle when the answer spans several batches, and
/// when it is empty; rows arrive in ascending id order.
#[test]
fn answers_larger_than_a_chunk_and_empty_answers_match_typed_and_oracle() {
    let db = single_relation_db(2, 900, 0xB1);
    let tuples = db.scan_relation("r").unwrap();
    for (coeffs, rhs, least) in [
        ([0.0, 1.0], -1000.0, 900), // everything: four chunks
        ([-0.3, 1.0], 0.0, CHUNK),  // about half
        ([0.5, 1.0], 1000.0, 0),    // nothing
    ] {
        for (kind, op) in [
            (SelectionKind::Exist, RelOp::Ge),
            (SelectionKind::All, RelOp::Ge),
            (SelectionKind::Exist, RelOp::Le),
        ] {
            let c = LinearConstraint::new(coeffs.to_vec(), -rhs, op);
            let hp = HalfPlane::from_constraint(&c).unwrap();
            let oracle: Vec<u32> = predicates::oracle_select(
                &hp,
                kind == SelectionKind::All,
                tuples.iter().map(|(_, t)| t),
            )
            .into_iter()
            .map(|i| tuples[i].0)
            .collect();
            let stmt = format!(
                "SELECT * FROM r WHERE {} {}",
                sql_comparison(&coeffs, rhs, op),
                kind_word(kind)
            );
            if op == RelOp::Ge && kind == SelectionKind::Exist {
                assert!(oracle.len() >= least, "{stmt}: bed too thin");
                assert!(least > 0 || oracle.is_empty(), "{stmt}: bed not empty");
            }
            let sel = Selection {
                kind,
                halfplane: hp,
            };
            let typed = db.query_with("r", sel, Strategy::Auto).unwrap();
            assert_eq!(typed.ids(), oracle.as_slice(), "typed vs oracle: {stmt}");
            let got = db.sql(&stmt, SqlMode::Execute).unwrap();
            assert_eq!(single_ids(&got), oracle, "sql vs oracle: {stmt}");
            assert!(got.rows.iter().all(|r| r.region.is_none()), "{stmt}");
        }
    }
}

/// `LIMIT` 0, inside a chunk, exactly on a chunk boundary, one past it and
/// beyond the result keeps the lowest ids — over a bare scan (one batch),
/// a filtered one and a projected one (chunked).
#[test]
fn limit_keeps_the_lowest_ids_wherever_it_cuts() {
    let db = single_relation_db(2, 700, 0xB2);
    for (select, tail) in [("*", ""), ("*", " AND x >= -1000"), ("x", "")] {
        for n in [0, 7, CHUNK, CHUNK + 1, 2 * CHUNK, 699, 700, 5000] {
            let stmt = format!("SELECT {select} FROM r WHERE {EVERYTHING}{tail} EXIST LIMIT {n}");
            let got = db.sql(&stmt, SqlMode::Execute).unwrap();
            let want: Vec<u32> = (0..n.min(700) as u32).collect();
            assert_eq!(single_ids(&got), want, "{stmt}");
            assert_eq!(
                got.rows.iter().filter(|r| r.region.is_some()).count(),
                if select == "x" { want.len() } else { 0 },
                "{stmt}"
            );
        }
    }
}

/// The heap reads region fetches add to a statement's scan.
fn region_reads(stmt: &str, sel: &Selection) -> (u64, u64) {
    // Fresh beds: the planner's feedback catalog must not differ.
    let scan = single_relation_db(2, 700, 0xB3)
        .query_with("r", sel.clone(), Strategy::Auto)
        .unwrap();
    let got = single_relation_db(2, 700, 0xB3)
        .sql(stmt, SqlMode::Execute)
        .unwrap();
    assert_eq!(got.stats.index_io, scan.stats.index_io, "{stmt}");
    (
        got.stats.heap_io.reads - scan.stats.heap_io.reads,
        scan.len() as u64,
    )
}

/// A filter over an index scan pays one heap read per distinct page of
/// each chunk of the scan's output — not one per row, which is what the
/// row-at-a-time pipeline charged — and an early `LIMIT` stops the
/// fetches with the chunk that holds its last row.
#[test]
fn region_fetches_are_charged_per_page_and_stop_at_the_limit() {
    let sel = Selection::exist(HalfPlane::above(0.0, -1000.0));
    let heap_pages = single_relation_db(2, 700, 0xB3)
        .relation("r")
        .unwrap()
        .heap_pages();
    let (reads, rows) = region_reads(
        &format!("SELECT * FROM r WHERE {EVERYTHING} AND x >= -1000 EXIST"),
        &sel,
    );
    assert_eq!(rows, 700);
    assert!(reads <= rows, "never more than the per-row charge: {reads}");
    let chunks = rows.div_ceil(CHUNK as u64);
    assert!(
        reads >= heap_pages && reads <= heap_pages + chunks,
        "{reads} region reads over {heap_pages} heap pages in {chunks} chunks: \
         ascending ids walk the heap once, a page is read twice only where a chunk ends"
    );
    let (limited, _) = region_reads(
        &format!("SELECT * FROM r WHERE {EVERYTHING} AND x >= -1000 EXIST LIMIT 7"),
        &sel,
    );
    assert!(
        limited > 0 && limited <= reads * CHUNK as u64 / rows + 1,
        "{limited} region reads for LIMIT 7 against {reads} for all {rows} rows"
    );
}

/// Filter, Project and Join over inputs of several batches, and a join
/// whose buffered inner side arrives in several batches: the same rows as
/// the oracle, ids row-major in `SqlRow.ids`, outer-then-inner order.
#[test]
fn filter_project_and_join_span_batches() {
    let mut db = single_relation_db(2, 600, 0xB4);
    db.create_relation("s", 2).unwrap();
    for t in random_boxes(2, 6, 0xB5) {
        db.insert("s", t).unwrap();
    }
    let rt = db.scan_relation("r").unwrap();
    let st = db.scan_relation("s").unwrap();

    // Filter: a vertical conjunct no index serves, over three chunks.
    let got = db
        .sql(
            &format!("SELECT * FROM r WHERE {EVERYTHING} AND x >= 0 EXIST"),
            SqlMode::Execute,
        )
        .unwrap();
    let x_reaches_zero = |t: &GeneralizedTuple| {
        let mut sys = t.constraints().to_vec();
        sys.push(LinearConstraint::new(vec![1.0, 0.0], 0.0, RelOp::Ge));
        GeneralizedTuple::new(sys).is_satisfiable()
    };
    let want: Vec<u32> = (rt.iter())
        .filter(|(_, t)| x_reaches_zero(t))
        .map(|(id, _)| *id)
        .collect();
    assert!(want.len() > CHUNK && want.len() < 600, "{}", want.len());
    assert_eq!(single_ids(&got), want);

    // Project: every row keeps its id and gets its own shadow.
    let got = db
        .sql(
            &format!("SELECT x FROM r WHERE {EVERYTHING} EXIST"),
            SqlMode::Execute,
        )
        .unwrap();
    assert_eq!(single_ids(&got), (0..600).collect::<Vec<u32>>());
    for (row, (_, t)) in got.rows.iter().zip(&rt) {
        let shadow = row.region.as_ref().expect("projected");
        let bounds = |c: &[f64]| match (t.minimize(c), t.maximize(c)) {
            (
                constraint_db::geometry::simplex::LpResult::Optimal { value: lo, .. },
                constraint_db::geometry::simplex::LpResult::Optimal { value: hi, .. },
            ) => (lo, hi),
            other => panic!("boxes are bounded: {other:?}"),
        };
        let (lo, hi) = bounds(&[1.0, 0.0]);
        assert!(shadow.contains(&[(lo + hi) / 2.0]), "row {:?}", row.ids);
        assert!(!shadow.contains(&[lo - 1.0]) && !shadow.contains(&[hi + 1.0]));
    }

    // Join, both ways round: a multi-batch outer, then a multi-batch inner.
    let joint = |a: &GeneralizedTuple, b: &GeneralizedTuple| {
        let mut sys = a.constraints().to_vec();
        sys.extend(b.constraints().iter().cloned());
        GeneralizedTuple::new(sys).is_satisfiable()
    };
    for (from, outer, inner) in [("r JOIN s", &rt, &st), ("s JOIN r", &st, &rt)] {
        let got = db
            .sql(
                &format!("SELECT * FROM {from} WHERE {EVERYTHING} EXIST"),
                SqlMode::Execute,
            )
            .unwrap();
        let mut want = Vec::new();
        for (oid, o) in outer {
            for (iid, i) in inner {
                if joint(o, i) {
                    want.push(vec![*oid, *iid]);
                }
            }
        }
        assert!(!want.is_empty(), "{from}: boxes should overlap");
        let rows: Vec<Vec<u32>> = got.rows.iter().map(|r| r.ids.clone()).collect();
        assert_eq!(rows, want, "{from}");
    }
}

/// What `EXPLAIN ANALYZE` counts, line by line, for the four plan shapes —
/// recorded from the row-at-a-time pipeline this one replaced. Only two
/// things may differ, both on purpose: the heap pages a scan is charged
/// for regions (per distinct page of a chunk, was per row), and, below a
/// `LIMIT` that cuts inside the result, counts that now advance a batch
/// at a time.
#[test]
fn explain_analyze_counts_match_the_row_at_a_time_pipeline() {
    fn counts(stmt: &str) -> Vec<String> {
        let mut db = single_relation_db(2, 600, 0xA7);
        db.create_relation("s", 2).unwrap();
        for t in random_boxes(2, 12, 0xA8) {
            db.insert("s", t).unwrap();
        }
        let outcome = db.sql(stmt, SqlMode::ExplainAnalyze).unwrap();
        assert!(outcome.rows.is_empty(), "ANALYZE returns the plan only");
        let plan = outcome.plan.unwrap();
        assert!(plan.contains("time: "), "{plan}");
        plan.lines()
            .filter(|l| l.contains("rows"))
            .map(|l| l.trim_start_matches(['│', ' ']).to_string())
            .collect()
    }
    // Was `9 index + 67 heap = 76 pages`: the key columns decide every
    // candidate, so the scan fetches none. Was `(0 duplicates, 77 false
    // hits)` before the keys' rejections got their own counter. Each index
    // count here, a T2 scan's, was 2 more while a sweep read its start
    // leaf twice.
    let scan = "actual:   7 index + 0 heap = 7 pages, 435 candidates (0 duplicates, 0 false hits, 77 rejected by key)";
    assert_eq!(
        counts("SELECT * FROM r WHERE y >= 0.3*x - 5 EXIST"),
        [format!("{scan}, 358 rows")],
        "one node"
    );
    assert_eq!(
        counts("SELECT * FROM r WHERE y >= 0.3*x - 5 EXIST LIMIT 100000"),
        ["rows: 358".to_string(), format!("{scan}, 358 rows")],
        "LIMIT beyond the result"
    );
    // Was `9 index + 425 heap = 434 pages`: 67 for the scan, 358 for rows;
    // then `9 index + 134 heap = 143 pages` (67 for the scan, 67 for the
    // regions' chunks). The keys decide the scan now: 67, the regions'.
    assert_eq!(
        counts("SELECT * FROM r WHERE y >= 0.3*x - 5 AND x >= 0 EXIST"),
        [
            "rows: 358 in, 158 out",
            "actual:   7 index + 67 heap = 74 pages, 435 candidates (0 duplicates, 0 false hits, 77 rejected by key), 358 rows",
        ],
        "Filter over IndexScan"
    );
    // Was `8 index + 272 heap = 280 pages` on the inner scan, then
    // `8 index + 134 heap = 142 pages` before its keys decided it. The
    // planned scan of `s` refines like every other method: the 11 tuples
    // it rejects are false hits. The 128 of `r` were false hits too before
    // the keys' rejections got their own counter.
    assert_eq!(
        counts("SELECT * FROM s JOIN r WHERE y >= 0.3*x + 20 EXIST"),
        [
            "rows: 3 in, 3 out",
            "pairs tested: 205, rows out: 3",
            "actual:   0 index + 3 heap = 3 pages, 12 candidates (0 duplicates, 11 false hits, 0 rejected by key), 1 rows",
            "actual:   6 index + 67 heap = 73 pages, 333 candidates (0 duplicates, 0 false hits, 128 rejected by key), 205 rows",
        ],
        "Join"
    );
    // The scan hands over its one batch: was `…, 5 rows`.
    assert_eq!(
        counts("SELECT * FROM r WHERE y >= 0.3*x - 5 EXIST LIMIT 5"),
        ["rows: 5".to_string(), format!("{scan}, 358 rows")],
        "LIMIT inside the result"
    );
}
