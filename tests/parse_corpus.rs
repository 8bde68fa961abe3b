//! The bit-identity corpus of the constraint grammar, recorded before the
//! tuple and SQL parsers became one: for every input below, what
//! `parse_tuple`, `parse_constraint` or `sql::parse` (each conjunct lowered
//! at dimensions 1–4) made of it — coefficients, constant and operator
//! printed with `{:?}`, the shortest text that reads back to the same
//! `f64`, sign of zero included — or that it was refused.
//! `tests/golden/parse_corpus.txt` is that recording; this test renders
//! the same lines with the merged grammar and compares them digit for
//! digit.

use cdb_prng::StdRng;
use constraint_db::index::sql;
use constraint_db::prelude::*;

/// Tuple text: `parse.rs`'s unit-test inputs, the shell's smoke tuples.
const TUPLES: &[&str] = &[
    "y >= 2x + 1",
    "x >= 0 && x <= 1 && y >= 0 && y <= 1",
    "2.5*x - 0.5 * y <= 3.25",
    "x - y >= -2 + 2y",
    "y = x",
    "y == x",
    "y > x && y < x + 5",
    "x1 + x2 + x3 <= 1 && x3 >= 0",
    "w >= z",
    "--x >= 1",
    "x + x >= 2",
    "x = 1",
    "x >= 1 && y >= 1",
    "",
    "x + y",
    "x >= ",
    "q >= 1",
    "2* >= 1",
    "x0 >= 1",
    "x >= 1 && ",
    "x >= #",
    "x >= 1 && y >= $",
    "y >= 0 && y <= 2 && x >= 0 && x + y <= 4",
    "y >= x && y <= x + 1 && x >= 10",
    "y >= -1 && y <= 1 && x >= -3 && x <= -1",
    "y >= 0 && y <= 1 && x >= 0 && x <= 1",
    "y = 0.5x + 2 && x >= 0 && x <= 10",
    "y >= 0.3x - 5",
    "y >= -1000000",
];

/// `WHERE` clauses: `sql.rs`'s unit tests, `tests/sql_equivalence.rs`
/// and `ci.sh`'s `sql_smoke`.
const SQL: &[&str] = &[
    "SELECT * FROM parcels",
    "select x, z from r join s where y >= 0.3x - 5 && z <= 2 all limit 10;",
    "SELECT * FROM r WHERE y >= 0.3x - 5",
    "SELECT * FROM r WHERE x = 3",
    "SELECT * FROM r WHERE x <= 1 AND y <= 2",
    "SELECT * FROM r WHERE x <= 1 && y <= 2",
    "SELECT * FROM r WHERE q >= 1",
    "SELECT * FROM",
    "SELECT * FROM r LIMIT -3",
    "SELECT * FROM r WHERE x <= 1e999",
    "SELECT * FROM r WHERE z >= 1",
    "sElEcT x4 FrOm r WhErE x2 <= 1 eXiSt",
    "SELECT x FROM r WHERE y >= -100 EXIST",
    "SELECT * FROM r WHERE y >= -100 EXIST LIMIT 7",
    "SELECT * FROM r WHERE y >= 10 AND y <= 0 EXIST",
    "SELECT * FROM r WHERE y >= 0.3x - 5 EXIST",
    "SELECT x, y FROM r JOIN s WHERE 2x + 3y <= 10 AND x >= 0 ALL LIMIT 5",
    "select x2 from rel where 1.5e2*x1 - x2 = 7;",
    "SELECT w FROM t WHERE x + y + z + w >= -1e-3 EXIST",
    "SELECT x, y FROM r JOIN s WHERE y >= 0.25x - 2 EXIST",
    "SELECT * FROM nope WHERE x <= 1 EXIST",
    "SELECT * FROM r WHERE y >= -1000 EXIST LIMIT 7",
    "SELECT * FROM r WHERE y >= -1000 AND x >= -1000 EXIST LIMIT 7",
    "SELECT * FROM r WHERE y >= -1000 AND x >= 0 EXIST",
    "SELECT x FROM r WHERE y >= -1000 EXIST",
    "SELECT * FROM s JOIN r WHERE y >= -1000 EXIST",
    "SELECT * FROM r WHERE y >= 0.3*x - 5 EXIST",
    "SELECT * FROM r WHERE y >= 0.3*x - 5 EXIST LIMIT 100000",
    "SELECT * FROM r WHERE y >= 0.3*x - 5 AND x >= 0 EXIST",
    "SELECT * FROM s JOIN r WHERE y >= 0.3*x + 20 EXIST",
    "SELECT * FROM r WHERE y >= 0.3*x - 5 EXIST LIMIT 5",
    "SELECT * FROM parcels WHERE y >= 0.3x - 5 EXIST",
    "SELECT * FROM parcels WHERE y <= 2 ALL",
    "SELECT x FROM parcels JOIN lots WHERE y <= 0.5 EXIST LIMIT 10",
    "SELECT * FROM parcels WHERE y >= 0.3x - 5 AND x >= 0 EXIST",
];

fn render(cs: &[LinearConstraint]) -> String {
    let parts: Vec<String> = cs
        .iter()
        .map(|c| format!("{:?} {:?} {:?}", c.coeffs, c.constant, c.op))
        .collect();
    parts.join(" & ")
}

fn tuple_line(text: &str) -> String {
    match parse_tuple(text) {
        Ok(t) => format!("tuple {text:?} => {}", render(t.constraints())),
        Err(_) => format!("tuple {text:?} => err"),
    }
}

fn sql_lines(text: &str, out: &mut Vec<String>) {
    let q = match sql::parse(text) {
        Ok(q) => q,
        Err(_) => return out.push(format!("sql {text:?} => err")),
    };
    out.push(format!(
        "sql {text:?} => {} conjunct(s)",
        q.constraints.len()
    ));
    for (i, c) in q.constraints.iter().enumerate() {
        for dim in 1..=4 {
            let lowered = c.lower(dim).map_or_else(|_| "err".into(), |cs| render(&cs));
            out.push(format!("  #{i} @{dim} => {lowered}"));
        }
    }
}

/// `randomized_geometry`'s bounded tuple: a box plus random cuts.
fn random_tuple(rng: &mut StdRng, dim: usize) -> GeneralizedTuple {
    let mut cs = Vec::new();
    for axis in 0..dim {
        let lo = rng.gen_range(-30.0..30.0f64);
        let w = rng.gen_range(0.5..20.0f64);
        let mut a = vec![0.0; dim];
        a[axis] = 1.0;
        cs.push(LinearConstraint::new(a.clone(), -lo, RelOp::Ge));
        cs.push(LinearConstraint::new(a, -(lo + w), RelOp::Le));
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let coef: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0f64)).collect();
        let c = rng.gen_range(-50.0..50.0f64);
        if coef.iter().any(|x| x.abs() > 0.05) {
            cs.push(LinearConstraint::new(coef, c, RelOp::Le));
        }
    }
    GeneralizedTuple::new(cs)
}

/// `sql_equivalence`'s comparison text: `coeffs·vars (op) rhs`.
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
    let cmp = if op == RelOp::Le { "<=" } else { ">=" };
    format!("{lhs} {cmp} {rhs}")
}

/// The benchmark's `sql_of`: `y θ a·x + b` as `1*y ∓ |a|*x θ b`.
fn sql_of(sel: &Selection) -> String {
    let hp = &sel.halfplane;
    let cmp = if hp.op == RelOp::Ge { ">=" } else { "<=" };
    let kind = if sel.kind == SelectionKind::All {
        "ALL"
    } else {
        "EXIST"
    };
    let a = hp.slope2d();
    let lhs = if a < 0.0 {
        format!("1*y + {}*x", -a)
    } else {
        format!("1*y - {a}*x")
    };
    format!("SELECT * FROM r WHERE {lhs} {cmp} {} {kind}", hp.intercept)
}

fn corpus() -> Vec<String> {
    let mut out: Vec<String> = TUPLES.iter().map(|t| tuple_line(t)).collect();
    for text in ["y >= 2x + 1", "x = 1", "x >= 1 && y >= 1", "y >= 0.3x - 5"] {
        out.push(match parse_constraint(text) {
            Ok(c) => format!("constraint {text:?} => {}", render(&[c])),
            Err(_) => format!("constraint {text:?} => err"),
        });
    }
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let shown = random_tuple(&mut rng, 2 + seed as usize % 3).to_string();
        out.push(tuple_line(&shown));
    }
    let mut rng = StdRng::seed_from_u64(0xC0_2505);
    for _ in 0..16 {
        let slope = (0..rng.gen_range(1..3usize))
            .map(|_| rng.gen_range(-4.0..4.0f64))
            .collect();
        let op = if rng.gen_bool(0.5) {
            RelOp::Ge
        } else {
            RelOp::Le
        };
        let hp = HalfPlane::new(slope, rng.gen_range(-500.0..500.0f64), op);
        out.push(tuple_line(&hp.to_string()));
    }
    for text in SQL {
        sql_lines(text, &mut out);
    }
    let mut rng = StdRng::seed_from_u64(0xC1);
    for round in 0..24 {
        let dim = 2 + round % 2;
        let coeffs: Vec<f64> = (0..dim)
            .map(|_| (rng.gen_range(-20i64..21) as f64) / 10.0)
            .collect();
        if coeffs.iter().all(|c| *c == 0.0) {
            continue;
        }
        let rhs = (rng.gen_range(-400i64..401) as f64) / 10.0;
        let op = if rng.gen_bool(0.5) {
            RelOp::Le
        } else {
            RelOp::Ge
        };
        let where_ = sql_comparison(&coeffs, rhs, op);
        sql_lines(&format!("SELECT * FROM r WHERE {where_} EXIST"), &mut out);
    }
    let slopes = SlopeSet::uniform_tan(4);
    let mut rng = StdRng::seed_from_u64(0x5E1);
    for i in 0..32 {
        let a = if i % 2 == 0 {
            slopes.as_slice()[rng.gen_range(0..4usize)]
        } else {
            rng.gen_range(-3.0..3.0f64)
        };
        let op = if rng.gen_bool(0.5) {
            RelOp::Ge
        } else {
            RelOp::Le
        };
        let hp = HalfPlane::new2d(a, rng.gen_range(-2000.0..2000.0f64), op);
        let sel = if rng.gen_bool(0.5) {
            Selection::all(hp)
        } else {
            Selection::exist(hp)
        };
        sql_lines(&sql_of(&sel), &mut out);
    }
    out
}

/// The one line-level difference from the recording, on purpose: a
/// `WHERE` conjunct whose two sides' constants are equal (`x >= 0`) used
/// to lower to the constant `-0.0`, the SQL parser's `-(rhs - lhs)`; the
/// one grammar computes `lhs - rhs` for SQL as tuple text always did,
/// which is `0.0`. Every other digit is as recorded.
fn expected(recorded: &str) -> String {
    if recorded.starts_with("  #") {
        recorded.replace("] -0.0 ", "] 0.0 ")
    } else {
        recorded.to_string()
    }
}

#[test]
fn the_grammar_reproduces_the_recorded_corpus_digit_for_digit() {
    let recorded = include_str!("golden/parse_corpus.txt").lines();
    let want: Vec<String> = recorded.map(expected).collect();
    let got = corpus();
    assert_eq!(got.len(), want.len(), "corpus length");
    let mismatches: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("recorded {w}\n     got {g}"))
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
