//! Constraint-SQL: a small declarative language over constraint relations.
//!
//! ```text
//! SELECT <vars|*> FROM <rel> [JOIN <rel> ...]
//!     [WHERE <comparison> ((AND|&&) <comparison>)* [EXIST|ALL]] [LIMIT n] [;]
//! ```
//!
//! The language is deliberately tiny and dependency-free: this module reads
//! its keywords, projection, relations and `LIMIT` off the token cursor of
//! [`cdb_geometry::parse`], and every `WHERE` conjunct is that grammar's one
//! [`Comparison`] — the same reader stored tuples and the shell use, so
//! variables (`x`, `y`, `z`, `w`, `xK`), numbers, signs and operators mean
//! the same in all three — producing a typed AST ([`SqlQuery`]) with
//! byte-span error reporting ([`SqlError`]). Semantics follow the
//! geometric query-language tradition (Giusti–Heintz–Kuijpers): a `JOIN`
//! is the conjunction of constraint tuples over a shared variable space,
//! and a projection (`SELECT x, z`) is existential variable elimination.
//! `EXIST` (the default) keeps rows whose region intersects the `WHERE`
//! region; `ALL` keeps rows whose region is contained in it.
//!
//! This module is the *frontend* only: lowering to a logical plan lives in
//! [`crate::logical`], the batch-at-a-time operators in [`crate::physical`], and
//! the entry points on `ConstraintDb`/`Snapshot` in [`crate::db`].

pub use cdb_geometry::parse::{var_name, ParseError as SqlError, Span};
use cdb_geometry::parse::{Comparison, Tok, Token, Tokens};
use cdb_geometry::tuple::GeneralizedTuple;

use crate::query::{QueryStats, SelectionKind};

// -------------------------------------------------------------------- AST

/// What the query projects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Projection {
    /// `SELECT *`: rows are tuple ids (no region computation).
    Star,
    /// `SELECT x, z`: project onto the named coordinates, in order.
    Vars(Vec<(usize, Span)>),
}

/// A parsed constraint-SQL query.
#[derive(Clone, Debug, PartialEq)]
pub struct SqlQuery {
    /// `*` or an ordered variable list.
    pub projection: Projection,
    /// `FROM`/`JOIN` relations, in syntactic order.
    pub relations: Vec<(String, Span)>,
    /// `WHERE` conjuncts (empty when the clause is absent).
    pub constraints: Vec<Comparison>,
    /// `EXIST` (default) or `ALL`.
    pub kind: SelectionKind,
    /// `LIMIT n`, when present.
    pub limit: Option<u64>,
}

// ---------------------------------------------------------------- results

/// How a SQL text should be processed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SqlMode {
    /// Parse, plan, execute; return rows.
    Execute,
    /// Parse and plan only; return the rendered operator tree.
    Explain,
    /// Execute, then return the tree annotated with per-node actuals.
    ExplainAnalyze,
}

cdb_storage::wire_enum!(SqlMode { 0 => Execute, 1 => Explain, 2 => ExplainAnalyze });

/// One result row: the matched tuple id per `FROM` relation, plus the
/// projected region when the query projects variables.
#[derive(Clone, Debug, PartialEq)]
pub struct SqlRow {
    /// Tuple ids, one per relation in `FROM`/`JOIN` order.
    pub ids: Vec<u32>,
    /// The projected region (present iff the query is not `SELECT *`).
    pub region: Option<GeneralizedTuple>,
}

cdb_storage::wire_struct!(SqlRow { ids, region as crate::wire::opt_tuple });

/// The result of running (or explaining) a SQL query.
#[derive(Clone, Debug, PartialEq)]
pub struct SqlOutcome {
    /// Column headers: one id column per relation, then the region column
    /// when projecting.
    pub columns: Vec<String>,
    /// Result rows (empty under `Explain`/`ExplainAnalyze`).
    pub rows: Vec<SqlRow>,
    /// Rendered operator tree (present under `Explain`/`ExplainAnalyze`).
    pub plan: Option<String>,
    /// Aggregated I/O and candidate accounting across all scan nodes.
    pub stats: QueryStats,
}

cdb_storage::wire_struct!(SqlOutcome {
    columns,
    rows,
    plan,
    stats
});

// ----------------------------------------------------------------- parser

/// `true` when `t` is the keyword `kw` (case-insensitive).
fn is_kw(t: &Token, kw: &str) -> bool {
    matches!(&t.tok, Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
}

/// Consumes the next token if it is the keyword `kw`.
fn eat_kw(t: &mut Tokens, kw: &str) -> bool {
    let hit = is_kw(t.peek(), kw);
    if hit {
        t.bump();
    }
    hit
}

fn expect_kw(t: &mut Tokens, kw: &str) -> Result<(), SqlError> {
    if eat_kw(t, kw) {
        return Ok(());
    }
    let msg = format!("expected {}", kw.to_ascii_uppercase());
    Err(SqlError::new(msg, t.peek().span))
}

fn relation(t: &mut Tokens) -> Result<(String, Span), SqlError> {
    match t.bump() {
        Token {
            tok: Tok::Ident(s),
            span,
        } => Ok((s, span)),
        other => Err(SqlError::new("expected a relation name", other.span)),
    }
}

// select := SELECT ('*' | var (',' var)*)
fn projection(t: &mut Tokens) -> Result<Projection, SqlError> {
    if t.peek().tok == Tok::Punct('*') {
        t.bump();
        return Ok(Projection::Star);
    }
    let mut vars: Vec<(usize, Span)> = Vec::new();
    loop {
        let (idx, span) = t.variable()?;
        if vars.iter().any(|(v, _)| *v == idx) {
            let msg = format!("variable '{}' selected twice", var_name(idx));
            return Err(SqlError::new(msg, span));
        }
        vars.push((idx, span));
        if t.peek().tok != Tok::Punct(',') {
            return Ok(Projection::Vars(vars));
        }
        t.bump();
    }
}

/// Parses one constraint-SQL statement.
///
/// # Errors
/// [`SqlError`] with the byte span of the offending text.
pub fn parse(text: &str) -> Result<SqlQuery, SqlError> {
    let mut t = Tokens::new(text)?;
    expect_kw(&mut t, "select")?;
    let projection = projection(&mut t)?;
    expect_kw(&mut t, "from")?;
    let mut relations = vec![relation(&mut t)?];
    while eat_kw(&mut t, "join") {
        relations.push(relation(&mut t)?);
    }
    let mut constraints = Vec::new();
    let mut kind = SelectionKind::Exist;
    if eat_kw(&mut t, "where") {
        constraints.push(t.comparison()?);
        while t.peek().tok == Tok::AndAnd || is_kw(t.peek(), "and") {
            t.bump();
            constraints.push(t.comparison()?);
        }
        if eat_kw(&mut t, "all") {
            kind = SelectionKind::All;
        } else {
            eat_kw(&mut t, "exist");
        }
    }
    let mut limit = None;
    if eat_kw(&mut t, "limit") {
        let n = t.bump();
        match n.tok {
            Tok::Number(v) if v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 => {
                limit = Some(v as u64);
            }
            _ => return Err(SqlError::new("LIMIT takes a non-negative integer", n.span)),
        }
    }
    if t.peek().tok == Tok::Punct(';') {
        t.bump();
    }
    t.finish()?;
    Ok(SqlQuery {
        projection,
        relations,
        constraints,
        kind,
        limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_geometry::parse::parse_tuple;
    use cdb_geometry::{HalfPlane, LinearConstraint, RelOp};
    use cdb_prng::StdRng;

    #[test]
    fn minimal_select_star() {
        let q = parse("SELECT * FROM parcels").unwrap();
        assert_eq!(q.projection, Projection::Star);
        assert_eq!(q.relations[0].0, "parcels");
        assert!(q.constraints.is_empty());
        assert_eq!(q.kind, SelectionKind::Exist);
        assert_eq!(q.limit, None);
    }

    #[test]
    fn full_query_parses() {
        let q =
            parse("select x, z from r join s where y >= 0.3x - 5 && z <= 2 all limit 10;").unwrap();
        match &q.projection {
            Projection::Vars(v) => {
                assert_eq!(v.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 2]);
            }
            Projection::Star => panic!("expected projection"),
        }
        assert_eq!(q.relations.len(), 2);
        assert_eq!(q.constraints.len(), 2);
        assert_eq!(q.kind, SelectionKind::All);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn constraint_normalizes_sides() {
        // y >= 0.3x - 5  →  -0.3x + y + 5 >= 0.
        let q = parse("SELECT * FROM r WHERE y >= 0.3x - 5").unwrap();
        let c = &q.constraints[0];
        assert_eq!((c.op, c.eq), (RelOp::Ge, false));
        assert!((c.coeffs[0] - -0.3).abs() < 1e-12);
        assert!((c.coeffs[1] - 1.0).abs() < 1e-12);
        assert!((c.constant - 5.0).abs() < 1e-12);
        let lowered = c.lower(2).unwrap();
        assert_eq!(lowered.len(), 1);
        assert_eq!(lowered[0].op, RelOp::Ge);
        assert!((lowered[0].constant - 5.0).abs() < 1e-12);
    }

    #[test]
    fn equality_lowers_to_pair() {
        let q = parse("SELECT * FROM r WHERE x = 3").unwrap();
        assert_eq!(q.constraints[0].lower(2).unwrap().len(), 2);
    }

    #[test]
    fn and_keyword_and_ampersands_both_conjoin() {
        let a = parse("SELECT * FROM r WHERE x <= 1 AND y <= 2").unwrap();
        let b = parse("SELECT * FROM r WHERE x <= 1 && y <= 2").unwrap();
        assert_eq!(a.constraints.len(), 2);
        // Spans differ ("AND" is wider than "&&"); the semantics must not.
        for (ca, cb) in a.constraints.iter().zip(&b.constraints) {
            assert_eq!(ca.coeffs, cb.coeffs);
            assert_eq!(ca.constant, cb.constant);
            assert_eq!((ca.op, ca.eq), (cb.op, cb.eq));
        }
    }

    #[test]
    fn spans_point_at_errors() {
        let e = parse("SELECT * FROM r WHERE q >= 1").unwrap_err();
        assert_eq!(
            &"SELECT * FROM r WHERE q >= 1"[e.span.start..e.span.end],
            "q"
        );
        let e = parse("SELECT * FROM").unwrap_err();
        assert_eq!(e.span.start, "SELECT * FROM".len());
        let e = parse("SELECT * FROM r LIMIT -3").unwrap_err();
        assert!(e.message.contains("LIMIT"));
    }

    #[test]
    fn rejects_out_of_range_numbers() {
        assert!(parse("SELECT * FROM r WHERE x <= 1e999").is_err());
    }

    #[test]
    fn lower_rejects_out_of_dim_vars() {
        let q = parse("SELECT * FROM r WHERE z >= 1").unwrap();
        assert!(q.constraints[0].lower(2).is_err());
        assert!(q.constraints[0].lower(3).is_ok());
    }

    #[test]
    fn keywords_are_case_insensitive_and_vars_resolve() {
        let q = parse("sElEcT x4 FrOm r WhErE x2 <= 1 eXiSt").unwrap();
        assert_eq!(
            q.projection,
            Projection::Vars(vec![(3, Span { start: 7, end: 9 })])
        );
        assert_eq!(q.constraints[0].coeffs.len(), 2);
    }

    /// An `xK` with a huge `K` is an unknown variable, decided before
    /// anything is sized from `K`: `x18446744073709551615` used to overflow
    /// a `Vec`'s capacity in tuple text and `x4000000000` asked for 32 GB.
    #[test]
    fn a_huge_variable_index_is_an_error_not_an_allocation() {
        for var in ["x18446744073709551615", "x4000000000", "x65"] {
            let text = format!("{var} >= 1");
            let (tuple, peak) = cdb_storage::conformance::peak_during(|| parse_tuple(&text));
            assert!(tuple.is_err(), "{text}");
            assert!(peak < 4096, "{text}: allocated {peak} bytes at once");
            let stmt = format!("SELECT * FROM r WHERE {text}");
            let (sql, peak) = cdb_storage::conformance::peak_during(|| parse(&stmt));
            assert!(sql.is_err(), "{stmt}");
            assert!(peak < 4096, "{stmt}: allocated {peak} bytes at once");
        }
    }

    /// One grammar, one verdict: tuple text and the same text after
    /// `WHERE` agree on Ok/Err and lower to equal constraints at the
    /// tuple's dimension — over the near-miss alphabet of the tuple
    /// parser's fuzz test and over `Display` of random tuples and
    /// half-planes.
    #[test]
    fn tuple_text_and_where_agree() {
        fn agree(text: &str) {
            let tuple = parse_tuple(text);
            let sql = parse(&format!("SELECT * FROM r WHERE {text}"));
            match (tuple, sql) {
                (Ok(t), Ok(q)) => {
                    let mut lowered = Vec::new();
                    for c in &q.constraints {
                        lowered.extend(c.lower(t.dim()).unwrap());
                    }
                    assert_eq!(t.constraints(), lowered.as_slice(), "{text:?}");
                }
                (Err(_), Err(_)) => {}
                (t, q) => panic!("{text:?}: tuple {:?}, sql {:?}", t.is_ok(), q.is_ok()),
            }
        }
        const ALPHABET: &[u8] = b"xyzw0123456789 .*+<>=&-";
        let mut rng = StdRng::seed_from_u64(500);
        for _ in 0..4000 {
            let len = rng.gen_range(0..=40usize);
            let text: String = (0..len)
                .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
                .collect();
            agree(&text);
        }
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for round in 0..64 {
            let dim = 1 + round % 6;
            let rows = (0..rng.gen_range(1..5usize)).map(|_| {
                let coeffs = (0..dim).map(|_| rng.gen_range(-9.0..9.0f64)).collect();
                let op = if rng.gen_bool(0.5) {
                    RelOp::Ge
                } else {
                    RelOp::Le
                };
                LinearConstraint::new(coeffs, rng.gen_range(-99.0..99.0f64), op)
            });
            agree(&GeneralizedTuple::new(rows.collect()).to_string());
            let slope = (0..dim - 1).map(|_| rng.gen_range(-9.0..9.0f64)).collect();
            let op = if rng.gen_bool(0.5) {
                RelOp::Ge
            } else {
                RelOp::Le
            };
            agree(&HalfPlane::new(slope, rng.gen_range(-99.0..99.0f64), op).to_string());
        }
        agree("1*x + -0 >= 0");
        agree("y >= 1e-3x && x == 2");
    }
}
