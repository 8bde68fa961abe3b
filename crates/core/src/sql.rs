//! Constraint-SQL: a small declarative language over constraint relations.
//!
//! ```text
//! SELECT <vars|*> FROM <rel> [JOIN <rel> ...]
//!     [WHERE <linear constraints> [EXIST|ALL]] [LIMIT n]
//! ```
//!
//! The language is deliberately tiny and dependency-free: a hand-written
//! lexer and recursive-descent parser produce a typed AST ([`SqlQuery`])
//! with byte-span error reporting ([`SqlError`]). Semantics follow the
//! geometric query-language tradition (Giusti–Heintz–Kuijpers): a `JOIN`
//! is the conjunction of constraint tuples over a shared variable space,
//! and a projection (`SELECT x, z`) is existential variable elimination.
//! `EXIST` (the default) keeps rows whose region intersects the `WHERE`
//! region; `ALL` keeps rows whose region is contained in it.
//!
//! Variables are positional: `x`, `y`, `z`, `w` name coordinates 1–4, and
//! `xK` names coordinate `K` in any dimension (`x1` ≡ `x`). Constraints
//! are linear comparisons between two linear expressions; `=` expands to
//! the conjunction of `<=` and `>=`, and the strict forms `<`/`>` are
//! treated as their closed counterparts, exactly like the tuple syntax in
//! `cdb_geometry::parse`.
//!
//! This module is the *frontend* only: lowering to a logical plan lives in
//! [`crate::logical`], the batch-at-a-time operators in [`crate::physical`], and
//! the entry points on `ConstraintDb`/`Snapshot` in [`crate::db`].

use cdb_geometry::tuple::GeneralizedTuple;
use cdb_geometry::{LinearConstraint, RelOp};

use crate::query::{QueryStats, SelectionKind};

// ----------------------------------------------------------------- errors

/// Byte range of a token or clause inside the query text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// First byte of the offending text.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

/// A parse error with the byte span it refers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SqlError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Where in the input it went wrong.
    pub span: Span,
}

impl SqlError {
    fn new(message: impl Into<String>, span: Span) -> SqlError {
        SqlError {
            message: message.into(),
            span,
        }
    }
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sql parse error at byte {}..{}: {}",
            self.span.start, self.span.end, self.message
        )
    }
}

impl std::error::Error for SqlError {}

// -------------------------------------------------------------------- AST

/// What the query projects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Projection {
    /// `SELECT *`: rows are tuple ids (no region computation).
    Star,
    /// `SELECT x, z`: project onto the named coordinates, in order.
    Vars(Vec<(usize, Span)>),
}

/// Comparison operator of one parsed constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `<=` (or strict `<`, treated as closed).
    Le,
    /// `>=` (or strict `>`, treated as closed).
    Ge,
    /// `=`, lowered to the conjunction of `<=` and `>=`.
    Eq,
}

/// One parsed linear comparison, normalized to `coeffs · x  cmp  rhs`.
///
/// `coeffs` is as long as the highest variable index mentioned; lowering
/// pads it with zeros to the relation dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct AstConstraint {
    /// Per-variable coefficients (index = coordinate).
    pub coeffs: Vec<f64>,
    /// Right-hand-side constant.
    pub rhs: f64,
    /// The comparison.
    pub cmp: CmpOp,
    /// Byte span of the whole comparison, for error reporting.
    pub span: Span,
}

impl AstConstraint {
    /// Lowers to engine constraints over `dim` coordinates
    /// (`coeffs·x - rhs θ 0`), expanding `=` into its two inequalities.
    ///
    /// Fails when the constraint mentions a coordinate outside `dim`.
    pub fn lower(&self, dim: usize) -> Result<Vec<LinearConstraint>, SqlError> {
        if self.coeffs.len() > dim {
            return Err(SqlError::new(
                format!(
                    "constraint mentions coordinate {} but the query space is {}-dimensional",
                    var_name(self.coeffs.len() - 1),
                    dim
                ),
                self.span,
            ));
        }
        let mut coeffs = self.coeffs.clone();
        coeffs.resize(dim, 0.0);
        let c = -self.rhs;
        Ok(match self.cmp {
            CmpOp::Le => vec![LinearConstraint::new(coeffs, c, RelOp::Le)],
            CmpOp::Ge => vec![LinearConstraint::new(coeffs, c, RelOp::Ge)],
            CmpOp::Eq => LinearConstraint::equality_pair(coeffs, c).to_vec(),
        })
    }
}

/// A parsed constraint-SQL query.
#[derive(Clone, Debug, PartialEq)]
pub struct SqlQuery {
    /// `*` or an ordered variable list.
    pub projection: Projection,
    /// `FROM`/`JOIN` relations, in syntactic order.
    pub relations: Vec<(String, Span)>,
    /// `WHERE` conjuncts (empty when the clause is absent).
    pub constraints: Vec<AstConstraint>,
    /// `EXIST` (default) or `ALL`.
    pub kind: SelectionKind,
    /// `LIMIT n`, when present.
    pub limit: Option<u64>,
}

/// Renders coordinate index `i` as a variable name (`x`, `y`, `z`, `w`,
/// then `x5`, `x6`, …).
pub fn var_name(i: usize) -> String {
    match i {
        0 => "x".into(),
        1 => "y".into(),
        2 => "z".into(),
        3 => "w".into(),
        _ => format!("x{}", i + 1),
    }
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

// ------------------------------------------------------------------ lexer

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Star,
    Comma,
    Plus,
    Minus,
    Le,
    Ge,
    Lt,
    Gt,
    Eq,
    AndAnd,
    Semi,
    End,
}

#[derive(Clone, Debug)]
struct Token {
    tok: Tok,
    span: Span,
}

fn lex(text: &str) -> Result<Vec<Token>, SqlError> {
    let b = text.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let start = i;
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
                continue;
            }
            b'*' => {
                toks.push(Token {
                    tok: Tok::Star,
                    span: Span { start, end: i + 1 },
                });
                i += 1;
            }
            b',' => {
                toks.push(Token {
                    tok: Tok::Comma,
                    span: Span { start, end: i + 1 },
                });
                i += 1;
            }
            b';' => {
                toks.push(Token {
                    tok: Tok::Semi,
                    span: Span { start, end: i + 1 },
                });
                i += 1;
            }
            b'+' => {
                toks.push(Token {
                    tok: Tok::Plus,
                    span: Span { start, end: i + 1 },
                });
                i += 1;
            }
            b'-' => {
                toks.push(Token {
                    tok: Tok::Minus,
                    span: Span { start, end: i + 1 },
                });
                i += 1;
            }
            b'=' => {
                toks.push(Token {
                    tok: Tok::Eq,
                    span: Span { start, end: i + 1 },
                });
                i += 1;
            }
            b'<' | b'>' => {
                let closed = i + 1 < b.len() && b[i + 1] == b'=';
                let end = if closed { i + 2 } else { i + 1 };
                let tok = match (c, closed) {
                    (b'<', true) => Tok::Le,
                    (b'<', false) => Tok::Lt,
                    (b'>', true) => Tok::Ge,
                    _ => Tok::Gt,
                };
                toks.push(Token {
                    tok,
                    span: Span { start, end },
                });
                i = end;
            }
            b'&' => {
                if i + 1 < b.len() && b[i + 1] == b'&' {
                    toks.push(Token {
                        tok: Tok::AndAnd,
                        span: Span { start, end: i + 2 },
                    });
                    i += 2;
                } else {
                    return Err(SqlError::new(
                        "expected '&&' (single '&' is not an operator)",
                        Span { start, end: i + 1 },
                    ));
                }
            }
            b'0'..=b'9' | b'.' => {
                let mut j = i;
                while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'.') {
                    j += 1;
                }
                // Optional exponent: e[+-]?digits.
                if j < b.len() && (b[j] == b'e' || b[j] == b'E') {
                    let mut k = j + 1;
                    if k < b.len() && (b[k] == b'+' || b[k] == b'-') {
                        k += 1;
                    }
                    if k < b.len() && b[k].is_ascii_digit() {
                        j = k;
                        while j < b.len() && b[j].is_ascii_digit() {
                            j += 1;
                        }
                    }
                }
                let span = Span { start, end: j };
                let v: f64 = text[start..j]
                    .parse()
                    .map_err(|_| SqlError::new("malformed number", span))?;
                if !v.is_finite() {
                    return Err(SqlError::new("number out of range", span));
                }
                toks.push(Token {
                    tok: Tok::Number(v),
                    span,
                });
                i = j;
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let mut j = i;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                toks.push(Token {
                    tok: Tok::Ident(text[start..j].to_string()),
                    span: Span { start, end: j },
                });
                i = j;
            }
            _ => {
                return Err(SqlError::new(
                    format!(
                        "unexpected character {:?}",
                        text[start..].chars().next().unwrap()
                    ),
                    Span { start, end: i + 1 },
                ));
            }
        }
    }
    toks.push(Token {
        tok: Tok::End,
        span: Span {
            start: b.len(),
            end: b.len(),
        },
    });
    Ok(toks)
}

// ----------------------------------------------------------------- parser

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

/// A linear expression accumulated during parsing: per-variable
/// coefficients plus a constant term.
#[derive(Clone, Debug, Default)]
struct LinExpr {
    coeffs: Vec<f64>,
    constant: f64,
}

impl LinExpr {
    fn add_var(&mut self, var: usize, coeff: f64) {
        if self.coeffs.len() <= var {
            self.coeffs.resize(var + 1, 0.0);
        }
        self.coeffs[var] += coeff;
    }
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the next token if it is the given keyword
    /// (case-insensitive).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Tok::Ident(s) = &self.peek().tok {
            if s.eq_ignore_ascii_case(kw) {
                self.bump();
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::new(
                format!("expected {}", kw.to_ascii_uppercase()),
                self.peek().span,
            ))
        }
    }

    /// `true` when the next token is one of the clause keywords that can
    /// follow the current position (so identifiers in expressions are
    /// distinguishable from keywords).
    fn at_kw(&self, kws: &[&str]) -> bool {
        if let Tok::Ident(s) = &self.peek().tok {
            return kws.iter().any(|k| s.eq_ignore_ascii_case(k));
        }
        false
    }

    fn ident(&mut self, what: &str) -> Result<(String, Span), SqlError> {
        let t = self.bump();
        match t.tok {
            Tok::Ident(s) => Ok((s, t.span)),
            _ => Err(SqlError::new(format!("expected {what}"), t.span)),
        }
    }

    /// Resolves a variable name to its 0-based coordinate index.
    fn var_index(name: &str, span: Span) -> Result<usize, SqlError> {
        match name {
            "x" => return Ok(0),
            "y" => return Ok(1),
            "z" => return Ok(2),
            "w" => return Ok(3),
            _ => {}
        }
        if let Some(num) = name.strip_prefix('x') {
            if let Ok(k) = num.parse::<usize>() {
                if (1..=64).contains(&k) {
                    return Ok(k - 1);
                }
            }
        }
        Err(SqlError::new(
            format!("unknown variable '{name}' (use x, y, z, w or xK)"),
            span,
        ))
    }

    // select := SELECT ('*' | var (',' var)*)
    fn projection(&mut self) -> Result<Projection, SqlError> {
        if matches!(self.peek().tok, Tok::Star) {
            self.bump();
            return Ok(Projection::Star);
        }
        let mut vars = Vec::new();
        loop {
            let (name, span) = self.ident("a variable or '*'")?;
            let idx = Self::var_index(&name, span)?;
            if vars.iter().any(|(v, _)| *v == idx) {
                return Err(SqlError::new(
                    format!("variable '{}' selected twice", var_name(idx)),
                    span,
                ));
            }
            vars.push((idx, span));
            if matches!(self.peek().tok, Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        Ok(Projection::Vars(vars))
    }

    // term := number ['*'? var] | var
    fn term(&mut self, expr: &mut LinExpr, sign: f64) -> Result<(), SqlError> {
        let t = self.bump();
        match t.tok {
            Tok::Number(v) => {
                // Optional multiplication: `0.3x`, `0.3*x`, `2 x2`.
                if matches!(self.peek().tok, Tok::Star) {
                    self.bump();
                    let (name, span) = self.ident("a variable after '*'")?;
                    let idx = Self::var_index(&name, span)?;
                    expr.add_var(idx, sign * v);
                } else if let Tok::Ident(name) = &self.peek().tok {
                    if !self.at_kw(&["and", "exist", "all", "limit"]) {
                        let name = name.clone();
                        let vt = self.bump();
                        let idx = Self::var_index(&name, vt.span)?;
                        expr.add_var(idx, sign * v);
                    } else {
                        expr.constant += sign * v;
                    }
                } else {
                    expr.constant += sign * v;
                }
            }
            Tok::Ident(name) => {
                let idx = Self::var_index(&name, t.span)?;
                expr.add_var(idx, sign);
            }
            _ => {
                return Err(SqlError::new("expected a number or variable", t.span));
            }
        }
        Ok(())
    }

    // linexpr := ['-'|'+'] term (('+'|'-') term)*
    fn linexpr(&mut self) -> Result<LinExpr, SqlError> {
        let mut expr = LinExpr::default();
        let mut sign = 1.0;
        if matches!(self.peek().tok, Tok::Minus) {
            self.bump();
            sign = -1.0;
        } else if matches!(self.peek().tok, Tok::Plus) {
            self.bump();
        }
        self.term(&mut expr, sign)?;
        loop {
            match self.peek().tok {
                Tok::Plus => {
                    self.bump();
                    self.term(&mut expr, 1.0)?;
                }
                Tok::Minus => {
                    self.bump();
                    self.term(&mut expr, -1.0)?;
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    // cmp := linexpr (<=|>=|<|>|=) linexpr
    fn comparison(&mut self) -> Result<AstConstraint, SqlError> {
        let start = self.peek().span.start;
        let lhs = self.linexpr()?;
        let op_tok = self.bump();
        let cmp = match op_tok.tok {
            Tok::Le | Tok::Lt => CmpOp::Le,
            Tok::Ge | Tok::Gt => CmpOp::Ge,
            Tok::Eq => CmpOp::Eq,
            _ => {
                return Err(SqlError::new(
                    "expected a comparison operator (<=, >=, =, <, >)",
                    op_tok.span,
                ));
            }
        };
        let rhs = self.linexpr()?;
        let end = self.toks[self.pos.saturating_sub(1)].span.end;
        // Normalize to (lhs - rhs) cmp 0, i.e. coeffs · x cmp constant.
        let n = lhs.coeffs.len().max(rhs.coeffs.len());
        let mut coeffs = vec![0.0; n];
        for (i, c) in lhs.coeffs.iter().enumerate() {
            coeffs[i] += c;
        }
        for (i, c) in rhs.coeffs.iter().enumerate() {
            coeffs[i] -= c;
        }
        // Trim trailing zero coefficients so the constraint's implied
        // dimension is the highest variable actually mentioned.
        while coeffs.last().is_some_and(|c| *c == 0.0) && coeffs.len() > 1 {
            coeffs.pop();
        }
        if !coeffs.iter().all(|c| c.is_finite()) {
            return Err(SqlError::new(
                "constraint coefficients overflow",
                Span { start, end },
            ));
        }
        let rhs_const = rhs.constant - lhs.constant;
        if !rhs_const.is_finite() {
            return Err(SqlError::new(
                "constraint constant overflows",
                Span { start, end },
            ));
        }
        Ok(AstConstraint {
            coeffs,
            rhs: rhs_const,
            cmp,
            span: Span { start, end },
        })
    }

    fn query(&mut self) -> Result<SqlQuery, SqlError> {
        self.expect_kw("select")?;
        let projection = self.projection()?;
        self.expect_kw("from")?;
        let mut relations = vec![self.ident("a relation name")?];
        while self.eat_kw("join") {
            relations.push(self.ident("a relation name")?);
        }
        let mut constraints = Vec::new();
        let mut kind = SelectionKind::Exist;
        if self.eat_kw("where") {
            constraints.push(self.comparison()?);
            loop {
                if matches!(self.peek().tok, Tok::AndAnd) || self.at_kw(&["and"]) {
                    self.bump();
                } else {
                    break;
                }
                constraints.push(self.comparison()?);
            }
            if self.eat_kw("all") {
                kind = SelectionKind::All;
            } else {
                self.eat_kw("exist");
            }
        }
        let limit = if self.eat_kw("limit") {
            let t = self.bump();
            match t.tok {
                Tok::Number(v) if v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 => {
                    Some(v as u64)
                }
                _ => {
                    return Err(SqlError::new("LIMIT takes a non-negative integer", t.span));
                }
            }
        } else {
            None
        };
        if matches!(self.peek().tok, Tok::Semi) {
            self.bump();
        }
        let t = self.peek();
        if !matches!(t.tok, Tok::End) {
            return Err(SqlError::new("unexpected trailing input", t.span));
        }
        Ok(SqlQuery {
            projection,
            relations,
            constraints,
            kind,
            limit,
        })
    }
}

/// Parses one constraint-SQL statement.
///
/// # Errors
/// [`SqlError`] with the byte span of the offending text.
pub fn parse(text: &str) -> Result<SqlQuery, SqlError> {
    let toks = lex(text)?;
    Parser { toks, pos: 0 }.query()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // y >= 0.3x - 5  →  -0.3x + y >= -5.
        let q = parse("SELECT * FROM r WHERE y >= 0.3x - 5").unwrap();
        let c = &q.constraints[0];
        assert_eq!(c.cmp, CmpOp::Ge);
        assert!((c.coeffs[0] - -0.3).abs() < 1e-12);
        assert!((c.coeffs[1] - 1.0).abs() < 1e-12);
        assert!((c.rhs - -5.0).abs() < 1e-12);
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
            assert_eq!(ca.rhs, cb.rhs);
            assert_eq!(ca.cmp, cb.cmp);
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
}
