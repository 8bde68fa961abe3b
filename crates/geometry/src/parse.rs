//! The one text syntax for linear constraints: stored generalized tuples
//! ([`parse_tuple`]), SQL `WHERE` conjuncts (`cdb_core::sql`) and the
//! shell's half-planes and lines all read a comparison through
//! [`Tokens::comparison`].
//!
//! ```text
//! tuple      := comparison ("&&" comparison)*
//! comparison := linexpr op linexpr
//! op         := "<=" | ">=" | "<" | ">" | "=" | "=="
//! linexpr    := sign* term (sign+ term)*
//! sign       := "+" | "-"
//! term       := number ["*"] var | number | var
//! number     := digits and dots, then optionally e[+-]digits (a finite f64)
//! var        := "x" | "y" | "z" | "w" | "x1" .. "x64"
//! ```
//!
//! Whitespace is insignificant. `x`,`y`,`z`,`w` name coordinates 1–4 and
//! `xK` coordinate `K ≤` [`MAX_VARS`]; [`var_name`]/[`var_index`] are the
//! one spelling of these names, `Display` included. A number followed by
//! an identifier is a coefficient only when the identifier names a
//! variable; otherwise the identifier is left for the caller (SQL reads
//! its keywords there, tuple text refuses it). Equality produces the
//! paper's `≥ ∧ ≤` pair; strict `<`/`>` read as their closed counterparts
//! (the dual surfaces, and so every index answer, are the same).

use crate::constraint::{LinearConstraint, RelOp};
use crate::tuple::GeneralizedTuple;

/// The largest `K` of a variable `xK`: no coefficient vector is sized
/// past it, whatever the text says.
pub const MAX_VARS: usize = 64;

const NAMES: [&str; 4] = ["x", "y", "z", "w"];

/// Renders coordinate index `i` as a variable name (`x`, `y`, `z`, `w`,
/// then `x5`, `x6`, …).
pub fn var_name(i: usize) -> String {
    NAMES
        .get(i)
        .map_or_else(|| format!("x{}", i + 1), |n| n.to_string())
}

/// The coordinate index a variable name denotes, if it names one.
pub fn var_index(name: &str) -> Option<usize> {
    let k = match NAMES.iter().position(|n| *n == name) {
        Some(i) => i + 1,
        None => name.strip_prefix('x')?.parse().ok()?,
    };
    (1..=MAX_VARS).contains(&k).then(|| k - 1)
}

/// Byte range of a token or clause inside the input text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// First byte of the offending text.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

fn span(start: usize, end: usize) -> Span {
    Span { start, end }
}

/// A parse error with the byte span it refers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Where in the input it went wrong.
    pub span: Span,
}

impl ParseError {
    /// An error about the text at `span`.
    pub fn new(message: impl Into<String>, span: Span) -> ParseError {
        let message = message.into();
        ParseError { message, span }
    }
}

fn err<T>(message: impl Into<String>, span: Span) -> Result<T, ParseError> {
    Err(ParseError::new(message, span))
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Span { start, end } = self.span;
        write!(f, "parse error at byte {start}..{end}: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// One lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// A word: a variable, or one of the caller's keywords.
    Ident(String),
    /// A finite number.
    Number(f64),
    /// `+` (`1.0`) or `-` (`-1.0`).
    Sign(f64),
    /// `<`/`<=` (`Le`), `>`/`>=` (`Ge`); `=`/`==` set the equality flag.
    Cmp(RelOp, bool),
    /// `&&`.
    AndAnd,
    /// `*`, `,` or `;`.
    Punct(char),
    /// End of input.
    End,
}

/// A token and where it was read.
#[derive(Clone, Debug)]
pub struct Token {
    /// What was read.
    pub tok: Tok,
    /// Where.
    pub span: Span,
}

/// Splits `text` into tokens, the last one [`Tok::End`].
fn lex(text: &str) -> Result<Vec<Token>, ParseError> {
    let b = text.as_bytes();
    // One past the run of bytes from `from` that `ok` accepts.
    let run =
        |from: usize, ok: fn(u8) -> bool| from + b[from..].iter().take_while(|c| ok(**c)).count();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let next = b.get(i + 1).copied();
        let (tok, end) = match b[i] {
            c if c.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            b'+' => (Tok::Sign(1.0), i + 1),
            b'-' => (Tok::Sign(-1.0), i + 1),
            c @ (b'*' | b',' | b';') => (Tok::Punct(c as char), i + 1),
            c @ (b'<' | b'>' | b'=') => {
                let op = if c == b'>' { RelOp::Ge } else { RelOp::Le };
                (
                    Tok::Cmp(op, c == b'='),
                    i + 1 + usize::from(next == Some(b'=')),
                )
            }
            b'&' if next == Some(b'&') => (Tok::AndAnd, i + 2),
            b'&' => {
                return err(
                    "expected '&&' (single '&' is not an operator)",
                    span(i, i + 1),
                )
            }
            b'0'..=b'9' | b'.' => {
                let mut end = run(i, |c| c.is_ascii_digit() || c == b'.');
                // Optional exponent: e[+-]?digits.
                if matches!(b.get(end), Some(b'e' | b'E')) {
                    let digits = end + 1 + usize::from(matches!(b.get(end + 1), Some(b'+' | b'-')));
                    end = Some(run(digits, |c| c.is_ascii_digit()))
                        .filter(|e| *e > digits)
                        .unwrap_or(end);
                }
                match text[i..end].parse::<f64>() {
                    Ok(v) if v.is_finite() => (Tok::Number(v), end),
                    Ok(_) => return err("number out of range", span(i, end)),
                    Err(_) => return err("malformed number", span(i, end)),
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let end = run(i, |c| c.is_ascii_alphanumeric() || c == b'_');
                (Tok::Ident(text[i..end].to_string()), end)
            }
            _ => {
                let c = text[i..].chars().next().unwrap_or('?');
                return err(
                    format!("unexpected character {c:?}"),
                    span(i, i + c.len_utf8()),
                );
            }
        };
        toks.push(Token {
            tok,
            span: span(i, end),
        });
        i = end;
    }
    toks.push(Token {
        tok: Tok::End,
        span: span(b.len(), b.len()),
    });
    Ok(toks)
}

/// One parsed linear comparison in the engine's normal form
/// `coeffs·x + constant θ 0`.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// Coefficient per coordinate, as long as the highest variable
    /// mentioned ([`lower`](Self::lower) pads it).
    pub coeffs: Vec<f64>,
    /// The left side's constants minus the right side's.
    pub constant: f64,
    /// The operator (`<`/`<=` read `Le`, `>`/`>=` read `Ge`).
    pub op: RelOp,
    /// `=`/`==`: lowers to the `≥`/`≤` pair, whatever `op` says.
    pub eq: bool,
    /// Byte span of the whole comparison, for error reporting.
    pub span: Span,
}

impl Comparison {
    /// Lowers to engine constraints over `dim` coordinates, expanding `=`
    /// into its two inequalities.
    ///
    /// # Errors
    /// When a coordinate outside `dim` has a non-zero coefficient.
    pub fn lower(&self, dim: usize) -> Result<Vec<LinearConstraint>, ParseError> {
        if let Some(i) = self
            .coeffs
            .iter()
            .rposition(|c| *c != 0.0)
            .filter(|i| *i >= dim)
        {
            let v = var_name(i);
            let msg = format!(
                "constraint mentions coordinate {v} but the query space is {dim}-dimensional"
            );
            return err(msg, self.span);
        }
        let mut coeffs = self.coeffs.clone();
        coeffs.resize(dim, 0.0);
        if self.eq {
            return Ok(LinearConstraint::equality_pair(coeffs, self.constant).to_vec());
        }
        Ok(vec![LinearConstraint::new(coeffs, self.constant, self.op)])
    }
}

/// A lexed text and a read position: the cursor `parse_tuple` and
/// `cdb_core::sql` both parse with.
pub struct Tokens {
    toks: Vec<Token>,
    pos: usize,
}

impl Tokens {
    /// Lexes `text`.
    ///
    /// # Errors
    /// A character outside the grammar, a lone `&`, or a malformed or
    /// non-finite number.
    pub fn new(text: &str) -> Result<Tokens, ParseError> {
        Ok(Tokens {
            toks: lex(text)?,
            pos: 0,
        })
    }

    /// The next token, not consumed.
    pub fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    /// Consumes the next token (the end of input is never consumed).
    pub fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        self.pos = (self.pos + 1).min(self.toks.len() - 1);
        t
    }

    /// Fails unless the input is used up.
    pub fn finish(&self) -> Result<(), ParseError> {
        match self.peek().tok {
            Tok::End => Ok(()),
            _ => err("unexpected trailing input", self.peek().span),
        }
    }

    /// Reads a variable name: its coordinate and span.
    pub fn variable(&mut self) -> Result<(usize, Span), ParseError> {
        let t = self.bump();
        match &t.tok {
            Tok::Ident(name) => match var_index(name) {
                Some(v) => Ok((v, t.span)),
                None => err(
                    format!("unknown variable '{name}' (use x, y, z, w or xK)"),
                    t.span,
                ),
            },
            _ => err("expected a variable", t.span),
        }
    }

    /// `comparison := linexpr op linexpr`.
    pub fn comparison(&mut self) -> Result<Comparison, ParseError> {
        let start = self.peek().span.start;
        let mut coeffs = Vec::new();
        let lhs = self.linexpr(&mut coeffs, 1.0)?;
        let t = self.bump();
        let Tok::Cmp(op, eq) = t.tok else {
            return err("expected a comparison operator (<=, >=, =, <, >)", t.span);
        };
        let rhs = self.linexpr(&mut coeffs, -1.0)?;
        let span = span(start, self.toks[self.pos - 1].span.end);
        let constant = lhs - rhs;
        if !constant.is_finite() || !coeffs.iter().all(|c| c.is_finite()) {
            return err("constraint coefficients overflow", span);
        }
        Ok(Comparison {
            coeffs,
            constant,
            op,
            eq,
            span,
        })
    }

    /// `linexpr := sign* term (sign+ term)*`: adds `side` times each
    /// variable term into `coeffs` and returns the sum of the constants.
    fn linexpr(&mut self, coeffs: &mut Vec<f64>, side: f64) -> Result<f64, ParseError> {
        let mut constant = 0.0;
        loop {
            let mut sign = 1.0;
            while let Tok::Sign(s) = self.peek().tok {
                sign *= s;
                self.bump();
            }
            constant += self.term(coeffs, side, sign)?;
            if !matches!(self.peek().tok, Tok::Sign(_)) {
                return Ok(constant);
            }
        }
    }

    /// `term := number ["*"] var | number | var`: adds `side · sign` times
    /// a variable term into `coeffs`; returns `sign` times a constant one.
    fn term(&mut self, coeffs: &mut Vec<f64>, side: f64, sign: f64) -> Result<f64, ParseError> {
        let mut coeff = side * sign;
        if let Tok::Number(n) = self.peek().tok {
            self.bump();
            if self.peek().tok == Tok::Punct('*') {
                self.bump();
            } else if !matches!(&self.peek().tok, Tok::Ident(s) if var_index(s).is_some()) {
                return Ok(sign * n);
            }
            coeff *= n;
        } else if !matches!(self.peek().tok, Tok::Ident(_)) {
            return err("expected a number or variable", self.peek().span);
        }
        let (v, _) = self.variable()?;
        if coeffs.len() <= v {
            coeffs.resize(v + 1, 0.0);
        }
        coeffs[v] += coeff;
        Ok(0.0)
    }
}

/// Parses a conjunction of constraints into a [`GeneralizedTuple`].
///
/// The dimension is the largest variable index mentioned (at least 1).
pub fn parse_tuple(input: &str) -> Result<GeneralizedTuple, ParseError> {
    let mut toks = Tokens::new(input)?;
    let mut cs = vec![toks.comparison()?];
    while toks.peek().tok == Tok::AndAnd {
        toks.bump();
        cs.push(toks.comparison()?);
    }
    toks.finish()?;
    let dim = cs.iter().map(|c| c.coeffs.len()).max().unwrap_or(1).max(1);
    let mut out = Vec::new();
    for c in &cs {
        out.extend(c.lower(dim)?);
    }
    Ok(GeneralizedTuple::new(out))
}

/// Parses exactly one comparison, `=` included: the single-comparison case
/// of [`parse_tuple`], not yet lowered.
pub fn parse_comparison(input: &str) -> Result<Comparison, ParseError> {
    let mut toks = Tokens::new(input)?;
    let c = toks.comparison()?;
    toks.finish()?;
    Ok(c)
}

/// Parses a single constraint. Equality inputs are rejected here (they
/// expand to two constraints); use [`parse_tuple`] for those.
pub fn parse_constraint(input: &str) -> Result<LinearConstraint, ParseError> {
    let c = parse_comparison(input)?;
    if c.eq {
        return err("expected exactly one (non-equality) constraint", c.span);
    }
    Ok(c.lower(c.coeffs.len().max(1))?.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_halfplane() {
        let t = parse_tuple("y >= 2x + 1").unwrap();
        assert_eq!(t.dim(), 2);
        assert_eq!(t.constraints().len(), 1);
        assert!(t.contains(&[0.0, 2.0]));
        assert!(t.contains(&[0.0, 1.0]));
        assert!(!t.contains(&[0.0, 0.0]));
    }

    #[test]
    fn conjunction_square() {
        let t = parse_tuple("x >= 0 && x <= 1 && y >= 0 && y <= 1").unwrap();
        assert_eq!(t.constraints().len(), 4);
        assert!(t.contains(&[0.5, 0.5]));
        assert!(!t.contains(&[1.5, 0.5]));
    }

    #[test]
    fn explicit_star_and_floats() {
        let t = parse_tuple("2.5*x - 0.5 * y <= 3.25").unwrap();
        assert!(t.contains(&[0.0, 0.0]));
        assert!(t.contains(&[1.3, 0.0]));
        assert!(!t.contains(&[2.0, 0.0]));
    }

    #[test]
    fn both_sides_and_negatives() {
        // x - y >= -2 + 2y  ==  x - 3y + 2 >= 0
        let t = parse_tuple("x - y >= -2 + 2y").unwrap();
        assert!(t.contains(&[0.0, 0.0]));
        assert!(t.contains(&[4.0, 2.0]));
        assert!(!t.contains(&[0.0, 1.0]));
    }

    #[test]
    fn equality_becomes_pair() {
        let t = parse_tuple("y = x").unwrap();
        assert_eq!(t.constraints().len(), 2);
        assert!(t.contains(&[3.0, 3.0]));
        assert!(!t.contains(&[3.0, 4.0]));
        // "==" spelling also works.
        let t2 = parse_tuple("y == x").unwrap();
        assert_eq!(t2.constraints().len(), 2);
    }

    #[test]
    fn strict_ops_closed() {
        let t = parse_tuple("y > x && y < x + 5").unwrap();
        assert!(t.contains(&[0.0, 0.0])); // boundary allowed (closed reading)
        assert!(t.contains(&[0.0, 3.0]));
        assert!(!t.contains(&[0.0, 6.0]));
    }

    #[test]
    fn indexed_variables() {
        let t = parse_tuple("x1 + x2 + x3 <= 1 && x3 >= 0").unwrap();
        assert_eq!(t.dim(), 3);
        assert!(t.contains(&[0.2, 0.2, 0.2]));
        assert!(!t.contains(&[1.0, 1.0, 1.0]));
    }

    #[test]
    fn zw_variables() {
        let t = parse_tuple("w >= z").unwrap();
        assert_eq!(t.dim(), 4);
        assert!(t.contains(&[0.0, 0.0, 1.0, 2.0]));
        assert!(!t.contains(&[0.0, 0.0, 2.0, 1.0]));
    }

    #[test]
    fn double_negative() {
        let t = parse_tuple("--x >= 1").unwrap(); // --x == x
        assert!(t.contains(&[2.0, 0.0].as_slice()[..1].try_into().unwrap_or([2.0])));
        assert!(t.contains(&[2.0]));
        assert!(!t.contains(&[0.0]));
    }

    #[test]
    fn errors() {
        assert!(parse_tuple("").is_err());
        assert!(parse_tuple("x + y").is_err()); // no operator
        assert!(parse_tuple("x >= ").is_err()); // empty rhs
        assert!(parse_tuple("q >= 1").is_err()); // unknown variable
        assert!(parse_tuple("2* >= 1").is_err()); // dangling star
        assert!(parse_tuple("x0 >= 1").is_err()); // indices start at 1
        assert!(parse_tuple("x >= 1 && ").is_err()); // trailing conjunct
        let e = parse_tuple("x >= #").unwrap_err();
        assert!(e.to_string().contains("unexpected character"));
    }

    #[test]
    fn coefficient_accumulation() {
        // x + x >= 2  ==  2x >= 2.
        let t = parse_tuple("x + x >= 2").unwrap();
        assert!(t.contains(&[1.0]));
        assert!(!t.contains(&[0.5]));
    }

    #[test]
    fn parse_constraint_single() {
        let c = parse_constraint("y >= 2x + 1").unwrap();
        assert_eq!(c.dim(), 2);
        assert!(parse_constraint("x = 1").is_err(), "equalities are pairs");
        assert!(parse_constraint("x >= 1 && y >= 1").is_err());
    }

    #[test]
    fn offsets_in_errors() {
        let e = parse_tuple("x >= 1 && y >= $").unwrap_err();
        assert!(
            e.span.start > 9,
            "offset {} should point into 2nd conjunct",
            e.span.start
        );
    }

    fn lowered(text: &str) -> Vec<(Vec<f64>, f64, RelOp)> {
        let t = parse_tuple(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let cs = t.constraints().iter();
        cs.map(|c| (c.coeffs.clone(), c.constant, c.op)).collect()
    }

    /// Tuple text used to sum whatever stood side by side: `2x3y` read
    /// `2·x3 + y`, `x y` read `x + y`, `2 3` read `5`, and a sign with no
    /// term after it was dropped.
    #[test]
    fn juxtaposed_terms_and_dangling_signs_are_errors() {
        for text in [
            "2x3y >= 0",
            "x y >= 1",
            "2 3 >= x",
            "x2.5 >= 0",
            "2x 3 >= 0",
            "x + >= 1",
            "x >= 1 -",
            "y >= x +",
        ] {
            assert!(parse_tuple(text).is_err(), "{text} parsed");
        }
    }

    /// What tuple text gains from the SQL lexer and SQL from the tuple
    /// grammar: exponents, `==`, and runs of signs, which multiply.
    #[test]
    fn exponents_equality_and_sign_runs_are_one_grammar() {
        assert_eq!(lowered("y >= 1e-3x"), [(vec![-1e-3, 1.0], 0.0, RelOp::Ge)]);
        assert_eq!(lowered("x >= 1.5e2"), [(vec![1.0], -150.0, RelOp::Ge)]);
        assert_eq!(lowered("x == 1"), lowered("x = 1"));
        assert_eq!(lowered("--x >= 1"), lowered("x >= 1"));
        assert_eq!(lowered("-+x >= 1"), lowered("-x >= 1"));
        assert_eq!(lowered("y >= 0.3*x + -5"), lowered("y >= 0.3x - 5"));
        let zero = lowered("1*x + -0 >= 0");
        assert_eq!(zero, [(vec![1.0], 0.0, RelOp::Ge)]);
        assert!(zero[0].1.is_sign_positive(), "left minus right constants");
        assert!(parse_tuple("x >= 2e").is_err(), "an exponent needs digits");
    }

    /// `xK` is a variable up to `K = MAX_VARS`, and nothing is sized from a
    /// larger `K` (`x18446744073709551615` used to overflow a `Vec`'s
    /// capacity; `x4000000000` asked for 32 GB).
    #[test]
    fn variable_indices_stop_at_max_vars() {
        assert_eq!(parse_tuple("x64 >= 1").unwrap().dim(), MAX_VARS);
        assert_eq!(var_index("x64"), Some(63));
        for text in ["x65 >= 1", "x4000000000 >= 1", "x18446744073709551615 >= 1"] {
            let e = parse_tuple(text).unwrap_err();
            assert!(e.message.contains("unknown variable"), "{text}: {e}");
        }
    }

    /// Sums that leave `f64` are errors, not a panic in
    /// `LinearConstraint::new`.
    #[test]
    fn overflowing_numbers_are_errors() {
        let huge = format!("x >= 1{}", "0".repeat(400));
        for text in [huge.as_str(), "1e308x + 1e308x >= 0", "x >= 1e308 + 1e308"] {
            assert!(parse_tuple(text).is_err(), "{text} parsed");
        }
    }

    #[test]
    fn names_round_trip_through_display() {
        for i in 0..MAX_VARS {
            assert_eq!(var_index(&var_name(i)), Some(i));
        }
        let c = LinearConstraint::new(vec![1.0, 0.0, 0.0, 2.0, 0.0, -3.0], 4.0, RelOp::Le);
        assert_eq!(c.to_string(), "1*x + 2*w - 3*x6 + 4 <= 0");
        let back = parse_constraint(&c.to_string()).unwrap();
        assert_eq!(back, c);
        let hp = crate::HalfPlane::new(vec![0.5, -1.0, 0.0, 2.0], -5.0, RelOp::Ge);
        assert_eq!(hp.to_string(), "x5 >= 0.5*x + -1*y + 0*z + 2*w + -5");
        assert_eq!(
            parse_constraint(&hp.to_string()).unwrap(),
            hp.to_constraint()
        );
    }
}
