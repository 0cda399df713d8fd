//! Pretty-printer: renders expressions and programs back to the surface
//! syntax, with indentation for large forms.
//!
//! Round-trip law (tested property): `parse(pretty(e)) == e` for expressions
//! produced by the parser or the specializers (up to `let` sugar, which the
//! printer re-sugars one binding at a time).
//!
//! # Layout
//!
//! A form whose one-line rendering fits in `WIDTH` = 72 bytes (UTF-8
//! bytes, counted from its indent) is printed on one line. Otherwise it
//! breaks, and each subform is placed by the same rule at the indent shown:
//!
//! - `(p a …)` and `(f a …)`: the operator stays on the first line; each
//!   argument goes on its own line at indent + 2.
//! - `(if c t e)`: `c` follows `(if ` at indent + 4; `t` and `e` each go on
//!   their own line at indent + 4.
//! - `(let ((x b)) body)`: `b` follows `(let ((x ` at indent + 8 + |x|;
//!   `body` goes on its own line at indent + 2.
//! - `(lambda (ps) body)`: `body` goes on its own line at indent + 2.
//! - `(f a …)` with `f` an expression: `f` follows `(` at indent + 1; each
//!   argument goes on its own line at indent + 2.
//! - An atom never breaks, however wide.
//!
//! A definition keeps its body on the header line when the body's one-line
//! form plus the function's name (not its parameters) fits in `WIDTH`;
//! otherwise the body starts on the next line at indent 2.
//!
//! # Cost
//!
//! Each node decides whether it fits by appending its one-line form straight
//! into the output and stopping once that passes the room left on the line;
//! on overflow it truncates back and breaks. A check therefore writes at
//! most `WIDTH` bytes plus a few bytes of punctuation and one constant, so
//! rendering costs O(nodes × `WIDTH`) plus the output bytes, with no
//! per-node allocation.

use std::fmt::Write as _;

use crate::ast::Expr;
use crate::program::Program;
use crate::symbol::Symbol;

/// Width beyond which a form is broken across lines, in UTF-8 bytes.
const WIDTH: usize = 72;

/// Renders an expression to surface syntax.
///
/// # Examples
///
/// ```
/// use ppe_lang::{parse_expr, pretty_expr};
///
/// let e = parse_expr("(+ 1 (* x 2))")?;
/// assert_eq!(pretty_expr(&e), "(+ 1 (* x 2))");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn pretty_expr(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e, 0);
    out
}

/// Renders a whole program, one definition per paragraph.
pub fn pretty_program(p: &Program) -> String {
    let mut out = String::new();
    for (i, def) in p.defs().iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let name = def.name.as_str();
        out.push_str("(define (");
        out.push_str(name);
        for param in &def.params {
            out.push(' ');
            out.push_str(param.as_str());
        }
        out.push(')');
        // The header line counts the name but not the parameters.
        let start = out.len();
        out.push(' ');
        let fits = WIDTH
            .checked_sub(name.len())
            .and_then(|room| flat_within(&mut out, &def.body, start + 1 + room))
            .is_some();
        if !fits {
            out.truncate(start);
            out.push_str("\n  ");
            write_expr(&mut out, &def.body, 2);
        }
        out.push_str(")\n");
    }
    out
}

/// Appends `e` at column `indent`: on one line if it fits, else broken.
fn write_expr(out: &mut String, e: &Expr, indent: usize) {
    let start = out.len();
    if let Some(room) = WIDTH.checked_sub(indent) {
        if flat_within(out, e, start + room).is_some() {
            return;
        }
        out.truncate(start);
    }
    match e {
        // An atom never breaks, however wide.
        Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => {
            flat_within(out, e, usize::MAX);
        }
        Expr::Prim(p, args) => {
            out.push('(');
            out.push_str(p.name());
            write_lines(out, args, indent + 2);
        }
        Expr::Call(f, args) => {
            out.push('(');
            out.push_str(f.as_str());
            write_lines(out, args, indent + 2);
        }
        Expr::If(c, t, f) => {
            out.push_str("(if ");
            write_expr(out, c, indent + 4);
            write_lines(out, [&**t, f], indent + 4);
        }
        Expr::Let(x, b, body) => {
            let x = x.as_str();
            out.push_str("(let ((");
            out.push_str(x);
            out.push(' ');
            write_expr(out, b, indent + 8 + x.len());
            out.push_str("))");
            write_lines(out, [&**body], indent + 2);
        }
        Expr::Lambda(params, body) => {
            out.push_str("(lambda (");
            names_within(out, params, usize::MAX);
            out.push(')');
            write_lines(out, [&**body], indent + 2);
        }
        Expr::App(f, args) => {
            out.push('(');
            write_expr(out, f, indent + 1);
            write_lines(out, args, indent + 2);
        }
    }
}

/// Appends each of `items` on its own line at column `indent`, then closes
/// the form.
fn write_lines<'a>(out: &mut String, items: impl IntoIterator<Item = &'a Expr>, indent: usize) {
    for e in items {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', indent));
        write_expr(out, e, indent);
    }
    out.push(')');
}

/// Appends the one-line form of `e` while `out` stays within `limit` bytes.
/// Returns `None` as soon as it would pass `limit`, leaving a partial
/// rendering for the caller to truncate.
fn flat_within(out: &mut String, e: &Expr, limit: usize) -> Option<()> {
    if out.len() > limit {
        return None;
    }
    match e {
        Expr::Const(c) => {
            let _ = write!(out, "{c}");
        }
        Expr::Var(x) | Expr::FnRef(x) => push_within(out, x.as_str(), limit)?,
        Expr::Prim(p, args) => {
            out.push('(');
            out.push_str(p.name());
            out.push(' ');
            spaced_within(out, args, limit)?;
            out.push(')');
        }
        Expr::Call(f, args) => {
            out.push('(');
            push_within(out, f.as_str(), limit)?;
            if !args.is_empty() {
                out.push(' ');
                spaced_within(out, args, limit)?;
            }
            out.push(')');
        }
        Expr::If(c, t, f) => {
            out.push_str("(if ");
            spaced_within(out, [&**c, t, f], limit)?;
            out.push(')');
        }
        Expr::Let(x, b, body) => {
            out.push_str("(let ((");
            push_within(out, x.as_str(), limit)?;
            out.push(' ');
            flat_within(out, b, limit)?;
            out.push_str(")) ");
            flat_within(out, body, limit)?;
            out.push(')');
        }
        Expr::Lambda(params, body) => {
            out.push_str("(lambda (");
            names_within(out, params, limit)?;
            out.push_str(") ");
            flat_within(out, body, limit)?;
            out.push(')');
        }
        Expr::App(f, args) => {
            out.push('(');
            spaced_within(out, std::iter::once(&**f).chain(args), limit)?;
            out.push(')');
        }
    }
    (out.len() <= limit).then_some(())
}

/// [`flat_within`] over `items`, separated by single spaces.
fn spaced_within<'a>(
    out: &mut String,
    items: impl IntoIterator<Item = &'a Expr>,
    limit: usize,
) -> Option<()> {
    for (i, e) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        flat_within(out, e, limit)?;
    }
    Some(())
}

/// [`push_within`] over `names`, separated by single spaces.
fn names_within(out: &mut String, names: &[Symbol], limit: usize) -> Option<()> {
    for (i, x) in names.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        push_within(out, x.as_str(), limit)?;
    }
    Some(())
}

/// Appends `s` unless that would take `out` past `limit` bytes.
fn push_within(out: &mut String, s: &str, limit: usize) -> Option<()> {
    (out.len() + s.len() <= limit).then(|| out.push_str(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    #[test]
    fn small_expressions_stay_on_one_line() {
        let e = parse_expr("(+ 1 (* x 2))").unwrap();
        assert_eq!(pretty_expr(&e), "(+ 1 (* x 2))");
    }

    #[test]
    fn round_trip_simple() {
        for src in [
            "42",
            "#t",
            "x",
            "(neg x)",
            "(if (< x 0) (neg x) x)",
            "(let ((a 1)) (+ a a))",
            "(lambda (x) (+ x 1))",
        ] {
            let e = parse_expr(src).unwrap();
            let printed = pretty_expr(&e);
            let back = parse_expr(&printed).unwrap();
            assert_eq!(e, back, "round-trip of {src}");
        }
    }

    #[test]
    fn round_trip_program() {
        let src = "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))";
        let p = parse_program(src).unwrap();
        let printed = pretty_program(&p);
        let back = parse_program(&printed).unwrap();
        assert_eq!(p.defs(), back.defs());
    }

    #[test]
    fn long_forms_break_and_still_parse() {
        // Build a deeply nested sum that exceeds the line width.
        let mut src = "x".to_owned();
        for _ in 0..30 {
            src = format!("(+ {src} 1)");
        }
        let e = parse_expr(&src).unwrap();
        let printed = pretty_expr(&e);
        assert!(printed.contains('\n'));
        assert_eq!(parse_expr(&printed).unwrap(), e);
    }
}
