//! Pass 1: well-formedness of raw definitions.
//!
//! Operates on the *lenient* parse ([`ppe_lang::parse_defs`]) so that
//! every semantic problem — not just the first — is reported with a
//! structured code and location. The conditions mirror
//! `Program::validate`, which the engines run as a gate; the point of
//! duplicating them here is completeness (all findings at once) and
//! structure (codes, severities, paths) rather than a single string.

use std::collections::{HashMap, HashSet};

use ppe_lang::diag::Diagnostic;
use ppe_lang::{Expr, FunDef, Symbol};

use crate::descend;

/// Checks duplicate definitions, duplicate parameters, unbound variables,
/// unknown functions, call-site arity, and shadowing over raw defs.
pub fn check(defs: &[FunDef], out: &mut Vec<Diagnostic>) {
    if defs.is_empty() {
        out.push(Diagnostic::error("E0001", "program has no definitions"));
        return;
    }
    // Known functions and their arity: first definition wins, duplicates
    // are reported but still resolvable at call sites.
    let mut arity: HashMap<Symbol, usize> = HashMap::new();
    let mut seen: HashSet<Symbol> = HashSet::new();
    for def in defs {
        if !seen.insert(def.name) {
            out.push(
                Diagnostic::error("E0002", format!("duplicate definition of `{}`", def.name))
                    .in_function(def.name),
            );
        }
        arity.entry(def.name).or_insert(def.arity());
    }
    for def in defs {
        let mut params_seen = HashSet::new();
        for p in &def.params {
            if !params_seen.insert(*p) {
                out.push(
                    Diagnostic::error(
                        "E0003",
                        format!("duplicate parameter `{p}` in definition of `{}`", def.name),
                    )
                    .in_function(def.name),
                );
            }
        }
        let mut scope: Vec<Symbol> = def.params.clone();
        let mut path = "body".to_owned();
        check_expr(&def.body, &mut scope, &arity, def.name, &mut path, out);
    }
}

fn check_expr(
    e: &Expr,
    scope: &mut Vec<Symbol>,
    arity: &HashMap<Symbol, usize>,
    function: Symbol,
    path: &mut String,
    out: &mut Vec<Diagnostic>,
) {
    match e {
        Expr::Const(_) => {}
        Expr::Var(x) => {
            if !scope.contains(x) {
                out.push(
                    Diagnostic::error("E0004", format!("unbound variable `{x}`"))
                        .in_function(function)
                        .at_path(path.as_str()),
                );
            }
        }
        Expr::FnRef(f) => {
            if !arity.contains_key(f) {
                out.push(
                    Diagnostic::error("E0005", format!("reference to unknown function `{f}`"))
                        .in_function(function)
                        .at_path(path.as_str()),
                );
            }
        }
        Expr::Prim(_, args) => {
            for (i, a) in args.iter().enumerate() {
                descend(path, format_args!("arg{i}"), |p| {
                    check_expr(a, scope, arity, function, p, out)
                });
            }
        }
        Expr::Call(f, args) => {
            match arity.get(f) {
                None => out.push(
                    Diagnostic::error("E0005", format!("call to unknown function `{f}`"))
                        .in_function(function)
                        .at_path(path.as_str()),
                ),
                Some(n) if *n != args.len() => out.push(
                    Diagnostic::error(
                        "E0006",
                        format!(
                            "`{f}` expects {n} arguments but is called with {}",
                            args.len()
                        ),
                    )
                    .in_function(function)
                    .at_path(path.as_str()),
                ),
                Some(_) => {}
            }
            for (i, a) in args.iter().enumerate() {
                descend(path, format_args!("arg{i}"), |p| {
                    check_expr(a, scope, arity, function, p, out)
                });
            }
        }
        Expr::If(c, t, f) => {
            descend(path, "cond", |p| {
                check_expr(c, scope, arity, function, p, out)
            });
            descend(path, "then", |p| {
                check_expr(t, scope, arity, function, p, out)
            });
            descend(path, "else", |p| {
                check_expr(f, scope, arity, function, p, out)
            });
        }
        Expr::Let(x, b, body) => {
            descend(path, "bound", |p| {
                check_expr(b, scope, arity, function, p, out)
            });
            if scope.contains(x) {
                out.push(
                    Diagnostic::warning("W0001", format!("`{x}` shadows an enclosing binding"))
                        .in_function(function)
                        .at_path(path.as_str()),
                );
            }
            scope.push(*x);
            descend(path, "body", |p| {
                check_expr(body, scope, arity, function, p, out)
            });
            scope.pop();
        }
        Expr::Lambda(params, body) => {
            for p in params {
                if scope.contains(p) {
                    out.push(
                        Diagnostic::warning(
                            "W0001",
                            format!("lambda parameter `{p}` shadows an enclosing binding"),
                        )
                        .in_function(function)
                        .at_path(path.as_str()),
                    );
                }
            }
            let depth = scope.len();
            scope.extend(params.iter().copied());
            descend(path, "lambda", |p| {
                check_expr(body, scope, arity, function, p, out)
            });
            scope.truncate(depth);
        }
        Expr::App(f, args) => {
            descend(path, "callee", |p| {
                check_expr(f, scope, arity, function, p, out)
            });
            for (i, a) in args.iter().enumerate() {
                descend(path, format_args!("arg{i}"), |p| {
                    check_expr(a, scope, arity, function, p, out)
                });
            }
        }
    }
}
