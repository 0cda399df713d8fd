//! Pass 3: occurrence and purity analysis.
//!
//! Dead code is only worth flagging if the optimizer would agree: a `let`
//! whose binding is unused but could diverge or error is *not* droppable
//! (strict language), and flagging it would contradict what
//! `optimize_program` actually does. So this pass delegates the two
//! judgments to `ppe_lang::opt` — [`count_uses`] for "used" and
//! [`is_droppable`] for "safe to drop" — guaranteeing the analyzer and the
//! dead-code eliminator share one definition of droppable.

use ppe_lang::diag::Diagnostic;
use ppe_lang::Symbol;
use ppe_lang::{count_uses, is_droppable, Expr, FunDef, OptLevel};

use crate::descend;

/// Flags unused parameters (`W0003`) and dead `let` bindings (`W0004`).
pub fn check(defs: &[FunDef], out: &mut Vec<Diagnostic>) {
    for def in defs {
        for p in &def.params {
            if count_uses(&def.body, *p) == 0 {
                out.push(
                    Diagnostic::warning(
                        "W0003",
                        format!("parameter `{p}` of `{}` is never used", def.name),
                    )
                    .in_function(def.name),
                );
            }
        }
        check_expr(&def.body, def.name, &mut "body".to_owned(), out);
    }
}

fn check_expr(e: &Expr, function: Symbol, path: &mut String, out: &mut Vec<Diagnostic>) {
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => {}
        Expr::Prim(_, args) | Expr::Call(_, args) => {
            for (i, a) in args.iter().enumerate() {
                descend(path, format_args!("arg{i}"), |p| {
                    check_expr(a, function, p, out)
                });
            }
        }
        Expr::If(c, t, f) => {
            descend(path, "cond", |p| check_expr(c, function, p, out));
            descend(path, "then", |p| check_expr(t, function, p, out));
            descend(path, "else", |p| check_expr(f, function, p, out));
        }
        Expr::Let(x, b, body) => {
            if count_uses(body, *x) == 0 && is_droppable(b, OptLevel::Safe) {
                out.push(
                    Diagnostic::warning(
                        "W0004",
                        format!("`let {x}` binds a value that is never used (the optimizer would drop it)"),
                    )
                    .in_function(function)
                    .at_path(path.as_str()),
                );
            }
            descend(path, "bound", |p| check_expr(b, function, p, out));
            descend(path, "body", |p| check_expr(body, function, p, out));
        }
        Expr::Lambda(_, body) => descend(path, "lambda", |p| check_expr(body, function, p, out)),
        Expr::App(f, args) => {
            descend(path, "callee", |p| check_expr(f, function, p, out));
            for (i, a) in args.iter().enumerate() {
                descend(path, format_args!("arg{i}"), |p| {
                    check_expr(a, function, p, out)
                });
            }
        }
    }
}
