//! Differential oracle for the pretty-printer: the library's single-pass
//! renderer must match, byte for byte, the straightforward printer it
//! replaced, which re-rendered every subtree to a `String` before deciding
//! whether to break it. That printer is kept verbatim below as the
//! reference.

use ppe_lang::{
    pretty_expr, pretty_program, Const, Expr, FunDef, Prim, Program, Symbol, ALL_PRIMS, F64,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// The printer as it was before the bounded fits check, unchanged.
mod reference {
    use std::fmt::Write as _;

    use ppe_lang::{Expr, Program};

    /// Width beyond which a form is broken across lines.
    const WIDTH: usize = 72;

    pub fn pretty_expr(e: &Expr) -> String {
        let mut out = String::new();
        write_expr(&mut out, e, 0);
        out
    }

    pub fn pretty_program(p: &Program) -> String {
        let mut out = String::new();
        for (i, def) in p.defs().iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            let _ = write!(out, "(define ({}", def.name);
            for param in &def.params {
                let _ = write!(out, " {param}");
            }
            out.push(')');
            let body = pretty_expr(&def.body);
            if body.len() + def.name.as_str().len() <= WIDTH {
                let _ = write!(out, " {body})");
            } else {
                out.push('\n');
                let mut indented = String::new();
                write_expr(&mut indented, &def.body, 2);
                let _ = write!(out, "  {indented})");
            }
            out.push('\n');
        }
        out
    }

    /// One-line rendering, used to decide whether to break.
    pub fn flat(e: &Expr) -> String {
        match e {
            Expr::Const(c) => c.to_string(),
            Expr::Var(x) => x.to_string(),
            Expr::FnRef(f) => f.to_string(),
            Expr::Prim(p, args) => {
                let inner: Vec<String> = args.iter().map(flat).collect();
                format!("({} {})", p, inner.join(" "))
            }
            Expr::Call(f, args) => {
                if args.is_empty() {
                    format!("({f})")
                } else {
                    let inner: Vec<String> = args.iter().map(flat).collect();
                    format!("({} {})", f, inner.join(" "))
                }
            }
            Expr::If(c, t, f) => format!("(if {} {} {})", flat(c), flat(t), flat(f)),
            Expr::Let(x, b, body) => format!("(let (({} {})) {})", x, flat(b), flat(body)),
            Expr::Lambda(params, body) => {
                let ps: Vec<String> = params.iter().map(|p| p.to_string()).collect();
                format!("(lambda ({}) {})", ps.join(" "), flat(body))
            }
            Expr::App(f, args) => {
                let mut parts = vec![flat(f)];
                parts.extend(args.iter().map(flat));
                format!("({})", parts.join(" "))
            }
        }
    }

    fn write_expr(out: &mut String, e: &Expr, indent: usize) {
        let one_line = flat(e);
        if indent + one_line.len() <= WIDTH {
            out.push_str(&one_line);
            return;
        }
        let pad = |out: &mut String, n: usize| {
            out.push('\n');
            for _ in 0..n {
                out.push(' ');
            }
        };
        match e {
            Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => out.push_str(&one_line),
            Expr::Prim(p, args) => {
                let _ = write!(out, "({p}");
                let inner = indent + 2;
                for a in args {
                    pad(out, inner);
                    write_expr(out, a, inner);
                }
                out.push(')');
            }
            Expr::Call(f, args) => {
                let _ = write!(out, "({f}");
                let inner = indent + 2;
                for a in args {
                    pad(out, inner);
                    write_expr(out, a, inner);
                }
                out.push(')');
            }
            Expr::If(c, t, f) => {
                out.push_str("(if ");
                write_expr(out, c, indent + 4);
                let inner = indent + 4;
                pad(out, inner);
                write_expr(out, t, inner);
                pad(out, inner);
                write_expr(out, f, inner);
                out.push(')');
            }
            Expr::Let(x, b, body) => {
                let _ = write!(out, "(let (({x} ");
                write_expr(out, b, indent + 8 + x.as_str().len());
                out.push_str("))");
                let inner = indent + 2;
                pad(out, inner);
                write_expr(out, body, inner);
                out.push(')');
            }
            Expr::Lambda(params, body) => {
                let ps: Vec<String> = params.iter().map(|p| p.to_string()).collect();
                let _ = write!(out, "(lambda ({})", ps.join(" "));
                let inner = indent + 2;
                pad(out, inner);
                write_expr(out, body, inner);
                out.push(')');
            }
            Expr::App(f, args) => {
                out.push('(');
                write_expr(out, f, indent + 1);
                let inner = indent + 2;
                for a in args {
                    pad(out, inner);
                    write_expr(out, a, inner);
                }
                out.push(')');
            }
        }
    }
}

/// Identifiers of 1 to 40 characters, some of them 2- to 4-byte UTF-8.
fn arb_name() -> impl Strategy<Value = Symbol> {
    prop_oneof!["[a-z]{1,6}", "[a-z0-9λπ中é🦀-]{1,40}"].prop_map(|s| Symbol::intern(&s))
}

/// Floats of every magnitude, from subnormals past 1e15 to ±∞. NaN bit
/// patterns, which no literal spells, become ∞.
fn arb_float() -> impl Strategy<Value = F64> {
    let bits = any::<i64>().prop_map(|b| f64::from_bits(b as u64));
    prop_oneof![bits, Just(f64::INFINITY), Just(f64::NEG_INFINITY)]
        .prop_map(|x| F64::new(if x.is_nan() { f64::INFINITY } else { x }).expect("not NaN"))
}

fn arb_leaf() -> BoxedStrategy<Expr> {
    prop_oneof![
        any::<i64>().prop_map(Expr::int),
        any::<bool>().prop_map(Expr::bool),
        arb_float().prop_map(|x| Expr::Const(Const::Float(x))),
        arb_name().prop_map(Expr::Var),
        arb_name().prop_map(Expr::FnRef),
    ]
    .boxed()
}

/// Every expression form, including zero-argument calls, primitives and
/// applications, and `let` binders and `lambda` parameters of varied length.
fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
    arb_leaf().prop_recursive(depth, 64, 3, |inner| {
        prop_oneof![
            (0..ALL_PRIMS.len(), vec(inner.clone(), 0..4))
                .prop_map(|(i, args)| Expr::Prim(ALL_PRIMS[i], args)),
            (arb_name(), vec(inner.clone(), 0..4)).prop_map(|(f, args)| Expr::Call(f, args)),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Expr::If(
                Box::new(c),
                Box::new(t),
                Box::new(f)
            )),
            (arb_name(), inner.clone(), inner.clone()).prop_map(|(x, b, body)| Expr::Let(
                x,
                Box::new(b),
                Box::new(body)
            )),
            (vec(arb_name(), 0..3), inner.clone())
                .prop_map(|(ps, body)| Expr::Lambda(ps, Box::new(body))),
            (inner.clone(), vec(inner, 0..3)).prop_map(|(f, args)| Expr::App(Box::new(f), args)),
        ]
    })
}

/// Chains 100 to 160 deep through every position that shifts the indent,
/// so inner forms sit far past column 72.
fn arb_chain() -> impl Strategy<Value = Expr> {
    (vec((0..6usize, arb_name()), 100..160), arb_leaf()).prop_map(|(links, leaf)| {
        links.into_iter().fold(leaf, |e, (kind, x)| match kind {
            0 => Expr::Prim(Prim::Neg, vec![e]),
            1 => Expr::Call(x, vec![e, Expr::Var(x)]),
            2 => Expr::Let(x, Box::new(e), Box::new(Expr::Var(x))),
            3 => Expr::If(Box::new(e), Box::new(Expr::Var(x)), Box::new(Expr::int(0))),
            4 => Expr::Lambda(vec![x], Box::new(e)),
            _ => Expr::App(Box::new(e), vec![Expr::Var(x)]),
        })
    })
}

/// `(let ((xxx… e)) e)` with the binder sized so that `e`, once the `let`
/// breaks, has one byte more than, exactly, or one byte less than the room
/// its one-line form needs.
fn arb_boundary() -> impl Strategy<Value = Expr> {
    (arb_expr(2), 0..3usize).prop_map(|(e, slack)| {
        let width = reference::flat(&e).len();
        let binder = "x".repeat((63 + slack).saturating_sub(width).max(1));
        Expr::Let(Symbol::intern(&binder), Box::new(e.clone()), Box::new(e))
    })
}

/// Programs whose definition names run from 1 byte to well past 72, with
/// one definition whose name puts its body exactly at the header-line limit
/// (or one byte to either side).
fn arb_program() -> impl Strategy<Value = Program> {
    let def = (
        prop_oneof!["[a-z]{1,8}", "[a-zλ中]{1,90}"],
        vec(arb_name(), 0..4),
        arb_expr(3),
    );
    (vec(def, 1..4), arb_expr(2), 0..3usize).prop_map(|(defs, edge, slack)| {
        let width = reference::flat(&edge).len();
        let edge_name = "h".repeat((71 + slack).saturating_sub(width).max(1));
        let mut out: Vec<FunDef> = defs
            .into_iter()
            .enumerate()
            .map(|(i, (name, params, body))| {
                FunDef::new(Symbol::intern(&format!("{name}{i}")), params, body)
            })
            .collect();
        out.push(FunDef::new(Symbol::intern(&edge_name), vec![], edge));
        Program::new(out).expect("names are distinct")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn expressions_match_reference(e in arb_expr(5)) {
        prop_assert_eq!(pretty_expr(&e), reference::pretty_expr(&e));
    }

    #[test]
    fn width_boundaries_match_reference(e in arb_boundary()) {
        prop_assert_eq!(pretty_expr(&e), reference::pretty_expr(&e));
    }

    #[test]
    fn programs_match_reference(p in arb_program()) {
        prop_assert_eq!(pretty_program(&p), reference::pretty_program(&p));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn deep_chains_match_reference(e in arb_chain()) {
        prop_assert_eq!(pretty_expr(&e), reference::pretty_expr(&e));
    }
}
