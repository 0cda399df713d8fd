//! The plain fingerprint walk against the interner. The VM chunk key reads
//! `Program::term_fingerprint`, a fold of `term::fingerprint_of` over the
//! definitions, instead of interning every body; that is sound only while
//! the walk returns exactly what interning records, on every expression
//! form.

use ppe_lang::term::fingerprint_of;
use ppe_lang::{
    parse_defs, pretty_program, Const, Expr, FunDef, Program, Symbol, Term, ALL_PRIMS, F64,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Short names that no keyword or primitive spells.
fn arb_name() -> impl Strategy<Value = Symbol> {
    "[a-z]{0,3}".prop_map(|s| Symbol::intern(&format!("q{s}")))
}

/// The definitions of [`arb_program`], which calls name so that printed
/// programs parse again.
fn arb_callee() -> impl Strategy<Value = Symbol> {
    (0..DEFS).prop_map(|i| Symbol::intern(&format!("def{i}")))
}

const DEFS: usize = 3;

/// Floats of every magnitude, both zeros and ±∞. NaN bit patterns, which
/// no literal spells, become ∞.
fn arb_float() -> impl Strategy<Value = F64> {
    let bits = any::<i64>().prop_map(|b| f64::from_bits(b as u64));
    prop_oneof![
        bits,
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY)
    ]
    .prop_map(|x| F64::new(if x.is_nan() { f64::INFINITY } else { x }).expect("not NaN"))
}

/// All nine forms: constants of each type, variables, function references,
/// primitives at their arity, calls, conditionals, `let`, λ with zero to
/// three binders, and general application.
fn arb_expr() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Expr::int),
        any::<bool>().prop_map(Expr::bool),
        arb_float().prop_map(|x| Expr::Const(Const::Float(x))),
        arb_name().prop_map(Expr::Var),
        arb_name().prop_map(Expr::FnRef),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        // Every primitive takes at most three operands.
        let prim = (0..ALL_PRIMS.len(), vec(inner.clone(), 3..4)).prop_map(|(i, mut args)| {
            args.truncate(ALL_PRIMS[i].arity());
            Expr::Prim(ALL_PRIMS[i], args)
        });
        let lambda = (vec(arb_name(), 0..4), inner.clone())
            .prop_map(|(ps, body)| Expr::Lambda(ps, Box::new(body)))
            .boxed();
        prop_oneof![
            prim,
            (arb_callee(), vec(inner.clone(), 1..4)).prop_map(|(f, args)| Expr::Call(f, args)),
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
            lambda.clone(),
            // A λ in operator position, so that the printed form parses.
            (lambda, vec(inner, 1..3)).prop_map(|(f, args)| Expr::App(Box::new(f), args)),
        ]
    })
}

/// The definitions `def0` … `def2`.
fn arb_program() -> impl Strategy<Value = Program> {
    vec((vec(arb_name(), 0..3), arb_expr()), DEFS..DEFS + 1).prop_map(|defs| {
        let defs = defs
            .into_iter()
            .enumerate()
            .map(|(i, (params, body))| {
                FunDef::new(Symbol::intern(&format!("def{i}")), params, body)
            })
            .collect();
        Program::new(defs).expect("names are distinct")
    })
}

/// The fold `Program::term_fingerprint` memoizes, recomputed afresh
/// through the interner.
fn interned_fold(p: &Program) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for d in p.defs() {
        mix(Term::from_expr(&d.body).fingerprint());
        mix(d.params.len() as u64);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn walk_equals_the_interned_fingerprint(e in arb_expr()) {
        prop_assert_eq!(fingerprint_of(&e), Term::from_expr(&e).fingerprint());
    }

    #[test]
    fn program_memo_equals_a_fresh_fold(p in arb_program()) {
        let fresh = interned_fold(&p);
        prop_assert_eq!(p.term_fingerprint(), fresh);
        // The memo answers again without a walk, and clones inherit it.
        prop_assert_eq!(p.term_fingerprint(), fresh);
        prop_assert_eq!(p.clone().term_fingerprint(), fresh);
    }

    #[test]
    fn two_parses_of_one_source_share_one_chunk_key(p in arb_program()) {
        let src = pretty_program(&p);
        let key = || {
            let defs = parse_defs(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
            let p = Program::new(defs).expect("names are distinct");
            (p.fingerprint(), p.term_fingerprint())
        };
        prop_assert_eq!(key(), key());
    }
}

#[test]
fn every_form_is_covered() {
    // One fixed instance of each form, so a form the generator stops
    // producing still gets checked.
    let x = Symbol::intern("qx");
    let exprs = [
        Expr::int(-7),
        Expr::bool(true),
        Expr::Const(Const::Float(F64::new(-0.0).expect("not NaN"))),
        Expr::Var(x),
        Expr::FnRef(Symbol::intern("qf")),
        Expr::Prim(ALL_PRIMS[0], vec![Expr::Var(x), Expr::int(1)]),
        Expr::Call(Symbol::intern("def0"), vec![Expr::Var(x)]),
        Expr::If(
            Box::new(Expr::bool(false)),
            Box::new(Expr::int(1)),
            Box::new(Expr::int(2)),
        ),
        Expr::Let(x, Box::new(Expr::int(3)), Box::new(Expr::Var(x))),
        Expr::Lambda(vec![x, Symbol::intern("qy")], Box::new(Expr::Var(x))),
        Expr::App(
            Box::new(Expr::Lambda(vec![x], Box::new(Expr::Var(x)))),
            vec![Expr::int(4)],
        ),
    ];
    for e in &exprs {
        assert_eq!(fingerprint_of(e), Term::from_expr(e).fingerprint(), "{e:?}");
    }
}
