//! What the VM chunk key needs of `term::fingerprint_of`. The key reads
//! `Program::term_fingerprint`, a memoized fold of the walk over the
//! definitions, and a hit hands back chunks compiled from another program.
//! So equal trees must fingerprint alike, however they were built, and a
//! tree that differs in any one node, in any form and any child position,
//! must fingerprint differently, floats by their bits (`0.0` and `-0.0`
//! compile to different constants).

use std::collections::HashSet;

use ppe_lang::term::fingerprint_of;
use ppe_lang::{
    parse_defs, pretty_program, Const, Expr, FunDef, Prim, Program, Symbol, ALL_PRIMS, F64,
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

/// The fold `Program::term_fingerprint` memoizes, recomputed afresh.
fn fresh_fold(p: &Program) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for d in p.defs() {
        mix(fingerprint_of(&d.body));
        mix(d.params.len() as u64);
    }
    h
}

/// A variable no generated expression holds: [`arb_name`] always starts
/// with `q`.
fn mutant() -> Expr {
    Expr::Var(Symbol::intern("mutant"))
}

/// Replaces the subtree at preorder index `*at` (below `e.size()`) with
/// [`mutant`]; counts `*at` down past the subtrees it skips.
fn replace_at(e: &mut Expr, at: &mut usize) {
    if *at == 0 {
        *e = mutant();
        *at = usize::MAX;
        return;
    }
    *at -= 1;
    let kids: Vec<&mut Expr> = match e {
        Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => Vec::new(),
        Expr::Prim(_, args) | Expr::Call(_, args) => args.iter_mut().collect(),
        Expr::If(c, t, f) => vec![&mut **c, &mut **t, &mut **f],
        Expr::Let(_, b, body) => vec![&mut **b, &mut **body],
        Expr::Lambda(_, body) => vec![&mut **body],
        Expr::App(f, args) => std::iter::once(&mut **f).chain(args.iter_mut()).collect(),
    };
    for k in kids {
        if *at == usize::MAX {
            return;
        }
        replace_at(k, at);
    }
}

fn float(x: f64) -> Expr {
    Expr::Const(Const::Float(F64::new(x).expect("not NaN")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_changed_node_changes_the_fingerprint(
        e in arb_expr(),
        at in any::<i64>(),
    ) {
        // An equal tree built apart fingerprints alike.
        prop_assert_eq!(fingerprint_of(&e), fingerprint_of(&e.clone()));
        let mut changed = e.clone();
        replace_at(&mut changed, &mut (at.unsigned_abs() as usize % e.size()));
        prop_assert!(fingerprint_of(&e) != fingerprint_of(&changed), "{:?}", changed);
    }

    #[test]
    fn floats_fingerprint_by_their_bits(a in arb_float(), b in arb_float()) {
        let same = fingerprint_of(&float(a.get())) == fingerprint_of(&float(b.get()));
        prop_assert_eq!(same, a.get().to_bits() == b.get().to_bits(), "{} {}", a, b);
    }

    #[test]
    fn program_memo_equals_a_fresh_fold(p in arb_program()) {
        let fresh = fresh_fold(&p);
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
    // Fixed instances of each form, and of each form with one field or one
    // child changed, so a form the generator stops producing still gets
    // checked. No two are the same tree, so no two may share a fingerprint.
    let s = Symbol::intern;
    let (x, y) = (s("qx"), s("qy"));
    let var = Expr::Var;
    let if_ = |c, t, f| Expr::If(Box::new(c), Box::new(t), Box::new(f));
    let let_ = |x, b, body| Expr::Let(x, Box::new(b), Box::new(body));
    let lambda = |ps: &[Symbol], body| Expr::Lambda(ps.to_vec(), Box::new(body));
    let app = |f, args| Expr::App(Box::new(f), args);
    let exprs = [
        // Constants: each type, both zeros, both infinities.
        Expr::int(-7),
        Expr::int(7),
        Expr::int(0),
        Expr::int(1),
        Expr::bool(true),
        Expr::bool(false),
        float(0.0),
        float(-0.0),
        float(f64::INFINITY),
        float(f64::NEG_INFINITY),
        float(1.5),
        // A name as a variable and as a function reference.
        var(x),
        var(y),
        Expr::FnRef(x),
        Expr::FnRef(s("qf")),
        // Primitives: the operator, each operand, the operand count.
        Expr::Prim(Prim::Add, vec![var(x), Expr::int(1)]),
        Expr::Prim(Prim::Sub, vec![var(x), Expr::int(1)]),
        Expr::Prim(Prim::Add, vec![var(y), Expr::int(1)]),
        Expr::Prim(Prim::Add, vec![var(x), Expr::int(2)]),
        Expr::Prim(Prim::Add, vec![var(x), float(0.0)]),
        Expr::Prim(Prim::Add, vec![var(x), float(-0.0)]),
        Expr::Prim(Prim::Add, vec![var(x)]),
        // Calls: the callee, the argument, the argument count.
        Expr::Call(s("def0"), vec![var(x)]),
        Expr::Call(s("def1"), vec![var(x)]),
        Expr::Call(s("def0"), vec![var(y)]),
        Expr::Call(s("def0"), vec![var(x), var(x)]),
        // Conditionals: each of the three children.
        if_(Expr::bool(false), Expr::int(1), Expr::int(2)),
        if_(Expr::bool(true), Expr::int(1), Expr::int(2)),
        if_(Expr::bool(false), Expr::int(3), Expr::int(2)),
        if_(Expr::bool(false), Expr::int(1), Expr::int(3)),
        // `let`: the binder, the bound expression, the body.
        let_(x, Expr::int(3), var(x)),
        let_(y, Expr::int(3), var(x)),
        let_(x, Expr::int(4), var(x)),
        let_(x, Expr::int(3), var(y)),
        // λ: the binders' order and count, the body.
        lambda(&[x, y], var(x)),
        lambda(&[y, x], var(x)),
        lambda(&[x], var(x)),
        lambda(&[], var(x)),
        lambda(&[x, y], var(y)),
        // Application: the operator, the argument, the argument count.
        app(var(s("qf")), vec![Expr::int(4)]),
        app(var(s("qg")), vec![Expr::int(4)]),
        app(var(s("qf")), vec![Expr::int(5)]),
        app(var(s("qf")), vec![Expr::int(4), Expr::int(4)]),
    ];
    let fingerprints: HashSet<u64> = exprs.iter().map(fingerprint_of).collect();
    assert_eq!(fingerprints.len(), exprs.len(), "two instances collide");
    for e in &exprs {
        assert_eq!(fingerprint_of(e), fingerprint_of(&e.clone()), "{e:?}");
    }
}
