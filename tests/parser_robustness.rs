//! Parser and printer robustness: no panics on arbitrary input, and
//! round-trips for generated expressions including the higher-order forms.

use ppe::lang::{parse_expr, parse_program, pretty_expr, Const, Expr, Prim, Symbol, F64};
use proptest::prelude::*;

/// Floats of every magnitude, from subnormals past 1e15 to ±∞. NaN bit
/// patterns, which no literal spells, become ∞.
fn arb_float() -> impl Strategy<Value = F64> {
    let bits = any::<i64>().prop_map(|b| f64::from_bits(b as u64));
    prop_oneof![bits, Just(f64::INFINITY), Just(f64::NEG_INFINITY)]
        .prop_map(|x| F64::new(if x.is_nan() { f64::INFINITY } else { x }).expect("not NaN"))
}

/// Generator of well-formed expressions over `x`, `y`, including `let`,
/// `lambda` and general application.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-100i64..=100).prop_map(Expr::int),
        any::<bool>().prop_map(Expr::bool),
        arb_float().prop_map(|x| Expr::Const(Const::Float(x))),
        Just(Expr::var("x")),
        Just(Expr::var("y")),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::prim(Prim::Add, vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::prim(Prim::Lt, vec![a, b])),
            inner.clone().prop_map(|a| Expr::prim(Prim::Not, vec![a])),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(a, b, c)| { Expr::If(Box::new(a), Box::new(b), Box::new(c)) }),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| { Expr::Let(Symbol::intern("z"), Box::new(a), Box::new(b)) }),
            inner
                .clone()
                .prop_map(|b| { Expr::Lambda(vec![Symbol::intern("w")], Box::new(b)) }),
            (inner.clone(), inner).prop_map(|(f, a)| {
                // Apply a lambda so the operator position is a value.
                Expr::App(
                    Box::new(Expr::Lambda(vec![Symbol::intern("w")], Box::new(f))),
                    vec![a],
                )
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse ∘ pretty = id` for generated expressions, including λ and
    /// application (the expression round-trip law stated in the
    /// pretty-printer docs).
    #[test]
    fn pretty_parse_round_trip(e in arb_expr()) {
        let printed = pretty_expr(&e);
        let back = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("{printed}\n{err}"));
        prop_assert_eq!(back, e);
    }

    /// The lexer/parser never panic on arbitrary ASCII soup — they return
    /// errors.
    #[test]
    fn arbitrary_ascii_never_panics(s in "[ -~\\n]{0,80}") {
        let _ = parse_expr(&s);
        let _ = parse_program(&s);
    }

    /// Same for arbitrary Unicode.
    #[test]
    fn arbitrary_unicode_never_panics(s in "\\PC{0,40}") {
        let _ = parse_expr(&s);
        let _ = parse_program(&s);
    }

    /// Deeply right-nested input parses without stack trouble at modest
    /// depth and errors (not panics) at silly depth.
    #[test]
    fn nesting_depth_is_handled(depth in 1usize..120) {
        let src = format!("{}1{}", "(neg ".repeat(depth), ")".repeat(depth));
        let e = parse_expr(&src).unwrap();
        prop_assert_eq!(e.size(), depth + 1);
    }
}

#[test]
fn unmatched_parens_error_cleanly() {
    assert!(parse_expr("(((").is_err());
    assert!(parse_expr(")").is_err());
    assert!(parse_expr("(+ 1 2))").is_err());
}

#[test]
fn comments_and_whitespace_everywhere() {
    let e = parse_expr("( + ;comment\n 1 ;x\n 2 )").unwrap();
    assert_eq!(e, Expr::prim(Prim::Add, vec![Expr::int(1), Expr::int(2)]));
}

#[test]
fn unicode_identifiers_round_trip() {
    let p = parse_program("(define (ƒun λx) λx)").unwrap();
    let printed = ppe::lang::pretty_program(&p);
    assert_eq!(parse_program(&printed).unwrap().defs(), p.defs());
}
