//! Online partial evaluation of higher-order programs (Section 5.5 says
//! "the techniques for higher order online partial evaluation are now
//! known"): β-reduction of manifest lambdas, inlining of known function
//! references, residualization of genuinely unknown applications — and
//! semantic correctness throughout.

use ppe::core::facets::{SignFacet, SignVal};
use ppe::core::{AbsVal, FacetSet};
use ppe::lang::{parse_program, pretty_program, Evaluator, Expr, Value};
use ppe::online::{OnlinePe, PeInput, SimpleInput, SimplePe};

fn specialize(src: &str, inputs: &[PeInput]) -> (ppe::lang::Program, ppe::online::Residual) {
    let program = parse_program(src).unwrap();
    let facets = FacetSet::new();
    let residual = OnlinePe::new(&program, &facets)
        .specialize_main(inputs)
        .unwrap();
    (program, residual)
}

#[test]
fn manifest_lambdas_beta_reduce() {
    let (_, r) = specialize(
        "(define (main x) ((lambda (y) (+ y y)) x))",
        &[PeInput::known(Value::Int(21))],
    );
    assert_eq!(r.program.main().body, Expr::int(42));
}

#[test]
fn known_function_references_inline_through_combinators() {
    let (_, r) = specialize(
        "(define (main x) (compose2 inc dbl x))
         (define (compose2 f g v) (f (g v)))
         (define (inc v) (+ v 1))
         (define (dbl v) (* v 2))",
        &[PeInput::known(Value::Int(5))],
    );
    assert_eq!(r.program.main().body, Expr::int(11));
}

#[test]
fn higher_order_with_dynamic_data_still_unfolds_structure() {
    // The combinator structure is static even though x is dynamic: the
    // residual is first-order arithmetic.
    let (program, r) = specialize(
        "(define (main x) (twice square x))
         (define (twice f v) (f (f v)))
         (define (square v) (* v v))",
        &[PeInput::dynamic()],
    );
    let printed = pretty_program(&r.program);
    assert!(!printed.contains("twice"), "{printed}");
    assert!(!printed.contains("lambda"), "{printed}");
    for x in [-3i64, 0, 2] {
        let a = Evaluator::new(&program).run_main(&[Value::Int(x)]).unwrap();
        let b = Evaluator::new(&r.program)
            .run_main(&[Value::Int(x)])
            .unwrap();
        assert_eq!(a, b, "x = {x}");
    }
}

#[test]
fn lambdas_over_dynamic_captures_stay_residual_but_correct() {
    let (program, r) = specialize(
        "(define (main x k) (apply1 (lambda (v) (+ v k)) x))
         (define (apply1 f v) (f v))",
        &[PeInput::dynamic(), PeInput::dynamic()],
    );
    for (x, k) in [(1i64, 2i64), (-4, 9)] {
        let a = Evaluator::new(&program)
            .run_main(&[Value::Int(x), Value::Int(k)])
            .unwrap();
        let b = Evaluator::new(&r.program)
            .run_main(&[Value::Int(x), Value::Int(k)])
            .unwrap();
        assert_eq!(a, b, "({x}, {k})");
    }
}

#[test]
fn facets_flow_through_beta_reduction() {
    // x is negative; the lambda squares it; the guard on the square dies.
    let program =
        parse_program("(define (main x) ((lambda (v) (if (< (* v v) 0) 0 1)) x))").unwrap();
    let facets = FacetSet::with_facets(vec![Box::new(SignFacet)]);
    let r = OnlinePe::new(&program, &facets)
        .specialize_main(&[PeInput::dynamic().with_facet("sign", AbsVal::new(SignVal::Neg))])
        .unwrap();
    assert_eq!(r.program.main().body, Expr::int(1));
}

#[test]
fn residual_function_values_remain_applicable() {
    // A function value escapes into the residual through a dynamic
    // conditional; the residual program must still run it.
    let (program, r) = specialize(
        "(define (main d x) ((pick d) x))
         (define (pick d) (if (< d 0) inc dec))
         (define (inc v) (+ v 1))
         (define (dec v) (- v 1))",
        &[PeInput::dynamic(), PeInput::dynamic()],
    );
    for (d, x) in [(-1i64, 10i64), (1, 10)] {
        let a = Evaluator::new(&program)
            .run_main(&[Value::Int(d), Value::Int(x)])
            .unwrap();
        let b = Evaluator::new(&r.program)
            .run_main(&[Value::Int(d), Value::Int(x)])
            .unwrap();
        assert_eq!(a, b, "({d}, {x})");
    }
}

#[test]
fn church_style_iteration_specializes_to_straight_line() {
    // n-fold application with a static n: the whole tower collapses.
    let (_, r) = specialize(
        "(define (main x n) (iter n inc x))
         (define (iter n f v) (if (= n 0) v (f (iter (- n 1) f v))))
         (define (inc v) (+ v 1))",
        &[PeInput::dynamic(), PeInput::known(Value::Int(4))],
    );
    let printed = pretty_program(&r.program);
    assert!(!printed.contains("iter"), "{printed}");
    // The iteration is gone; four applications of the (residualized)
    // increment remain, nested directly.
    assert!(
        printed.contains("(inc_1 (inc_1 (inc_1 (inc_1 x))))"),
        "{printed}"
    );
}

/// A manifest λ whose body mentions a dynamic variable of the enclosing
/// scope β-reduces with that variable standing for itself, and a λ binder
/// reusing the name of the caller variable an unfolded argument stands for
/// is renamed rather than capturing it — on the online and simple engines
/// (the offline analysis has no λs).
#[test]
fn beta_reduced_lambdas_keep_their_free_variables() {
    for src in [
        "(define (f x) ((lambda (v) (+ v x)) 3))",
        "(define (f x) (let ((y (+ x 1))) (g y 5)))
         (define (g a n) ((lambda (y) (+ y a)) (* a n)))",
    ] {
        let program = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let online = OnlinePe::new(&program, &facets)
            .specialize_main(&[PeInput::dynamic()])
            .unwrap()
            .program;
        let simple = SimplePe::new(&program)
            .specialize_main(&[SimpleInput::Dynamic])
            .unwrap()
            .program;
        for residual in [online, simple] {
            for x in [-3i64, 0, 2, 7] {
                let expected = Evaluator::new(&program).run_main(&[Value::Int(x)]);
                let got = Evaluator::new(&residual).run_main(&[Value::Int(x)]);
                assert_eq!(expected, got, "x = {x}: {}", pretty_program(&residual));
            }
        }
    }
}
