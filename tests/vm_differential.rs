//! Differential testing of the bytecode VM against the AST evaluator.
//!
//! The AST evaluator is the semantic oracle: on every program and input,
//! the VM must produce the identical value *or* the identical error — and
//! the resource meters must agree too, because both engines advertise the
//! same fuel/depth/deadline contract to the Governor. Any divergence here
//! is a VM bug by definition.

mod common;

use common::{int_expr, program_of, small_const, CORPUS};
use ppe::lang::{parse_program, EvalError, Evaluator, Expr, FunDef, Prim, Program, Symbol, Value};
use ppe::online::{OnlinePe, PeInput};
use ppe::vm::{compile, Vm, VmOptions};
use proptest::prelude::*;

/// Runs both engines on the same program and inputs with the same fuel.
fn differential(
    program: &Program,
    args: &[Value],
    fuel: u64,
) -> (Result<Value, EvalError>, Result<Value, EvalError>, u64, u64) {
    let mut ast = Evaluator::with_fuel(program, fuel);
    let a = ast.run_main(args);
    let compiled = compile(program).expect("program compiles");
    let mut vm = Vm::with_options(VmOptions {
        fuel,
        ..VmOptions::default()
    });
    let v = vm.run_main(&compiled, args);
    (a, v, ast.fuel_used(), vm.fuel_used())
}

/// Per-corpus-entry concrete inputs: iprod wants vectors, the integer
/// programs get a small grid of ints (including values that drive
/// recursion depth and ones that error).
fn corpus_inputs(name: &str, arity: usize) -> Vec<Vec<Value>> {
    if name == "iprod" {
        let v3 = Value::vector(vec![
            Value::Float(1.0),
            Value::Float(2.0),
            Value::Float(3.0),
        ]);
        let w3 = Value::vector(vec![
            Value::Float(4.0),
            Value::Float(5.0),
            Value::Float(6.0),
        ]);
        let v1 = Value::vector(vec![Value::Float(7.0)]);
        return vec![
            vec![v3.clone(), w3.clone()],
            vec![v3.clone(), v1.clone()], // length mismatch → VectorIndex
            vec![v1.clone(), v1],
            vec![Value::Int(1), v3], // type error
        ];
    }
    let grid = [-3i64, 0, 1, 7, 12];
    match arity {
        1 => grid.iter().map(|&a| vec![Value::Int(a)]).collect(),
        2 => grid
            .iter()
            .flat_map(|&a| {
                grid.iter()
                    .map(move |&b| vec![Value::Int(a), Value::Int(b)])
            })
            .collect(),
        n => vec![vec![Value::Int(2); n]],
    }
}

#[test]
fn vm_agrees_with_oracle_on_the_corpus() {
    for &(name, src, arity) in CORPUS {
        let program = parse_program(src).unwrap();
        for args in corpus_inputs(name, arity) {
            let (a, v, af, vf) = differential(&program, &args, 1_000_000);
            assert_eq!(a, v, "{name} on {args:?}");
            assert_eq!(af, vf, "{name} fuel on {args:?}");
        }
    }
}

/// Fuel exhaustion must bite at the *same application* on both engines:
/// sweep fuel from zero past the program's actual consumption and require
/// identical outcomes and identical fuel accounting at every step.
#[test]
fn fuel_exhaustion_parity_across_the_whole_range() {
    let program =
        parse_program("(define (gauss n acc) (if (= n 0) acc (gauss (- n 1) (+ acc n))))").unwrap();
    let args = [Value::Int(9), Value::Int(0)];
    let (full, _, used, _) = differential(&program, &args, 1_000_000);
    assert!(full.is_ok());
    for fuel in 0..=used + 1 {
        let (a, v, af, vf) = differential(&program, &args, fuel);
        assert_eq!(a, v, "fuel={fuel}");
        assert_eq!(af, vf, "fuel accounting at fuel={fuel}");
        if fuel < used {
            assert_eq!(a.unwrap_err(), EvalError::OutOfFuel, "fuel={fuel}");
        } else {
            assert!(a.is_ok(), "fuel={fuel} should suffice (needs {used})");
        }
    }
}

/// Depth limits bite at the same call on both engines, across the whole
/// range from "entry call already too deep" to "plenty".
#[test]
fn depth_limit_parity_across_the_whole_range() {
    let program = parse_program("(define (down n) (if (= n 0) 0 (+ 1 (down (- n 1)))))").unwrap();
    let args = [Value::Int(8)];
    for max_depth in 1..=12u32 {
        let mut ast = Evaluator::new(&program);
        ast.set_max_depth(max_depth);
        let a = ast.run_main(&args);
        let compiled = compile(&program).unwrap();
        let mut vm = Vm::with_options(VmOptions {
            max_depth,
            ..VmOptions::default()
        });
        let v = vm.run_main(&compiled, &args);
        assert_eq!(a, v, "max_depth={max_depth}");
        if max_depth <= 8 {
            assert_eq!(
                v.unwrap_err(),
                EvalError::DepthExceeded,
                "max_depth={max_depth}"
            );
        } else {
            assert_eq!(v.unwrap(), Value::Int(8));
        }
    }
}

/// End to end through the specializer: residuals produced by online PE
/// run identically on both engines, and both agree with the source
/// program on the full inputs (the paper's Theorem 1, now with the VM in
/// the loop).
#[test]
fn residuals_of_the_corpus_agree_on_both_engines() {
    for &(name, src, arity) in CORPUS {
        if name == "iprod" {
            continue; // vector inputs; covered by the golden sweep
        }
        let program = parse_program(src).unwrap();
        // Tail-static shape: first input dynamic, the rest known 3.
        let mut inputs = vec![PeInput::known(Value::Int(3)); arity];
        inputs[0] = PeInput::dynamic();
        let facets = ppe::core::FacetSet::new();
        let residual = OnlinePe::new(&program, &facets)
            .specialize_main(&inputs)
            .expect("specialization succeeds");
        for x in [-2i64, 0, 5] {
            let full: Vec<Value> = (0..arity)
                .map(|i| if i == 0 { Value::Int(x) } else { Value::Int(3) })
                .collect();
            let source = Evaluator::with_fuel(&program, 200_000).run_main(&full);
            let res_args: Vec<Value> = residual
                .program
                .main()
                .params
                .iter()
                .map(|_| Value::Int(x))
                .collect();
            let (a, v, _, _) = differential(&residual.program, &res_args, 200_000);
            assert_eq!(a, v, "{name} residual engines diverge at x={x}");
            match (&source, &v) {
                (Ok(s), Ok(r)) => assert_eq!(s, r, "{name} residual wrong at x={x}"),
                (Err(_), Err(_)) => {}
                (s, r) => panic!("{name} at x={x}: source {s:?}, residual-on-vm {r:?}"),
            }
        }
    }
}

/// Right-nested same-operator spines lower to the FoldChain
/// superinstruction; every case here must agree with the oracle on value,
/// error classification, *and* the point in evaluation order where the
/// error fires. Non-associative operators (`-`) pin the fold direction.
#[test]
fn fold_chain_parity() {
    let deep_sub = {
        // (- 1 (- 2 (- 3 … (- 19 20)))) — 20 elements, one fold.
        let mut s = String::new();
        for i in 1..20 {
            s.push_str(&format!("(- {i} "));
        }
        s.push_str("20");
        for _ in 1..20 {
            s.push(')');
        }
        s
    };
    let cases: &[(&str, &str)] = &[
        // Non-associative spine: the fold order is observable in the value.
        ("sub chain", "(define (f x y) (- x (- 1 (- y (- 2 x)))))"),
        ("deep sub chain", &format!("(define (f x y) {deep_sub})")),
        // Mixed leaves and duplicate variables.
        ("dup vars", "(define (f x y) (+ x (+ x (+ y (+ x y)))))"),
        // Mid-chain overflow: which application overflows is order-dependent.
        (
            "overflow mid-chain",
            "(define (f x y) (* x (* 4611686018427387904 (* x (* y 2)))))",
        ),
        // Element evaluation errors fire before any application.
        (
            "type error mid-chain",
            "(define (f x y) (+ x (+ (< x y) (+ y (+ x 1)))))",
        ),
        // Chain under a conditional, on the jump-landing path.
        (
            "chain after branch",
            "(define (f x y) (if (< x y) (+ x (+ y (+ x (+ y 1)))) (- x (- y (- x (- y 1))))))",
        ),
        // Elements with calls: fuel is charged during element evaluation.
        (
            "calls in chain",
            "(define (f x y) (+ (g x) (+ (g y) (+ (g x) (+ x y)))))
             (define (g n) (* n n))",
        ),
    ];
    for (name, src) in cases {
        let program = parse_program(src).unwrap();
        for args in corpus_inputs(name, 2) {
            for fuel in [0u64, 2, 100_000] {
                let (a, v, af, vf) = differential(&program, &args, fuel);
                assert_eq!(a, v, "{name} on {args:?} fuel={fuel}");
                assert_eq!(af, vf, "{name} fuel meters on {args:?} fuel={fuel}");
            }
        }
    }
}

/// A call argument: often a bare variable, so the compiler's
/// `Op::Release` of a binding that dies in the call window gets exercised.
fn call_arg() -> impl Strategy<Value = Expr> {
    prop_oneof![Just(Expr::var("x")), Just(Expr::var("y")), int_expr()]
}

/// Caller bodies over `x` and `y` that call the helper `g` — at the top,
/// in `if` conditions and branches, and in `let` bindings and bodies.
fn caller_expr() -> impl Strategy<Value = Expr> {
    let call = || (call_arg(), call_arg()).prop_map(|(a, b)| Expr::call("g", vec![a, b]));
    prop_oneof![call(), int_expr()].prop_recursive(3, 24, 3, move |inner| {
        prop_oneof![
            (inner.clone(), call()).prop_map(|(a, c)| Expr::prim(Prim::Add, vec![a, c])),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(a, t, f)| {
                let c = Expr::prim(Prim::Lt, vec![a, Expr::int(1)]);
                Expr::If(Box::new(c), Box::new(t), Box::new(f))
            }),
            (inner.clone(), inner).prop_map(|(bound, body)| {
                let z = Symbol::intern("z");
                let body = Expr::prim(Prim::Mul, vec![Expr::Var(z), body]);
                Expr::Let(z, Box::new(bound), Box::new(body))
            }),
        ]
    })
}

/// `(define (f x y) <caller>) (define (g x y) <helper>)`: every call to
/// `g` crosses from one chunk to another.
fn caller_and_helper(caller: &Expr, helper: &Expr) -> Program {
    let params = || vec![Symbol::intern("x"), Symbol::intern("y")];
    Program::new(vec![
        FunDef::new(Symbol::intern("f"), params(), caller.clone()),
        FunDef::new(Symbol::intern("g"), params(), helper.clone()),
    ])
    .expect("two definitions")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Cross-chunk calls to a non-recursive helper: identical
    /// value-or-error and fuel on both engines, at full fuel and starved.
    #[test]
    fn vm_agrees_on_random_cross_chunk_calls(
        caller in caller_expr(),
        helper in int_expr(),
        x in -6i64..=6,
        y in small_const(),
    ) {
        let program = caller_and_helper(&caller, &helper);
        let args = [Value::Int(x), Value::from_const(y)];
        let (a, v, used, vf) = differential(&program, &args, 100_000);
        prop_assert_eq!(&a, &v, "engines diverge");
        prop_assert_eq!(used, vf, "fuel meters diverge");
        for fuel in [0, used / 2, used.saturating_sub(1)] {
            let (a, v, af, vf) = differential(&program, &args, fuel);
            prop_assert_eq!(&a, &v, "starved engines diverge at fuel={}", fuel);
            prop_assert_eq!(af, vf, "starved fuel meters diverge at fuel={}", fuel);
        }
    }

    /// Random typed expressions: identical value-or-error on both engines,
    /// with identical fuel consumption.
    #[test]
    fn vm_agrees_on_random_programs(body in int_expr(), x in -6i64..=6, y in small_const()) {
        let program = program_of(&body);
        let args = [Value::Int(x), Value::from_const(y)];
        let (a, v, af, vf) = differential(&program, &args, 100_000);
        prop_assert_eq!(&a, &v, "engines diverge");
        prop_assert_eq!(af, vf, "fuel meters diverge");
    }

    /// Random programs under *starvation*: whatever fuel the oracle needs,
    /// giving both engines less must fail identically.
    #[test]
    fn vm_agrees_on_random_programs_when_starved(body in int_expr(), x in -6i64..=6) {
        let program = program_of(&body);
        let args = [Value::Int(x), Value::Int(2)];
        let (_, _, used, _) = differential(&program, &args, 100_000);
        for fuel in [0, used / 2, used.saturating_sub(1)] {
            let (a, v, af, vf) = differential(&program, &args, fuel);
            prop_assert_eq!(&a, &v, "starved engines diverge at fuel={}", fuel);
            prop_assert_eq!(af, vf, "starved fuel meters diverge at fuel={}", fuel);
        }
    }

    /// Specialize-then-execute on random programs: the residual runs
    /// identically on both engines.
    #[test]
    fn vm_agrees_on_random_residuals(body in int_expr(), x in -6i64..=6, y in small_const()) {
        let program = program_of(&body);
        let facets = ppe::core::FacetSet::new();
        let residual = OnlinePe::new(&program, &facets)
            .specialize_main(&[PeInput::dynamic(), PeInput::known(Value::from_const(y))])
            .expect("specialization succeeds");
        let args: Vec<Value> = residual
            .program
            .main()
            .params
            .iter()
            .map(|_| Value::Int(x))
            .collect();
        let (a, v, af, vf) = differential(&residual.program, &args, 100_000);
        prop_assert_eq!(&a, &v, "engines diverge on residual");
        prop_assert_eq!(af, vf, "fuel meters diverge on residual");
    }
}
