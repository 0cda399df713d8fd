//! A bytecode compiler and virtual machine for residual programs.
//!
//! The point of partial evaluation is that residual programs *run fast*
//! (the paper's §1 and §7), but a tree-walking interpreter leaves most of
//! that speed on the table: every execution re-pays environment lookups,
//! per-node bookkeeping, and argument-vector allocation. This crate lowers
//! programs to a compact register bytecode once — variables become
//! registers, call arguments land in overlapping register windows, and
//! constants are pooled — and a `match`-dispatched loop executes them.
//!
//! The existing AST evaluator, [`ppe_lang::Evaluator`], is kept as the
//! *differential oracle*: on every program and input, both engines must
//! produce identical values and identical error classifications, including
//! fuel exhaustion and call-depth limits (see `tests/vm_differential.rs`
//! and the golden-corpus sweep at the workspace root).
//!
//! Compiled programs are cached process-wide, keyed by fingerprints of
//! the whole program, so repeat executions — the dominant pattern behind
//! the server's `"execute"` path — skip compilation entirely; see
//! [`compile_cached`] and [`vm_stats`].
//!
//! # Quick example
//!
//! ```
//! use ppe_lang::{parse_program, Value};
//! use ppe_vm::{compile, Vm};
//!
//! let p = parse_program(
//!     "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
//! ).unwrap();
//! let cp = compile(&p).unwrap();
//! let mut vm = Vm::new();
//! let out = vm.run_main(&cp, &[Value::Int(3), Value::Int(4)]).unwrap();
//! assert_eq!(out, Value::Int(81));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chunk;
pub mod compile;
mod spec_eval;
mod vm;

pub use cache::{compile_cached, vm_stats, VmStats};
pub use chunk::{Chunk, CompiledProgram, LambdaSite, Op};
pub use compile::{compile, CompileError, CompileErrorKind};
pub use spec_eval::VmStaticEval;
pub use vm::{execute_main, ExecReport, Vm, VmOptions};

#[cfg(test)]
mod tests {
    use super::*;
    use ppe_lang::{
        parse_program, EvalError, Evaluator, Expr, FunDef, Prim, Program, Symbol, Value,
    };

    fn both_p(p: &Program, args: &[Value]) -> (Result<Value, EvalError>, Result<Value, EvalError>) {
        let ast = Evaluator::new(p).run_main(args);
        let cp = compile(p).unwrap();
        let vm = Vm::new().run_main(&cp, args);
        (ast, vm)
    }

    fn both(src: &str, args: &[Value]) -> (Result<Value, EvalError>, Result<Value, EvalError>) {
        both_p(&parse_program(src).unwrap(), args)
    }

    #[test]
    fn agrees_on_factorial() {
        let (a, v) = both(
            "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))",
            &[Value::Int(10)],
        );
        assert_eq!(a, v);
        assert_eq!(v.unwrap(), Value::Int(3_628_800));
    }

    #[test]
    fn agrees_on_the_papers_inner_product() {
        let src = "(define (iprod a b) (let ((n (vsize a))) (dotprod a b n)))
                   (define (dotprod a b n)
                     (if (= n 0) 0.0
                         (+ (* (vref a n) (vref b n)) (dotprod a b (- n 1)))))";
        let a = Value::vector(vec![
            Value::Float(1.0),
            Value::Float(2.0),
            Value::Float(3.0),
        ]);
        let b = Value::vector(vec![
            Value::Float(4.0),
            Value::Float(5.0),
            Value::Float(6.0),
        ]);
        let (ast, vm) = both(src, &[a, b]);
        assert_eq!(ast, vm);
        assert_eq!(vm.unwrap(), Value::Float(32.0));
    }

    #[test]
    fn agrees_on_runtime_errors() {
        for (src, args) in [
            ("(define (f x) (/ x 0))", vec![Value::Int(1)]),
            ("(define (f x) (if x 1 2))", vec![Value::Int(3)]),
            (
                "(define (f x) (vref x 9))",
                vec![Value::vector(vec![Value::Int(1)])],
            ),
            ("(define (f x) (+ x #t))", vec![Value::Int(1)]),
        ] {
            let (a, v) = both(src, &args);
            assert_eq!(a, v, "on {src}");
            assert!(v.is_err(), "on {src}");
        }
    }

    #[test]
    fn fuel_accounting_matches_the_oracle_exactly() {
        let src = "(define (count n) (if (= n 0) 0 (count (- n 1))))";
        let p = parse_program(src).unwrap();
        let cp = compile(&p).unwrap();
        for fuel in [0u64, 1, 5, 11, 100] {
            let mut ast = Evaluator::with_fuel(&p, fuel);
            let a = ast.run_main(&[Value::Int(10)]);
            let mut vm = Vm::with_options(VmOptions {
                fuel,
                ..VmOptions::default()
            });
            let v = vm.run_main(&cp, &[Value::Int(10)]);
            assert_eq!(a, v, "fuel={fuel}");
            assert_eq!(ast.fuel_used(), vm.fuel_used(), "fuel={fuel}");
        }
    }

    #[test]
    fn depth_limit_matches_the_oracle_exactly() {
        let src = "(define (down n) (if (= n 0) 0 (+ 0 (down (- n 1)))))";
        let p = parse_program(src).unwrap();
        let cp = compile(&p).unwrap();
        for max_depth in [1u32, 2, 10, 50] {
            let mut ast = Evaluator::new(&p);
            ast.set_max_depth(max_depth);
            let a = ast.run_main(&[Value::Int(40)]);
            let mut vm = Vm::with_options(VmOptions {
                max_depth,
                ..VmOptions::default()
            });
            let v = vm.run_main(&cp, &[Value::Int(40)]);
            assert_eq!(a, v, "max_depth={max_depth}");
        }
    }

    #[test]
    fn closures_capture_and_apply() {
        let src = "(define (main x) (let ((add-x (lambda (y) (+ x y)))) (apply2 add-x 10)))
                   (define (apply2 f v) (f v))";
        let (a, v) = both(src, &[Value::Int(5)]);
        assert_eq!(a, v);
        assert_eq!(v.unwrap(), Value::Int(15));
    }

    #[test]
    fn fnrefs_dispatch_dynamically() {
        let src = "(define (main x) (twice inc x))
                   (define (twice f x) (f (f x)))
                   (define (inc x) (+ x 1))";
        let (a, v) = both(src, &[Value::Int(1)]);
        assert_eq!(a, v);
        assert_eq!(v.unwrap(), Value::Int(3));
    }

    #[test]
    fn nested_lambdas_chain_captures() {
        let src = "(define (main x)
                     (let ((outer (lambda (a) (lambda (b) (+ (+ a b) x)))))
                       ((outer 10) 100)))";
        let (a, v) = both(src, &[Value::Int(1)]);
        assert_eq!(a, v);
        assert_eq!(v.unwrap(), Value::Int(111));
    }

    #[test]
    fn strict_boolean_prims_evaluate_both_arms() {
        // `and` is strict: the erroring second argument fires even though
        // the first is #f.
        let src = "(define (f x) (and (< x 0) (< (/ 1 0) 1)))";
        let (a, v) = both(src, &[Value::Int(5)]);
        assert_eq!(a, v);
        assert_eq!(v.unwrap_err(), EvalError::DivByZero);
    }

    #[test]
    fn returned_closures_display_like_the_oracles() {
        let src = "(define (main x) (lambda (y) (+ x y)))";
        let (a, v) = both(src, &[Value::Int(1)]);
        assert_eq!(a.unwrap().to_string(), v.unwrap().to_string());
    }

    #[test]
    fn unbound_variable_fires_only_when_reached() {
        // `(define (f x) (if (< x 0) z x))` with `z` unbound: the parser
        // rejects this, but `Program::new` admits it and the oracle reports
        // `UnboundVar` only when the branch is taken. Parity either way.
        let body = Expr::If(
            Box::new(Expr::prim(Prim::Lt, vec![Expr::var("x"), Expr::int(0)])),
            Box::new(Expr::var("z")),
            Box::new(Expr::var("x")),
        );
        let p = Program::new(vec![FunDef::new(
            Symbol::intern("f"),
            vec![Symbol::intern("x")],
            body,
        )])
        .unwrap();
        let (a, v) = both_p(&p, &[Value::Int(5)]);
        assert_eq!(a, v);
        assert_eq!(v.unwrap(), Value::Int(5));
        let (a, v) = both_p(&p, &[Value::Int(-5)]);
        assert_eq!(a, v);
        assert!(matches!(v.unwrap_err(), EvalError::UnboundVar(_)));
    }

    #[test]
    fn unknown_function_call_fires_only_when_reached() {
        // `(define (f x) (if (< x 0) (mystery x) x))` — same idea with an
        // undefined callee.
        let body = Expr::If(
            Box::new(Expr::prim(Prim::Lt, vec![Expr::var("x"), Expr::int(0)])),
            Box::new(Expr::call("mystery", vec![Expr::var("x")])),
            Box::new(Expr::var("x")),
        );
        let p = Program::new(vec![FunDef::new(
            Symbol::intern("f"),
            vec![Symbol::intern("x")],
            body,
        )])
        .unwrap();
        let (a, v) = both_p(&p, &[Value::Int(5)]);
        assert_eq!(a, v);
        assert_eq!(v.unwrap(), Value::Int(5));
        let (a, v) = both_p(&p, &[Value::Int(-5)]);
        assert_eq!(a, v);
        assert!(matches!(v.unwrap_err(), EvalError::UnknownFunction(_)));
    }
}
