//! The residual cleanup pass (`optimize_program`) on deep self-similar
//! programs: a balanced expression whose two halves are identical at every
//! level has `2^d` tree nodes. No rule fires on it, so one iteration is
//! the copy of the input program and one bottom-up pass over every node.
//!
//! `PPE_BENCH_QUICK=1` shrinks the depth sweep for CI smoke runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppe_lang::{optimize_program, Expr, OptLevel, Prim, Program};
use std::hint::black_box;

/// A balanced self-similar expression of the given depth: each level is
/// `(+ sub sub)` over the *same* subtree, bottoming out at `(* x seed)`.
fn self_similar(depth: usize, seed: i64) -> Expr {
    let mut e = Expr::prim(Prim::Mul, vec![Expr::var("x"), Expr::int(seed)]);
    for _ in 0..depth {
        e = Expr::prim(Prim::Add, vec![e.clone(), e]);
    }
    e
}

/// Wraps the expression in a one-function program for the optimizer pass.
fn self_similar_program(depth: usize, seed: i64) -> Program {
    use ppe_lang::parse_program;
    // Parse a trivial shell, then swap in the deep body so the program
    // carries a real definition table.
    let shell = parse_program("(define (f x) x)").unwrap();
    let mut defs: Vec<_> = shell.defs().to_vec();
    defs[0].body = self_similar(depth, seed);
    Program::new(defs).unwrap()
}

fn depths() -> Vec<usize> {
    if std::env::var_os("PPE_BENCH_QUICK").is_some() {
        vec![10]
    } else {
        vec![10, 14, 18]
    }
}

fn bench_opt_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("opt_tree");
    for depth in depths() {
        // The cleanup pass an optimized server/CLI residual goes through.
        let program = self_similar_program(depth, 7);
        group.bench_with_input(BenchmarkId::new("optimize", depth), &depth, |b, _| {
            b.iter(|| black_box(optimize_program(black_box(&program), OptLevel::Safe)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_opt_tree);
criterion_main!(benches);
