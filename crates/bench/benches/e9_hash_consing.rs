//! E9 — hash-consed terms. Measures the interner on deep self-similar
//! programs: a balanced expression whose two halves are identical at every
//! level has `2^d` tree nodes but only `O(d)` distinct subterms, so
//! interning collapses it to a handle chain. Three effects are isolated:
//!
//! - **warm interning**: re-interning an already-canonical structure is a
//!   fingerprint lookup per node actually visited;
//! - **cold interning**: a never-seen structure (every iteration varies a
//!   leaf constant) pays one shard insertion per distinct subterm;
//! - **O(1) equality**: comparing two interned handles of the same deep
//!   structure is a pointer comparison, where tree equality walks `2^d`
//!   nodes — this is what the specialization caches key on.
//!
//! `PPE_BENCH_QUICK=1` shrinks the depth sweep for CI smoke runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppe_lang::{optimize_program, Expr, OptLevel, Prim, Program, Term};
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

fn bench_e9(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_hash_consing");
    for depth in depths() {
        let tree = self_similar(depth, 7);

        // Warm: the structure is already canonical; every intern is a hit.
        let _prime = Term::from_expr(&tree);
        group.bench_with_input(BenchmarkId::new("intern_warm", depth), &depth, |b, _| {
            b.iter(|| black_box(Term::from_expr(black_box(&tree))));
        });

        // Cold: a fresh leaf constant every iteration makes every level of
        // the spine a new node (the leaf change propagates to the root).
        let mut seed = 1_000_000i64;
        group.bench_with_input(BenchmarkId::new("intern_cold", depth), &depth, |b, _| {
            b.iter(|| {
                seed += 1;
                black_box(Term::from_expr(black_box(&self_similar(depth, seed))))
            });
        });

        // Handle equality vs tree equality on the same deep structure.
        let a = Term::from_expr(&tree);
        let b2 = Term::from_expr(&tree);
        group.bench_with_input(BenchmarkId::new("eq_interned", depth), &depth, |b, _| {
            b.iter(|| black_box(black_box(&a) == black_box(&b2)));
        });
        let ta = tree.clone();
        let tb = tree.clone();
        group.bench_with_input(BenchmarkId::new("eq_tree", depth), &depth, |b, _| {
            b.iter(|| black_box(black_box(&ta) == black_box(&tb)));
        });

        // The tree optimizer on the same 2^d-node program: the cleanup
        // pass an optimized server/CLI residual goes through. It rewrites
        // the tree in place and interns nothing.
        let program = self_similar_program(depth, 7);
        group.bench_with_input(BenchmarkId::new("optimize", depth), &depth, |b, _| {
            b.iter(|| black_box(optimize_program(black_box(&program), OptLevel::Safe)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_e9);
criterion_main!(benches);
