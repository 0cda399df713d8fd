//! Residual-program cleanup passes.
//!
//! Partial evaluation leaves syntactic residue: `let`s binding trivial or
//! unused expressions, conditionals with constant tests produced late, and
//! branches that turned out identical. This module provides a small,
//! semantics-preserving optimizer over [`Expr`]/[`Program`].
//!
//! The passes rewrite the expression tree in place. One pass walks a body
//! bottom-up and applies four rules, each of which shrinks the tree: a
//! boolean test folds; identical branches collapse (keeping a test that
//! cannot be dropped as `(let ((_cond test)) branch)`); an unused `let` of
//! a droppable expression goes away; and a `let` bound to a constant,
//! variable or function reference is substituted into its body. Because
//! every rule shrinks the tree, "a rule fired" is exactly "the tree
//! changed", and the loop of at most eight passes stops at the first pass
//! that fires none. Cost: each binder-use test and each substitution walks
//! its `let` body once, and each identical-branch test compares two trees
//! in time bounded by the smaller branch.
//!
//! Strictness makes dead-code elimination delicate: a bound expression may
//! diverge or error, and dropping it would change behaviour. The default
//! [`OptLevel::Safe`] therefore only drops syntactically total expressions
//! (constants, variables, function references, lambdas).
//! [`OptLevel::PureArith`] additionally treats arithmetic, comparison and
//! boolean primitives as droppable — which forgets *error* outcomes
//! (overflow, type errors) of dead code, a trade-off real compilers make;
//! it never touches division, vector operations, or calls.

use std::collections::{HashMap, HashSet};

use crate::ast::{Const, Expr};
use crate::prim::Prim;
use crate::program::{FunDef, Program};
use crate::symbol::Symbol;

/// How aggressively dead code may be removed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OptLevel {
    /// Never drop an expression that could diverge or error.
    #[default]
    Safe,
    /// Additionally treat pure arithmetic/logic primitives as droppable
    /// (forgets error outcomes of dead code; see the module docs).
    PureArith,
}

/// Passes run per definition body before giving up on a fixed point.
const MAX_PASSES: usize = 8;

/// Applies the cleanup passes to every definition of a program until a
/// fixed point (bounded), returning the optimized program.
///
/// # Examples
///
/// ```
/// use ppe_lang::{optimize_program, parse_program, pretty_program, OptLevel};
///
/// let p = parse_program("(define (f x) (let ((dead 42)) (if #t x 0)))")?;
/// let o = optimize_program(&p, OptLevel::Safe);
/// assert_eq!(pretty_program(&o).trim(), "(define (f x) x)");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimize_program(program: &Program, level: OptLevel) -> Program {
    let mut defs = program.defs().to_vec();
    optimize_defs(&mut defs, level);
    rebuild(defs)
}

/// [`prune_unused_params`] after [`optimize_program`], on a program the
/// caller gives up: both rewrite its definitions in place, and the result
/// is built once. This is the cleanup a residual gets when a request asks
/// for `"optimize"`.
///
/// # Examples
///
/// ```
/// use ppe_lang::{optimize_residual, parse_program, pretty_program, OptLevel};
///
/// let p = parse_program(
///     "(define (main x) (g x 1)) (define (g x k) (let ((dead x)) (+ k 1)))",
/// )?;
/// let o = optimize_residual(p, OptLevel::Safe);
/// assert_eq!(pretty_program(&o), "(define (main) (g 1))\n\n(define (g k) (+ k 1))\n");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimize_residual(program: Program, level: OptLevel) -> Program {
    let mut defs = program.into_defs();
    optimize_defs(&mut defs, level);
    prune_defs(&mut defs, level);
    rebuild(defs)
}

fn optimize_defs(defs: &mut [FunDef], level: OptLevel) {
    for d in defs {
        for _ in 0..MAX_PASSES {
            if !pass(&mut d.body, level) {
                break;
            }
        }
    }
}

/// Rewraps definitions taken from a [`Program`]. The passes and the pruning
/// rewrite bodies and parameter lists, never names, so this cannot fail.
fn rebuild(defs: Vec<FunDef>) -> Program {
    Program::new(defs).expect("cleanup keeps every definition's name")
}

/// One bottom-up cleanup pass over an expression.
///
/// Convenience wrapper for tree-shaped callers; the pipeline-facing entry
/// points are [`optimize_program`] and [`optimize_residual`].
pub fn optimize_expr(e: &Expr, level: OptLevel) -> Expr {
    let mut e = e.clone();
    pass(&mut e, level);
    e
}

/// One bottom-up cleanup pass over `e`, in place. Returns whether any rule
/// fired, which (every rule shrinking the tree) is whether `e` changed.
fn pass(e: &mut Expr, level: OptLevel) -> bool {
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => false,
        Expr::Prim(_, args) | Expr::Call(_, args) => pass_all(args, level),
        Expr::App(f, args) => pass(f, level) | pass_all(args, level),
        Expr::Lambda(_, body) => pass(body, level),
        Expr::If(c, t, f) => {
            let fired = pass(c, level) | pass(t, level) | pass(f, level);
            // Constant tests fold.
            if let Expr::Const(Const::Bool(b)) = **c {
                *e = take(if b { t } else { f });
                return true;
            }
            // Identical branches collapse; the test is kept (sequenced)
            // unless it is droppable.
            if !same(t, f) {
                return fired;
            }
            *e = if is_droppable(c, level) {
                take(t)
            } else {
                let name = cond_binder(t);
                Expr::Let(name, Box::new(take(c)), Box::new(take(t)))
            };
            true
        }
        Expr::Let(x, b, body) => {
            let fired = pass(b, level) | pass(body, level);
            let x = *x;
            // Unused binding of a droppable expression: delete.
            if is_droppable(b, level) && count_uses(body, x) == 0 {
                *e = take(body);
                return true;
            }
            // Trivial binding (constant/variable/function reference):
            // substitute away, unless a binder in the body would capture
            // the variable it stands for.
            let trivial = match **b {
                Expr::Const(_) | Expr::FnRef(_) => true,
                Expr::Var(r) => !captures(body, x, r),
                _ => false,
            };
            if trivial {
                substitute(body, x, b);
                *e = take(body);
                return true;
            }
            // Inlining a binding used once would change evaluation order in
            // general; the specializers bind through `let` deliberately.
            fired
        }
    }
}

fn pass_all(args: &mut [Expr], level: OptLevel) -> bool {
    args.iter_mut()
        .fold(false, |fired, a| pass(a, level) | fired)
}

/// Moves the expression out of `e`, leaving a placeholder the caller
/// overwrites.
fn take(e: &mut Expr) -> Expr {
    std::mem::replace(e, Expr::Const(Const::Bool(false)))
}

/// `_cond`, or the first of `_cond1`, `_cond2`, … that is not free in
/// `body` (so binding it shadows nothing).
fn cond_binder(body: &Expr) -> Symbol {
    let mut name = Symbol::intern("_cond");
    let mut n = 0;
    while count_uses(body, name) != 0 {
        n += 1;
        name = Symbol::intern(&format!("_cond{n}"));
    }
    name
}

/// True if substituting the variable `r` for `x` in `e` would put `r`
/// under a binder of `r` at a free occurrence of `x`.
fn captures(e: &Expr, x: Symbol, r: Symbol) -> bool {
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => false,
        Expr::Prim(_, args) | Expr::Call(_, args) => args.iter().any(|a| captures(a, x, r)),
        Expr::If(c, t, f) => captures(c, x, r) || captures(t, x, r) || captures(f, x, r),
        Expr::Let(y, b, body) => {
            captures(b, x, r) || (*y != x && binder_captures(*y == r, body, x, r))
        }
        Expr::Lambda(params, body) => {
            !params.contains(&x) && binder_captures(params.contains(&r), body, x, r)
        }
        Expr::App(f, args) => captures(f, x, r) || args.iter().any(|a| captures(a, x, r)),
    }
}

/// [`captures`] below a binder that does not bind `x`: if it binds `r`,
/// any free `x` beneath is captured.
fn binder_captures(binds_r: bool, body: &Expr, x: Symbol, r: Symbol) -> bool {
    if binds_r {
        count_uses(body, x) != 0
    } else {
        captures(body, x, r)
    }
}

/// Replaces the free occurrences of `x` in `e` with `replacement`, a
/// constant, variable or function reference, stopping under binders of
/// `x`. The caller has ruled out capture ([`captures`]).
fn substitute(e: &mut Expr, x: Symbol, replacement: &Expr) {
    match e {
        Expr::Var(v) => {
            if *v == x {
                *e = replacement.clone();
            }
        }
        Expr::Const(_) | Expr::FnRef(_) => {}
        Expr::Prim(_, args) | Expr::Call(_, args) => {
            args.iter_mut().for_each(|a| substitute(a, x, replacement));
        }
        Expr::If(c, t, f) => {
            substitute(c, x, replacement);
            substitute(t, x, replacement);
            substitute(f, x, replacement);
        }
        Expr::Let(y, b, body) => {
            substitute(b, x, replacement);
            if *y != x {
                substitute(body, x, replacement);
            }
        }
        Expr::Lambda(params, body) => {
            if !params.contains(&x) {
                substitute(body, x, replacement);
            }
        }
        Expr::App(f, args) => {
            substitute(f, x, replacement);
            args.iter_mut().for_each(|a| substitute(a, x, replacement));
        }
    }
}

/// True if evaluating `e` can neither diverge, nor error, nor do anything
/// observable — at the given trust level.
///
/// Public because this is *the* definition of "droppable": the analyzer's
/// dead-code diagnostics (`ppe check`'s occurrence pass) and the
/// optimizer's dead-code elimination must agree, so both call this one
/// predicate.
pub fn is_droppable(e: &Expr, level: OptLevel) -> bool {
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) | Expr::Lambda(..) => true,
        Expr::Prim(p, args) => {
            level == OptLevel::PureArith
                && pure_arith(*p)
                && args.iter().all(|a| is_droppable(a, level))
        }
        Expr::If(c, t, f) => {
            is_droppable(c, level) && is_droppable(t, level) && is_droppable(f, level)
        }
        Expr::Let(_, b, body) => is_droppable(b, level) && is_droppable(body, level),
        // Calls may diverge; applications may be anything.
        Expr::Call(..) | Expr::App(..) => false,
    }
}

/// Primitives [`OptLevel::PureArith`] treats as droppable. Division,
/// remainder and vector operations are never droppable (their failure
/// modes are the common ones).
fn pure_arith(p: Prim) -> bool {
    matches!(
        p,
        Prim::Add
            | Prim::Sub
            | Prim::Mul
            | Prim::Neg
            | Prim::Eq
            | Prim::Ne
            | Prim::Lt
            | Prim::Le
            | Prim::Gt
            | Prim::Ge
            | Prim::And
            | Prim::Or
            | Prim::Not
    )
}

/// Occurrence count of `x` in `e` (free occurrences only).
///
/// Shared with the analyzer's occurrence pass for the same reason as
/// [`is_droppable`]: one definition of "used".
pub fn count_uses(e: &Expr, x: Symbol) -> usize {
    match e {
        Expr::Const(_) | Expr::FnRef(_) => 0,
        Expr::Var(v) => usize::from(*v == x),
        Expr::Prim(_, args) | Expr::Call(_, args) => args.iter().map(|a| count_uses(a, x)).sum(),
        Expr::If(c, t, f) => count_uses(c, x) + count_uses(t, x) + count_uses(f, x),
        Expr::Let(y, b, body) => count_uses(b, x) + if *y == x { 0 } else { count_uses(body, x) },
        Expr::Lambda(params, body) => {
            if params.contains(&x) {
                0
            } else {
                count_uses(body, x)
            }
        }
        Expr::App(f, args) => {
            count_uses(f, x) + args.iter().map(|a| count_uses(a, x)).sum::<usize>()
        }
    }
}

/// True if `a` and `b` are the same tree, reading float constants by their
/// bits. `Expr`'s `==` takes `0.0` and `-0.0` as equal, but a branch that
/// answers one cannot stand in for a branch that answers the other.
fn same(a: &Expr, b: &Expr) -> bool {
    let all = |xs: &[Expr], ys: &[Expr]| {
        xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
    };
    match (a, b) {
        (Expr::Const(Const::Float(x)), Expr::Const(Const::Float(y))) => {
            x.get().to_bits() == y.get().to_bits()
        }
        (Expr::Const(x), Expr::Const(y)) => x == y,
        (Expr::Var(x), Expr::Var(y)) | (Expr::FnRef(x), Expr::FnRef(y)) => x == y,
        (Expr::Prim(p, xs), Expr::Prim(q, ys)) => p == q && all(xs, ys),
        (Expr::Call(f, xs), Expr::Call(g, ys)) => f == g && all(xs, ys),
        (Expr::If(c, t, f), Expr::If(d, u, g)) => same(c, d) && same(t, u) && same(f, g),
        (Expr::Let(x, b, e), Expr::Let(y, c, f)) => x == y && same(b, c) && same(e, f),
        (Expr::Lambda(xs, e), Expr::Lambda(ys, f)) => xs == ys && same(e, f),
        (Expr::App(f, xs), Expr::App(g, ys)) => same(f, g) && all(xs, ys),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::parser::{parse_expr, parse_program};
    use crate::pretty::{pretty_expr, pretty_program};
    use crate::value::Value;

    fn opt(src: &str, level: OptLevel) -> String {
        let e = parse_expr(src).unwrap();
        let mut out = e;
        for _ in 0..8 {
            let next = optimize_expr(&out, level);
            if next == out {
                break;
            }
            out = next;
        }
        pretty_expr(&out)
    }

    #[test]
    fn constant_ifs_fold() {
        assert_eq!(opt("(if #t 1 2)", OptLevel::Safe), "1");
        assert_eq!(opt("(if #f 1 2)", OptLevel::Safe), "2");
    }

    #[test]
    fn identical_branches_collapse() {
        // Droppable test: gone entirely.
        assert_eq!(opt("(if b 7 7)", OptLevel::Safe), "7");
        // Possibly-failing test: kept, sequenced.
        assert_eq!(
            opt("(if (< (/ 1 x) 0) 7 7)", OptLevel::Safe),
            "(let ((_cond (< (/ 1 x) 0))) 7)"
        );
    }

    #[test]
    fn trivial_lets_substitute() {
        assert_eq!(opt("(let ((a x)) (+ a a))", OptLevel::Safe), "(+ x x)");
        assert_eq!(opt("(let ((a 3)) (+ a y))", OptLevel::Safe), "(+ 3 y)");
    }

    #[test]
    fn unused_safe_lets_drop() {
        assert_eq!(opt("(let ((a x)) 5)", OptLevel::Safe), "5");
        // Arithmetic is only droppable at PureArith.
        assert_eq!(
            opt("(let ((a (+ x 1))) 5)", OptLevel::Safe),
            "(let ((a (+ x 1))) 5)"
        );
        assert_eq!(opt("(let ((a (+ x 1))) 5)", OptLevel::PureArith), "5");
        // Division is never droppable.
        assert_eq!(
            opt("(let ((a (/ x 2))) 5)", OptLevel::PureArith),
            "(let ((a (/ x 2))) 5)"
        );
    }

    #[test]
    fn substitution_respects_shadowing() {
        // a := x must not reach under (let ((a …))).
        assert_eq!(opt("(let ((a x)) (let ((a 1)) a))", OptLevel::Safe), "1");
        // Capture check: a := y, with an inner binder y. The inner
        // constant binding folds first, after which a := y is free to
        // substitute — the result must mean "outer y + 1", never the
        // captured "(+ 1 1)" or "(+ y y)" under a rebound y.
        assert_eq!(
            opt("(let ((a y)) (let ((y 1)) (+ a y)))", OptLevel::Safe),
            "(+ y 1)"
        );
        // Replacing a := y must stop at a λ binding y.
        let body = parse_expr("(lambda (y) (+ a y))").unwrap();
        let (a, y) = (Symbol::intern("a"), Symbol::intern("y"));
        assert!(captures(&body, a, y), "substitution must refuse to capture");
        assert!(!captures(&body, y, a), "y is bound, so nothing is replaced");
    }

    /// A `let` whose substitution a binder of its variable would capture
    /// stays, so the program keeps the source's meaning.
    #[test]
    fn trivial_lets_stay_when_substitution_would_be_captured() {
        for (src, expected) in [
            (
                "(define (f y) (let ((a y)) (let ((y (+ y 1))) (+ a y))))",
                "(define (f y) (let ((a y)) (let ((y (+ y 1))) (+ a y))))\n",
            ),
            (
                "(define (f y) (let ((a y)) ((lambda (y) (+ a y)) 3)))",
                "(define (f y) (let ((a y)) ((lambda (y) (+ a y)) 3)))\n",
            ),
        ] {
            let p = parse_program(src).unwrap();
            let o = optimize_program(&p, OptLevel::Safe);
            assert_eq!(pretty_program(&o), expected);
            let source = Evaluator::new(&p).run_main(&[Value::Int(5)]);
            let optimized = Evaluator::new(&o).run_main(&[Value::Int(5)]);
            assert_eq!(optimized, source, "{src}");
        }
    }

    /// `0.0` and `-0.0` are equal as `F64`s but not as constants of a
    /// program: optimizing one must not turn the other into it.
    #[test]
    fn negative_zero_survives_optimization() {
        let positive = parse_program("(define (f x) (* x 0.0))").unwrap();
        let negative = parse_program("(define (f x) (* x -0.0))").unwrap();
        let o = optimize_program(&positive, OptLevel::Safe);
        assert_eq!(pretty_program(&o), "(define (f x) (* x 0.0))\n");
        let o = optimize_program(&negative, OptLevel::Safe);
        assert_eq!(pretty_program(&o), "(define (f x) (* x -0.0))\n");
    }

    /// Branches that differ only in the sign of a zero are not identical:
    /// collapsing them answers `0.0` where the source answers `-0.0`.
    #[test]
    fn branches_apart_by_the_sign_of_a_zero_stay_apart() {
        for (src, args) in [
            ("(define (f c) (if c 0.0 -0.0))", vec![Value::Bool(false)]),
            (
                "(define (f c x) (if c (+ x 0.0) (+ x -0.0)))",
                vec![Value::Bool(false), Value::Float(-0.0)],
            ),
        ] {
            let p = parse_program(src).unwrap();
            let o = optimize_program(&p, OptLevel::Safe);
            assert_eq!(pretty_program(&o), pretty_program(&p), "{src}");
            let source = Evaluator::new(&p).run_main(&args).unwrap();
            let optimized = Evaluator::new(&o).run_main(&args).unwrap();
            assert_eq!(optimized.to_string(), "-0.0", "{src}");
            assert_eq!(optimized.to_string(), source.to_string(), "{src}");
        }
    }

    #[test]
    fn programs_optimize_whole() {
        let p = parse_program("(define (f x) (let ((u x)) (if (= 1 1) (+ u 0) 9)))").unwrap();
        let o = optimize_program(&p, OptLevel::Safe);
        // (= 1 1) is a constant? No — it is a prim application; the online
        // PE folds those, not this cleanup. But the let substitutes.
        let printed = pretty_program(&o);
        assert!(printed.contains("(+ x 0)"), "{printed}");
    }

    #[test]
    fn optimization_preserves_semantics_on_samples() {
        let p = parse_program(
            "(define (f x) (let ((a (+ x 1))) (let ((b a)) (if (< b b) 0 (* b 2)))))",
        )
        .unwrap();
        let o = optimize_program(&p, OptLevel::PureArith);
        for x in [-4i64, 0, 9] {
            let a = Evaluator::new(&p).run_main(&[Value::Int(x)]).unwrap();
            let b = Evaluator::new(&o).run_main(&[Value::Int(x)]).unwrap();
            assert_eq!(a, b, "x = {x}");
        }
    }
}

/// Removes unused parameters from non-entry definitions, adjusting every
/// call site — the cleanup that erases fully-consumed inputs (e.g. a
/// static pattern or bytecode vector) from specialized residual functions.
///
/// A parameter of a non-entry definition is removed only when it is unused
/// in the body *and* every call site passes a droppable argument at that
/// position (per [`OptLevel`]; dropping an effectful argument would change
/// strictness). Functions referenced as values (`FnRef`) are left alone —
/// their arity is observable. Entry parameters that end up unused are also
/// dropped, matching the specializers' convention for residual entry
/// points (callers adapt).
///
/// # Examples
///
/// ```
/// use ppe_lang::{parse_program, pretty_program, prune_unused_params, OptLevel};
///
/// let p = parse_program(
///     "(define (main s) (scan s 1))
///      (define (scan s k) (if (< k (vsize s)) (scan s (+ k 1)) k))",
/// )?;
/// // `scan` genuinely reads both parameters: nothing changes.
/// let pruned = prune_unused_params(&p, OptLevel::Safe);
/// assert_eq!(pretty_program(&pruned), pretty_program(&p));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn prune_unused_params(program: &Program, level: OptLevel) -> Program {
    let mut defs = program.defs().to_vec();
    prune_defs(&mut defs, level);
    rebuild(defs)
}

/// [`prune_unused_params`] on the definitions themselves, in place.
fn prune_defs(defs: &mut [FunDef], level: OptLevel) {
    // Functions whose arity is observable through first-class references.
    let mut referenced: HashSet<Symbol> = HashSet::new();
    fn collect_fnrefs(e: &Expr, out: &mut HashSet<Symbol>) {
        match e {
            Expr::FnRef(f) => {
                out.insert(*f);
            }
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Prim(_, args) | Expr::Call(_, args) => {
                args.iter().for_each(|a| collect_fnrefs(a, out));
            }
            Expr::If(a, b, c) => {
                collect_fnrefs(a, out);
                collect_fnrefs(b, out);
                collect_fnrefs(c, out);
            }
            Expr::Let(_, a, b) => {
                collect_fnrefs(a, out);
                collect_fnrefs(b, out);
            }
            Expr::Lambda(_, b) => collect_fnrefs(b, out),
            Expr::App(f, args) => {
                collect_fnrefs(f, out);
                args.iter().for_each(|a| collect_fnrefs(a, out));
            }
        }
    }
    for d in defs.iter() {
        collect_fnrefs(&d.body, &mut referenced);
    }

    // Greatest-fixpoint liveness: optimistically assume every non-entry,
    // non-referenced position with droppable call arguments is dead; a
    // position becomes live when its parameter is used *outside* the
    // argument slots of dead positions (so a parameter threaded only into
    // its own dead position stays dead).
    let mut dead: HashSet<(Symbol, usize)> = HashSet::new();
    for d in defs.iter().skip(1) {
        if referenced.contains(&d.name) {
            continue;
        }
        for i in 0..d.params.len() {
            if all_call_args_droppable(defs, d.name, i, level) {
                dead.insert((d.name, i));
            }
        }
    }
    loop {
        let mut changed = false;
        for d in defs.iter() {
            for (i, p) in d.params.iter().enumerate() {
                if !dead.contains(&(d.name, i)) {
                    continue;
                }
                if uses_outside_dead(&d.body, *p, &dead) > 0 {
                    dead.remove(&(d.name, i));
                    changed = true;
                }
            }
        }
        // Uses in *entry* and other bodies outside dead slots also keep
        // positions alive only through their own parameters; arguments at
        // live positions are untouched, so nothing else to do here.
        if !changed {
            break;
        }
    }
    if !dead.is_empty() {
        // Remove, highest positions first per function.
        let mut by_fn: HashMap<Symbol, Vec<usize>> = HashMap::new();
        for (f, i) in &dead {
            by_fn.entry(*f).or_default().push(*i);
        }
        for positions in by_fn.values_mut() {
            positions.sort_unstable_by(|a, b| b.cmp(a));
        }
        for d in defs.iter_mut() {
            drop_dead_args(&mut d.body, &by_fn);
            if let Some(positions) = by_fn.get(&d.name) {
                for &i in positions {
                    d.params.remove(i);
                }
            }
        }
    }

    // Finally, drop entry parameters the (pruned) entry body no longer
    // mentions — the same convention the specializers use.
    let mut free = Vec::new();
    defs[0].body.free_vars(&mut free);
    defs[0].params.retain(|p| free.contains(p));
}

/// Occurrences of `x` in `e`, not counting argument slots of dead
/// positions (those arguments are about to be deleted).
fn uses_outside_dead(e: &Expr, x: Symbol, dead: &HashSet<(Symbol, usize)>) -> usize {
    match e {
        Expr::Const(_) | Expr::FnRef(_) => 0,
        Expr::Var(v) => usize::from(*v == x),
        Expr::Prim(_, args) => args.iter().map(|a| uses_outside_dead(a, x, dead)).sum(),
        Expr::Call(g, args) => args
            .iter()
            .enumerate()
            .map(|(j, a)| {
                if dead.contains(&(*g, j)) {
                    0
                } else {
                    uses_outside_dead(a, x, dead)
                }
            })
            .sum(),
        Expr::If(a, b, c) => {
            uses_outside_dead(a, x, dead)
                + uses_outside_dead(b, x, dead)
                + uses_outside_dead(c, x, dead)
        }
        Expr::Let(y, a, b) => {
            uses_outside_dead(a, x, dead)
                + if *y == x {
                    0
                } else {
                    uses_outside_dead(b, x, dead)
                }
        }
        Expr::Lambda(params, b) => {
            if params.contains(&x) {
                0
            } else {
                uses_outside_dead(b, x, dead)
            }
        }
        Expr::App(f, args) => {
            uses_outside_dead(f, x, dead)
                + args
                    .iter()
                    .map(|a| uses_outside_dead(a, x, dead))
                    .sum::<usize>()
        }
    }
}

/// Deletes, in place, every call's arguments at dead positions.
fn drop_dead_args(e: &mut Expr, by_fn: &HashMap<Symbol, Vec<usize>>) {
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => {}
        Expr::Prim(_, args) => args.iter_mut().for_each(|a| drop_dead_args(a, by_fn)),
        Expr::Call(g, args) => {
            args.iter_mut().for_each(|a| drop_dead_args(a, by_fn));
            if let Some(positions) = by_fn.get(g) {
                for &i in positions {
                    args.remove(i);
                }
            }
        }
        Expr::If(a, b, c) => {
            drop_dead_args(a, by_fn);
            drop_dead_args(b, by_fn);
            drop_dead_args(c, by_fn);
        }
        Expr::Let(_, a, b) => {
            drop_dead_args(a, by_fn);
            drop_dead_args(b, by_fn);
        }
        Expr::Lambda(_, b) => drop_dead_args(b, by_fn),
        Expr::App(f, args) => {
            drop_dead_args(f, by_fn);
            args.iter_mut().for_each(|a| drop_dead_args(a, by_fn));
        }
    }
}

fn all_call_args_droppable(defs: &[FunDef], f: Symbol, position: usize, level: OptLevel) -> bool {
    fn check(e: &Expr, f: Symbol, position: usize, level: OptLevel) -> bool {
        match e {
            Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => true,
            Expr::Prim(_, args) => args.iter().all(|a| check(a, f, position, level)),
            Expr::Call(g, args) => {
                let own = *g != f || is_droppable(&args[position], level);
                own && args.iter().all(|a| check(a, f, position, level))
            }
            Expr::If(a, b, c) => {
                check(a, f, position, level)
                    && check(b, f, position, level)
                    && check(c, f, position, level)
            }
            Expr::Let(_, a, b) => check(a, f, position, level) && check(b, f, position, level),
            Expr::Lambda(_, b) => check(b, f, position, level),
            Expr::App(h, args) => {
                check(h, f, position, level) && args.iter().all(|a| check(a, f, position, level))
            }
        }
    }
    defs.iter().all(|d| check(&d.body, f, position, level))
}

#[cfg(test)]
mod prune_tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::pretty::pretty_program;

    #[test]
    fn dead_threaded_parameter_is_removed() {
        // Both `p` and `s` are only threaded into their own (dead)
        // positions: the liveness fixpoint removes them together, and only
        // `k` — genuinely read by the body — survives.
        let p = parse_program(
            "(define (main p s) (scan p s 1))
             (define (scan p s k)
               (if (< k 0) 0 (scan p s (+ k 1))))",
        )
        .unwrap();
        let pruned = prune_unused_params(&p, OptLevel::Safe);
        let printed = pretty_program(&pruned);
        assert!(printed.contains("(define (scan k)"), "{printed}");
        assert!(printed.contains("(scan 1)"), "{printed}");
        // The entry's inputs became unused too, and were dropped.
        assert!(printed.contains("(define (main)"), "{printed}");
    }

    #[test]
    fn genuinely_used_parameters_survive() {
        let p = parse_program(
            "(define (main s) (scan s 1))
             (define (scan s k) (if (< k (vsize s)) (scan s (+ k 1)) k))",
        )
        .unwrap();
        let pruned = prune_unused_params(&p, OptLevel::Safe);
        assert_eq!(pretty_program(&pruned), pretty_program(&p));
    }

    #[test]
    fn pruning_preserves_semantics() {
        use crate::eval::Evaluator;
        use crate::value::Value;
        let p = parse_program(
            "(define (main p s) (scan p s 1))
             (define (scan p s k)
               (if (< k 0) 0 (count p s (- k 1))))
             (define (count p s k) (+ k 100))",
        )
        .unwrap();
        let pruned = prune_unused_params(&p, OptLevel::Safe);
        let a = Evaluator::new(&p)
            .run_main(&[Value::Int(9), Value::Int(8)])
            .unwrap();
        // Both inputs became dead; the pruned entry takes none.
        let b = Evaluator::new(&pruned).run_main(&[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn effectful_arguments_block_pruning_at_safe_level() {
        let p = parse_program(
            "(define (main x) (g (/ 1 x) x))
             (define (g unused x) x)",
        )
        .unwrap();
        let pruned = prune_unused_params(&p, OptLevel::Safe);
        // (/ 1 x) may fail: it must keep being evaluated.
        assert_eq!(pretty_program(&pruned), pretty_program(&p));
    }

    #[test]
    fn fnref_functions_keep_their_arity() {
        let p = parse_program(
            "(define (main x) (apply1 g x))
             (define (apply1 f v) (f v 0))
             (define (g v unused) v)",
        )
        .unwrap();
        let pruned = prune_unused_params(&p, OptLevel::Safe);
        assert_eq!(pretty_program(&pruned), pretty_program(&p));
    }

    #[test]
    fn cascading_pruning_reaches_a_fixpoint() {
        // h's dead param is only dead after g's is removed.
        let p = parse_program(
            "(define (main x) (g x x))
             (define (g a b) (h a b))
             (define (h a b) a)",
        )
        .unwrap();
        let pruned = prune_unused_params(&p, OptLevel::Safe);
        let printed = pretty_program(&pruned);
        assert!(printed.contains("(define (h a)"), "{printed}");
        assert!(printed.contains("(define (g a)"), "{printed}");
    }
}
