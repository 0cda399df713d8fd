//! Differential oracle for the residual optimizer: the in-place passes
//! over `Expr` must give what the optimizer they replaced gave, which ran
//! the same rules over hash-consed `Term`s and expanded the result back.
//! That optimizer, and the parameter pruning as it was before it edited
//! call sites in place, are kept verbatim below as the reference.
//!
//! The reference is compared only where it is right. It lets a binder in
//! the body capture the variable a trivial `let` stands for: substitution
//! stops at the binder, but the `let` is dropped anyway. Two lines added
//! to it record that, and such cases are skipped; the rewrite keeps the
//! `let` instead. Cases whose reference output fails `Program::validate`
//! are skipped too. So are outputs holding a float zero: the rewrite
//! compares branches with `Expr`'s `==`, under which `0.0` and `-0.0` are
//! equal, where the interned terms now keep them apart.

use std::cell::Cell;

use ppe_lang::{
    optimize_program, optimize_residual, pretty_program, prune_unused_params, Const, Expr, FunDef,
    OptLevel, Prim, Program, Symbol, ALL_PRIMS, F64,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

thread_local! {
    /// Set when the reference's substitution stopped at a binder of the
    /// replacement variable with the substituted variable free beneath.
    static CAPTURED: Cell<bool> = const { Cell::new(false) };
}

fn record_capture(captured: bool) {
    if captured {
        CAPTURED.with(|c| c.set(true));
    }
}

/// The optimizer as it was before it ran in place on `Expr`, unchanged but
/// for the `record_capture` calls.
mod reference {
    use super::record_capture;
    use ppe_lang::{is_droppable, Expr, FunDef, OptLevel, Prim, Program, Symbol, Term, TermNode};

    pub fn optimize_program(program: &Program, level: OptLevel) -> Program {
        let defs = program
            .defs()
            .iter()
            .map(|d| {
                // The passes run over interned terms: the fixpoint test is a
                // pointer comparison, binder-use counts come from each node's
                // cached occurrence data, and unchanged subtrees are reused
                // rather than re-allocated.
                let mut body = Term::from_expr(&d.body);
                for _ in 0..8 {
                    let next = optimize_term(&body, level);
                    if next == body {
                        break;
                    }
                    body = next;
                }
                FunDef::new(d.name, d.params.clone(), body.to_expr())
            })
            .collect();
        // Optimization rewrites bodies only, so the def list always rebuilds;
        // if that invariant ever breaks, returning the source unoptimized is
        // strictly safer than aborting.
        Program::new(defs).unwrap_or_else(|_| program.clone())
    }

    pub fn optimize_term(e: &Term, level: OptLevel) -> Term {
        /// Rebuilds a node only when some child actually changed, keeping the
        /// canonical pointer (and the fixpoint test O(1)) otherwise.
        fn map_args(args: &[Term], level: OptLevel) -> (Vec<Term>, bool) {
            let mut changed = false;
            let out = args
                .iter()
                .map(|a| {
                    let o = optimize_term(a, level);
                    changed |= o != *a;
                    o
                })
                .collect();
            (out, changed)
        }
        match e.node() {
            TermNode::Const(_) | TermNode::Var(_) | TermNode::FnRef(_) => e.clone(),
            TermNode::Prim(p, args) => {
                let (args, changed) = map_args(args, level);
                if changed {
                    Term::prim(*p, args)
                } else {
                    e.clone()
                }
            }
            TermNode::Call(f, args) => {
                let (args, changed) = map_args(args, level);
                if changed {
                    Term::call(*f, args)
                } else {
                    e.clone()
                }
            }
            TermNode::App(f, args) => {
                let f = optimize_term(f, level);
                let (args, _) = map_args(args, level);
                Term::app(f, args)
            }
            TermNode::Lambda(params, body) => {
                let opt = optimize_term(body, level);
                if opt == *body {
                    e.clone()
                } else {
                    Term::lambda(params.clone(), opt)
                }
            }
            TermNode::If(c, t, f) => {
                let c = optimize_term(c, level);
                let t = optimize_term(t, level);
                let f = optimize_term(f, level);
                // Constant tests fold.
                if let TermNode::Const(cc) = c.node() {
                    if let Some(b) = cc.as_bool() {
                        return if b { t } else { f };
                    }
                }
                // Identical branches collapse (a pointer comparison on
                // interned terms); the test is kept (sequenced) unless it is
                // droppable.
                if t == f {
                    return if is_droppable_term(&c, level) {
                        t
                    } else {
                        // A binder name not free in the branch (so nothing is
                        // accidentally shadowed).
                        let mut name = Symbol::intern("_cond");
                        let mut n = 0;
                        while t.has_free(name) {
                            n += 1;
                            name = Symbol::intern(&format!("_cond{n}"));
                        }
                        Term::let_(name, c, t)
                    };
                }
                Term::if_(c, t, f)
            }
            TermNode::Let(x, b, body) => {
                let b = optimize_term(b, level);
                let body = optimize_term(body, level);
                // Unused binding of a droppable expression: delete. The use
                // count is the node's cached occurrence datum, not a
                // traversal.
                if !body.has_free(*x) && is_droppable_term(&b, level) {
                    return body;
                }
                // Trivial binding (constant/variable): substitute away.
                if matches!(
                    b.node(),
                    TermNode::Const(_) | TermNode::Var(_) | TermNode::FnRef(_)
                ) {
                    return substitute_term(&body, *x, &b);
                }
                // Used exactly once, in a position we can safely inline into?
                // Inlining changes evaluation order in general; skip (the
                // specializers already bind through `let` deliberately).
                Term::let_(*x, b, body)
            }
        }
    }

    pub fn is_droppable_term(e: &Term, level: OptLevel) -> bool {
        match e.node() {
            TermNode::Const(_) | TermNode::Var(_) | TermNode::FnRef(_) | TermNode::Lambda(..) => {
                true
            }
            TermNode::Prim(p, args) => {
                level == OptLevel::PureArith
                    && pure_arith(*p)
                    && args.iter().all(|a| is_droppable_term(a, level))
            }
            TermNode::If(c, t, f) => {
                is_droppable_term(c, level)
                    && is_droppable_term(t, level)
                    && is_droppable_term(f, level)
            }
            TermNode::Let(_, b, body) => {
                is_droppable_term(b, level) && is_droppable_term(body, level)
            }
            // Calls may diverge; applications may be anything.
            TermNode::Call(..) | TermNode::App(..) => false,
        }
    }

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

    fn substitute_term(e: &Term, x: Symbol, replacement: &Term) -> Term {
        // No free occurrence of `x` anywhere below: the tree-walking version
        // would rebuild an identical term, so the original can be returned
        // directly. This is the memoization that makes the optimizer's
        // substitution passes cheap on large residuals.
        if !e.has_free(x) {
            return e.clone();
        }
        match e.node() {
            TermNode::Const(_) | TermNode::FnRef(_) => e.clone(),
            TermNode::Var(v) => {
                if *v == x {
                    replacement.clone()
                } else {
                    e.clone()
                }
            }
            TermNode::Prim(p, args) => Term::prim(
                *p,
                args.iter()
                    .map(|a| substitute_term(a, x, replacement))
                    .collect(),
            ),
            TermNode::Call(f, args) => Term::call(
                *f,
                args.iter()
                    .map(|a| substitute_term(a, x, replacement))
                    .collect(),
            ),
            TermNode::If(c, t, f) => Term::if_(
                substitute_term(c, x, replacement),
                substitute_term(t, x, replacement),
                substitute_term(f, x, replacement),
            ),
            TermNode::Let(y, b, body) => {
                let b = substitute_term(b, x, replacement);
                // Shadowing stops the substitution; a Var replacement equal to
                // `y` would be captured, so stop there too.
                let shadows = *y == x || matches!(replacement.node(), TermNode::Var(r) if r == y);
                record_capture(*y != x && shadows && body.has_free(x));
                let body = if shadows {
                    body.clone()
                } else {
                    substitute_term(body, x, replacement)
                };
                Term::let_(*y, b, body)
            }
            TermNode::Lambda(params, body) => {
                let captured = params.contains(&x)
                    || matches!(replacement.node(), TermNode::Var(r) if params.contains(r));
                record_capture(!params.contains(&x) && captured && body.has_free(x));
                if captured {
                    e.clone()
                } else {
                    Term::lambda(params.clone(), substitute_term(body, x, replacement))
                }
            }
            TermNode::App(f, args) => Term::app(
                substitute_term(f, x, replacement),
                args.iter()
                    .map(|a| substitute_term(a, x, replacement))
                    .collect(),
            ),
        }
    }

    pub fn prune_unused_params(program: &Program, level: OptLevel) -> Program {
        use std::collections::HashSet;

        let mut defs: Vec<FunDef> = program.defs().to_vec();

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
        for d in &defs {
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
                if all_call_args_droppable(&defs, d.name, i, level) {
                    dead.insert((d.name, i));
                }
            }
        }
        loop {
            let mut changed = false;
            for d in &defs {
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
            let mut by_fn: std::collections::HashMap<Symbol, Vec<usize>> =
                std::collections::HashMap::new();
            for (f, i) in &dead {
                by_fn.entry(*f).or_default().push(*i);
            }
            for positions in by_fn.values_mut() {
                positions.sort_unstable_by(|a, b| b.cmp(a));
            }
            for d in &mut defs {
                d.body = drop_dead_args(&d.body, &by_fn);
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

        Program::new(defs).expect("pruning preserves program shape")
    }

    fn uses_outside_dead(
        e: &Expr,
        x: Symbol,
        dead: &std::collections::HashSet<(Symbol, usize)>,
    ) -> usize {
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

    fn drop_dead_args(e: &Expr, by_fn: &std::collections::HashMap<Symbol, Vec<usize>>) -> Expr {
        match e {
            Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => e.clone(),
            Expr::Prim(p, args) => {
                Expr::Prim(*p, args.iter().map(|a| drop_dead_args(a, by_fn)).collect())
            }
            Expr::Call(g, args) => {
                let mut args: Vec<Expr> = args.iter().map(|a| drop_dead_args(a, by_fn)).collect();
                if let Some(positions) = by_fn.get(g) {
                    for &i in positions {
                        args.remove(i);
                    }
                }
                Expr::Call(*g, args)
            }
            Expr::If(a, b, c) => Expr::If(
                Box::new(drop_dead_args(a, by_fn)),
                Box::new(drop_dead_args(b, by_fn)),
                Box::new(drop_dead_args(c, by_fn)),
            ),
            Expr::Let(x, a, b) => Expr::Let(
                *x,
                Box::new(drop_dead_args(a, by_fn)),
                Box::new(drop_dead_args(b, by_fn)),
            ),
            Expr::Lambda(ps, b) => Expr::Lambda(ps.clone(), Box::new(drop_dead_args(b, by_fn))),
            Expr::App(f, args) => Expr::App(
                Box::new(drop_dead_args(f, by_fn)),
                args.iter().map(|a| drop_dead_args(a, by_fn)).collect(),
            ),
        }
    }

    fn all_call_args_droppable(
        defs: &[FunDef],
        f: Symbol,
        position: usize,
        level: OptLevel,
    ) -> bool {
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
                    check(h, f, position, level)
                        && args.iter().all(|a| check(a, f, position, level))
                }
            }
        }
        defs.iter().all(|d| check(&d.body, f, position, level))
    }
}

/// Variable names: few, so binders shadow and capture one another, and
/// `_cond` and `_cond1` among them, so that naming a kept test must skip
/// names already free in the branch.
const VARS: [&str; 6] = ["a", "b", "y", "z", "_cond", "_cond1"];

/// Float constants; programs that may hold a zero draw from all four.
const FLOATS: [f64; 4] = [1.5, -2.0, 0.0, -0.0];

/// Builds well-scoped programs: every variable is bound, every call names
/// a definition with its arity, every function reference a definition.
struct Gen<'r> {
    rng: &'r mut TestRng,
    /// Each definition's name and arity.
    fns: Vec<(Symbol, usize)>,
    /// The variables in scope, innermost last.
    scope: Vec<Symbol>,
    /// Whether float constants may be zeros.
    zeros: bool,
    /// Binders minted for `let` chains so far.
    minted: usize,
}

impl Gen<'_> {
    /// True one time in `n`.
    fn one_in(&mut self, n: u64) -> bool {
        self.rng.below(n) == 0
    }

    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n as u64) as usize
    }

    fn name(&mut self) -> Symbol {
        Symbol::intern(VARS[self.below(VARS.len())])
    }

    /// `n` distinct variable names.
    fn names(&mut self, n: usize) -> Vec<Symbol> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let x = self.name();
            if !out.contains(&x) {
                out.push(x);
            }
        }
        out
    }

    fn constant(&mut self) -> Expr {
        match self.below(4) {
            0 => Expr::bool(self.rng.flip()),
            1 => {
                let n = if self.zeros { FLOATS.len() } else { 2 };
                Expr::Const(Const::Float(
                    F64::new(FLOATS[self.below(n)]).expect("not NaN"),
                ))
            }
            _ => Expr::int(self.rng.int_in(-2, 3)),
        }
    }

    /// A variable in scope, most often one of the innermost three.
    fn var(&mut self) -> Expr {
        match self.scope.len() {
            0 => self.constant(),
            n => {
                let back = if self.one_in(4) { n } else { n.min(3) };
                let i = n - 1 - self.below(back);
                Expr::Var(self.scope[i])
            }
        }
    }

    fn function(&mut self) -> (Symbol, usize) {
        let i = self.below(self.fns.len());
        self.fns[i]
    }

    fn fnref(&mut self) -> Expr {
        Expr::FnRef(self.function().0)
    }

    fn leaf(&mut self) -> Expr {
        match self.below(8) {
            0..=2 => self.constant(),
            7 => self.fnref(),
            _ => self.var(),
        }
    }

    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.one_in(5) {
            return self.leaf();
        }
        let d = depth - 1;
        match self.below(12) {
            0 | 1 => {
                let p = ALL_PRIMS[self.below(ALL_PRIMS.len())];
                let n = 1 + self.below(3);
                Expr::Prim(p, (0..n).map(|_| self.expr(d)).collect())
            }
            2 => self.call(d),
            3..=5 => self.if_(d),
            6..=8 => self.let_(d),
            9 => self.lambda(d),
            10 => self.app(d),
            _ => self.leaf(),
        }
    }

    fn call(&mut self, depth: u32) -> Expr {
        let (f, arity) = self.function();
        Expr::Call(f, (0..arity).map(|_| self.arg(depth)).collect())
    }

    /// Call arguments: mostly droppable, so that parameters prune.
    fn arg(&mut self, depth: u32) -> Expr {
        if self.one_in(4) {
            self.expr(depth)
        } else {
            self.var()
        }
    }

    /// Boolean and integer tests, droppable or not.
    fn test(&mut self, depth: u32) -> Expr {
        match self.below(6) {
            0 => Expr::bool(self.rng.flip()),
            1 => Expr::int(self.rng.int_in(0, 1)),
            2 => self.var(),
            3 => Expr::Prim(Prim::Lt, vec![self.var(), self.leaf()]),
            4 => self.stuck(depth),
            _ => self.expr(depth),
        }
    }

    /// An expression no level may drop.
    fn stuck(&mut self, depth: u32) -> Expr {
        if self.one_in(2) {
            Expr::Prim(Prim::Div, vec![self.var(), self.leaf()])
        } else {
            self.call(depth)
        }
    }

    /// A conditional, half the time with identical branches.
    fn if_(&mut self, depth: u32) -> Expr {
        let c = self.test(depth);
        let t = self.expr(depth);
        let f = if self.rng.flip() {
            t.clone()
        } else {
            self.expr(depth)
        };
        Expr::If(Box::new(c), Box::new(t), Box::new(f))
    }

    /// What a `let` binds: constants, variables, function references,
    /// λs, primitives that cannot be dropped, or anything.
    fn bound(&mut self, depth: u32) -> Expr {
        match self.below(7) {
            0 => self.constant(),
            1 | 2 => self.var(),
            3 => self.fnref(),
            4 => self.lambda(depth),
            5 => self.stuck(depth),
            _ => self.expr(depth),
        }
    }

    fn let_(&mut self, depth: u32) -> Expr {
        let x = self.name();
        let b = self.bound(depth);
        self.scope.push(x);
        let body = self.expr(depth);
        self.scope.pop();
        Expr::Let(x, Box::new(b), Box::new(body))
    }

    /// `len` nested `let`s around a body that reads the innermost binders.
    /// Most binders are fresh, so that few substitutions are captured; one
    /// in eight rebinds a variable in scope.
    fn chain(&mut self, len: usize) -> Expr {
        let mut links = Vec::with_capacity(len);
        for _ in 0..len {
            let x = if self.one_in(8) {
                match self.var() {
                    Expr::Var(x) => x,
                    _ => self.name(),
                }
            } else {
                self.minted += 1;
                Symbol::intern(&format!("c{}", self.minted))
            };
            let b = self.bound(1);
            self.scope.push(x);
            links.push((x, b));
        }
        let mut e = self.expr(3);
        self.scope.truncate(self.scope.len() - len);
        for (x, b) in links.into_iter().rev() {
            e = Expr::Let(x, Box::new(b), Box::new(e));
        }
        e
    }

    fn lambda(&mut self, depth: u32) -> Expr {
        let n = self.below(3);
        let params = self.names(n);
        let outer = self.scope.len();
        self.scope.extend_from_slice(&params);
        let body = self.expr(depth);
        self.scope.truncate(outer);
        Expr::Lambda(params, Box::new(body))
    }

    fn app(&mut self, depth: u32) -> Expr {
        let f = match self.below(3) {
            0 => self.lambda(depth),
            1 => self.var(),
            _ => self.fnref(),
        };
        let n = self.below(3);
        Expr::App(Box::new(f), (0..n).map(|_| self.arg(depth)).collect())
    }

    /// One to three definitions; with `chain`, the entry's body is a chain
    /// of that many `let`s. One program in four may hold float zeros.
    fn program(&mut self, depth: u32, chain: Option<usize>) -> Program {
        self.zeros = chain.is_none() && self.one_in(4);
        let n = 1 + self.below(3);
        self.fns = (0..n)
            .map(|i| (Symbol::intern(&format!("f{i}")), self.below(4)))
            .collect();
        let mut defs = Vec::with_capacity(n);
        for i in 0..n {
            let (name, arity) = self.fns[i];
            let params = self.names(arity);
            self.scope = params.clone();
            let body = match chain {
                Some(len) if i == 0 => self.chain(len),
                _ => self.expr(depth),
            };
            defs.push(FunDef::new(name, params, body));
        }
        Program::new(defs).expect("names are distinct")
    }
}

/// Programs from [`Gen`], nested `depth` deep, or with an entry that is a
/// chain of `let`s of a length in `chain`.
struct Programs {
    depth: u32,
    chain: Option<std::ops::Range<usize>>,
}

impl Strategy for Programs {
    type Value = Program;

    fn generate(&self, rng: &mut TestRng) -> Program {
        let chain = self.chain.clone().map(|r| r.generate(rng));
        let mut gen = Gen {
            rng,
            fns: Vec::new(),
            scope: Vec::new(),
            zeros: false,
            minted: 0,
        };
        gen.program(self.depth, chain)
    }
}

fn holds_float_zero(e: &Expr) -> bool {
    match e {
        Expr::Const(Const::Float(x)) => x.get() == 0.0,
        Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => false,
        Expr::Prim(_, args) | Expr::Call(_, args) => args.iter().any(holds_float_zero),
        Expr::If(c, t, f) => holds_float_zero(c) || holds_float_zero(t) || holds_float_zero(f),
        Expr::Let(_, b, body) => holds_float_zero(b) || holds_float_zero(body),
        Expr::Lambda(_, body) => holds_float_zero(body),
        Expr::App(f, args) => holds_float_zero(f) || args.iter().any(holds_float_zero),
    }
}

/// Equal definitions (`==` tells function references from variables) and
/// byte-identical text (which tells `-0.0` from `0.0`).
fn assert_same(actual: &Program, expected: &Program, what: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        actual.defs() == expected.defs() && pretty_program(actual) == pretty_program(expected),
        "{what} differs from the reference\n  actual:\n{}\n  expected:\n{}",
        pretty_program(actual),
        pretty_program(expected)
    );
    Ok(())
}

/// Holds the three entry points to the reference at `level`, where the
/// reference is right; returns whether the case was compared.
fn check(p: &Program, level: OptLevel) -> Result<bool, TestCaseError> {
    CAPTURED.with(|c| c.set(false));
    let optimized = reference::optimize_program(p, level);
    if CAPTURED.with(Cell::get)
        || optimized.validate().is_err()
        || optimized.defs().iter().any(|d| holds_float_zero(&d.body))
    {
        return Ok(false);
    }
    assert_same(&optimize_program(p, level), &optimized, "optimize_program")?;
    let pruned = reference::prune_unused_params(&optimized, level);
    assert_same(
        &prune_unused_params(&optimize_program(p, level), level),
        &pruned,
        "prune_unused_params ∘ optimize_program",
    )?;
    assert_same(
        &optimize_residual(p.clone(), level),
        &pruned,
        "optimize_residual",
    )?;
    Ok(true)
}

fn check_both_levels(p: &Program) -> Result<(), TestCaseError> {
    for level in [OptLevel::Safe, OptLevel::PureArith] {
        check(p, level)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn programs_optimize_as_the_reference(p in Programs { depth: 5, chain: None }) {
        check_both_levels(&p)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn let_chains_optimize_as_the_reference(
        p in Programs { depth: 3, chain: Some(100..320) }
    ) {
        check_both_levels(&p)?;
    }
}

/// Shapes the rules single out, at both levels.
#[test]
fn named_cases_optimize_as_the_reference() {
    let cases = [
        // Identical branches with a droppable and a kept test, the kept one
        // named past `_cond` and `_cond1`.
        "(define (f x) (if x 1 1))",
        "(define (f x) (if (/ 1 x) 7 7))",
        "(define (f x _cond _cond1) (if (/ 1 x) (+ _cond _cond1) (+ _cond _cond1)))",
        // Integer tests do not fold.
        "(define (f x) (if 1 x 2))",
        // Substitution stops at a binder of the same variable.
        "(define (f x) (let ((a x)) (let ((a (/ a 2))) (+ a a))))",
        "(define (f x) (let ((a 3)) ((lambda (a) a) (+ a 1))))",
        // Unused bindings: dropped only when droppable.
        "(define (f x) (let ((a (/ x 0))) 1))",
        "(define (f x) (let ((a (+ x 1))) 1))",
        "(define (f x) (let ((a (lambda (y) (/ y 0)))) 1))",
        // Parameters that prune, threaded through recursion.
        "(define (main p s) (scan p s 1)) (define (scan p s k) (if (< k 0) 0 (scan p s (+ k 1))))",
        // A rule that enables another only on the next pass.
        "(define (f x) (let ((a #t)) (if a (let ((b x)) b) 0)))",
    ];
    for src in cases {
        let p = ppe_lang::parse_program(src).expect("case parses");
        for level in [OptLevel::Safe, OptLevel::PureArith] {
            let compared = check(&p, level).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert!(compared, "{src}: the reference must be comparable");
        }
    }
}
