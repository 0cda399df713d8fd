//! End-to-end residual correctness: for randomly generated programs and
//! for the corpus, `eval(residual, dynamic inputs) = eval(source, all
//! inputs)` — the defining property of a partial evaluator, and the
//! program-level reading of the paper's Theorem 1.

mod common;

use common::{int_expr, program_of, small_const, CORPUS};
use ppe::core::FacetSet;
use ppe::lang::{
    parse_program, pretty_program, Const, EvalError, Evaluator, Expr, FunDef, Prim, Program,
    Symbol, Value,
};
use ppe::offline::{analyze, AbstractInput, OfflinePe};
use ppe::online::{OnlinePe, PeInput, SimpleInput, SimplePe};
use proptest::prelude::*;

/// Budgets small enough to keep property tests quick.
fn run(program: &ppe::lang::Program, args: &[Value]) -> Result<Value, EvalError> {
    let mut ev = Evaluator::with_fuel(program, 200_000);
    ev.run_main(args)
}

/// Builds the argument vector for a residual program's entry point by
/// matching its (possibly reduced) parameter list against named values —
/// unused dynamic parameters may have been dropped by the specializer.
fn residual_args(program: &ppe::lang::Program, bindings: &[(&str, Value)]) -> Vec<Value> {
    program
        .main()
        .params
        .iter()
        .map(|p| {
            bindings
                .iter()
                .find(|(n, _)| *n == p.as_str())
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("unexpected residual parameter `{p}`"))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Online PE with a known `y` agrees with direct evaluation on random
    /// programs, including on *errors* (overflow, division) — residuals
    /// neither invent nor lose failures.
    #[test]
    fn online_pe_preserves_semantics(body in int_expr(), y in small_const(), x in -6i64..=6) {
        let program = program_of(&body);
        let facets = FacetSet::new();
        let pe = OnlinePe::new(&program, &facets);
        let residual = pe
            .specialize_main(&[PeInput::dynamic(), PeInput::known(Value::from_const(y))])
            .expect("specialization succeeds");
        let source = run(&program, &[Value::Int(x), Value::from_const(y)]);
        let args = residual_args(&residual.program, &[("x", Value::Int(x))]);
        let spec = run(&residual.program, &args);
        match (source, spec) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {} // both fail: fine (kinds may differ in order)
            (a, b) => prop_assert!(false, "source: {:?}, residual: {:?}", a, b),
        }
    }

    /// The simple partial evaluator (Figure 2) has the same property.
    #[test]
    fn simple_pe_preserves_semantics(body in int_expr(), y in small_const(), x in -6i64..=6) {
        let program = program_of(&body);
        let pe = SimplePe::new(&program);
        let residual = pe
            .specialize_main(&[SimpleInput::Dynamic, SimpleInput::Known(y)])
            .expect("specialization succeeds");
        let source = run(&program, &[Value::Int(x), Value::from_const(y)]);
        let args = residual_args(&residual.program, &[("x", Value::Int(x))]);
        let spec = run(&residual.program, &args);
        match (source, spec) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "source: {:?}, residual: {:?}", a, b),
        }
    }

    /// Residual programs of random expressions parse back from their
    /// pretty-printed form to the same program (round-trip through the
    /// surface syntax).
    #[test]
    fn residuals_round_trip_through_the_printer(body in int_expr(), y in small_const()) {
        let program = program_of(&body);
        let facets = FacetSet::new();
        let residual = OnlinePe::new(&program, &facets)
            .specialize_main(&[PeInput::dynamic(), PeInput::known(Value::from_const(y))])
            .expect("specialization succeeds");
        let printed = ppe::lang::pretty_program(&residual.program);
        let back = parse_program(&printed).expect("residual parses");
        prop_assert_eq!(residual.program.defs(), back.defs());
    }
}

#[test]
fn corpus_residuals_agree_with_sources() {
    for (name, src, arity) in CORPUS {
        if *name == "iprod" {
            continue; // vector inputs handled in the paper-example test
        }
        let program = parse_program(src).unwrap();
        let facets = FacetSet::new();
        // Specialize on the *last* argument (the recursion counter in
        // most corpus entries).
        let mut inputs = vec![PeInput::dynamic(); *arity];
        inputs[*arity - 1] = PeInput::known(Value::Int(5));
        let residual = OnlinePe::new(&program, &facets)
            .specialize_main(&inputs)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for x in [-3i64, 0, 2, 7] {
            let mut full_args = vec![Value::Int(x); *arity];
            full_args[*arity - 1] = Value::Int(5);
            // Residual params may be a subset of the source's dynamic
            // params; bind all of them to x by name.
            let source_def = program.main();
            let bindings: Vec<(&str, Value)> = source_def
                .params
                .iter()
                .map(|p| (p.as_str(), Value::Int(x)))
                .collect();
            let dyn_args = residual_args(&residual.program, &bindings);
            let expected = run(&program, &full_args);
            let got = run(&residual.program, &dyn_args);
            assert_eq!(expected, got, "{name} at x={x}");
        }
    }
}

#[test]
fn fully_static_corpus_runs_reduce_to_constants() {
    for (name, src, arity) in CORPUS {
        if *name == "iprod" {
            continue;
        }
        let program = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let inputs: Vec<PeInput> = (0..*arity)
            .map(|i| PeInput::known(Value::Int(2 + i as i64)))
            .collect();
        let residual = OnlinePe::new(&program, &facets)
            .specialize_main(&inputs)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let concrete: Vec<Value> = (0..*arity).map(|i| Value::Int(2 + i as i64)).collect();
        let expected = run(&program, &concrete).unwrap();
        assert_eq!(
            residual.program.main().body.as_const(),
            expected.to_const(),
            "{name} should reduce to a constant"
        );
        assert!(residual.program.main().params.is_empty());
    }
}

#[test]
fn specializing_then_running_equals_running_with_bool_results() {
    // even/odd returns booleans; exercise the Bool summand end to end.
    let program = parse_program(
        "(define (evn n) (if (= n 0) #t (odd (- n 1))))
         (define (odd n) (if (= n 0) #f (evn (- n 1))))",
    )
    .unwrap();
    let facets = FacetSet::new();
    for n in 0..8i64 {
        let residual = OnlinePe::new(&program, &facets)
            .specialize_main(&[PeInput::known(Value::Int(n))])
            .unwrap();
        assert_eq!(
            residual.program.main().body.as_const(),
            Some(Const::Bool(n % 2 == 0)),
            "evn({n})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The residual cleanup passes preserve semantics, at both levels, on
    /// random programs and inputs, half of them with `let`s that rebind
    /// the parameters' names.
    #[test]
    fn optimizer_preserves_semantics(
        body in prop_oneof![int_expr(), rebinding_expr()],
        y in small_const(),
        x in -6i64..=6,
    ) {
        use ppe::lang::{optimize_program, OptLevel};
        let program = program_of(&body);
        for level in [OptLevel::Safe, OptLevel::PureArith] {
            let optimized = optimize_program(&program, level);
            let source = run(&program, &[Value::Int(x), Value::from_const(y)]);
            let opt = run(&optimized, &[Value::Int(x), Value::from_const(y)]);
            match (&source, &opt) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                // PureArith may legitimately turn an erroring program into
                // a defined one by dropping dead failing arithmetic; the
                // reverse is a bug at any level.
                (Err(_), Ok(_)) if level == OptLevel::PureArith => {}
                (a, b) => prop_assert!(false, "{level:?}: source {a:?}, optimized {b:?}"),
            }
        }
    }

    /// Safe-level optimization never changes the error/success status.
    #[test]
    fn safe_optimizer_preserves_errors(body in int_expr(), y in small_const(), x in -6i64..=6) {
        use ppe::lang::{optimize_program, OptLevel};
        let program = program_of(&body);
        let optimized = optimize_program(&program, OptLevel::Safe);
        let source = run(&program, &[Value::Int(x), Value::from_const(y)]);
        let opt = run(&optimized, &[Value::Int(x), Value::from_const(y)]);
        prop_assert_eq!(source.is_ok(), opt.is_ok());
    }
}

/// Names the optimizer tests' `let`s bind: the parameters' own and `a`.
const REBINDERS: [&str; 3] = ["x", "y", "a"];

/// Integer expressions for `(define (f x y) …)` whose `let`s rebind
/// [`REBINDERS`], so binders shadow the parameters and one another. One
/// form binds a parameter's value and then rebinds that parameter,
/// `(let ((a y)) (let ((y e)) body))`: substituting `a` in `body` there
/// would be captured. Variables are slots, resolved by [`close`].
fn rebinding_expr() -> impl Strategy<Value = Expr> {
    let name = || (0..REBINDERS.len()).prop_map(|i| Symbol::intern(REBINDERS[i]));
    let param = || prop_oneof![Just(Symbol::intern("x")), Just(Symbol::intern("y"))];
    let let_ = |v: Symbol, bound: Expr, body: Expr| Expr::Let(v, Box::new(bound), Box::new(body));
    let leaf = prop_oneof![(-6i64..=6).prop_map(Expr::int), slot_var()];
    leaf.prop_recursive(4, 32, 3, move |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::prim(Prim::Add, vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::prim(Prim::Mul, vec![a, b])),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Expr::If(
                Box::new(Expr::prim(Prim::Lt, vec![c, Expr::int(0)])),
                Box::new(t),
                Box::new(f)
            )),
            (name(), inner.clone(), inner.clone()).prop_map(move |(v, b, body)| let_(v, b, body)),
            ((name(), param()), inner.clone(), inner).prop_map(move |((a, v), e, body)| let_(
                a,
                Expr::Var(v),
                let_(v, e, body)
            )),
        ]
    })
    .prop_map(|e| close(&e, &[Symbol::intern("x"), Symbol::intern("y")]))
}

/// The residuals of `program`'s entry from the online and simple
/// specializers and, when `offline` is set, the offline one (its analysis
/// has no λs), with `Some(c)` inputs known and `None` inputs dynamic.
fn residuals(
    program: &Program,
    inputs: &[Option<Const>],
    offline: bool,
) -> Vec<(&'static str, Program)> {
    let facets = FacetSet::new();
    let pe: Vec<PeInput> = inputs
        .iter()
        .map(|i| i.map_or_else(PeInput::dynamic, |c| PeInput::known(Value::from_const(c))))
        .collect();
    let simple: Vec<SimpleInput> = inputs
        .iter()
        .map(|i| i.map_or(SimpleInput::Dynamic, SimpleInput::Known))
        .collect();
    let abs: Vec<AbstractInput> = inputs
        .iter()
        .map(|i| match i {
            Some(_) => AbstractInput::static_(),
            None => AbstractInput::dynamic(),
        })
        .collect();
    let mut out = vec![
        (
            "online",
            OnlinePe::new(program, &facets)
                .specialize_main(&pe)
                .expect("online specialization succeeds")
                .program,
        ),
        (
            "simple",
            SimplePe::new(program)
                .specialize_main(&simple)
                .expect("simple specialization succeeds")
                .program,
        ),
    ];
    if offline {
        let analysis = analyze(program, &facets, &abs).expect("analysis succeeds");
        let residual = OfflinePe::new(program, &facets, &analysis)
            .specialize(&pe)
            .expect("offline specialization succeeds");
        out.push(("offline", residual.program));
    }
    out
}

/// Unfolding `g` binds its parameter `a` to the caller's residual
/// variable. A residual binder must not capture it: neither one keeping the
/// name of `g`'s own `let` (the first program), nor a let-inserted
/// temporary spelled like a source binder (the second). Both compute 18 at
/// `x = 2`.
const CAPTURE_PROGRAMS: [&str; 2] = [
    "(define (f x) (let ((y (+ x 1))) (g y 5)))
     (define (g a n) (let ((y (* a n))) (+ y a)))",
    "(define (f x) (g (+ x 1) 5))
     (define (g a n) (let ((tmp_1 (* a n))) (+ tmp_1 a)))",
];

#[test]
fn unfolding_never_captures_a_caller_variable() {
    for src in CAPTURE_PROGRAMS {
        let program = parse_program(src).unwrap();
        for (engine, residual) in residuals(&program, &[None], true) {
            let printed = pretty_program(&residual);
            assert_eq!(
                run(&residual, &[Value::Int(2)]),
                Ok(Value::Int(18)),
                "{engine}: {printed}"
            );
            for x in [-3i64, 0, 7] {
                assert_eq!(
                    run(&residual, &[Value::Int(x)]),
                    run(&program, &[Value::Int(x)]),
                    "{engine} at x = {x}: {printed}"
                );
            }
        }
    }
}

/// Names both functions of a generated two-function program bind: shared,
/// so a callee `let` can reuse the name of the caller variable an unfolded
/// argument refers to. `tmp_1` is spelled like a let-inserted temporary and
/// `a` like the callee's first parameter.
const BINDERS: [&str; 4] = ["p", "q", "tmp_1", "a"];

fn binder() -> impl Strategy<Value = Symbol> {
    (0..BINDERS.len()).prop_map(|i| Symbol::intern(BINDERS[i]))
}

/// Integer expressions whose variables are numbered slots, resolved by
/// [`close`] against the scope the expression lands in.
fn slot_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![(-4i64..=4).prop_map(Expr::int), slot_var()];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::prim(Prim::Add, vec![a, b])),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::prim(Prim::Mul, vec![a, b])),
        ]
    })
}

/// A bare slot variable.
fn slot_var() -> impl Strategy<Value = Expr> {
    (0..4usize).prop_map(|k| Expr::var(&format!("#{k}")))
}

/// Resolves slot `#k` to `scope[k % scope.len()]`, where a `let` adds its
/// binder to the scope of its body; other variables stay.
fn close(e: &Expr, scope: &[Symbol]) -> Expr {
    match e {
        Expr::Var(v) => match v.as_str().strip_prefix('#') {
            Some(k) => Expr::Var(scope[k.parse::<usize>().expect("slot variable") % scope.len()]),
            None => e.clone(),
        },
        Expr::Prim(p, args) => Expr::Prim(*p, args.iter().map(|a| close(a, scope)).collect()),
        Expr::If(c, t, f) => Expr::If(
            Box::new(close(c, scope)),
            Box::new(close(t, scope)),
            Box::new(close(f, scope)),
        ),
        Expr::Let(v, b, body) => Expr::Let(
            *v,
            Box::new(close(b, scope)),
            Box::new(close(body, &[scope, &[*v]].concat())),
        ),
        other => other.clone(),
    }
}

/// `(define (f x y) (let ((P1 (+ x e1))) (let ((P2 e2)) (+ (g e3 e4) e5))))`
/// `(define (g a b) (let ((Q1 (+ a e6))) (let ((Q2 e7)) (+ e8 a))))`,
/// with `g`'s inner `let` written `((lambda (Q2) (+ e8 a)) e7)` when
/// `lambda` is set.
///
/// `e4` ranges over `y` only, so with `y` known the call has a constant
/// argument and unfolds on every engine. `P1` is always dynamic and `g`
/// reads `a` under its binders, so whenever `e3` names a caller binder that
/// `g` rebinds, a residual binder keeping the source name would capture.
fn capture_program([p1, p2, q1, q2]: [Symbol; 4], e: [Expr; 8], lambda: bool) -> Program {
    let s = Symbol::intern;
    let (x, y, a, b) = (s("x"), s("y"), s("a"), s("b"));
    let let_ = |v: Symbol, bound: Expr, body: Expr| Expr::Let(v, Box::new(bound), Box::new(body));
    let outer = [x, y, p1, p2];
    let call = Expr::Call(s("g"), vec![close(&e[2], &outer), close(&e[3], &[y])]);
    let f = let_(
        p1,
        Expr::prim(Prim::Add, vec![Expr::Var(x), close(&e[0], &[x, y])]),
        let_(
            p2,
            close(&e[1], &[x, y, p1]),
            Expr::prim(Prim::Add, vec![call, close(&e[4], &outer)]),
        ),
    );
    let tail = Expr::prim(Prim::Add, vec![close(&e[7], &[a, b, q1, q2]), Expr::Var(a)]);
    let inner = if lambda {
        Expr::App(
            Box::new(Expr::Lambda(vec![q2], Box::new(tail))),
            vec![close(&e[6], &[a, b, q1])],
        )
    } else {
        let_(q2, close(&e[6], &[a, b, q1]), tail)
    };
    let g = let_(
        q1,
        Expr::prim(Prim::Add, vec![Expr::Var(a), close(&e[5], &[a, b])]),
        inner,
    );
    Program::new(vec![
        FunDef::new(s("f"), vec![x, y], f),
        FunDef::new(s("g"), vec![a, b], g),
    ])
    .expect("two definitions")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorem 1 on random two-function programs whose caller and callee
    /// reuse binder names: unfolding the callee into the caller must not
    /// let a residual `let` or `λ` binder capture a caller variable, on
    /// any engine.
    #[test]
    fn unfolded_binders_preserve_semantics(
        binders in ((binder(), binder()), (binder(), binder())),
        head in (slot_expr(), slot_expr(), prop_oneof![slot_var(), slot_expr()]),
        mid in (slot_expr(), slot_expr(), slot_expr()),
        tail in (slot_expr(), slot_expr()),
        y in small_const(),
        lambda in any::<bool>(),
    ) {
        let ((p1, p2), (q1, q2)) = binders;
        let (e1, e2, e3) = head;
        let (e4, e5, e6) = mid;
        let (e7, e8) = tail;
        let program = capture_program([p1, p2, q1, q2], [e1, e2, e3, e4, e5, e6, e7, e8], lambda);
        for (engine, residual) in residuals(&program, &[None, Some(y)], !lambda) {
            for x in [-2i64, 0, 3] {
                let source = run(&program, &[Value::Int(x), Value::from_const(y)]);
                let args = residual_args(&residual, &[("x", Value::Int(x))]);
                let spec = run(&residual, &args);
                match (source, spec) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{} at x = {}: {}", engine, x, pretty_program(&residual)),
                    (Err(_), Err(_)) => {}
                    (a, b) => prop_assert!(false, "{engine}: source {a:?}, residual {b:?}"),
                }
            }
        }
    }
}
