//! Differential suite for the VM-backed static-evaluation path
//! (`--spec-engine vm` vs `ast`).
//!
//! The shortcut's contract (see `ppe_online::spec_eval`) is that firing it
//! is observationally invisible: same residual bytes, same statistics,
//! same budget accounting, same error classification. These tests pin that
//! contract on three fronts:
//!
//! 1. **Corpus byte-identity** — every corpus program and the bench
//!    workloads (inner product, power, sign kernel, the first-projection
//!    interpreter) produce `pretty_program`-identical residuals and equal
//!    [`PeStats`] under both engines, across all three specializers.
//! 2. **Random programs** — a property test drives randomly generated
//!    bodies through a static-count loop, so the shortcut fires on
//!    arbitrary shapes and re-visits each memoized subterm per unfolding.
//! 3. **Budget parity** — fuel and deadline exhaustion *inside* a run
//!    whose static evaluation went through the VM classifies identically
//!    to the tree walk, in both strict and degrade modes.
//! 4. **Micro-runs** — the shortcut fires from a run's first tick, so runs
//!    too short to amortize anything (E1's inner product at `n = 4`
//!    spends 84 ticks) must be byte-identical too.
//!
//! [`PeStats`]: ppe::online::PeStats

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{int_expr, program_of, small_const, CORPUS};
use ppe::core::facets::ContentsFacet;
use ppe::core::FacetSet;
use ppe::lang::{parse_program, pretty_program, Const, Expr, FunDef, Prim, Program, Symbol, Value};
use ppe::offline::{analyze, AbstractInput, OfflinePe};
use ppe::online::{
    Budget, ExhaustionPolicy, OnlinePe, PeConfig, PeError, PeInput, SimpleInput, SimplePe,
    SpecEvalBackend,
};
use ppe::vm::VmStaticEval;
use proptest::prelude::*;

/// `config` with the requested static-evaluation engine installed.
fn with_engine(config: &PeConfig, vm: bool) -> PeConfig {
    let mut config = config.clone();
    config.spec_eval = vm.then(|| Arc::new(VmStaticEval) as _);
    config
}

/// Asserts one workload produces byte-identical residuals and equal stats
/// under both engines; returns the shared pretty-printed residual.
fn assert_identical(what: &str, mut run: impl FnMut(bool) -> ppe::online::Residual) -> String {
    let ast = run(false);
    let vm = run(true);
    let ast_text = pretty_program(&ast.program);
    let vm_text = pretty_program(&vm.program);
    assert_eq!(ast_text, vm_text, "{what}: residual drift between engines");
    assert_eq!(ast.stats, vm.stats, "{what}: stats drift between engines");
    ast_text
}

/// Tail-static inputs: first parameter dynamic, the rest known as `k`.
fn tail_statics(arity: usize) -> Vec<bool> {
    let mut statics = vec![true; arity];
    if arity > 0 {
        statics[0] = false;
    }
    statics
}

#[test]
fn corpus_residuals_identical_across_engines() {
    // A known count large enough that unfolding re-walks the recursive
    // corpus programs' static subterms many times.
    let known = Value::Int(40);
    for (name, src, arity) in CORPUS {
        if *name == "iprod" {
            // Integer knowns don't fit its vector inputs; the bench
            // workloads below cover it with proper size facets.
            continue;
        }
        let program = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let statics = tail_statics(*arity);
        let config = PeConfig::default();

        let inputs: Vec<PeInput> = statics
            .iter()
            .map(|&s| {
                if s {
                    PeInput::known(known.clone())
                } else {
                    PeInput::dynamic()
                }
            })
            .collect();
        assert_identical(&format!("online/{name}"), |vm| {
            OnlinePe::with_config(&program, &facets, with_engine(&config, vm))
                .specialize_main(&inputs)
                .unwrap_or_else(|e| panic!("online/{name}: {e}"))
        });

        let simple_inputs: Vec<SimpleInput> = statics
            .iter()
            .map(|&s| {
                if s {
                    SimpleInput::Known(Const::Int(40))
                } else {
                    SimpleInput::Dynamic
                }
            })
            .collect();
        assert_identical(&format!("simple/{name}"), |vm| {
            SimplePe::with_config(&program, with_engine(&config, vm))
                .specialize_main(&simple_inputs)
                .unwrap_or_else(|e| panic!("simple/{name}: {e}"))
        });

        let abs: Vec<AbstractInput> = statics
            .iter()
            .map(|&s| {
                if s {
                    AbstractInput::static_()
                } else {
                    AbstractInput::dynamic()
                }
            })
            .collect();
        let analysis = analyze(&program, &facets, &abs).unwrap();
        assert_identical(&format!("offline/{name}"), |vm| {
            OfflinePe::with_config(&program, &facets, &analysis, with_engine(&config, vm))
                .specialize(&inputs)
                .unwrap_or_else(|e| panic!("offline/{name}: {e}"))
        });
    }
}

#[test]
fn bench_workloads_identical_across_engines() {
    // The E1/E6 inner product over size facets, online and offline.
    let iprod = ppe_bench::program(ppe_bench::INNER_PRODUCT);
    let sfacets = ppe_bench::size_facets();
    let analysis = ppe_bench::iprod_analysis(&iprod, &sfacets);
    for n in [16i64, 64] {
        let config = ppe_bench::deep_config(n as u32);
        let inputs = ppe_bench::sized_inputs(n);
        assert_identical(&format!("online/iprod_n{n}"), |vm| {
            OnlinePe::with_config(&iprod, &sfacets, with_engine(&config, vm))
                .specialize_main(&inputs)
                .unwrap()
        });
        assert_identical(&format!("offline/iprod_n{n}"), |vm| {
            OfflinePe::with_config(&iprod, &sfacets, &analysis, with_engine(&config, vm))
                .specialize(&inputs)
                .unwrap()
        });
    }

    // The E4 Figure-2 specializer on power and the sign kernel.
    for (name, src) in [
        ("power", ppe_bench::POWER),
        ("kernel", ppe_bench::SIGN_KERNEL),
    ] {
        let program = ppe_bench::program(src);
        let config = ppe_bench::deep_config(64);
        let inputs = [SimpleInput::Dynamic, SimpleInput::Known(Const::Int(64))];
        assert_identical(&format!("simple/{name}"), |vm| {
            SimplePe::with_config(&program, with_engine(&config, vm))
                .specialize_main(&inputs)
                .unwrap()
        });
    }

    // The E5 sign kernel under a wide facet product.
    {
        let program = ppe_bench::program(ppe_bench::SIGN_KERNEL);
        let facets = ppe_bench::facet_set_of_width(4);
        let config = ppe_bench::deep_config(48);
        let inputs = [PeInput::dynamic(), PeInput::known(Value::Int(48))];
        assert_identical("online/kernel_w4", |vm| {
            OnlinePe::with_config(&program, &facets, with_engine(&config, vm))
                .specialize_main(&inputs)
                .unwrap()
        });
    }

    // The E8 first Futamura projection: specializing the bytecode
    // interpreter to a static program — the shortcut's home turf. Assert
    // the VM engine actually fired, so this test cannot pass vacuously.
    {
        let program = ppe_bench::interpreter_program();
        let facets = FacetSet::with_facets(vec![Box::new(ContentsFacet)]);
        let code = ppe_bench::linear_bytecode(64);
        let config = ppe_bench::deep_config(4 * 64 + 32);
        let before = ppe::vm::vm_stats();
        assert_identical("online/interpreter", |vm| {
            OnlinePe::with_config(&program, &facets, with_engine(&config, vm))
                .specialize_main(&[PeInput::known(code.clone()), PeInput::dynamic()])
                .unwrap()
        });
        let after = ppe::vm::vm_stats();
        assert!(
            after.spec_vm_evals > before.spec_vm_evals,
            "interpreter specialization never reached the VM backend"
        );
    }
}

/// Wraps a random body in a static-count accumulation loop:
///
/// ```text
/// (define (g x y n) (if (= n 0) 0 (+ (f x y) (g x y (- n 1)))))
/// (define (f x y) <body>)
/// ```
///
/// Specializing `g` with `n = 24` unfolds the body two dozen times,
/// re-walking the same subterms once per unfolding — exactly the access
/// pattern the shortcut memoizes.
fn looped_program(body: &Expr) -> Program {
    let f = program_of(body).main().clone();
    let x = || Expr::var("x");
    let y = || Expr::var("y");
    let n = || Expr::var("n");
    let g_body = Expr::If(
        Box::new(Expr::prim(Prim::Eq, vec![n(), Expr::int(0)])),
        Box::new(Expr::int(0)),
        Box::new(Expr::prim(
            Prim::Add,
            vec![
                Expr::call("f", vec![x(), y()]),
                Expr::call(
                    "g",
                    vec![x(), y(), Expr::prim(Prim::Sub, vec![n(), Expr::int(1)])],
                ),
            ],
        )),
    );
    let g = FunDef::new(
        Symbol::intern("g"),
        vec![
            Symbol::intern("x"),
            Symbol::intern("y"),
            Symbol::intern("n"),
        ],
        g_body,
    );
    Program::new(vec![g, f]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random bodies, unfolded two dozen times: both engines emit
    /// byte-identical residuals with identical statistics, online and
    /// simple. Exhaustion (fuel/residual caps on a pathological draw) must
    /// classify identically too, so errors are compared rather than
    /// unwrapped.
    #[test]
    fn random_programs_identical_across_engines(body in int_expr(), y in small_const()) {
        let program = looped_program(&body);
        let facets = FacetSet::new();
        let config = PeConfig::default();

        let inputs = [
            PeInput::dynamic(),
            PeInput::known(Value::from_const(y)),
            PeInput::known(Value::Int(24)),
        ];
        let run = |vm: bool| {
            OnlinePe::with_config(&program, &facets, with_engine(&config, vm))
                .specialize_main(&inputs)
        };
        match (run(false), run(true)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(pretty_program(&a.program), pretty_program(&b.program));
                prop_assert_eq!(a.stats, b.stats);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "online engines diverged: {:?} vs {:?}", a, b),
        }

        let simple_inputs = [
            SimpleInput::Dynamic,
            SimpleInput::Known(y),
            SimpleInput::Known(Const::Int(24)),
        ];
        let run = |vm: bool| {
            SimplePe::with_config(&program, with_engine(&config, vm))
                .specialize_main(&simple_inputs)
        };
        match (run(false), run(true)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(pretty_program(&a.program), pretty_program(&b.program));
                prop_assert_eq!(a.stats, b.stats);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "simple engines diverged: {:?} vs {:?}", a, b),
        }
    }
}

/// A long workload whose every subterm is static: `gauss` on a large
/// static count.
fn gauss_workload() -> (Program, Vec<PeInput>) {
    let p =
        parse_program("(define (gauss n acc) (if (= n 0) acc (gauss (- n 1) (+ acc n))))").unwrap();
    let inputs = vec![
        PeInput::known(Value::Int(100_000)),
        PeInput::known(Value::Int(0)),
    ];
    (p, inputs)
}

#[test]
fn fuel_exhaustion_classifies_identically_under_vm_engine() {
    let (p, inputs) = gauss_workload();
    let facets = FacetSet::new();
    // Enough fuel for the VM path to fire many times, nowhere near enough
    // to finish 100k iterations — and an unfold horizon past the fuel
    // budget, so fuel is the budget that trips.
    let strict = PeConfig {
        fuel: 2_000,
        max_unfold_depth: 1_000_000,
        ..PeConfig::default()
    };
    let run = |config: &PeConfig, vm: bool| {
        OnlinePe::with_config(&p, &facets, with_engine(config, vm)).specialize_main(&inputs)
    };
    let before = ppe::vm::vm_stats();
    let vm_err = run(&strict, true).unwrap_err();
    let after = ppe::vm::vm_stats();
    assert!(
        after.spec_vm_evals > before.spec_vm_evals,
        "VM path never fired before the fuel trip"
    );
    assert_eq!(run(&strict, false).unwrap_err(), PeError::OutOfFuel);
    assert_eq!(vm_err, PeError::OutOfFuel);

    // Degrade mode: both engines finish with the same degradation report
    // and byte-identical residuals.
    let degrade = PeConfig {
        on_exhaustion: ExhaustionPolicy::Degrade,
        ..strict
    };
    let ast = run(&degrade, false).unwrap();
    let vm = run(&degrade, true).unwrap();
    assert!(ast.report.tripped(Budget::Fuel));
    assert!(vm.report.tripped(Budget::Fuel));
    assert_eq!(
        pretty_program(&ast.program),
        pretty_program(&vm.program),
        "degraded residuals drifted between engines"
    );
    assert_eq!(ast.stats, vm.stats);
}

#[test]
fn deadline_exhaustion_classifies_identically_under_vm_engine() {
    let (p, inputs) = gauss_workload();
    let facets = FacetSet::new();
    // An already-expired deadline trips at the first probe (tick 256), and
    // the VM path fires many times before it. The trip tick is identical
    // on both engines because the VM path charges its ticks through the
    // same governor, preserving probe boundaries.
    let strict = PeConfig {
        deadline: Some(Duration::ZERO),
        ..PeConfig::default()
    };
    let run = |config: &PeConfig, vm: bool| {
        OnlinePe::with_config(&p, &facets, with_engine(config, vm)).specialize_main(&inputs)
    };
    assert_eq!(run(&strict, false).unwrap_err(), PeError::DeadlineExceeded);
    assert_eq!(run(&strict, true).unwrap_err(), PeError::DeadlineExceeded);

    let degrade = PeConfig {
        on_exhaustion: ExhaustionPolicy::Degrade,
        ..strict
    };
    let ast = run(&degrade, false).unwrap();
    let vm = run(&degrade, true).unwrap();
    assert!(ast.report.tripped(Budget::Deadline));
    assert!(vm.report.tripped(Budget::Deadline));
    assert_eq!(
        pretty_program(&ast.program),
        pretty_program(&vm.program),
        "degraded residuals drifted between engines"
    );
    assert_eq!(ast.stats, vm.stats);
}

/// [`VmStaticEval`] behind a per-run call counter, so a test can tell that
/// its own run reached the backend (the process-wide `vm_stats` counters
/// also move with every other test in this binary).
#[derive(Debug, Default)]
struct Counting(AtomicU64);

impl SpecEvalBackend for Counting {
    fn eval(&self, key: u64, body: &Expr, params: &[Symbol], args: &[Value]) -> Option<Value> {
        self.0.fetch_add(1, Ordering::Relaxed);
        VmStaticEval.eval(key, body, params, args)
    }
}

/// Runs `run` once on the tree walk and once on a fresh counting VM
/// backend, asserts byte-identical residuals and equal stats, and checks
/// that the VM run was a micro-run that reached the backend.
fn assert_micro_run(what: &str, mut run: impl FnMut(&PeConfig) -> ppe::online::Residual) {
    let ast = run(&PeConfig::default());
    let counting = Arc::new(Counting::default());
    let config = PeConfig {
        spec_eval: Some(counting.clone()),
        ..PeConfig::default()
    };
    let before = ppe::vm::vm_stats();
    let vm = run(&config);
    let after = ppe::vm::vm_stats();
    assert_eq!(
        pretty_program(&ast.program),
        pretty_program(&vm.program),
        "{what}: residual drift between engines"
    );
    assert_eq!(ast.stats, vm.stats, "{what}: stats drift between engines");
    assert!(
        vm.stats.steps < 96,
        "{what} is not a micro-run: {:?}",
        vm.stats
    );
    assert!(
        counting.0.load(Ordering::Relaxed) > 0,
        "{what}: the shortcut never reached the backend"
    );
    assert!(
        after.spec_vm_evals > before.spec_vm_evals,
        "{what}: spec_vm_evals did not advance"
    );
}

#[test]
fn micro_runs_identical_across_engines() {
    // E1's inner product at n = 4 (84 ticks), online and offline: the
    // loop tests `(= n 0)` and steps `(- n 1)` fire on the static size.
    let iprod = ppe_bench::program(ppe_bench::INNER_PRODUCT);
    let sfacets = ppe_bench::size_facets();
    let analysis = ppe_bench::iprod_analysis(&iprod, &sfacets);
    let inputs = ppe_bench::sized_inputs(4);
    assert_micro_run("online/iprod_n4", |config| {
        OnlinePe::with_config(&iprod, &sfacets, config.clone())
            .specialize_main(&inputs)
            .unwrap()
    });
    assert_micro_run("offline/iprod_n4", |config| {
        OfflinePe::with_config(&iprod, &sfacets, &analysis, config.clone())
            .specialize(&inputs)
            .unwrap()
    });

    // The Figure 2 specializer on power at n = 4.
    let power = ppe_bench::program(ppe_bench::POWER);
    let simple_inputs = [SimpleInput::Dynamic, SimpleInput::Known(Const::Int(4))];
    assert_micro_run("simple/power_n4", |config| {
        SimplePe::with_config(&power, config.clone())
            .specialize_main(&simple_inputs)
            .unwrap()
    });
}
