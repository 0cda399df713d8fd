//! Machine-readable E1–E8 timing suite.
//!
//! Prints one JSON object mapping a stable bench id to its median
//! wall-clock microseconds. `BENCH_specializer.json` is assembled from two
//! runs of this binary (one on the commit before a perf change, one after):
//!
//! ```sh
//! cargo run -p ppe-bench --bin spec_suite --release > after.json
//! ```
//!
//! Flags:
//!
//! - `--quick` cuts repetition counts for CI smoke runs.
//! - `--spec-engine vm|ast` picks the static-evaluation backend the
//!   specialization benches run with (default `vm`, matching the CLI and
//!   server defaults). Execution and analysis benches ignore it.
//! - `--interleaved` switches to before/after re-measurement mode: every
//!   spec-phase bench runs its `ast` and `vm` variants with alternating
//!   samples *in one process*, so allocator state, frequency scaling, and
//!   cache warmth drift hit both sides equally. Output becomes
//!   `{"id": {"before_us": ast, "after_us": vm, "speedup": r}, ...}` plus a
//!   `control_kernel_self` datapoint that times one workload against
//!   itself — its deviation from 1.0 is the measured noise floor, the
//!   yardstick for deciding whether a recorded sub-1.0 speedup is a real
//!   regression or sampling noise (see EXPERIMENTS.md).

use std::sync::Arc;
use std::time::Instant;

use ppe_bench::{
    chain_program, deep_config, facet_set_of_width, interpreter_program, iprod_analysis,
    linear_bytecode, size_facets, sized_inputs, INNER_PRODUCT, POWER, SIGN_KERNEL,
};
use ppe_core::facets::ContentsFacet;
use ppe_core::FacetSet;
use ppe_lang::{Const, Evaluator, Value};
use ppe_offline::{analyze, AbstractInput, OfflinePe};
use ppe_online::{OnlinePe, PeConfig, PeInput, SimpleInput, SimplePe};

/// One timed sample of `f`, in microseconds.
fn sample_us<T>(f: &mut impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64() * 1e6
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Median wall time of `reps` runs of `f`, in microseconds.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median((0..reps).map(|_| sample_us(&mut f)).collect())
}

/// Interleaved A/B medians for one two-sided workload: `f(false)` is the
/// A side, `f(true)` the B side. Samples alternate `a, b, b, a, a, b, …`
/// so slow environmental drift contributes equally to both sides.
///
/// `reps` is a floor: a pilot sample sizes the run so each side gets
/// roughly 20 ms of samples (capped at `25 × reps`). A 10 µs bench at the
/// floor rep count has a median noise of several percent — enough to
/// manufacture a phantom regression — while the same wall-clock budget
/// that the slow benches spend anyway buys it a stable median.
fn time_us_pair<T>(reps: usize, mut f: impl FnMut(bool) -> T) -> (f64, f64) {
    let pilot = sample_us(&mut || f(false)).max(sample_us(&mut || f(true)));
    let reps = ((20_000.0 / pilot.max(1.0)) as usize).clamp(reps, 25 * reps) | 1;
    let mut sa = Vec::with_capacity(reps);
    let mut sb = Vec::with_capacity(reps);
    for i in 0..reps {
        if i % 2 == 0 {
            sa.push(sample_us(&mut || f(false)));
            sb.push(sample_us(&mut || f(true)));
        } else {
            sb.push(sample_us(&mut || f(true)));
            sa.push(sample_us(&mut || f(false)));
        }
    }
    (median(sa), median(sb))
}

/// `config` with the requested static-evaluation backend installed.
fn with_engine(config: &PeConfig, vm: bool) -> PeConfig {
    let mut config = config.clone();
    config.spec_eval = if vm {
        Some(Arc::new(ppe_vm::VmStaticEval))
    } else {
        None
    };
    config
}

/// How the suite reports spec-phase benches.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Single median per id, on one chosen engine.
    Single { vm: bool },
    /// Interleaved ast/vm pair per id.
    Interleaved,
}

/// One output row.
enum Row {
    Single(&'static str, f64),
    Pair(&'static str, f64, f64),
}

/// Times one spec-phase bench according to `mode`. The closure runs one
/// specialization with the given backend choice.
fn spec_bench<T>(
    out: &mut Vec<Row>,
    mode: Mode,
    reps: usize,
    id: &'static str,
    mut f: impl FnMut(bool) -> T,
) {
    match mode {
        Mode::Single { vm } => out.push(Row::Single(id, time_us(reps, || f(vm)))),
        Mode::Interleaved => {
            let (ast, vm) = time_us_pair(reps, f);
            out.push(Row::Pair(id, ast, vm));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let interleaved = args.iter().any(|a| a == "--interleaved");
    let vm_default = match args.iter().position(|a| a == "--spec-engine") {
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("vm") => true,
            Some("ast") => false,
            other => {
                eprintln!("--spec-engine must be vm or ast, got {other:?}");
                std::process::exit(2);
            }
        },
        None => true,
    };
    let mode = if interleaved {
        Mode::Interleaved
    } else {
        Mode::Single { vm: vm_default }
    };
    let reps = if quick { 5 } else { 41 };
    let reps_slow = if quick { 3 } else { 15 };

    let mut out: Vec<Row> = Vec::new();

    // E1 — inner-product specialization (Figures 7→8), online and offline.
    let iprod = ppe_bench::program(INNER_PRODUCT);
    let sfacets = size_facets();
    let analysis = iprod_analysis(&iprod, &sfacets);
    for n in [4i64, 16] {
        let config = deep_config(n as u32);
        let inputs = sized_inputs(n);
        spec_bench(
            &mut out,
            mode,
            reps,
            if n == 4 {
                "e1_online_iprod_n4"
            } else {
                "e1_online_iprod_n16"
            },
            |vm| {
                OnlinePe::with_config(&iprod, &sfacets, with_engine(&config, vm))
                    .specialize_main(&inputs)
                    .unwrap()
            },
        );
        spec_bench(
            &mut out,
            mode,
            reps,
            if n == 4 {
                "e1_offline_iprod_n4"
            } else {
                "e1_offline_iprod_n16"
            },
            |vm| {
                OfflinePe::with_config(&iprod, &sfacets, &analysis, with_engine(&config, vm))
                    .specialize(&inputs)
                    .unwrap()
            },
        );
    }

    // E2 — the Figure 9 facet analysis itself (no spec phase; skipped in
    // interleaved mode, which only re-measures engine-sensitive benches).
    if !interleaved {
        out.push(Row::Single(
            "e2_analysis_iprod",
            time_us(reps, || iprod_analysis(&iprod, &sfacets)),
        ));
    }

    // E3 — amortization: one analysis plus 16 offline specializations.
    {
        let config = deep_config(64);
        let sizes: Vec<i64> = (0..16).map(|i| 2 + (i % 31)).collect();
        spec_bench(&mut out, mode, reps_slow, "e3_offline_x16", |vm| {
            let analysis = iprod_analysis(&iprod, &sfacets);
            let pe = OfflinePe::with_config(&iprod, &sfacets, &analysis, with_engine(&config, vm));
            for &n in &sizes {
                std::hint::black_box(pe.specialize(&sized_inputs(n)).unwrap());
            }
        });
    }

    // E4 — the Figure 2 baseline specializer on power/kernel.
    for (id, src) in [
        ("e4_simple_power_n64", POWER),
        ("e4_simple_kernel_n64", SIGN_KERNEL),
    ] {
        let program = ppe_bench::program(src);
        let config = deep_config(64);
        let inputs = [SimpleInput::Dynamic, SimpleInput::Known(Const::Int(64))];
        spec_bench(&mut out, mode, reps, id, |vm| {
            SimplePe::with_config(&program, with_engine(&config, vm))
                .specialize_main(&inputs)
                .unwrap()
        });
    }

    // E5 — facet-product width scaling (online, sign kernel).
    {
        let program = ppe_bench::program(SIGN_KERNEL);
        let config = deep_config(48);
        let inputs = [PeInput::dynamic(), PeInput::known(Value::Int(48))];
        for width in [0usize, 2, 4] {
            let facets = facet_set_of_width(width);
            let id = match width {
                0 => "e5_facets_w0",
                2 => "e5_facets_w2",
                _ => "e5_facets_w4",
            };
            spec_bench(&mut out, mode, reps, id, |vm| {
                OnlinePe::with_config(&program, &facets, with_engine(&config, vm))
                    .specialize_main(&inputs)
                    .unwrap()
            });
        }
    }

    // E6 — residual production at a larger size (spec cost, not eval cost).
    {
        let config = deep_config(64);
        spec_bench(&mut out, mode, reps_slow, "e6_online_iprod_n64", |vm| {
            OnlinePe::with_config(&iprod, &sfacets, with_engine(&config, vm))
                .specialize_main(&sized_inputs(64))
                .unwrap()
        });
    }

    // E7 — monovariant facet-analysis scaling over call-chain programs
    // (analysis only — no spec phase, skipped in interleaved mode).
    if !interleaved {
        for (id, k, w) in [
            ("e7_analyze_k64_w2", 64usize, 2usize),
            ("e7_analyze_k64_w4", 64, 4),
            ("e7_analyze_k128_w4", 128, 4),
        ] {
            let program = chain_program(k);
            let facets = facet_set_of_width(w);
            let inputs = [AbstractInput::dynamic(), AbstractInput::static_()];
            let t = time_us(reps_slow, || analyze(&program, &facets, &inputs).unwrap());
            out.push(Row::Single(id, t));
        }
    }

    // E8 — first Futamura projection: specializing the bytecode interpreter.
    {
        let program = interpreter_program();
        let facets = FacetSet::with_facets(vec![Box::new(ContentsFacet)]);
        let code = linear_bytecode(64);
        let config = deep_config(4 * 64 + 32);
        spec_bench(&mut out, mode, reps_slow, "e8_spec_interp_ops64", |vm| {
            OnlinePe::with_config(&program, &facets, with_engine(&config, vm))
                .specialize_main(&[PeInput::known(code.clone()), PeInput::dynamic()])
                .unwrap()
        });
    }

    // Interleaved control: the same workload on both sides. Its measured
    // "speedup" can only differ from 1.0 by noise, which calibrates how
    // much trust the other ratios deserve.
    if interleaved {
        let program = ppe_bench::program(SIGN_KERNEL);
        let config = deep_config(64);
        let inputs = [SimpleInput::Dynamic, SimpleInput::Known(Const::Int(64))];
        let one = |_vm: bool| {
            SimplePe::with_config(&program, with_engine(&config, false))
                .specialize_main(&inputs)
                .unwrap()
        };
        let (a, b) = time_us_pair(reps, |_side| one(false));
        out.push(Row::Pair("control_kernel_self", a, b));
    }

    // E6/E8 executed — compiled vs interpreted residual *execution*: the
    // residuals the specializer produces, run through the AST oracle and
    // through the bytecode VM (`crates/vm`). The `_vm`/`_ast` pair is the
    // compiled-over-interpreted section of BENCH_specializer.json.
    // Residual execution has no spec phase; skipped in interleaved mode.
    if !interleaved {
        {
            let residual = OnlinePe::with_config(&iprod, &sfacets, deep_config(64))
                .specialize_main(&sized_inputs(64))
                .unwrap()
                .program;
            let args = [
                ppe_bench::random_vector(64, 1),
                ppe_bench::random_vector(64, 2),
            ];
            let mut ev = Evaluator::new(&residual);
            let t = time_us(reps, || ev.run_main(&args).unwrap());
            out.push(Row::Single("e6_exec_iprod_n64_ast", t));
            let compiled = ppe_vm::compile(&residual).unwrap();
            let mut vm = ppe_vm::Vm::new();
            let t = time_us(reps, || vm.run_main(&compiled, &args).unwrap());
            out.push(Row::Single("e6_exec_iprod_n64_vm", t));
        }
        {
            let program = interpreter_program();
            let facets = FacetSet::with_facets(vec![Box::new(ContentsFacet)]);
            let code = linear_bytecode(64);
            let config = deep_config(4 * 64 + 32);
            let residual = OnlinePe::with_config(&program, &facets, config)
                .specialize_main(&[PeInput::known(code), PeInput::dynamic()])
                .unwrap()
                .program;
            let args = [Value::Int(3)];
            let mut ev = Evaluator::new(&residual);
            let t = time_us(reps, || ev.run_main(&args).unwrap());
            out.push(Row::Single("e8_exec_interp_ops64_ast", t));
            let compiled = ppe_vm::compile(&residual).unwrap();
            let mut vm = ppe_vm::Vm::new();
            let t = time_us(reps, || vm.run_main(&compiled, &args).unwrap());
            out.push(Row::Single("e8_exec_interp_ops64_vm", t));
        }
    }

    let fields: Vec<String> = out
        .iter()
        .map(|row| match row {
            Row::Single(id, t) => format!("\"{id}\": {t:.1}"),
            Row::Pair(id, ast, vm) => format!(
                "\"{id}\": {{\"before_us\": {ast:.1}, \"after_us\": {vm:.1}, \
                 \"speedup\": {:.3}}}",
                ast / vm
            ),
        })
        .collect();
    println!("{{{}}}", fields.join(", "));
}
