//! Per-worker request execution: resolving a plain-data request into
//! parsed forms and running the selected engine.
//!
//! Everything here is thread-*local* by design: `FacetSet`, `PeInput`,
//! and `Analysis` are `Rc`-backed and must not cross threads, so each
//! worker re-derives them from the request's strings. The expensive
//! artifacts that are worth sharing — parsed [`Program`]s (plain data)
//! and finished residuals — live in the service's shared caches instead.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use ppe_core::{FacetSet, ProductVal};
use ppe_lang::{optimize_residual, pretty_program, OptLevel, Program, Symbol};
use ppe_offline::{analyze_fn_with_config, AbstractInput, Analysis, OfflinePe};
use ppe_online::{OnlinePe, PeConfig, PeInput, SimpleInput, SimplePe};

use ppe_lang::{Evaluator, Value};
use ppe_vm::VmOptions;

use crate::cache::CachedOutcome;
use crate::key::{analysis_key, residual_key, CacheKey};
use crate::metrics::Metrics;
use crate::request::{
    Engine, ExecEngine, ExecOutcome, ExecuteRequest, SpecEngine, SpecializeRequest,
};
use crate::spec;

/// The request's [`PeConfig`] with the static-evaluation backend the
/// request chose installed: `spec_engine: vm` (the default) threads the
/// shared [`ppe_vm::VmStaticEval`] handle through the engine so fully
/// static subtrees replay on bytecode; `ast` leaves the engines' tree
/// walk in charge (the differential oracle). Residuals are identical
/// either way, so this never touches the cache key.
fn effective_config(req: &SpecializeRequest) -> PeConfig {
    let mut config = req.config.clone();
    config.spec_eval = match req.spec_engine {
        SpecEngine::Vm => Some(Arc::new(ppe_vm::VmStaticEval)),
        SpecEngine::Ast => None,
    };
    config
}

/// Per-worker state that outlives single requests: the offline engine's
/// analysis cache. Keyed by [`analysis_key`], the request's facet
/// signature (closure, entry, facets, each input's abstract product,
/// deadline and policy), so one worker runs facet analysis once per
/// signature and reuses it for every later request whose inputs abstract
/// alike, whatever their static values, other budgets or optimizer flag:
/// Section 5's split of analysis from specialization (Definition 8).
#[derive(Default)]
pub struct EngineContext {
    analyses: HashMap<CacheKey, Rc<Analysis>>,
}

impl EngineContext {
    /// A fresh, empty context.
    pub fn new() -> EngineContext {
        EngineContext::default()
    }

    /// Number of cached analyses (for tests).
    pub fn cached_analyses(&self) -> usize {
        self.analyses.len()
    }
}

/// A request resolved against parsed program and facets — ready to key
/// and run. Thread-local (holds `Rc`-backed values).
pub(crate) struct Resolved {
    pub program: Arc<Program>,
    /// The entry symbol's transitive-closure fingerprint
    /// (`ppe_analyze::depgraph`): the program component of both cache
    /// keys. Editing a definition the entry cannot reach leaves it — and
    /// therefore every cached artifact — untouched.
    pub closure_fingerprint: u64,
    pub entry: Symbol,
    pub facets: FacetSet,
    pub inputs: Vec<PeInput>,
    pub products: Vec<ProductVal>,
    pub key: CacheKey,
}

/// Parses facets and inputs and computes the cache key.
pub(crate) fn resolve(
    req: &SpecializeRequest,
    program: Arc<Program>,
    depgraph: &ppe_analyze::depgraph::DepGraph,
) -> Result<Resolved, String> {
    let entry = match &req.function {
        Some(name) => {
            let sym = Symbol::intern(name);
            if program.lookup(sym).is_none() {
                return Err(format!("no function `{name}` in the program"));
            }
            sym
        }
        None => program.main().name,
    };
    let closure_fingerprint = depgraph
        .closure_fingerprint(entry)
        .expect("entry was just validated against the same program");
    let facets = spec::build_facets(&req.facets)?;
    let inputs: Vec<PeInput> = req
        .inputs
        .iter()
        .map(|s| spec::parse_input(s))
        .collect::<Result<_, _>>()?;
    let arity = program
        .lookup(entry)
        .expect("entry was just validated")
        .arity();
    if arity != inputs.len() {
        return Err(format!(
            "`{entry}` expects {arity} inputs but the request has {}",
            inputs.len()
        ));
    }
    let products: Vec<ProductVal> = inputs
        .iter()
        .map(|i| i.to_product(&facets).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let key = residual_key(
        closure_fingerprint,
        entry.as_str(),
        req.engine,
        &req.facets,
        &products,
        req.optimize,
        &req.config,
    );
    Ok(Resolved {
        program,
        closure_fingerprint,
        entry,
        facets,
        inputs,
        products,
        key,
    })
}

/// Runs the requested engine to completion and renders the outcome.
pub(crate) fn run(
    req: &SpecializeRequest,
    resolved: &Resolved,
    ctx: &mut EngineContext,
    metrics: &Metrics,
) -> Result<CachedOutcome, String> {
    let config = effective_config(req);
    let residual = match req.engine {
        Engine::Online => OnlinePe::with_config(&resolved.program, &resolved.facets, config)
            .specialize(resolved.entry, &resolved.inputs)
            .map_err(|e| e.to_string())?,
        Engine::Simple => {
            let simple_inputs: Vec<SimpleInput> = resolved
                .inputs
                .iter()
                .map(|i| match i {
                    // Structured values (vectors) have no Const form; the
                    // simple engine treats them — like all refinements —
                    // as dynamic.
                    PeInput::Known(v) => v
                        .to_const()
                        .map(SimpleInput::Known)
                        .unwrap_or(SimpleInput::Dynamic),
                    PeInput::Dynamic { .. } => SimpleInput::Dynamic,
                })
                .collect();
            SimplePe::with_config(&resolved.program, config)
                .specialize(resolved.entry, &simple_inputs)
                .map_err(|e| e.to_string())?
        }
        Engine::Offline => {
            let analysis = cached_analysis(req, resolved, ctx, metrics)?;
            OfflinePe::with_config(&resolved.program, &resolved.facets, &analysis, config)
                .specialize(&resolved.inputs)
                .map_err(|e| e.to_string())?
        }
    };
    let rendered = if req.optimize {
        optimize_residual(residual.program, OptLevel::Safe)
    } else {
        residual.program
    };
    Ok(CachedOutcome {
        residual: pretty_program(&rendered),
        stats: residual.stats,
        degradations: residual.report.events().to_vec(),
        entry: resolved.entry.as_str().to_owned(),
        closure_fingerprint: resolved.closure_fingerprint,
    })
}

/// Runs a residual program on concrete inputs — the `"execute"` path.
///
/// Infallible by design: every failure (unparseable input value, runtime
/// error, exhausted budget) lands in the outcome's `value` field, because
/// by this point specialization has *succeeded* and the response should
/// carry the residual either way. Budgets come from the same [`PeConfig`]
/// that governed specialization: `fuel` meters function applications and
/// `deadline` bounds wall clock, on both engines identically.
pub(crate) fn execute_residual(
    residual: &Program,
    exec: &ExecuteRequest,
    config: &PeConfig,
    metrics: &Metrics,
) -> ExecOutcome {
    metrics.executes.fetch_add(1, Relaxed);
    let mut outcome = ExecOutcome {
        value: Err(String::new()),
        engine: exec.engine,
        chunks_compiled: 0,
        chunk_cache_hit: false,
        ops_executed: 0,
        fuel_used: 0,
    };
    let args: Result<Vec<Value>, String> = exec
        .inputs
        .iter()
        .map(|s| spec::parse_value(s).map_err(|e| format!("execute input: {e}")))
        .collect();
    match args {
        Err(msg) => outcome.value = Err(msg),
        Ok(args) => match exec.engine {
            ExecEngine::Vm => {
                let opts = VmOptions {
                    fuel: config.fuel,
                    deadline: config.deadline,
                    ..VmOptions::default()
                };
                let (out, report) = ppe_vm::execute_main(residual, &args, opts);
                outcome.value = out.map(|v| v.to_string()).map_err(|e| e.to_string());
                outcome.chunks_compiled = report.chunks_compiled;
                outcome.chunk_cache_hit = report.cache_hit;
                outcome.ops_executed = report.ops_executed;
                outcome.fuel_used = report.fuel_used;
                metrics
                    .vm_chunks_compiled
                    .fetch_add(report.chunks_compiled, Relaxed);
                if report.cache_hit {
                    metrics.vm_chunk_cache_hits.fetch_add(1, Relaxed);
                }
                metrics
                    .vm_opcodes_executed
                    .fetch_add(report.ops_executed, Relaxed);
            }
            ExecEngine::Ast => {
                let mut ev = Evaluator::with_fuel(residual, config.fuel);
                ev.set_deadline(config.deadline);
                outcome.value = ev
                    .run_main(&args)
                    .map(|v| v.to_string())
                    .map_err(|e| e.to_string());
                outcome.fuel_used = ev.fuel_used();
            }
        },
    }
    if outcome.value.is_err() {
        metrics.exec_errors.fetch_add(1, Relaxed);
    }
    outcome
}

/// Facet analysis for the offline engine, memoized per worker.
fn cached_analysis(
    req: &SpecializeRequest,
    resolved: &Resolved,
    ctx: &mut EngineContext,
    metrics: &Metrics,
) -> Result<Rc<Analysis>, String> {
    let akey = analysis_key(
        resolved.closure_fingerprint,
        resolved.entry.as_str(),
        &req.facets,
        &resolved.products,
        &req.config,
    );
    if let Some(analysis) = ctx.analyses.get(&akey) {
        metrics.analysis_hits.fetch_add(1, Relaxed);
        return Ok(Rc::clone(analysis));
    }
    let abstract_inputs: Vec<AbstractInput> = resolved
        .products
        .iter()
        .cloned()
        .map(AbstractInput::of_product)
        .collect();
    let analysis = analyze_fn_with_config(
        &resolved.program,
        &resolved.facets,
        resolved.entry,
        &abstract_inputs,
        &req.config,
    )
    .map_err(|e| e.to_string())?;
    metrics.analysis_misses.fetch_add(1, Relaxed);
    let analysis = Rc::new(analysis);
    // The analysis cache is bounded by the distinct facet signatures a
    // worker sees; cap it so a serve loop fed unbounded distinct programs
    // cannot grow without limit.
    if ctx.analyses.len() >= 256 {
        ctx.analyses.clear();
    }
    ctx.analyses.insert(akey, Rc::clone(&analysis));
    Ok(analysis)
}
