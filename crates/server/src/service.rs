//! The long-lived specialization service: shared caches + metrics +
//! request handling.

use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ppe_analyze::depgraph::DepGraph;
use ppe_lang::diag::Diagnostic;
use ppe_lang::{parse_program, Program};
use ppe_online::{Budget, DegradationEvent};

use crate::cache::ResidualCache;
use crate::engine::{self, EngineContext};
use crate::metrics::Metrics;
use crate::persist::{PersistConfig, PersistTier};
use crate::request::{CacheDisposition, SpecializeOutput, SpecializeRequest, SpecializeResponse};

/// Sizing knobs for one service instance.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Total residual-cache budget in bytes, split across shards.
    pub cache_bytes: usize,
    /// Shard count (rounded up to a power of two).
    pub shards: usize,
    /// Optional disk persistence tier beneath the in-memory cache;
    /// `None` disables persistence entirely.
    pub persist: Option<PersistConfig>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            cache_bytes: 64 << 20,
            shards: 16,
            persist: None,
        }
    }
}

/// Upper bound on retained parsed programs; a serve loop fed unbounded
/// distinct programs resets the parse cache rather than growing forever.
const MAX_PARSED_PROGRAMS: usize = 128;

/// A concurrent specialization service.
///
/// One instance is shared (`Arc` or borrow) by every worker; all state is
/// behind its own synchronization. The handle path is:
/// parse-cache → resolve (facets, inputs, cache key) → residual cache
/// (single-flight) → engine.
///
/// # Examples
///
/// ```
/// use ppe_server::{EngineContext, ServiceConfig, SpecializeRequest, SpecializeService};
///
/// let service = SpecializeService::new(ServiceConfig::default());
/// let mut ctx = EngineContext::new();
/// let req = SpecializeRequest::new(
///     "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
///     vec!["_".into(), "3".into()],
/// );
/// let first = service.handle(&req, &mut ctx);
/// let again = service.handle(&req, &mut ctx);
/// assert!(first.outcome.is_ok());
/// assert_eq!(
///     again.outcome.unwrap().residual,
///     first.outcome.unwrap().residual,
/// );
/// assert_eq!(service.metrics().snapshot().cache_hits, 1);
/// ```
#[derive(Debug)]
pub struct SpecializeService {
    cache: ResidualCache,
    metrics: Metrics,
    programs: Mutex<HashMap<String, Arc<ParsedProgram>>>,
    /// Last observed closure fingerprint per definition name, across
    /// every source program this service has parsed. When a new source
    /// shows a different fingerprint for a known name, that definition's
    /// cached residuals just became unreachable-by-key — counted as
    /// `depgraph_invalidations` so operators can see how much of an edit
    /// actually invalidated (the complement is the incremental win).
    entry_fps: Mutex<HashMap<String, u64>>,
    persist: Option<PersistTier>,
    persist_error: Option<String>,
}

/// A parse-cache entry: the program and its dependency graph (call edges
/// and per-definition closure fingerprints, the program component of
/// every cache key), built on the miss, and the analyzer's pre-flight
/// warnings, computed on the entry's first use as a request's program
/// (see [`SpecializeService::preflight`]). Residual text that `execute`
/// reads back through the same cache never runs the analyzer.
#[derive(Debug)]
struct ParsedProgram {
    program: Arc<Program>,
    depgraph: DepGraph,
    warnings: OnceLock<Vec<Diagnostic>>,
}

impl SpecializeService {
    /// A fresh service with empty caches.
    ///
    /// Building the service never fails: if the configured persistence
    /// tier cannot be opened (missing disk, permission trouble), the
    /// service degrades to memory-only and records the reason in
    /// [`SpecializeService::persist_error`] — a broken cache directory
    /// must cost warm starts, not availability.
    pub fn new(config: ServiceConfig) -> SpecializeService {
        let (persist, persist_error) = match config.persist {
            None => (None, None),
            Some(persist_config) => match PersistTier::open(persist_config) {
                Ok(tier) => (Some(tier), None),
                Err(msg) => (None, Some(msg)),
            },
        };
        SpecializeService {
            cache: ResidualCache::new(config.cache_bytes, config.shards),
            metrics: Metrics::new(),
            programs: Mutex::new(HashMap::new()),
            entry_fps: Mutex::new(HashMap::new()),
            persist,
            persist_error,
        }
    }

    /// The service's metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The residual cache (mainly for tests and reports).
    pub fn cache(&self) -> &ResidualCache {
        &self.cache
    }

    /// The disk persistence tier, when one is active.
    pub fn persist(&self) -> Option<&PersistTier> {
        self.persist.as_ref()
    }

    /// Why the configured persistence tier is inactive, if it failed to
    /// open (the service then runs memory-only).
    pub fn persist_error(&self) -> Option<&str> {
        self.persist_error.as_deref()
    }

    /// Answers one request on the calling thread. `ctx` is the worker's
    /// private state (analysis cache); use one per thread and reuse it
    /// across requests.
    pub fn handle(&self, req: &SpecializeRequest, ctx: &mut EngineContext) -> SpecializeResponse {
        let start = Instant::now();
        self.metrics.requests.fetch_add(1, Relaxed);
        // Pre-flight: an unparseable program gets the analyzer's full
        // structured report (every finding, not just the parser's first
        // error); a parsed one carries its cached warnings.
        let (resolved, diagnostics) = match self.program(&req.program_src) {
            Err(msg) => {
                let report = ppe_analyze::check_source(&req.program_src);
                (Err(msg), report.diagnostics)
            }
            Ok(parsed) => {
                let warnings = self.preflight(&parsed).to_vec();
                (
                    engine::resolve(req, Arc::clone(&parsed.program), &parsed.depgraph),
                    warnings,
                )
            }
        };
        let mut response = match resolved {
            Err(msg) => SpecializeResponse::error(msg),
            Ok(resolved) => {
                // The disk tier sits *under* the in-memory LRU, inside
                // the single-flight closure: N concurrent requests for an
                // absent key cost one disk read (or one compute), and a
                // disk hit is promoted into the in-memory cache by the
                // normal miss path. Only genuinely computed outcomes are
                // written back.
                let from_disk = std::cell::Cell::new(false);
                let fetched = self.cache.get_or_compute(resolved.key, &self.metrics, || {
                    if let Some(tier) = &self.persist {
                        if let Some(hit) = tier.load(resolved.key, &self.metrics) {
                            from_disk.set(true);
                            return Ok(hit);
                        }
                    }
                    let outcome = engine::run(req, &resolved, ctx, &self.metrics)?;
                    if let Some(tier) = &self.persist {
                        tier.store(resolved.key, &outcome, &self.metrics);
                    }
                    Ok(outcome)
                });
                let disposition =
                    if fetched.disposition == CacheDisposition::Miss && from_disk.get() {
                        CacheDisposition::Disk
                    } else {
                        fetched.disposition
                    };
                match fetched.outcome {
                    Err(msg) => SpecializeResponse {
                        outcome: Err(msg),
                        disposition,
                        key: Some(resolved.key),
                        wall_micros: 0,
                        diagnostics: Vec::new(),
                        exec: None,
                        shed: false,
                    },
                    Ok(outcome) => {
                        let mut degradations = outcome.degradations.clone();
                        if fetched.rejected_bytes.is_some() {
                            // The residual was computed but was too large
                            // to retain: a capacity degradation this
                            // request should see in its own report.
                            merge_event(
                                &mut degradations,
                                DegradationEvent {
                                    budget: Budget::CacheBytes,
                                    function: Some(resolved.entry),
                                    depth: 0,
                                    count: 1,
                                },
                            );
                        }
                        SpecializeResponse {
                            outcome: Ok(SpecializeOutput {
                                residual: outcome.residual.clone(),
                                stats: outcome.stats,
                                degradations,
                            }),
                            disposition,
                            key: Some(resolved.key),
                            wall_micros: 0,
                            diagnostics: Vec::new(),
                            exec: None,
                            shed: false,
                        }
                    }
                }
            }
        };
        response.diagnostics = diagnostics;
        // Execution rides *outside* the residual cache: the residual is
        // fetched (or computed) once per distinct specialization above,
        // then each request runs it on its own concrete inputs. The
        // residual text re-parses through the shared parse cache (no
        // pre-flight: it is the service's own output), and repeat
        // executions hit the VM's chunk cache below that.
        if let (Ok(out), Some(exec)) = (&response.outcome, &req.execute) {
            response.exec = Some(match self.program(&out.residual) {
                Ok(residual) => {
                    engine::execute_residual(&residual.program, exec, &req.config, &self.metrics)
                }
                Err(msg) => {
                    // A residual that fails to re-parse would be an engine
                    // bug; surface it as an execution error rather than
                    // failing the whole (successful) specialization.
                    self.metrics.executes.fetch_add(1, Relaxed);
                    self.metrics.exec_errors.fetch_add(1, Relaxed);
                    crate::request::ExecOutcome {
                        value: Err(format!("residual failed to parse: {msg}")),
                        engine: exec.engine,
                        chunks_compiled: 0,
                        chunk_cache_hit: false,
                        ops_executed: 0,
                        fuel_used: 0,
                    }
                }
            });
        }
        response.wall_micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        match &response.outcome {
            Err(_) => {
                self.metrics.errors.fetch_add(1, Relaxed);
            }
            Ok(out) if !out.degradations.is_empty() => {
                self.metrics.degraded.fetch_add(1, Relaxed);
            }
            Ok(_) => {}
        }
        self.metrics.observe_wall(response.wall_micros);
        response
    }

    /// Parses `src` through the shared parse cache, returning the
    /// program and its dependency graph.
    fn program(&self, src: &str) -> Result<Arc<ParsedProgram>, String> {
        if let Some(parsed) = self
            .programs
            .lock()
            .expect("program cache poisoned")
            .get(src)
        {
            return Ok(Arc::clone(parsed));
        }
        // Parse outside the lock: parsing is cheap but not free, and a
        // slow parse must not serialize unrelated requests. A racing
        // duplicate parse of the same source is harmless (same result).
        let program = Arc::new(parse_program(src).map_err(|e| e.to_string())?);
        let depgraph = DepGraph::of_program(&program);
        self.metrics.depgraph_analyses.fetch_add(1, Relaxed);
        let parsed = Arc::new(ParsedProgram {
            program,
            depgraph,
            warnings: OnceLock::new(),
        });
        let mut cache = self.programs.lock().expect("program cache poisoned");
        if cache.len() >= MAX_PARSED_PROGRAMS {
            cache.clear();
        }
        cache.insert(src.to_owned(), Arc::clone(&parsed));
        Ok(parsed)
    }

    /// The pre-flight for `parsed` as a request's program, run once per
    /// parse-cache entry, on its first such use: the analyzer's warnings,
    /// shared by every request for this source.
    fn preflight<'p>(&self, parsed: &'p ParsedProgram) -> &'p [Diagnostic] {
        parsed.warnings.get_or_init(|| {
            // Fold the new closure fingerprints into the per-name history:
            // a changed fingerprint means this edit invalidated that entry
            // point's cached residuals (names outside the edit's reachable
            // closure keep their fingerprints and stay warm).
            {
                let mut fps = self.entry_fps.lock().expect("entry fps poisoned");
                for &name in parsed.depgraph.names() {
                    let fp = parsed
                        .depgraph
                        .closure_fingerprint(name)
                        .expect("name comes from the same graph");
                    if let Some(prev) = fps.insert(name.as_str().to_owned(), fp) {
                        if prev != fp {
                            self.metrics.depgraph_invalidations.fetch_add(1, Relaxed);
                        }
                    }
                }
            }
            // A validated program has no analyzer errors; what remains are
            // warnings (shadowing, unfold-safety, dead code).
            ppe_analyze::check_program(&parsed.program)
        })
    }
}

/// Folds `event` into `events`, merging with an existing entry for the
/// same budget and function (mirrors `DegradationReport` merging).
fn merge_event(events: &mut Vec<DegradationEvent>, event: DegradationEvent) {
    if let Some(mine) = events
        .iter_mut()
        .find(|m| m.budget == event.budget && m.function == event.function)
    {
        mine.count += event.count;
        return;
    }
    events.push(event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Engine, SpecEngine};
    use ppe_online::ExhaustionPolicy;

    const POWER: &str = "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))";

    fn request(inputs: &[&str]) -> SpecializeRequest {
        SpecializeRequest::new(POWER, inputs.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let service = SpecializeService::new(ServiceConfig::default());
        let mut ctx = EngineContext::new();
        let req = request(&["_", "3"]);
        let first = service.handle(&req, &mut ctx);
        assert_eq!(first.disposition, CacheDisposition::Miss, "{first:?}");
        let out = first.outcome.unwrap();
        assert!(out.residual.contains("power"), "{}", out.residual);
        let second = service.handle(&req, &mut ctx);
        assert_eq!(second.disposition, CacheDisposition::Hit);
        assert_eq!(second.outcome.unwrap().residual, out.residual);
        let s = service.metrics().snapshot();
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
    }

    #[test]
    fn different_policies_never_share_entries() {
        let service = SpecializeService::new(ServiceConfig::default());
        let mut ctx = EngineContext::new();
        let req = request(&["_", "3"]);
        service.handle(&req, &mut ctx);
        let mut tighter = request(&["_", "3"]);
        tighter.config.max_unfold_depth = 1;
        tighter.config.on_exhaustion = ExhaustionPolicy::Degrade;
        let r = service.handle(&tighter, &mut ctx);
        assert_eq!(r.disposition, CacheDisposition::Miss);
    }

    #[test]
    fn parse_errors_are_reported_not_cached() {
        let service = SpecializeService::new(ServiceConfig::default());
        let mut ctx = EngineContext::new();
        let req = SpecializeRequest::new("(define (f x)", vec!["_".into()]);
        let r = service.handle(&req, &mut ctx);
        assert_eq!(r.disposition, CacheDisposition::Unreached);
        assert!(r.outcome.is_err());
        assert_eq!(service.metrics().snapshot().errors, 1);
        assert_eq!(service.cache().len(), 0);
        // Pre-flight: the error response carries the analyzer's report.
        assert_eq!(r.diagnostics[0].code, "E0001");
    }

    #[test]
    fn preflight_reports_every_semantic_error_not_just_the_first() {
        let service = SpecializeService::new(ServiceConfig::default());
        let mut ctx = EngineContext::new();
        // Two unbound variables: parse_program's validation stops at one,
        // the attached diagnostics name both.
        let req = SpecializeRequest::new("(define (f x) (+ y z))", vec!["_".into()]);
        let r = service.handle(&req, &mut ctx);
        assert!(r.outcome.is_err());
        let unbound: Vec<&str> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == "E0004")
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(unbound.len(), 2, "{:?}", r.diagnostics);
        // And the wire rendering exposes them.
        let rendered = r.to_json(None).render();
        assert!(rendered.contains("\"diagnostics\""), "{rendered}");
        assert!(rendered.contains("E0004"), "{rendered}");
    }

    #[test]
    fn preflight_warnings_ride_along_on_success() {
        let service = SpecializeService::new(ServiceConfig::default());
        let mut ctx = EngineContext::new();
        let req = SpecializeRequest::new(
            "(define (f x u) (if (= x 0) 1 (f (- x 1) 0)))",
            vec!["5".into(), "_".into()],
        );
        let r = service.handle(&req, &mut ctx);
        assert!(r.outcome.is_ok());
        // `u` is unused: W0003 rides along without failing the request.
        assert!(
            r.diagnostics.iter().any(|d| d.code == "W0003"),
            "{:?}",
            r.diagnostics
        );
        // A diagnostic-free program keeps the wire format unchanged.
        let clean = SpecializeRequest::new(POWER, vec!["_".into(), "3".into()]);
        let r = service.handle(&clean, &mut ctx);
        assert!(r.diagnostics.is_empty());
        assert!(!r.to_json(None).render().contains("diagnostics"));
    }

    #[test]
    fn arity_and_function_validation() {
        let service = SpecializeService::new(ServiceConfig::default());
        let mut ctx = EngineContext::new();
        let r = service.handle(&request(&["_"]), &mut ctx);
        assert!(r.outcome.unwrap_err().contains("expects 2 inputs"));
        let mut named = request(&["_", "3"]);
        named.function = Some("nope".into());
        let r = service.handle(&named, &mut ctx);
        assert!(r.outcome.unwrap_err().contains("no function"));
    }

    #[test]
    fn offline_engine_reuses_analysis_across_requests() {
        let service = SpecializeService::new(ServiceConfig::default());
        let mut ctx = EngineContext::new();
        let mut a = request(&["_:sign=pos", "2"]);
        a.engine = Engine::Offline;
        a.facets = vec!["sign".into()];
        let mut b = request(&["_:sign=pos", "2"]);
        b.engine = Engine::Offline;
        b.facets = vec!["sign".into()];
        // Different optimize flag → different residual key, same analysis.
        b.optimize = true;
        // Another static `n` with the same sign: the facet signature is
        // unchanged, so the analysis is too.
        let mut c = request(&["_:sign=pos", "5"]);
        c.engine = Engine::Offline;
        c.facets = vec!["sign".into()];
        assert!(service.handle(&a, &mut ctx).outcome.is_ok());
        assert!(service.handle(&b, &mut ctx).outcome.is_ok());
        assert!(service.handle(&c, &mut ctx).outcome.is_ok());
        let s = service.metrics().snapshot();
        assert_eq!(s.cache_misses, 3, "distinct residual keys");
        assert_eq!(s.analysis_misses, 1, "one analysis");
        assert_eq!(s.analysis_hits, 2, "reused for the later requests");
        assert_eq!(ctx.cached_analyses(), 1);
    }

    #[test]
    fn cache_bytes_degradation_is_surfaced() {
        // Budget far below any residual: everything is rejected.
        let service = SpecializeService::new(ServiceConfig {
            cache_bytes: 16,
            shards: 1,
            persist: None,
        });
        let mut ctx = EngineContext::new();
        let r = service.handle(&request(&["_", "3"]), &mut ctx);
        let out = r.outcome.unwrap();
        assert!(
            out.degradations
                .iter()
                .any(|e| e.budget == Budget::CacheBytes),
            "{:?}",
            out.degradations
        );
        assert_eq!(service.metrics().snapshot().cache_rejected, 1);
        assert_eq!(service.metrics().snapshot().degraded, 1);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ppe-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn persisted_config(dir: &std::path::Path) -> ServiceConfig {
        ServiceConfig {
            persist: Some(crate::persist::PersistConfig::new(dir)),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn restart_warms_from_disk_and_promotes_to_memory() {
        let dir = scratch_dir("restart");
        let req = request(&["_", "3"]);
        let residual = {
            let service = SpecializeService::new(persisted_config(&dir));
            assert!(service.persist_error().is_none());
            let mut ctx = EngineContext::new();
            let r = service.handle(&req, &mut ctx);
            assert_eq!(r.disposition, CacheDisposition::Miss);
            assert_eq!(service.metrics().snapshot().disk_stores, 1);
            r.outcome.unwrap().residual
        };
        // A fresh process: the in-memory cache is empty, the disk is not.
        let service = SpecializeService::new(persisted_config(&dir));
        let mut ctx = EngineContext::new();
        let r = service.handle(&req, &mut ctx);
        assert_eq!(r.disposition, CacheDisposition::Disk, "warm from disk");
        assert_eq!(r.outcome.unwrap().residual, residual, "identical residual");
        // And the disk hit was promoted: the next request is a memory hit.
        let r = service.handle(&req, &mut ctx);
        assert_eq!(r.disposition, CacheDisposition::Hit);
        let s = service.metrics().snapshot();
        assert_eq!((s.disk_hits, s.cache_hits), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unopenable_cache_dir_degrades_to_memory_only() {
        // A file where the directory should be: open fails, service runs.
        let dir = scratch_dir("degraded");
        std::fs::write(&dir, b"not a directory").unwrap();
        let service = SpecializeService::new(persisted_config(&dir));
        assert!(service.persist().is_none());
        assert!(service.persist_error().is_some());
        let mut ctx = EngineContext::new();
        let r = service.handle(&request(&["_", "3"]), &mut ctx);
        assert!(r.outcome.is_ok(), "requests survive a dead cache dir");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn execute_runs_the_residual_on_both_engines() {
        use crate::request::{ExecEngine, ExecuteRequest};
        let service = SpecializeService::new(ServiceConfig::default());
        let mut ctx = EngineContext::new();
        // power specialized on n=3, then executed at x=2 → 8, twice per
        // engine so the chunk cache gets exercised. The chunk cache is
        // process-wide, so this test needs its own program (a sibling
        // test executing the shared POWER residual would warm it).
        let mut req = SpecializeRequest::new(
            "(define (power3 x n) (if (= n 0) 1 (* x (power3 x (- n 1)))))",
            vec!["_".into(), "3".into()],
        );
        req.execute = Some(ExecuteRequest {
            inputs: vec!["2".into()],
            engine: ExecEngine::Vm,
        });
        let first = service.handle(&req, &mut ctx);
        let exec = first.exec.as_ref().unwrap();
        assert_eq!(exec.value.as_deref(), Ok("8"), "{first:?}");
        assert!(exec.chunks_compiled > 0, "cold compile");
        let second = service.handle(&req, &mut ctx);
        let exec2 = second.exec.as_ref().unwrap();
        assert_eq!(exec2.value.as_deref(), Ok("8"));
        assert!(exec2.chunk_cache_hit, "warm chunk cache");
        assert_eq!(exec2.chunks_compiled, 0);

        req.execute.as_mut().unwrap().engine = ExecEngine::Ast;
        let ast = service.handle(&req, &mut ctx);
        let exec3 = ast.exec.as_ref().unwrap();
        assert_eq!(exec3.value.as_deref(), Ok("8"), "oracle agrees");
        assert_eq!(exec3.fuel_used, exec2.fuel_used, "identical fuel meter");

        let s = service.metrics().snapshot();
        assert_eq!(s.executes, 3);
        assert_eq!(s.exec_errors, 0);
        assert_eq!(s.vm_chunk_cache_hits, 1);
        assert!(s.vm_chunks_compiled > 0);
        assert!(s.vm_opcodes_executed > 0);

        // And the wire rendering carries the exec object.
        let rendered = second.to_json(None).render();
        assert!(rendered.contains("\"exec\":{"), "{rendered}");
        assert!(rendered.contains("\"chunk_cache\":\"hit\""), "{rendered}");
    }

    #[test]
    fn execute_only_residuals_never_compute_program_facts() {
        use crate::request::{ExecEngine, ExecuteRequest};
        let service = SpecializeService::new(ServiceConfig::default());
        let mut ctx = EngineContext::new();
        let src = "(define (power4 x n) (if (= n 0) 1 (* x (power4 x (- n 1)))))";
        let mut req = SpecializeRequest::new(src, vec!["_".into(), "4".into()]);
        for engine in [ExecEngine::Vm, ExecEngine::Ast] {
            req.execute = Some(ExecuteRequest {
                inputs: vec!["2".into()],
                engine,
            });
            let r = service.handle(&req, &mut ctx);
            assert_eq!(r.exec.as_ref().unwrap().value.as_deref(), Ok("16"));
            // The residual text went through the parse cache to run, and
            // nothing specialized it, so its facts were never computed.
            let residual = service.program(&r.outcome.unwrap().residual).unwrap();
            assert!(residual.program.computed_facts().is_none(), "{engine:?}");
        }
        // The source program's facts were computed by its run.
        let source = service.program(src).unwrap();
        assert!(source.program.computed_facts().is_some());
        assert_eq!(
            service.metrics().snapshot().depgraph_analyses,
            2,
            "two parses"
        );
    }

    #[test]
    fn execute_errors_ride_along_without_failing_the_request() {
        use crate::request::{ExecEngine, ExecuteRequest};
        let service = SpecializeService::new(ServiceConfig::default());
        let mut ctx = EngineContext::new();
        // Wrong arity for the residual entry: the specialization still
        // succeeds and is cached; only the exec outcome reports the error.
        let mut req = request(&["_", "3"]);
        req.execute = Some(ExecuteRequest {
            inputs: vec!["1".into(), "2".into()],
            engine: ExecEngine::Vm,
        });
        let r = service.handle(&req, &mut ctx);
        assert!(r.outcome.is_ok());
        assert!(r.exec.unwrap().value.is_err());
        // Unparseable execute value: same story.
        req.execute.as_mut().unwrap().inputs = vec!["wat".into()];
        let r = service.handle(&req, &mut ctx);
        assert!(r.outcome.is_ok());
        assert!(r.exec.unwrap().value.unwrap_err().contains("execute input"));
        assert_eq!(service.metrics().snapshot().exec_errors, 2);
        assert_eq!(service.metrics().snapshot().errors, 0);
    }

    #[test]
    fn engine_errors_carry_the_key_and_count_as_errors() {
        let service = SpecializeService::new(ServiceConfig::default());
        let mut ctx = EngineContext::new();
        let mut req = request(&["_", "1000000"]);
        req.config.fuel = 10; // trips immediately under Fail
        let r = service.handle(&req, &mut ctx);
        assert!(r.outcome.is_err());
        assert!(r.key.is_some());
        assert_eq!(service.metrics().snapshot().errors, 1);
    }

    /// Deeply nested source syntax ends in the recursion guard's
    /// structured error on both spec engines. On `vm` the shortcut's
    /// eligibility memo fills bottom-up, so the nested nodes cost one
    /// analysis each before the walk reaches the guard.
    #[test]
    fn deep_nesting_fails_alike_on_both_spec_engines() {
        let depth = 20_000;
        let src = format!(
            "(define (f x) {}x{})",
            "(+ 1 ".repeat(depth),
            ")".repeat(depth)
        );
        let errors: Vec<String> = [SpecEngine::Vm, SpecEngine::Ast]
            .into_iter()
            .map(|engine| {
                let service = SpecializeService::new(ServiceConfig::default());
                let mut req = SpecializeRequest::new(src.clone(), vec!["_".into()]);
                req.spec_engine = engine;
                let r = service.handle(&req, &mut EngineContext::new());
                r.outcome.expect_err("the recursion guard trips")
            })
            .collect();
        assert_eq!(errors[0], errors[1]);
        assert!(
            errors[0].contains("recursion depth exceeded 8192"),
            "{}",
            errors[0]
        );
    }
}
