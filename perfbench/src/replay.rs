//! The in-process replay behind the traced run.
//!
//! A replay reads the exact request lines a timed run sent (set-up first,
//! connection by connection, then every connection's stream at once, one
//! thread per connection as the server runs one session thread per
//! connection) and answers them in this process, in one of two modes:
//!
//! - `traced`: each request goes through the public calls that
//!   `SpecializeService::handle` and the serve loop make, in the same
//!   order, with a span around each call (name, start, end, parent span,
//!   request id). Spans stay in memory and are written out at the end.
//! - `handle`: each request goes through `SpecializeService::handle`
//!   itself, untraced, timing only the whole call; this gives
//!   `service.handle_us` and the denominators of `trace.coverage` and
//!   `trace.overhead`.
//!
//! Both print every answer (a hash of the residual text and the execution
//! value) and the replay's counters, so the parent can check the replay
//! against the server it stands in for. The replay runs in a fresh
//! process because the VM chunk cache, the `spec_eval` memos and the term
//! interner are process- or thread-wide, just as in a fresh server.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write as _;
use std::rc::Rc;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use ppe_analyze::depgraph::DepGraph;
use ppe_core::{FacetSet, ProductVal};
use ppe_lang::diag::Diagnostic;
use ppe_lang::{
    interner_stats, optimize_program, parse_program, pretty_program, prune_unused_params, OptLevel,
    Program, Symbol, Value,
};
use ppe_offline::{analyze_fn_with_config, AbstractInput, Analysis, OfflinePe};
use ppe_online::{Budget, DegradationEvent, OnlinePe, PeConfig, PeInput, SimpleInput, SimplePe};
use ppe_server::cache::CachedOutcome;
use ppe_server::request::SpecEngine;
use ppe_server::{
    analysis_key, residual_key, spec, CacheKey, Engine, EngineContext, ExecEngine, ExecOutcome,
    ExecuteRequest, Json, Metrics, RenderedHit, ResidualCache, ServiceConfig, SpecializeOutput,
    SpecializeRequest, SpecializeResponse, SpecializeService,
};
use ppe_vm::{compile_cached, Vm, VmOptions};

/// The request lines of one run, as the parent hands them over.
pub struct Traffic {
    pub warmup: Vec<Vec<String>>,
    pub stream: Vec<Vec<String>>,
}

impl Traffic {
    /// Serialized form: `w <conn> <line>` / `s <conn> <line>`.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = String::new();
        for (tag, conns) in [("w", &self.warmup), ("s", &self.stream)] {
            for (c, lines) in conns.iter().enumerate() {
                for l in lines {
                    out.push_str(&format!("{tag} {c} {l}\n"));
                }
            }
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn read(path: &std::path::Path, conns: usize) -> Result<Traffic, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut t = Traffic {
            warmup: vec![Vec::new(); conns],
            stream: vec![Vec::new(); conns],
        };
        for line in text.lines() {
            let mut parts = line.splitn(3, ' ');
            let (Some(tag), Some(c), Some(req)) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("bad traffic line: {line}"));
            };
            let c: usize = c
                .parse()
                .map_err(|_| format!("bad connection in: {line}"))?;
            let phase = if tag == "w" {
                &mut t.warmup
            } else {
                &mut t.stream
            };
            phase
                .get_mut(c)
                .ok_or_else(|| format!("connection {c} out of range"))?
                .push(req.to_owned());
        }
        Ok(t)
    }
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<u32>,
    pub request: u32,
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name`.
fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied();
        let request = r.request;
        r.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
        });
        r.open.push(idx);
        idx
    });
    let start = now_ns();
    let out = f();
    let end = now_ns();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open.pop();
        let s = &mut r.spans[idx as usize];
        s.start_ns = start;
        s.end_ns = end;
    });
    out
}

/// Self time (ns) and call count per span name.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += (s.end_ns - s.start_ns).saturating_sub(child);
        e.1 += 1;
    }
    out
}

type Parsed = (Arc<Program>, Arc<DepGraph>, Arc<Vec<Diagnostic>>);

/// Mirrors the service's private parse-cache bound.
const MAX_PARSED_PROGRAMS: usize = 128;
/// Mirrors the per-session analysis-cache bound.
const MAX_ANALYSES: usize = 256;
/// Mirrors the per-session render-template cache bound.
const RENDER_CAP: usize = 512;

/// State shared by all replay threads: what `SpecializeService` shares.
pub struct Shared {
    pub metrics: Metrics,
    cache: ResidualCache,
    programs: Mutex<HashMap<String, Parsed>>,
    entry_fps: Mutex<HashMap<String, u64>>,
    /// Σ program size before / after the optimizer, over optimized misses.
    opt_sizes: Mutex<(u64, u64)>,
    /// Σ `stats.steps` over computed residuals.
    miss_steps: std::sync::atomic::AtomicU64,
}

impl Shared {
    pub fn new() -> Shared {
        let config = ServiceConfig::default();
        Shared {
            metrics: Metrics::new(),
            cache: ResidualCache::new(config.cache_bytes, config.shards),
            programs: Mutex::new(HashMap::new()),
            entry_fps: Mutex::new(HashMap::new()),
            opt_sizes: Mutex::new((0, 0)),
            miss_steps: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// `SpecializeService::program`: the shared parse cache.
    fn program(&self, src: &str) -> Result<Parsed, String> {
        if let Some(p) = self.programs.lock().expect("parse cache poisoned").get(src) {
            return Ok(p.clone());
        }
        let program = span("lang.parse", || parse_program(src)).map_err(|e| e.to_string())?;
        let program = Arc::new(program);
        let depgraph = Arc::new(span("analyze.depgraph", || DepGraph::of_program(&program)));
        self.metrics.depgraph_analyses.fetch_add(1, Relaxed);
        {
            let mut fps = self.entry_fps.lock().expect("entry fps poisoned");
            for &name in depgraph.names() {
                let fp = depgraph
                    .closure_fingerprint(name)
                    .expect("name comes from the same graph");
                if let Some(prev) = fps.insert(name.as_str().to_owned(), fp) {
                    if prev != fp {
                        self.metrics.depgraph_invalidations.fetch_add(1, Relaxed);
                    }
                }
            }
        }
        let warnings = Arc::new(span("analyze.check", || {
            ppe_analyze::check_program(&program)
        }));
        let mut cache = self.programs.lock().expect("parse cache poisoned");
        if cache.len() >= MAX_PARSED_PROGRAMS {
            cache.clear();
        }
        let parsed = (program, depgraph, warnings);
        cache.insert(src.to_owned(), parsed.clone());
        Ok(parsed)
    }
}

/// Per-connection state: what a server session thread owns.
#[derive(Default)]
struct Session {
    analyses: HashMap<CacheKey, Rc<Analysis>>,
    renders: HashMap<CacheKey, RenderedHit>,
}

/// The serve loop's render-template cache (`RenderCache::line`).
fn render(renders: &mut HashMap<CacheKey, RenderedHit>, response: &SpecializeResponse) -> String {
    if let Some(key) = response.key.filter(|_| response.outcome.is_ok()) {
        if let Some(template) = renders.get(&key) {
            if !response.shed && response.exec.is_none() {
                return template.line(response.disposition, None, response.wall_micros);
            }
        } else if let Some(template) = response.hit_template() {
            let line = template.line(response.disposition, None, response.wall_micros);
            if renders.len() >= RENDER_CAP {
                renders.clear();
            }
            renders.insert(key, template);
            return line;
        }
    }
    response.to_json(None).render()
}

struct Resolved {
    program: Arc<Program>,
    closure_fingerprint: u64,
    entry: Symbol,
    facets: FacetSet,
    inputs: Vec<PeInput>,
    products: Vec<ProductVal>,
    key: CacheKey,
}

/// `engine::resolve`: facets, inputs, products, and the cache key.
fn resolve(
    req: &SpecializeRequest,
    program: Arc<Program>,
    depgraph: &DepGraph,
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
        .ok_or("entry has no closure fingerprint")?;
    let facets = spec::build_facets(&req.facets)?;
    let inputs: Vec<PeInput> = req
        .inputs
        .iter()
        .map(|s| spec::parse_input(s))
        .collect::<Result<_, _>>()?;
    let arity = program.lookup(entry).ok_or("entry vanished")?.arity();
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

fn effective_config(req: &SpecializeRequest) -> PeConfig {
    let mut config = req.config.clone();
    config.spec_eval = match req.spec_engine {
        SpecEngine::Vm => Some(Arc::new(ppe_vm::VmStaticEval)),
        SpecEngine::Ast => None,
    };
    config
}

/// `engine::cached_analysis`: facet analysis memoized per session.
fn cached_analysis(
    shared: &Shared,
    req: &SpecializeRequest,
    r: &Resolved,
    session: &mut Session,
) -> Result<Rc<Analysis>, String> {
    let akey = analysis_key(
        r.closure_fingerprint,
        r.entry.as_str(),
        &req.facets,
        &r.products,
        &req.config,
    );
    if let Some(a) = session.analyses.get(&akey) {
        shared.metrics.analysis_hits.fetch_add(1, Relaxed);
        return Ok(Rc::clone(a));
    }
    let abstract_inputs: Vec<AbstractInput> = r
        .products
        .iter()
        .cloned()
        .map(AbstractInput::of_product)
        .collect();
    let analysis = analyze_fn_with_config(
        &r.program,
        &r.facets,
        r.entry,
        &abstract_inputs,
        &req.config,
    )
    .map_err(|e| e.to_string())?;
    shared.metrics.analysis_misses.fetch_add(1, Relaxed);
    let analysis = Rc::new(analysis);
    if session.analyses.len() >= MAX_ANALYSES {
        session.analyses.clear();
    }
    session.analyses.insert(akey, Rc::clone(&analysis));
    Ok(analysis)
}

/// `engine::run`: the selected engine, then optimizer and printer.
fn run_engine(
    shared: &Shared,
    req: &SpecializeRequest,
    r: &Resolved,
    session: &mut Session,
) -> Result<CachedOutcome, String> {
    let config = effective_config(req);
    let residual = match req.engine {
        Engine::Online => span("specialize.online", || {
            OnlinePe::with_config(&r.program, &r.facets, config)
                .specialize(r.entry, &r.inputs)
                .map_err(|e| e.to_string())
        })?,
        Engine::Simple => span("specialize.simple", || {
            let simple: Vec<SimpleInput> = r
                .inputs
                .iter()
                .map(|i| match i {
                    PeInput::Known(v) => v
                        .to_const()
                        .map(SimpleInput::Known)
                        .unwrap_or(SimpleInput::Dynamic),
                    PeInput::Dynamic { .. } => SimpleInput::Dynamic,
                })
                .collect();
            SimplePe::with_config(&r.program, config)
                .specialize(r.entry, &simple)
                .map_err(|e| e.to_string())
        })?,
        Engine::Offline => span("specialize.offline", || {
            let analysis = span("offline.analysis", || {
                cached_analysis(shared, req, r, session)
            })?;
            OfflinePe::with_config(&r.program, &r.facets, &analysis, config)
                .specialize(&r.inputs)
                .map_err(|e| e.to_string())
        })?,
    };
    shared.miss_steps.fetch_add(residual.stats.steps, Relaxed);
    let rendered = if req.optimize {
        let optimized = span("lang.opt", || {
            prune_unused_params(
                &optimize_program(&residual.program, OptLevel::Safe),
                OptLevel::Safe,
            )
        });
        let mut sizes = shared.opt_sizes.lock().expect("opt sizes poisoned");
        sizes.0 += residual.program.size() as u64;
        sizes.1 += optimized.size() as u64;
        optimized
    } else {
        residual.program
    };
    Ok(CachedOutcome {
        residual: span("lang.pretty", || pretty_program(&rendered)),
        stats: residual.stats,
        degradations: residual.report.events().to_vec(),
        entry: r.entry.as_str().to_owned(),
        closure_fingerprint: r.closure_fingerprint,
    })
}

/// `engine::execute_residual` on the VM, split into chunk lookup and run.
fn execute(
    shared: &Shared,
    residual: &Program,
    exec: &ExecuteRequest,
    config: &PeConfig,
) -> ExecOutcome {
    let m = &shared.metrics;
    m.executes.fetch_add(1, Relaxed);
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
    match (args, exec.engine) {
        (Err(msg), _) => outcome.value = Err(msg),
        (Ok(_), ExecEngine::Ast) => outcome.value = Err("replay runs the VM only".into()),
        (Ok(args), ExecEngine::Vm) => {
            match span("vm.compile_cached", || compile_cached(residual)) {
                Err(e) => outcome.value = Err(e.to_eval_error().to_string()),
                Ok((cp, hit, chunks)) => {
                    let mut vm = Vm::with_options(VmOptions {
                        fuel: config.fuel,
                        deadline: config.deadline,
                        ..VmOptions::default()
                    });
                    let out = span("vm.run", || vm.run_main(&cp, &args));
                    outcome.value = out.map(|v| v.to_string()).map_err(|e| e.to_string());
                    outcome.chunks_compiled = chunks;
                    outcome.chunk_cache_hit = hit;
                    outcome.ops_executed = vm.ops_executed();
                    outcome.fuel_used = vm.fuel_used();
                    m.vm_chunks_compiled.fetch_add(chunks, Relaxed);
                    if hit {
                        m.vm_chunk_cache_hits.fetch_add(1, Relaxed);
                    }
                    m.vm_opcodes_executed.fetch_add(vm.ops_executed(), Relaxed);
                }
            }
        }
    }
    if outcome.value.is_err() {
        m.exec_errors.fetch_add(1, Relaxed);
    }
    outcome
}

/// `SpecializeService::handle`, call by call.
fn handle(shared: &Shared, req: &SpecializeRequest, session: &mut Session) -> SpecializeResponse {
    let m = &shared.metrics;
    m.requests.fetch_add(1, Relaxed);
    let parsed = span("service.parse_cache", || shared.program(&req.program_src));
    let (resolved, diagnostics) = match parsed {
        Err(msg) => (
            Err(msg),
            ppe_analyze::check_source(&req.program_src).diagnostics,
        ),
        Ok((program, depgraph, warnings)) => (
            span("resolve", || resolve(req, program, &depgraph)),
            warnings.as_ref().clone(),
        ),
    };
    let mut response = match resolved {
        Err(msg) => SpecializeResponse::error(msg),
        Ok(r) => {
            let fetched = span("cache.get_or_compute", || {
                shared
                    .cache
                    .get_or_compute(r.key, m, || run_engine(shared, req, &r, session))
            });
            let mut response = SpecializeResponse::error(String::new());
            response.disposition = fetched.disposition;
            response.key = Some(r.key);
            response.outcome = fetched.outcome.map(|out| {
                let mut degradations = out.degradations.clone();
                if fetched.rejected_bytes.is_some() {
                    let event = DegradationEvent {
                        budget: Budget::CacheBytes,
                        function: Some(r.entry),
                        depth: 0,
                        count: 1,
                    };
                    match degradations
                        .iter_mut()
                        .find(|e| e.budget == event.budget && e.function == event.function)
                    {
                        Some(e) => e.count += 1,
                        None => degradations.push(event),
                    }
                }
                SpecializeOutput {
                    residual: out.residual.clone(),
                    stats: out.stats,
                    degradations,
                }
            });
            response
        }
    };
    response.diagnostics = diagnostics;
    if let (Ok(out), Some(exec)) = (&response.outcome, &req.execute) {
        let residual = span("service.parse_cache", || shared.program(&out.residual));
        response.exec = Some(match residual {
            Ok((residual, _, _)) => span("vm.execute", || {
                execute(shared, &residual, exec, &req.config)
            }),
            Err(msg) => {
                m.executes.fetch_add(1, Relaxed);
                m.exec_errors.fetch_add(1, Relaxed);
                ExecOutcome {
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
    match &response.outcome {
        Err(_) => {
            m.errors.fetch_add(1, Relaxed);
        }
        Ok(out) if !out.degradations.is_empty() => {
            m.degraded.fetch_add(1, Relaxed);
        }
        Ok(_) => {}
    }
    response
}

/// What one replayed request answered: residual hash and exec value.
fn answer_of(response: &SpecializeResponse) -> String {
    let residual = match &response.outcome {
        Ok(out) => format!("{:016x}", fnv64(out.residual.as_bytes())),
        Err(_) => "error".into(),
    };
    let exec = match response.exec.as_ref().map(|e| &e.value) {
        None => "-".to_owned(),
        Some(Ok(v)) => v.clone(),
        Some(Err(_)) => "exec-error".to_owned(),
    };
    format!("{residual} {exec}")
}

pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Traced,
    Handle,
}

/// What one replay thread returns.
struct ThreadOut {
    answers: Vec<String>,
    spans: Vec<Span>,
    /// Σ decode → encode time per request (both modes).
    request_ns: u64,
    /// Σ `SpecializeService::handle` time (handle mode).
    handle_ns: u64,
}

/// Enforces the timed run's order: set-up connection by connection, then
/// all streams together.
struct Turns {
    next: Mutex<usize>,
    moved: Condvar,
}

impl Turns {
    fn wait_for(&self, turn: usize) {
        let mut next = self.next.lock().expect("turns poisoned");
        while *next < turn {
            next = self.moved.wait(next).expect("turns poisoned");
        }
    }

    fn advance(&self) {
        *self.next.lock().expect("turns poisoned") += 1;
        self.moved.notify_all();
    }
}

/// Replays `traffic` and prints the replay's report on stdout; spans go
/// to `spans_out` when given.
pub fn replay(
    traffic: &Traffic,
    mode: Mode,
    spans_out: Option<&std::path::Path>,
) -> Result<(), String> {
    let conns = traffic.warmup.len();
    let shared = Shared::new();
    let service = SpecializeService::new(ServiceConfig::default());
    let turns = Turns {
        next: Mutex::new(0),
        moved: Condvar::new(),
    };
    let interned0 = interner_stats().nodes_interned;
    let outs: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (shared, service, turns) = (&shared, &service, &turns);
                let lines: Vec<&String> =
                    traffic.warmup[c].iter().chain(&traffic.stream[c]).collect();
                let warm = traffic.warmup[c].len();
                std::thread::Builder::new()
                    .stack_size(ppe_server::WORKER_STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        let mut out = ThreadOut {
                            answers: Vec::with_capacity(lines.len()),
                            spans: Vec::new(),
                            request_ns: 0,
                            handle_ns: 0,
                        };
                        let mut session = Session::default();
                        let mut ctx = EngineContext::new();
                        turns.wait_for(c);
                        for (i, line) in lines.iter().enumerate() {
                            if i == warm {
                                turns.advance();
                                turns.wait_for(conns);
                            }
                            let t0 = Instant::now();
                            let response = match mode {
                                Mode::Traced => {
                                    RECORDER.with(|r| r.borrow_mut().request = i as u32);
                                    traced_request(shared, line, &mut session)
                                }
                                Mode::Handle => {
                                    handle_request(service, line, &mut ctx, &mut session, &mut out)
                                }
                            };
                            out.request_ns += t0.elapsed().as_nanos() as u64;
                            out.answers.push(answer_of(&response));
                        }
                        if warm == lines.len() {
                            turns.advance();
                        }
                        out.spans = RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans));
                        out
                    })
                    .expect("spawn replay thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let interned = interner_stats().nodes_interned - interned0;

    let mut stdout = std::io::stdout().lock();
    let mut emit = |s: String| writeln!(stdout, "{s}").map_err(|e| e.to_string());
    for (c, out) in outs.iter().enumerate() {
        for (i, a) in out.answers.iter().enumerate() {
            emit(format!("R {c} {i} {a}"))?;
        }
    }
    let metrics = match mode {
        Mode::Traced => shared.metrics.snapshot(),
        Mode::Handle => service.metrics().snapshot(),
    };
    if let Json::Obj(fields) = metrics.to_json() {
        for (k, v) in fields {
            if let Some(n) = v.as_u64() {
                emit(format!("C {k} {n}"))?;
            }
        }
    }
    let all_spans: Vec<&Span> = outs.iter().flat_map(|o| &o.spans).collect();
    let mut layers: Vec<(&'static str, (u64, u64))> = outs
        .iter()
        .map(|o| self_times(&o.spans))
        .fold(HashMap::new(), |mut acc, m| {
            for (k, (ns, n)) in m {
                let e = acc.entry(k).or_insert((0, 0));
                e.0 += ns;
                e.1 += n;
            }
            acc
        })
        .into_iter()
        .collect();
    layers.sort();
    for (name, (ns, calls)) in layers {
        emit(format!("L {name} {ns} {calls}"))?;
    }
    let (opt_before, opt_after) = *shared.opt_sizes.lock().expect("opt sizes poisoned");
    let totals = [
        (
            "requests",
            outs.iter().map(|o| o.answers.len() as u64).sum(),
        ),
        ("request_ns", outs.iter().map(|o| o.request_ns).sum()),
        ("handle_ns", outs.iter().map(|o| o.handle_ns).sum()),
        ("interned", interned),
        ("miss_steps", shared.miss_steps.load(Relaxed)),
        ("opt_before", opt_before),
        ("opt_after", opt_after),
        ("spans", all_spans.len() as u64),
    ];
    for (k, v) in totals {
        emit(format!("T {k} {v}"))?;
    }
    if let Some(path) = spans_out {
        let mut text = String::with_capacity(all_spans.len() * 48);
        for (c, out) in outs.iter().enumerate() {
            for s in &out.spans {
                let parent = s.parent.map_or(-1, i64::from);
                text.push_str(&format!(
                    "{c}\t{}\t{}\t{}\t{}\t{parent}\n",
                    s.request, s.name, s.start_ns, s.end_ns
                ));
            }
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// One request the way the serve loop answers it, traced.
fn traced_request(shared: &Shared, line: &str, session: &mut Session) -> SpecializeResponse {
    let decoded = span("wire.decode", || {
        Json::parse(line).and_then(|j| SpecializeRequest::from_json(&j))
    });
    let response = match decoded {
        Ok(req) => span("service.handle", || handle(shared, &req, session)),
        Err(e) => SpecializeResponse::error(e),
    };
    span("wire.encode", || render(&mut session.renders, &response));
    response
}

/// One request through `SpecializeService::handle` itself.
fn handle_request(
    service: &SpecializeService,
    line: &str,
    ctx: &mut EngineContext,
    session: &mut Session,
    out: &mut ThreadOut,
) -> SpecializeResponse {
    let response = match Json::parse(line).and_then(|j| SpecializeRequest::from_json(&j)) {
        Ok(req) => {
            let t0 = Instant::now();
            let r = service.handle(&req, ctx);
            out.handle_ns += t0.elapsed().as_nanos() as u64;
            r
        }
        Err(e) => SpecializeResponse::error(e),
    };
    std::hint::black_box(render(&mut session.renders, &response));
    response
}
