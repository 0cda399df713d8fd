//! The service API: one request/response pair shared by the batch driver,
//! the serve loop, and library callers.
//!
//! A [`SpecializeRequest`] is deliberately *plain data* — source text,
//! input spec strings, facet names, and a [`PeConfig`] — because the
//! parsed forms (`FacetSet`, `PeInput`, `Analysis`) are `Rc`-backed and
//! cannot cross threads. Workers re-derive the parsed forms locally
//! (parsing is microseconds; specialization is the expensive part), which
//! also guarantees that every worker sees exactly the request the client
//! sent, not a shared mutable view of it.

use std::sync::Arc;
use std::time::Duration;

use ppe_lang::diag::Diagnostic;
use ppe_online::{DegradationEvent, ExhaustionPolicy, PeConfig, PeStats};

use crate::json::{write_json_string, write_json_u64, Json};
use crate::key::CacheKey;
use crate::spec::ALL_FACETS;

/// Which specialization engine answers the request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The online parameterized specializer (Figure 3).
    Online = 0,
    /// The conventional simple specializer (Figure 2); facet refinements
    /// on inputs are ignored (it has no facets).
    Simple = 1,
    /// Facet analysis + analysis-driven specialization (Section 5). The
    /// analysis is cached per worker and reused across requests with the
    /// same (program, entry, abstract inputs, policy).
    Offline = 2,
}

impl Engine {
    /// The wire name (`engine` field of the serve protocol).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Online => "online",
            Engine::Simple => "simple",
            Engine::Offline => "offline",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Names the unknown engine.
    pub fn parse(s: &str) -> Result<Engine, String> {
        match s {
            "online" => Ok(Engine::Online),
            "simple" => Ok(Engine::Simple),
            "offline" => Ok(Engine::Offline),
            other => Err(format!("unknown engine `{other}` (online|simple|offline)")),
        }
    }
}

/// Which engine runs a residual on the `"execute"` path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecEngine {
    /// The bytecode compiler + register VM (`ppe-vm`), with a
    /// process-wide chunk cache keyed on the whole program's two
    /// fingerprints.
    #[default]
    Vm,
    /// The AST evaluator — the differential oracle. Slower; useful for
    /// cross-checking the VM from the wire.
    Ast,
}

impl ExecEngine {
    /// The wire name (`exec_engine` field of the serve protocol).
    pub fn name(self) -> &'static str {
        match self {
            ExecEngine::Vm => "vm",
            ExecEngine::Ast => "ast",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Names the unknown engine.
    pub fn parse(s: &str) -> Result<ExecEngine, String> {
        match s {
            "vm" => Ok(ExecEngine::Vm),
            "ast" => Ok(ExecEngine::Ast),
            other => Err(format!("unknown exec engine `{other}` (vm|ast)")),
        }
    }
}

/// Which backend performs the specializer's *own* static evaluation —
/// the fully-static subtrees the engines must reduce while producing the
/// residual. Independent of [`ExecEngine`], which runs the *finished*
/// residual.
///
/// Residuals are byte-identical under either choice (the VM shortcut's
/// lowering contract, see `ppe_online::spec_eval`), so this is
/// deliberately **not** part of the cache key: a residual computed under
/// one backend answers requests made under the other.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SpecEngine {
    /// Lower static subtrees to `ppe-vm` bytecode once and replay them
    /// through the chunk cache (the fast path).
    #[default]
    Vm,
    /// Pure AST evaluation inside the engines — the differential oracle.
    Ast,
}

impl SpecEngine {
    /// The wire name (`spec_engine` field of the serve protocol).
    pub fn name(self) -> &'static str {
        match self {
            SpecEngine::Vm => "vm",
            SpecEngine::Ast => "ast",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Names the unknown engine.
    pub fn parse(s: &str) -> Result<SpecEngine, String> {
        match s {
            "vm" => Ok(SpecEngine::Vm),
            "ast" => Ok(SpecEngine::Ast),
            other => Err(format!("unknown spec engine `{other}` (vm|ast)")),
        }
    }
}

/// A request to *run* the residual after specializing: concrete values
/// for every residual parameter, and the engine to run them on.
///
/// Execution is deliberately **not** part of the cache key: the residual
/// is fetched (or computed) once per distinct specialization, then each
/// request executes it on its own inputs. Repeat executions of the same
/// residual hit the VM's process-wide chunk cache and skip compilation.
#[derive(Clone, Debug)]
pub struct ExecuteRequest {
    /// Concrete value strings (see [`crate::spec::parse_value`]), one per
    /// residual entry parameter.
    pub inputs: Vec<String>,
    /// The engine to run the residual on.
    pub engine: ExecEngine,
}

/// The highest `max_recursion_depth` a wire request may set.
///
/// The other budgets only bound how much *work* a request buys; this one
/// bounds native stack frames, where overshooting is an uncatchable
/// abort. Worker and session threads run on
/// [`crate::driver::WORKER_STACK_BYTES`] (256 MiB) stacks; this ceiling
/// (8× the engine default) stays an order of magnitude below what those
/// absorb.
pub const MAX_WIRE_RECURSION_DEPTH: u64 = 65_536;

/// One specialization request.
#[derive(Clone, Debug)]
pub struct SpecializeRequest {
    /// Source text of the subject program. `Arc` so a batch over one
    /// program shares a single copy across worker threads.
    pub program_src: Arc<String>,
    /// Entry function; `None` means the program's main (first) function.
    pub function: Option<String>,
    /// Input specs, one per entry-function parameter (see [`crate::spec`]).
    pub inputs: Vec<String>,
    /// Facet names, in order (see [`crate::spec::ALL_FACETS`]).
    pub facets: Vec<String>,
    /// The engine to run.
    pub engine: Engine,
    /// Run the residual cleanup passes before rendering.
    pub optimize: bool,
    /// Budgets and policy for this request.
    pub config: PeConfig,
    /// Backend for the engines' own static evaluation (see [`SpecEngine`];
    /// not part of the cache key).
    pub spec_engine: SpecEngine,
    /// When set, run the residual on these concrete inputs and attach the
    /// result to the response (`exec` field).
    pub execute: Option<ExecuteRequest>,
}

impl SpecializeRequest {
    /// A request against `program_src` with every default: online engine,
    /// all facets, default policy, no optimizer.
    pub fn new(program_src: impl Into<String>, inputs: Vec<String>) -> SpecializeRequest {
        SpecializeRequest::with_facets(program_src, inputs, all_facet_names())
    }

    fn with_facets(
        program_src: impl Into<String>,
        inputs: Vec<String>,
        facets: Vec<String>,
    ) -> SpecializeRequest {
        SpecializeRequest {
            program_src: Arc::new(program_src.into()),
            function: None,
            inputs,
            facets,
            engine: Engine::Online,
            optimize: false,
            config: PeConfig::default(),
            spec_engine: SpecEngine::default(),
            execute: None,
        }
    }

    /// Parses a serve-protocol JSON object into a request.
    ///
    /// Recognized fields: `program` (required), `inputs` (array of spec
    /// strings, or one whitespace-separated string), `function`, `engine`,
    /// `facets`, `optimize`, `fuel`, `deadline_ms`, `max_unfold_depth`,
    /// `max_specializations`, `max_residual_size`, `max_recursion_depth`
    /// (clamped to [`MAX_WIRE_RECURSION_DEPTH`]), `on_exhaustion`,
    /// `constraints`, `execute` (array of concrete value strings, or one
    /// whitespace-separated string — run the residual on these inputs),
    /// `exec_engine` (`vm` or `ast`, default `vm`), `spec_engine` (`vm`
    /// or `ast`, default `vm` — the backend for the specializer's own
    /// static evaluation). Unknown fields are ignored (forward
    /// compatibility).
    ///
    /// # Errors
    ///
    /// Describes the first missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<SpecializeRequest, String> {
        let program = v
            .get("program")
            .and_then(Json::as_str)
            .ok_or("request needs a `program` string")?;
        let mut req = SpecializeRequest::with_facets(program, Vec::new(), Vec::new());
        req.inputs = match v.get("inputs") {
            None => Vec::new(),
            Some(Json::Str(s)) => s.split_whitespace().map(str::to_owned).collect(),
            Some(Json::Arr(xs)) => xs
                .iter()
                .map(|x| {
                    x.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "`inputs` elements must be strings".to_owned())
                })
                .collect::<Result<_, _>>()?,
            Some(_) => return Err("`inputs` must be an array of strings".to_owned()),
        };
        if let Some(f) = v.get("function") {
            req.function = Some(f.as_str().ok_or("`function` must be a string")?.to_owned());
        }
        if let Some(e) = v.get("engine") {
            req.engine = Engine::parse(e.as_str().ok_or("`engine` must be a string")?)?;
        }
        req.facets = match v.get("facets") {
            None => all_facet_names(),
            Some(fs) => fs
                .as_array()
                .ok_or("`facets` must be an array")?
                .iter()
                .map(|x| {
                    x.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "`facets` elements must be strings".to_owned())
                })
                .collect::<Result<_, _>>()?,
        };
        if let Some(o) = v.get("optimize") {
            req.optimize = o.as_bool().ok_or("`optimize` must be a boolean")?;
        }
        let num = |field: &str| -> Result<Option<u64>, String> {
            match v.get(field) {
                None => Ok(None),
                Some(x) => x
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("`{field}` must be a non-negative integer")),
            }
        };
        if let Some(fuel) = num("fuel")? {
            req.config.fuel = fuel;
        }
        if let Some(ms) = num("deadline_ms")? {
            req.config.deadline = Some(Duration::from_millis(ms));
        }
        if let Some(d) = num("max_unfold_depth")? {
            req.config.max_unfold_depth =
                u32::try_from(d).map_err(|_| "`max_unfold_depth` too large".to_owned())?;
        }
        if let Some(n) = num("max_specializations")? {
            req.config.max_specializations = n as usize;
        }
        if let Some(n) = num("max_residual_size")? {
            req.config.max_residual_size = n as usize;
        }
        if let Some(d) = num("max_recursion_depth")? {
            // Unlike the other budgets this one guards *native* stack
            // space, so the wire cannot raise it arbitrarily: cap it to
            // what the big worker stacks (`WORKER_STACK_BYTES`) absorb
            // comfortably. Clamping (not erroring) keeps larger values
            // forward-compatible.
            req.config.max_recursion_depth =
                u32::try_from(d.min(MAX_WIRE_RECURSION_DEPTH)).expect("clamped to u32 range");
        }
        if let Some(p) = v.get("on_exhaustion") {
            req.config.on_exhaustion = match p.as_str().ok_or("`on_exhaustion` must be a string")? {
                "fail" => ExhaustionPolicy::Fail,
                "degrade" => ExhaustionPolicy::Degrade,
                other => {
                    return Err(format!(
                        "`on_exhaustion` must be fail or degrade, got `{other}`"
                    ))
                }
            };
        }
        if let Some(c) = v.get("constraints") {
            req.config.propagate_constraints =
                c.as_bool().ok_or("`constraints` must be a boolean")?;
        }
        if let Some(e) = v.get("spec_engine") {
            req.spec_engine =
                SpecEngine::parse(e.as_str().ok_or("`spec_engine` must be a string")?)?;
        }
        let exec_inputs = match v.get("execute") {
            None => None,
            Some(Json::Str(s)) => Some(s.split_whitespace().map(str::to_owned).collect()),
            Some(Json::Arr(xs)) => Some(
                xs.iter()
                    .map(|x| {
                        x.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| "`execute` elements must be strings".to_owned())
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            Some(_) => return Err("`execute` must be an array of strings".to_owned()),
        };
        if let Some(inputs) = exec_inputs {
            let engine = match v.get("exec_engine") {
                None => ExecEngine::default(),
                Some(e) => ExecEngine::parse(e.as_str().ok_or("`exec_engine` must be a string")?)?,
            };
            req.execute = Some(ExecuteRequest { inputs, engine });
        } else if v.get("exec_engine").is_some() {
            return Err("`exec_engine` needs an `execute` inputs field".to_owned());
        }
        Ok(req)
    }
}

/// Every facet, in [`ALL_FACETS`] order: a request's default.
fn all_facet_names() -> Vec<String> {
    ALL_FACETS.iter().map(|s| s.to_string()).collect()
}

/// How the cache answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Answered from a completed in-memory cache entry.
    Hit,
    /// Computed by this request (and cached, budget permitting).
    Miss,
    /// Answered from the disk persistence tier (and promoted into the
    /// in-memory cache).
    Disk,
    /// Blocked on an identical in-flight computation (single-flight).
    Coalesced,
    /// Failed before reaching the cache (parse or validation error).
    Unreached,
}

impl CacheDisposition {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Disk => "disk",
            CacheDisposition::Coalesced => "coalesced",
            CacheDisposition::Unreached => "unreached",
        }
    }
}

/// The successful payload of a response.
#[derive(Clone, Debug)]
pub struct SpecializeOutput {
    /// The pretty-printed residual program.
    pub residual: String,
    /// Engine counters for this specialization (replayed on cache hits).
    pub stats: PeStats,
    /// Per-request degradation events — including events that happened on
    /// a worker thread, and cache-capacity events added by the service.
    pub degradations: Vec<DegradationEvent>,
}

/// The result of running the residual (the request's `execute` field).
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The computed value rendered with `Display`, or the evaluation
    /// error (fuel exhaustion, depth limit, runtime error, bad input).
    pub value: Result<String, String>,
    /// The engine that ran it.
    pub engine: ExecEngine,
    /// Chunks compiled for this execution (0 on a chunk-cache hit, and
    /// always 0 on the AST engine).
    pub chunks_compiled: u64,
    /// Whether the compiled program came from the process-wide chunk
    /// cache (always `false` on the AST engine).
    pub chunk_cache_hit: bool,
    /// Opcodes the VM dispatched (0 on the AST engine).
    pub ops_executed: u64,
    /// Function applications performed (both engines meter these
    /// identically).
    pub fuel_used: u64,
}

impl ExecOutcome {
    /// Writes the outcome's `exec` object into `out`: the bytes of
    /// `self.to_json().render()`, keys in the same sorted order, without
    /// building the tree.
    fn write_json(&self, out: &mut String) {
        let vm = self.engine == ExecEngine::Vm;
        out.push('{');
        if vm {
            out.push_str("\"chunk_cache\":\"");
            out.push_str(if self.chunk_cache_hit { "hit" } else { "miss" });
            out.push_str("\",\"chunks_compiled\":");
            write_json_u64(self.chunks_compiled, out);
            out.push(',');
        }
        out.push_str("\"engine\":");
        write_json_string(self.engine.name(), out);
        if let Err(msg) = &self.value {
            out.push_str(",\"error\":");
            write_json_string(msg, out);
        }
        out.push_str(",\"fuel_used\":");
        write_json_u64(self.fuel_used, out);
        out.push_str(if self.value.is_ok() {
            ",\"ok\":true"
        } else {
            ",\"ok\":false"
        });
        if vm {
            out.push_str(",\"ops\":");
            write_json_u64(self.ops_executed, out);
        }
        if let Ok(value) = &self.value {
            out.push_str(",\"value\":");
            write_json_string(value, out);
        }
        out.push('}');
    }

    /// Renders the outcome as the response's `exec` object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("engine", Json::str(self.engine.name()))];
        match &self.value {
            Ok(v) => {
                fields.push(("ok", Json::Bool(true)));
                fields.push(("value", Json::str(v.clone())));
            }
            Err(msg) => {
                fields.push(("ok", Json::Bool(false)));
                fields.push(("error", Json::str(msg.clone())));
            }
        }
        fields.push(("fuel_used", Json::num(self.fuel_used)));
        if self.engine == ExecEngine::Vm {
            fields.push(("chunks_compiled", Json::num(self.chunks_compiled)));
            fields.push((
                "chunk_cache",
                Json::str(if self.chunk_cache_hit { "hit" } else { "miss" }),
            ));
            fields.push(("ops", Json::num(self.ops_executed)));
        }
        Json::obj(fields)
    }
}

/// One specialization response.
#[derive(Clone, Debug)]
pub struct SpecializeResponse {
    /// The output, or a human-readable error.
    pub outcome: Result<SpecializeOutput, String>,
    /// How the cache answered.
    pub disposition: CacheDisposition,
    /// The request's cache key, once computed.
    pub key: Option<CacheKey>,
    /// Wall time spent answering, microseconds.
    pub wall_micros: u64,
    /// Pre-flight findings about the request's program: on a parse
    /// failure, the analyzer's full structured report (so a client sees
    /// *every* problem, not the first as a string); on success, any
    /// warnings (`W…` codes). Empty for a diagnostic-free program, and
    /// omitted from the wire rendering then — older clients see an
    /// unchanged protocol.
    pub diagnostics: Vec<Diagnostic>,
    /// The result of running the residual, when the request asked for
    /// execution (`execute` inputs) and specialization succeeded. Omitted
    /// from the wire rendering otherwise — older clients see an unchanged
    /// protocol.
    pub exec: Option<ExecOutcome>,
    /// Whether the front-end shed this request — forced it onto
    /// `Degrade` with a tight deadline because the in-flight limit was
    /// hit (see [`crate::serve::RequestGovernor`]). Rendered on the wire
    /// only when `true`, so transports without admission control emit an
    /// unchanged protocol.
    pub shed: bool,
    /// On a hit, the answer fragment of the cache entry that answered
    /// (see [`RenderedHit`]); the serve loop splices it into the line.
    pub(crate) rendered: Option<Arc<RenderedHit>>,
}

impl SpecializeResponse {
    /// An error response that never reached the cache.
    pub fn error(message: impl Into<String>) -> SpecializeResponse {
        SpecializeResponse {
            outcome: Err(message.into()),
            disposition: CacheDisposition::Unreached,
            key: None,
            wall_micros: 0,
            diagnostics: Vec::new(),
            exec: None,
            shed: false,
            rendered: None,
        }
    }

    /// The degradation events, empty on error.
    pub fn degradations(&self) -> &[DegradationEvent] {
        match &self.outcome {
            Ok(out) => &out.degradations,
            Err(_) => &[],
        }
    }

    /// Renders the response for the serve protocol, echoing `id`.
    pub fn to_json(&self, id: Option<&Json>) -> Json {
        let mut fields = vec![
            ("cache", Json::str(self.disposition.name())),
            ("wall_us", Json::num(self.wall_micros)),
        ];
        if let Some(id) = id {
            fields.push(("id", id.clone()));
        }
        if let Some(key) = self.key {
            fields.push(("key", Json::str(key.to_string())));
        }
        match &self.outcome {
            Ok(out) => {
                fields.push(("ok", Json::Bool(true)));
                fields.push(("residual", Json::str(out.residual.clone())));
                fields.push(("stats", stats_json(&out.stats)));
                fields.push((
                    "degradations",
                    Json::Arr(out.degradations.iter().map(degradation_json).collect()),
                ));
            }
            Err(msg) => {
                fields.push(("ok", Json::Bool(false)));
                fields.push(("error", Json::str(msg.clone())));
            }
        }
        if !self.diagnostics.is_empty() {
            fields.push((
                "diagnostics",
                Json::Arr(self.diagnostics.iter().map(diagnostic_json).collect()),
            ));
        }
        if let Some(exec) = &self.exec {
            fields.push(("exec", exec.to_json()));
        }
        if self.shed {
            fields.push(("shed", Json::Bool(true)));
        }
        Json::obj(fields)
    }

    /// Pre-renders the per-key-stable parts of this response's wire line,
    /// or `None` when the response has per-request payload (errors, shed
    /// markers, execution results, diagnostics) that makes caching
    /// unsound. Diagnostics count as per-request: they describe the whole
    /// program, while the cache key covers only the entry's reachable
    /// closure, so two programs sharing a key may warn differently.
    ///
    /// Specialization output is deterministic per cache key — that is the
    /// invariant the residual cache itself rests on — so everything except
    /// `cache`, `id`, and `wall_us` renders to identical bytes for every
    /// request that maps to the same key. So each residual-cache entry
    /// keeps one such fragment, and every hit in every session assembles
    /// its line from it as two `memcpy`s plus three small fields (see
    /// `RenderedHit::line`, tested byte-identical to
    /// [`SpecializeResponse::to_json`]), splicing in its own `exec` with
    /// [`RenderedHit::line_with_exec`].
    pub fn hit_template(&self) -> Option<RenderedHit> {
        if self.exec.is_some() {
            return None;
        }
        self.key_template()
    }

    /// [`SpecializeResponse::hit_template`] without the `exec` check: the
    /// template of this response's key, which leaves `exec` out.
    pub(crate) fn key_template(&self) -> Option<RenderedHit> {
        let out = self.outcome.as_ref().ok()?;
        if self.shed || !self.diagnostics.is_empty() {
            return None;
        }
        Some(RenderedHit::new(
            self.key?,
            &out.residual,
            &out.stats,
            &out.degradations,
        ))
    }

    /// This response's wire line, the bytes of `self.to_json(id).render()`:
    /// a hit splices its cache entry's fragment, other answers that
    /// [`SpecializeResponse::key_template`] accepts build one for the
    /// line, and shed answers and answers with diagnostics render the tree.
    pub(crate) fn wire_line(&self, id: Option<&Json>) -> String {
        let template = self
            .rendered
            .clone()
            .filter(|_| !self.shed && self.diagnostics.is_empty())
            .or_else(|| self.key_template().map(Arc::new));
        match template {
            Some(t) => t.line_with_exec(self.disposition, id, self.wall_micros, self.exec.as_ref()),
            None => self.to_json(id).render(),
        }
    }
}

/// A response wire line pre-rendered around its per-request fields
/// (`cache`, `id`, `wall_us`, `exec`): the degradations array and the
/// `"key"` … `"wall_us":` tail, the residual escaped once. The residual
/// cache keeps one per entry, built on its first hit, charged to its byte
/// budget and evicted with it; see [`SpecializeResponse::hit_template`].
#[derive(Clone, Debug)]
pub struct RenderedHit {
    /// The rendered degradations array.
    degradations: String,
    /// From `"key"` through the `:` after `"wall_us"`.
    tail: String,
}

impl RenderedHit {
    /// The fragment of a successful answer under `key`.
    pub(crate) fn new(
        key: CacheKey,
        residual: &str,
        stats: &PeStats,
        degradations: &[DegradationEvent],
    ) -> RenderedHit {
        let degradations = Json::Arr(degradations.iter().map(degradation_json).collect()).render();
        let mut tail = String::with_capacity(residual.len() + 256);
        tail.push_str("\"key\":");
        write_json_string(&key.to_string(), &mut tail);
        tail.push_str(",\"ok\":true,\"residual\":");
        write_json_string(residual, &mut tail);
        tail.push_str(",\"stats\":");
        tail.push_str(&stats_json(stats).render());
        tail.push_str(",\"wall_us\":");
        RenderedHit { degradations, tail }
    }

    /// Bytes this fragment holds, as the residual cache charges them.
    pub(crate) fn cost(&self) -> usize {
        self.degradations.len() + self.tail.len()
    }

    /// Assembles the full wire line for one request over this template's
    /// key. Byte-identical to `response.to_json(id).render()` for every
    /// response [`SpecializeResponse::hit_template`] accepts (object keys
    /// stay in sorted order: cache, degradations, id, key, ok, residual,
    /// stats, wall_us).
    pub fn line(
        &self,
        disposition: CacheDisposition,
        id: Option<&Json>,
        wall_micros: u64,
    ) -> String {
        self.line_with_exec(disposition, id, wall_micros, None)
    }

    /// [`RenderedHit::line`] for a response that may carry `exec`, the
    /// outcome of running the residual on this request's inputs. Its
    /// object goes between `degradations` and `id`, where sorted keys put
    /// it; the result is byte-identical to the tree render.
    pub fn line_with_exec(
        &self,
        disposition: CacheDisposition,
        id: Option<&Json>,
        wall_micros: u64,
        exec: Option<&ExecOutcome>,
    ) -> String {
        use std::fmt::Write as _;
        let exec_len = exec.map_or(0, |e| {
            160 + match &e.value {
                Ok(s) | Err(s) => s.len(),
            }
        });
        let mut out =
            String::with_capacity(self.degradations.len() + self.tail.len() + exec_len + 64);
        out.push_str("{\"cache\":\"");
        out.push_str(disposition.name());
        out.push_str("\",\"degradations\":");
        out.push_str(&self.degradations);
        if let Some(exec) = exec {
            out.push_str(",\"exec\":");
            exec.write_json(&mut out);
        }
        if let Some(id) = id {
            out.push_str(",\"id\":");
            out.push_str(&id.render());
        }
        out.push(',');
        out.push_str(&self.tail);
        let _ = write!(out, "{wall_micros}");
        out.push('}');
        out
    }
}

/// Renders one diagnostic for the wire (and for `ppe check --format
/// json`): always `code`, `severity`, `message`; `function`/`path` or
/// `line`/`col` only when known, so output is minimal and deterministic.
pub fn diagnostic_json(d: &Diagnostic) -> Json {
    let mut fields = vec![
        ("code", Json::str(d.code)),
        ("severity", Json::str(d.severity.as_str())),
        ("message", Json::str(d.message.clone())),
    ];
    if let Some(f) = d.function {
        fields.push(("function", Json::str(f.as_str())));
    }
    if !d.path.is_empty() {
        fields.push(("path", Json::str(d.path.clone())));
    }
    if d.line > 0 {
        fields.push(("line", Json::num(u64::from(d.line))));
        fields.push(("col", Json::num(u64::from(d.col))));
    }
    Json::obj(fields)
}

/// Renders engine counters for the wire and the disk payload — the one
/// canonical field set both encodings share.
pub fn stats_json(stats: &PeStats) -> Json {
    Json::obj(vec![
        ("reductions", Json::num(stats.reductions)),
        ("residual_prims", Json::num(stats.residual_prims)),
        ("static_branches", Json::num(stats.static_branches)),
        ("dynamic_branches", Json::num(stats.dynamic_branches)),
        ("unfolds", Json::num(stats.unfolds)),
        ("specializations", Json::num(stats.specializations)),
        ("cache_hits", Json::num(stats.cache_hits)),
        ("steps", Json::num(stats.steps)),
    ])
}

/// Renders one degradation event for the wire.
pub fn degradation_json(e: &DegradationEvent) -> Json {
    let mut fields = vec![
        ("budget", Json::str(e.budget.to_string())),
        ("count", Json::num(e.count)),
        ("depth", Json::num(u64::from(e.depth))),
    ];
    if let Some(f) = e.function {
        fields.push(("function", Json::str(f.as_str())));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_roundtrip() {
        for e in [Engine::Online, Engine::Simple, Engine::Offline] {
            assert_eq!(Engine::parse(e.name()).unwrap(), e);
        }
        assert!(Engine::parse("quantum").is_err());
    }

    #[test]
    fn request_from_json_full() {
        let v = Json::parse(
            r#"{"program": "(define (f x) x)", "inputs": ["_:size=3", "5"],
                "engine": "offline", "facets": ["size"], "optimize": true,
                "fuel": 100, "deadline_ms": 50, "on_exhaustion": "degrade"}"#,
        )
        .unwrap();
        let req = SpecializeRequest::from_json(&v).unwrap();
        assert_eq!(req.inputs, vec!["_:size=3", "5"]);
        assert_eq!(req.engine, Engine::Offline);
        assert_eq!(req.facets, vec!["size"]);
        assert!(req.optimize);
        assert_eq!(req.config.fuel, 100);
        assert_eq!(req.config.deadline, Some(Duration::from_millis(50)));
        assert_eq!(req.config.on_exhaustion, ExhaustionPolicy::Degrade);
    }

    #[test]
    fn request_from_json_defaults_and_string_inputs() {
        let v = Json::parse(r#"{"program": "(define (f x) x)", "inputs": "_ 5"}"#).unwrap();
        let req = SpecializeRequest::from_json(&v).unwrap();
        assert_eq!(req.inputs, vec!["_", "5"]);
        assert_eq!(req.engine, Engine::Online);
        assert_eq!(req.facets.len(), ALL_FACETS.len());
        assert!(!req.optimize);
    }

    #[test]
    fn request_from_json_rejects_bad_fields() {
        for bad in [
            r#"{}"#,
            r#"{"program": 5}"#,
            r#"{"program": "p", "engine": "quantum"}"#,
            r#"{"program": "p", "fuel": -1}"#,
            r#"{"program": "p", "inputs": [5]}"#,
            r#"{"program": "p", "on_exhaustion": "panic"}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(SpecializeRequest::from_json(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn request_from_json_execute() {
        let v = Json::parse(
            r#"{"program": "(define (f x) x)", "inputs": ["_"],
                "execute": ["5"], "exec_engine": "ast"}"#,
        )
        .unwrap();
        let req = SpecializeRequest::from_json(&v).unwrap();
        let exec = req.execute.unwrap();
        assert_eq!(exec.inputs, vec!["5"]);
        assert_eq!(exec.engine, ExecEngine::Ast);

        // String form; the engine defaults to the VM.
        let v = Json::parse(r#"{"program": "p", "inputs": "_", "execute": "1 2"}"#).unwrap();
        let exec = SpecializeRequest::from_json(&v).unwrap().execute.unwrap();
        assert_eq!(exec.inputs, vec!["1", "2"]);
        assert_eq!(exec.engine, ExecEngine::Vm);

        for bad in [
            r#"{"program": "p", "execute": [5]}"#,
            r#"{"program": "p", "execute": 5}"#,
            r#"{"program": "p", "execute": ["1"], "exec_engine": "quantum"}"#,
            r#"{"program": "p", "exec_engine": "vm"}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(SpecializeRequest::from_json(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn exec_engine_names_roundtrip() {
        for e in [ExecEngine::Vm, ExecEngine::Ast] {
            assert_eq!(ExecEngine::parse(e.name()).unwrap(), e);
        }
        assert!(ExecEngine::parse("tree").is_err());
    }

    #[test]
    fn recursion_depth_is_wire_clamped() {
        let v = Json::parse(r#"{"program": "p", "max_recursion_depth": 30000}"#).unwrap();
        let req = SpecializeRequest::from_json(&v).unwrap();
        assert_eq!(req.config.max_recursion_depth, 30_000);

        let v = Json::parse(r#"{"program": "p", "max_recursion_depth": 4000000000}"#).unwrap();
        let req = SpecializeRequest::from_json(&v).unwrap();
        assert_eq!(
            u64::from(req.config.max_recursion_depth),
            MAX_WIRE_RECURSION_DEPTH,
            "values past the ceiling clamp instead of erroring"
        );
    }

    #[test]
    fn response_json_success_and_error() {
        let ok = SpecializeResponse {
            outcome: Ok(SpecializeOutput {
                residual: "(define (f x) x)".into(),
                stats: PeStats::default(),
                degradations: Vec::new(),
            }),
            disposition: CacheDisposition::Miss,
            key: None,
            wall_micros: 7,
            diagnostics: Vec::new(),
            exec: None,
            shed: false,
            rendered: None,
        };
        let text = ok.to_json(Some(&Json::num(1))).render();
        assert!(text.contains("\"ok\":true"), "{text}");
        assert!(text.contains("\"cache\":\"miss\""), "{text}");
        assert!(text.contains("\"id\":1"), "{text}");

        let err = SpecializeResponse::error("no such program");
        let text = err.to_json(None).render();
        assert!(text.contains("\"ok\":false"), "{text}");
        assert!(text.contains("no such program"), "{text}");
    }

    #[test]
    fn hit_template_assembly_matches_tree_render() {
        let mut resp = SpecializeResponse {
            outcome: Ok(SpecializeOutput {
                residual: "(define (f x)\n  (* x \"two\"))\n".into(),
                stats: PeStats {
                    reductions: 3,
                    unfolds: 2,
                    ..PeStats::default()
                },
                degradations: Vec::new(),
            }),
            disposition: CacheDisposition::Miss,
            key: Some(CacheKey(0xfeed_beef)),
            wall_micros: 42,
            diagnostics: Vec::new(),
            exec: None,
            shed: false,
            rendered: None,
        };
        let template = resp.hit_template().expect("template-eligible");
        // Every per-request combination the template path serves must be
        // byte-identical to the tree render.
        for disposition in [CacheDisposition::Miss, CacheDisposition::Hit] {
            resp.disposition = disposition;
            for (id, wall) in [(Some(Json::num(9)), 1u64), (None, 123456)] {
                resp.wall_micros = wall;
                assert_eq!(
                    template.line(disposition, id.as_ref(), wall),
                    resp.to_json(id.as_ref()).render(),
                );
            }
        }

        // An answer that ran the residual keeps its key's template and
        // splices in its own exec outcome: ok and error values, both
        // engines, hit and miss, with and without `id`. `hit_template`
        // itself still declines it; the serve loop asks `key_template`.
        let vm = |value: Result<&str, &str>, hit: bool| ExecOutcome {
            value: value.map(str::to_owned).map_err(str::to_owned),
            engine: ExecEngine::Vm,
            chunks_compiled: if hit { 0 } else { 2 },
            chunk_cache_hit: hit,
            ops_executed: 17,
            fuel_used: 4,
        };
        let ast = |value: Result<&str, &str>| ExecOutcome {
            value: value.map(str::to_owned).map_err(str::to_owned),
            engine: ExecEngine::Ast,
            chunks_compiled: 0,
            chunk_cache_hit: false,
            ops_executed: 0,
            fuel_used: 3,
        };
        // Counters at and past 9·10¹⁵ and 2⁵³, where `Json::Num` stops
        // printing integers and starts rounding.
        let big = |mut e: ExecOutcome, n: u64| {
            e.chunks_compiled = n;
            e.ops_executed = n.wrapping_add(1);
            e.fuel_used = n.wrapping_sub(1);
            e
        };
        let execs = [
            vm(Ok("8"), true),
            vm(Err("fuel exhausted after 4 \"calls\""), false),
            ast(Ok("#(1.5 2e15)")),
            ast(Err("division by zero")),
            big(vm(Ok("-0.0"), false), 9_000_000_000_000_000),
            big(vm(Err("tab\tand \u{1} control"), true), (1 << 53) + 1),
            big(vm(Ok("1"), false), u64::MAX),
            big(ast(Ok("#t")), 8_999_999_999_999_999),
            big(ast(Err("\\ε")), 1 << 60),
        ];
        for exec in execs {
            let mut direct = String::new();
            exec.write_json(&mut direct);
            assert_eq!(direct, exec.to_json().render());
            resp.exec = Some(exec);
            assert!(resp.hit_template().is_none(), "exec is per request");
            let own = resp.key_template().expect("template-eligible");
            for disposition in [CacheDisposition::Miss, CacheDisposition::Hit] {
                resp.disposition = disposition;
                for (id, wall) in [(Some(Json::str("a\"b")), 5u64), (None, 123456)] {
                    resp.wall_micros = wall;
                    let tree = resp.to_json(id.as_ref()).render();
                    for t in [&template, &own] {
                        let line =
                            t.line_with_exec(disposition, id.as_ref(), wall, resp.exec.as_ref());
                        assert_eq!(line, tree);
                    }
                }
            }
        }
        resp.exec = None;

        // Per-request payload disqualifies caching entirely. Diagnostics
        // come from the whole program, not the keyed closure, so two
        // programs sharing a key may carry different ones.
        resp.diagnostics = vec![Diagnostic::warning("W0001", "unused parameter")];
        assert!(
            resp.hit_template().is_none(),
            "diagnostics vary per program"
        );
        resp.exec = Some(ast(Ok("1")));
        assert!(resp.key_template().is_none(), "with or without exec");
        resp.exec = None;
        resp.diagnostics.clear();
        resp.shed = true;
        assert!(resp.hit_template().is_none(), "shed responses vary");
        resp.exec = Some(ast(Ok("1")));
        assert!(resp.key_template().is_none(), "shed, with exec");
        resp.exec = None;
        resp.shed = false;
        resp.key = None;
        assert!(resp.hit_template().is_none(), "keyless responses");
        resp.key = Some(CacheKey(1));
        resp.outcome = Err("boom".into());
        assert!(resp.hit_template().is_none(), "errors are not cacheable");
    }

    #[test]
    fn wire_line_splices_the_entry_fragment_only_where_it_holds() {
        let mut resp = SpecializeResponse::error("");
        let out = SpecializeOutput {
            residual: "(define (f x) x)".into(),
            stats: PeStats::default(),
            degradations: Vec::new(),
        };
        resp.rendered = Some(Arc::new(RenderedHit::new(
            CacheKey(3),
            &out.residual,
            &out.stats,
            &out.degradations,
        )));
        resp.outcome = Ok(out);
        resp.key = Some(CacheKey(3));
        resp.disposition = CacheDisposition::Hit;
        let id = Json::num(1);
        assert_eq!(resp.wire_line(Some(&id)), resp.to_json(Some(&id)).render());
        // The fragment holds no per-program diagnostics and no shed marker.
        resp.diagnostics = vec![Diagnostic::warning("W0003", "unused parameter")];
        assert_eq!(resp.wire_line(None), resp.to_json(None).render());
        resp.diagnostics.clear();
        resp.shed = true;
        assert_eq!(resp.wire_line(None), resp.to_json(None).render());
    }
}
