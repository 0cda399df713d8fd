//! The process-wide chunk cache and VM counters.
//!
//! Compiled programs are keyed by a pair of fingerprints over the entry
//! point's *reachable closure* (`ppe_analyze::depgraph`): the entry's
//! spelling-stable closure fingerprint and an FNV-1a combination of the
//! hash-consed [`Term`] fingerprints of every reachable definition body
//! (the PR-5 interner makes the latter O(1) per already-interned body).
//! Keying on the closure rather than the whole program means editing a
//! definition the entry cannot reach — dead code in a residual, say —
//! keeps the compiled chunks warm. That is sound because execution
//! enters through the entry and can only ever apply functions in its
//! closure ([`crate::chunk::CompiledProgram`] chunks outside it are
//! never dispatched). Two independent 64-bit hashes make an accidental
//! collision in a bounded in-process cache vanishingly unlikely.
//!
//! [`CompiledProgram`]s contain only plain data, so the cache is shared
//! across threads; repeat executions of the same residual — the dominant
//! pattern behind the server's `"execute"` path — skip compilation
//! entirely.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ppe_analyze::depgraph::DepGraph;
use ppe_lang::{term::Term, Expr, FunDef, Program, Symbol};

use crate::chunk::CompiledProgram;
use crate::compile::{self, CompileError};

/// Bound on cached compiled programs; on overflow the cache is cleared
/// wholesale (residual working sets are far smaller, and the in-memory
/// residual LRU upstream already provides fine-grained eviction).
const CACHE_CAP: usize = 256;

static CHUNKS_COMPILED: AtomicU64 = AtomicU64::new(0);
static CHUNK_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static OPS_EXECUTED: AtomicU64 = AtomicU64::new(0);
static SPEC_VM_EVALS: AtomicU64 = AtomicU64::new(0);
static SPEC_VM_CHUNK_HITS: AtomicU64 = AtomicU64::new(0);
static SPEC_VM_CHUNK_MISSES: AtomicU64 = AtomicU64::new(0);
static VM_INLINED_CALLS: AtomicU64 = AtomicU64::new(0);

/// Monotonic process-wide VM counters, in the mold of
/// [`ppe_lang::interner_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Chunks (function bodies) compiled to bytecode.
    pub chunks_compiled: u64,
    /// Chunk-cache hits (whole programs served without compiling).
    pub chunk_cache_hits: u64,
    /// Bytecode instructions executed.
    pub opcodes_executed: u64,
    /// Static-subtree evaluations requested by the specializer engines
    /// (see [`crate::VmStaticEval`]).
    pub spec_vm_evals: u64,
    /// Specializer static evals answered from a cache: the per-thread
    /// `(chunk, args) → outcome` result memo or the shared chunk cache.
    pub spec_vm_chunk_hits: u64,
    /// Specializer static-eval chunks compiled fresh.
    pub spec_vm_chunk_misses: u64,
    /// Call sites spliced into their caller during bytecode lowering
    /// (cross-chunk inlining; counted at compile time, so chunk-cache hits
    /// do not re-count them).
    pub vm_inlined_calls: u64,
}

/// Reads the current VM counters.
pub fn vm_stats() -> VmStats {
    VmStats {
        chunks_compiled: CHUNKS_COMPILED.load(Ordering::Relaxed),
        chunk_cache_hits: CHUNK_CACHE_HITS.load(Ordering::Relaxed),
        opcodes_executed: OPS_EXECUTED.load(Ordering::Relaxed),
        spec_vm_evals: SPEC_VM_EVALS.load(Ordering::Relaxed),
        spec_vm_chunk_hits: SPEC_VM_CHUNK_HITS.load(Ordering::Relaxed),
        spec_vm_chunk_misses: SPEC_VM_CHUNK_MISSES.load(Ordering::Relaxed),
        vm_inlined_calls: VM_INLINED_CALLS.load(Ordering::Relaxed),
    }
}

pub(crate) fn add_ops_executed(n: u64) {
    OPS_EXECUTED.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn note_spec_eval() {
    SPEC_VM_EVALS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_spec_chunk_hit() {
    SPEC_VM_CHUNK_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_inlined_call() {
    VM_INLINED_CALLS.fetch_add(1, Ordering::Relaxed);
}

type ChunkMap = HashMap<(u64, u64), Arc<CompiledProgram>>;

fn cache() -> &'static Mutex<ChunkMap> {
    static CACHE: OnceLock<Mutex<ChunkMap>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The cache key: `(closure fingerprint of the entry point, FNV-1a over
/// the Term fingerprints and arities of the entry's reachable bodies)`.
/// Definitions outside the entry's closure cannot be dispatched, so they
/// are deliberately absent from both components.
fn chunk_key(program: &Program) -> (u64, u64) {
    let graph = DepGraph::of_program(program);
    let entry = program.main().name;
    let closure_fp = graph
        .closure_fingerprint(entry)
        .expect("entry is a definition of the same program");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let reachable = graph.reachable(entry).expect("entry is defined");
    for name in reachable {
        let d = program.lookup(name).expect("reachable names are defined");
        mix(Term::from_expr(&d.body).fingerprint());
        mix(d.params.len() as u64);
    }
    (closure_fp, h)
}

/// Compiles `program` through the process-wide cache.
///
/// Returns the compiled program, whether it was a cache hit, and how many
/// chunks were compiled (0 on a hit) — the latter two feed per-request
/// metrics.
///
/// Caching is keyed on the *entry point's reachable closure*: two
/// programs that agree on everything `main` can reach share an entry
/// even if they differ in unreachable definitions, and a hit may return
/// chunks compiled from the other program. That sharing is sound for
/// execution through [`crate::execute_main`] (the only dispatch paths
/// are inside the closure); callers that invoke non-entry chunks
/// directly must not rely on unreachable chunks matching `program`.
///
/// # Errors
///
/// [`CompileError`] when lowering fails structurally; failures are not
/// cached (they are cheap to rediscover and rare).
pub fn compile_cached(
    program: &Program,
) -> Result<(Arc<CompiledProgram>, bool, u64), CompileError> {
    let key = chunk_key(program);
    if let Some(found) = cache().lock().expect("chunk cache poisoned").get(&key) {
        CHUNK_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return Ok((Arc::clone(found), true, 0));
    }
    let cp = Arc::new(compile::compile(program)?);
    let n_chunks = cp.chunks.len() as u64;
    CHUNKS_COMPILED.fetch_add(n_chunks, Ordering::Relaxed);
    let mut map = cache().lock().expect("chunk cache poisoned");
    if map.len() >= CACHE_CAP {
        map.clear();
    }
    map.insert(key, Arc::clone(&cp));
    Ok((cp, false, n_chunks))
}

/// Namespace tag for specializer static-eval chunks in the shared map: a
/// fixed first key component no real closure fingerprint will collide with
/// in practice (two independent 64-bit spaces; the second component is the
/// subtree's own Term fingerprint, which is content-addressed and therefore
/// stable across runs and safe under wholesale eviction).
const SPEC_MARKER: u64 = 0x5bec_e7a1_57a7_1c00;

/// Compiles a specializer static-eval subtree through the shared chunk
/// cache, keyed by the subtree's [`Term`] fingerprint.
///
/// The subtree is wrapped in a one-definition program whose parameters are
/// the subtree's free variables in first-occurrence order — the calling
/// convention of [`crate::VmStaticEval`]. Returns `None` when lowering
/// fails structurally; failures are not cached (rare, cheap to
/// rediscover).
pub fn spec_chunk(key: u64, body: &Expr, params: &[Symbol]) -> Option<Arc<CompiledProgram>> {
    let map_key = (SPEC_MARKER, key);
    {
        let map = cache().lock().expect("chunk cache poisoned");
        if let Some(found) = map.get(&map_key) {
            SPEC_VM_CHUNK_HITS.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(found));
        }
    }
    SPEC_VM_CHUNK_MISSES.fetch_add(1, Ordering::Relaxed);
    let program = Program::new(vec![FunDef::new(
        Symbol::intern("spec_eval_chunk"),
        params.to_vec(),
        body.clone(),
    )])
    .ok()?;
    let cp = Arc::new(compile::compile(&program).ok()?);
    CHUNKS_COMPILED.fetch_add(cp.chunks.len() as u64, Ordering::Relaxed);
    let mut map = cache().lock().expect("chunk cache poisoned");
    if map.len() >= CACHE_CAP {
        map.clear();
    }
    map.insert(map_key, Arc::clone(&cp));
    Some(cp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppe_lang::parse_program;

    #[test]
    fn repeat_compiles_hit_the_cache() {
        let p = parse_program("(define (cache-probe-fn x) (* x 17))").unwrap();
        let (_, hit0, compiled0) = compile_cached(&p).unwrap();
        // A parallel test may have cleared the cache between our insert and
        // this probe, so assert on the re-parse path, which shares nothing.
        let p2 = parse_program("(define (cache-probe-fn x) (* x 17))").unwrap();
        let (_, hit1, compiled1) = compile_cached(&p2).unwrap();
        if !hit0 {
            assert_eq!(compiled0, 1);
        }
        assert!(hit1, "structurally identical program must hit");
        assert_eq!(compiled1, 0);
    }

    #[test]
    fn different_programs_have_different_keys() {
        let a = parse_program("(define (f x) (+ x 1))").unwrap();
        let b = parse_program("(define (f x) (+ x 2))").unwrap();
        assert_ne!(chunk_key(&a), chunk_key(&b));
    }

    #[test]
    fn unreachable_edits_keep_the_key_stable() {
        let a =
            parse_program("(define (f x) (g x)) (define (g x) (* x 3)) (define (dead x) (+ x 1))")
                .unwrap();
        let b =
            parse_program("(define (f x) (g x)) (define (g x) (* x 3)) (define (dead x) (+ x 99))")
                .unwrap();
        assert_eq!(
            chunk_key(&a),
            chunk_key(&b),
            "editing a def unreachable from the entry must not recompile"
        );
        let c =
            parse_program("(define (f x) (g x)) (define (g x) (* x 4)) (define (dead x) (+ x 1))")
                .unwrap();
        assert_ne!(chunk_key(&a), chunk_key(&c), "reachable edits must miss");
    }
}
