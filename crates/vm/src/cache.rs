//! The process-wide chunk cache and VM counters.
//!
//! Compiled programs are keyed by two independent 64-bit fingerprints of
//! the *whole* program: [`Program::fingerprint`] (spelling-stable) and
//! [`Program::term_fingerprint`] (an FNV-1a combination of every
//! definition's [`Term`](ppe_lang::Term) fingerprint and arity). Both are
//! memoized on the program, so a parsed program shared through an `Arc`
//! pays for them once, and both are plain walks: looking a program up
//! interns none of its nodes. Editing any definition changes the key, so a
//! hit always returns chunks compiled from a program structurally equal to
//! the caller's. Two independent hashes make an accidental collision in a
//! bounded in-process cache vanishingly unlikely.
//!
//! [`CompiledProgram`]s contain only plain data, so the cache is shared
//! across threads; repeat executions of the same residual — the dominant
//! pattern behind the server's `"execute"` path — skip compilation
//! entirely.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ppe_lang::{Expr, FunDef, Program, Symbol};

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

type ChunkMap = HashMap<(u64, u64), Arc<CompiledProgram>>;

fn cache() -> &'static Mutex<ChunkMap> {
    static CACHE: OnceLock<Mutex<ChunkMap>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The cache key: both memoized whole-program fingerprints.
fn chunk_key(program: &Program) -> (u64, u64) {
    (program.fingerprint(), program.term_fingerprint())
}

/// Returns the compiled program cached under `key` (counting a hit in
/// `hits`), or runs `build`, counts its chunks and caches the result.
/// The flag says whether it was a hit. Failures are not cached: they are
/// rare and cheap to rediscover.
fn get_or_compile<E>(
    key: (u64, u64),
    hits: &AtomicU64,
    build: impl FnOnce() -> Result<CompiledProgram, E>,
) -> Result<(Arc<CompiledProgram>, bool), E> {
    if let Some(found) = cache().lock().expect("chunk cache poisoned").get(&key) {
        hits.fetch_add(1, Ordering::Relaxed);
        return Ok((Arc::clone(found), true));
    }
    let cp = Arc::new(build()?);
    CHUNKS_COMPILED.fetch_add(cp.chunks.len() as u64, Ordering::Relaxed);
    let mut map = cache().lock().expect("chunk cache poisoned");
    if map.len() >= CACHE_CAP {
        map.clear();
    }
    map.insert(key, Arc::clone(&cp));
    Ok((cp, false))
}

/// Compiles `program` through the process-wide cache.
///
/// Returns the compiled program, whether it was a cache hit, and how many
/// chunks were compiled (0 on a hit) — the latter two feed per-request
/// metrics.
///
/// # Errors
///
/// [`CompileError`] when lowering fails structurally; failures are not
/// cached.
pub fn compile_cached(
    program: &Program,
) -> Result<(Arc<CompiledProgram>, bool, u64), CompileError> {
    let (cp, hit) = get_or_compile(chunk_key(program), &CHUNK_CACHE_HITS, || {
        compile::compile(program)
    })?;
    let compiled = if hit { 0 } else { cp.chunks.len() as u64 };
    Ok((cp, hit, compiled))
}

/// Namespace tag for specializer static-eval chunks in the shared map: a
/// fixed first key component no real program fingerprint will collide with
/// in practice (two independent 64-bit spaces; the second component is the
/// subtree's own Term fingerprint, which is content-addressed and therefore
/// stable across runs and safe under wholesale eviction).
const SPEC_MARKER: u64 = 0x5bec_e7a1_57a7_1c00;

/// Compiles a specializer static-eval subtree through the shared chunk
/// cache, keyed by the subtree's [`Term`](ppe_lang::Term) fingerprint.
///
/// The subtree is wrapped in a one-definition program whose parameters are
/// the subtree's free variables in first-occurrence order — the calling
/// convention of [`crate::VmStaticEval`]. Returns `None` when lowering
/// fails structurally; failures are not cached (rare, cheap to
/// rediscover).
pub fn spec_chunk(key: u64, body: &Expr, params: &[Symbol]) -> Option<Arc<CompiledProgram>> {
    let compiled = get_or_compile((SPEC_MARKER, key), &SPEC_VM_CHUNK_HITS, || {
        SPEC_VM_CHUNK_MISSES.fetch_add(1, Ordering::Relaxed);
        let program = Program::new(vec![FunDef::new(
            Symbol::intern("spec_eval_chunk"),
            params.to_vec(),
            body.clone(),
        )])
        .map_err(drop)?;
        compile::compile(&program).map_err(drop)
    });
    compiled.ok().map(|(cp, _)| cp)
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
    fn editing_any_definition_changes_the_key() {
        let src = |g: &str, dead: &str| {
            format!("(define (f x) (g x)) (define (g x) (* x {g})) (define (dead x) (+ x {dead}))")
        };
        let a = parse_program(&src("3", "1")).unwrap();
        let reachable = parse_program(&src("4", "1")).unwrap();
        assert_ne!(
            chunk_key(&a),
            chunk_key(&reachable),
            "reachable edits must miss"
        );
        let unreachable = parse_program(&src("3", "99")).unwrap();
        assert_ne!(
            chunk_key(&a),
            chunk_key(&unreachable),
            "edits to definitions the entry cannot reach must miss too"
        );
        let arity = parse_program(
            "(define (f x) (g x)) (define (g x) (* x 3)) (define (dead x y) (+ x 1))",
        )
        .unwrap();
        assert_ne!(chunk_key(&a), chunk_key(&arity), "arity edits must miss");
    }
}
