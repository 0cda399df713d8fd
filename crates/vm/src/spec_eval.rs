//! [`VmStaticEval`]: the bytecode implementation of the specializer's
//! static-evaluation backend.
//!
//! The engines in `ppe-online`/`ppe-offline` hand over fully-static
//! subtrees (see [`ppe_online::spec_eval`] for the eligibility grammar and
//! the parity contract); this backend lowers each subtree once to a
//! one-definition chunk and replays it on concrete values thereafter.
//! Chunks live in the process-wide chunk cache under the subtree's
//! structural fingerprint ([`ppe_lang::term::fingerprint_of`]), fronted by a
//! thread-local `(chunk, args) → outcome` memo so the steady-state hit
//! (the same interpreter-loop subterm re-walked on the same static values
//! once per unfolding) costs one `HashMap` probe and no lock.
//!
//! Failure of any kind — lowering trouble, a runtime error such as
//! division by zero or an out-of-range index, a budget trip inside the
//! replay — answers `None`, and the engine falls back to its tree walk,
//! which re-discovers the outcome with the ordinary classification. The
//! replay budgets below are therefore *backstops* against pathological
//! chunks, not policy: the engines gate on their own [`Governor`] budgets
//! before calling in.
//!
//! [`Governor`]: ppe_online::Governor

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hasher;
use std::rc::Rc;

use ppe_lang::{Expr, Symbol, Value};
use ppe_online::spec_eval::{AddrHasher, BuildAddrHasher, SpecEvalBackend};

use crate::cache;
use crate::vm::{Vm, VmOptions};

/// Thread-local `(chunk, args) → outcome` memo cap; cleared wholesale on
/// overflow. Entries are pure-function results of content-addressed
/// chunks, so eviction is only a performance event. Failures are cached
/// alongside successes: the VM is deterministic under fixed
/// [`REPLAY_OPTS`], so a `(chunk, args)` pair that errored once errors
/// always, and the memo spares the walk a doomed replay per revisit.
const RESULT_CAP: usize = 8192;

/// Mixes concrete arguments into a cache key, or `None` when an argument
/// kind has no cheap identity (closures and function values — which the
/// engines never pass; parameters reify to scalars and vectors only).
///
/// Vectors hash by `Rc` pointer. That is sound *only* because a matching
/// result-cache entry holds clones of its arguments: the clone keeps the
/// allocation alive, so a pointer can never be reused by a different
/// live vector while the entry exists ([`args_match`] re-checks with
/// `Rc::ptr_eq`). Distinct-but-equal vectors simply miss and recompute.
fn args_key(args: &[Value]) -> Option<u64> {
    let mut h = AddrHasher::default();
    for a in args {
        match a {
            Value::Int(x) => h.write_u64(1 ^ (*x as u64)),
            Value::Bool(b) => h.write_u64(2 ^ u64::from(*b) << 8),
            Value::Float(f) => h.write_u64(3 ^ f.to_bits()),
            Value::Vector(v) => h.write_u64(4 ^ Rc::as_ptr(v) as u64),
            Value::Closure(_) | Value::FnVal(_) => return None,
        }
    }
    Some(h.finish())
}

/// Exact argument comparison for result-cache entries (see [`args_key`]
/// for why pointer equality suffices for vectors).
fn args_match(stored: &[Value], args: &[Value]) -> bool {
    stored.len() == args.len()
        && stored.iter().zip(args).all(|(s, a)| match (s, a) {
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Vector(x), Value::Vector(y)) => Rc::ptr_eq(x, y),
            _ => false,
        })
}

/// Replay budgets. Eligible subtrees contain no calls, so an execution
/// uses exactly one application (the entry) and depth 1; the allowances
/// exist only to fail closed if an ineligible chunk ever slipped through.
/// No deadline: a wall-clock probe is a syscall per check, and subtree
/// runtime is bounded by the engines' fuel gate.
const REPLAY_OPTS: VmOptions = VmOptions {
    fuel: 1 << 20,
    max_depth: 64,
    deadline: None,
};

/// One `(chunk fingerprint, args fingerprint)` memo entry: the stored
/// arguments (exact-match check, and the vector-liveness guarantee) plus
/// the replay outcome, `None` for a deterministic failure.
type ResultEntry = (Box<[Value]>, Option<Value>);

/// Per-thread replay state, bundled so one eval touches thread-local
/// storage once.
struct ThreadState {
    results: HashMap<(u64, u64), ResultEntry, BuildAddrHasher>,
    vm: Vm,
}

thread_local! {
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState {
        results: HashMap::default(),
        vm: Vm::with_options(REPLAY_OPTS),
    });
}

/// The production [`SpecEvalBackend`]: compile-once, replay-many static
/// evaluation on the bytecode VM.
///
/// Stateless and [`Send`]`+`[`Sync`]; chunks are cached process-wide and
/// replay results per thread, so one instance can be shared by every
/// request. Install it via [`ppe_online::PeConfig::spec_eval`]:
///
/// ```
/// use std::sync::Arc;
/// use ppe_lang::parse_program;
/// use ppe_online::{PeConfig, SimpleInput, SimplePe};
/// use ppe_vm::VmStaticEval;
///
/// let p = parse_program("(define (f x) (+ (* 3 4) x))").unwrap();
/// let config = PeConfig { spec_eval: Some(Arc::new(VmStaticEval)), ..PeConfig::default() };
/// let r = SimplePe::with_config(&p, config)
///     .specialize_main(&[SimpleInput::Dynamic])
///     .unwrap();
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct VmStaticEval;

impl SpecEvalBackend for VmStaticEval {
    fn eval(&self, key: u64, body: &Expr, params: &[Symbol], args: &[Value]) -> Option<Value> {
        cache::note_spec_eval();
        STATE.with(|cell| {
            let st = &mut *cell.borrow_mut();
            // Fastest path: the same subtree on the same concrete
            // arguments. Chunks are content-addressed and the VM is
            // deterministic, so `(key, args) → value` is a pure function;
            // interpreter-style workloads re-derive the same static
            // scalars once per unfolding and once per re-specialization,
            // and those repeats end here.
            let akey = args_key(args);
            if let Some(ak) = akey {
                if let Some((stored, out)) = st.results.get(&(key, ak)) {
                    if args_match(stored, args) {
                        cache::note_spec_chunk_hit();
                        return out.clone();
                    }
                }
            }
            let cp = cache::spec_chunk(key, body, params)?;
            let out = st.vm.run_main(&cp, args).ok();
            if let Some(ak) = akey {
                if st.results.len() >= RESULT_CAP {
                    st.results.clear();
                }
                st.results
                    .insert((key, ak), (args.to_vec().into_boxed_slice(), out.clone()));
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eligible(src: &str) -> (u64, Expr, Vec<Symbol>) {
        let p = ppe_lang::parse_program(src).unwrap();
        let body = p.main().body.clone();
        let info = ppe_online::spec_eval::analyze(&body).expect("eligible subtree");
        (info.key(&body), body, info.params.clone())
    }

    #[test]
    fn replays_straight_line_arithmetic() {
        let (key, body, params) = eligible("(define (f x) (+ (* x x) 1))");
        let out = VmStaticEval.eval(key, &body, &params, &[Value::Int(7)]);
        assert_eq!(out, Some(Value::Int(50)));
        // Second call is a cache hit and computes on the new argument.
        let out = VmStaticEval.eval(key, &body, &params, &[Value::Int(-2)]);
        assert_eq!(out, Some(Value::Int(5)));
    }

    #[test]
    fn runtime_errors_answer_none() {
        let (key, body, params) = eligible("(define (f x) (/ 1 x))");
        assert_eq!(
            VmStaticEval.eval(key, &body, &params, &[Value::Int(0)]),
            None
        );
        // ...and do not poison the chunk for later, valid arguments.
        assert_eq!(
            VmStaticEval.eval(key, &body, &params, &[Value::Int(2)]),
            Some(Value::Int(0))
        );
    }

    #[test]
    fn vector_parameters_flow_through_vref() {
        let (key, body, params) = eligible("(define (f v i) (vref v (+ i 1)))");
        let v = Value::vector(vec![Value::Int(10), Value::Int(20), Value::Int(30)]);
        assert_eq!(
            VmStaticEval.eval(key, &body, &params, &[v.clone(), Value::Int(1)]),
            Some(Value::Int(20))
        );
        // Out of range: None, never a panic.
        assert_eq!(
            VmStaticEval.eval(key, &body, &params, &[v, Value::Int(9)]),
            None
        );
    }

    #[test]
    fn counters_advance() {
        let before = cache::vm_stats();
        let (key, body, params) = eligible("(define (f x) (* x 1234567))");
        VmStaticEval.eval(key, &body, &params, &[Value::Int(1)]);
        VmStaticEval.eval(key, &body, &params, &[Value::Int(2)]);
        let after = cache::vm_stats();
        assert!(after.spec_vm_evals >= before.spec_vm_evals + 2);
        assert!(
            after.spec_vm_chunk_hits + after.spec_vm_chunk_misses
                >= before.spec_vm_chunk_hits + before.spec_vm_chunk_misses + 2
        );
    }
}
