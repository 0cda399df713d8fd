//! Structural fingerprints of expression trees.
//!
//! [`fingerprint_of`] hashes an [`Expr`] to 64 bits in one walk, with a
//! splitmix64-style combiner over a per-form tag and the children's
//! fingerprints. Names enter through `Symbol::index()`, a dense
//! in-process id, so the value is fast but process-local: it may key
//! in-process memos (the VM chunk cache, through
//! [`crate::Program::term_fingerprint`], and the online specializer's
//! `spec_eval` subtree key), never anything that outlives the process.
//! [`crate::Program::fingerprint`] is the spelling-stable hash for those.
//!
//! # Examples
//!
//! ```
//! use ppe_lang::parse_expr;
//! use ppe_lang::term::fingerprint_of;
//!
//! let a = parse_expr("(+ x (* y 0.0))")?;
//! let b = parse_expr("(+ x (* y 0.0))")?;
//! assert_eq!(fingerprint_of(&a), fingerprint_of(&b));
//! // `0.0` and `-0.0` are equal `F64`s, but different constants.
//! let c = parse_expr("(+ x (* y -0.0))")?;
//! assert_eq!(a, c);
//! assert_ne!(fingerprint_of(&a), fingerprint_of(&c));
//! # Ok::<(), ppe_lang::ParseError>(())
//! ```

use crate::ast::{Const, Expr};
use crate::symbol::Symbol;

/// What [`interner_stats`] reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Always 0: nothing interns expressions.
    pub nodes_interned: u64,
}

/// Always reports `nodes_interned: 0`. Kept only because perfbench's
/// traced replay imports it; the benchmark change that retires that
/// replay (ROADMAP item 1) deletes it.
pub fn interner_stats() -> InternerStats {
    InternerStats::default()
}

/// splitmix64-style combiner: good diffusion, no allocation, stable
/// within a process.
fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn const_bits(c: &Const) -> u64 {
    match c {
        Const::Int(n) => mix(1, *n as u64),
        Const::Bool(b) => mix(2, u64::from(*b)),
        // The bits as written, so `0.0` and `-0.0` stay distinct (and
        // distinct VM chunk keys) although they are equal `F64`s.
        Const::Float(x) => mix(3, x.get().to_bits()),
    }
}

fn sym(x: Symbol) -> u64 {
    u64::from(x.index())
}

/// The structural fingerprint of `e`: each form's tag (10–18) mixed with
/// its own fields and then with its children's fingerprints in order. A
/// plain walk; it allocates nothing and takes no lock.
pub fn fingerprint_of(e: &Expr) -> u64 {
    match e {
        Expr::Const(c) => mix(10, const_bits(c)),
        Expr::Var(x) => mix(11, sym(*x)),
        Expr::Prim(p, args) => kids(mix(12, p.name().len() as u64 ^ fp_str(p.name())), args),
        Expr::If(c, t, f) => mix(
            mix(mix(13, fingerprint_of(c)), fingerprint_of(t)),
            fingerprint_of(f),
        ),
        Expr::Call(f, args) => kids(mix(14, sym(*f)), args),
        Expr::Let(x, b, body) => mix(
            mix(mix(15, sym(*x)), fingerprint_of(b)),
            fingerprint_of(body),
        ),
        Expr::Lambda(params, body) => {
            params
                .iter()
                .fold(mix(16, params.len() as u64), |h, p| mix(h, sym(*p)))
                ^ mix(16, fingerprint_of(body))
        }
        Expr::App(f, args) => kids(mix(17, fingerprint_of(f)), args),
        Expr::FnRef(f) => mix(18, sym(*f)),
    }
}

/// `tag` mixed with the child count, then with each child in order.
fn kids(tag: u64, args: &[Expr]) -> u64 {
    args.iter().fold(mix(tag, args.len() as u64), |h, a| {
        mix(h, fingerprint_of(a))
    })
}

/// FNV-1a over a short string (primitive names), for the fingerprint.
fn fp_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
