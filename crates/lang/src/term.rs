//! Hash-consed terms: an interned, immutable representation of [`Expr`]
//! with O(1) `clone`/`Eq`/`Hash` and precomputed structural metadata.
//!
//! Every [`Term`] is built through a process-wide thread-safe interner, so
//! structurally equal subterms share one allocation: equality is a pointer
//! comparison in the common case, hashing reads a precomputed 64-bit
//! fingerprint, and each node caches its size and free-variable occurrence
//! counts. No request path builds terms: the pipeline's keys use
//! [`fingerprint_of`], a plain walk that gives a term's fingerprint
//! without interning, and the residual optimizer rewrites [`Expr`] trees
//! in place.
//!
//! Sharing is safe because [`Expr`] (and hence [`TermNode`]) is immutable:
//! no holder of a `Term` can observe another holder's mutations, there are
//! none. Like the [`Symbol`] table, the interner lives for the process —
//! nodes are never evicted, which keeps canonical pointers stable.
//!
//! # Examples
//!
//! ```
//! use ppe_lang::{parse_expr, Term};
//!
//! let a = Term::from_expr(&parse_expr("(+ x (* y y))").unwrap());
//! let b = Term::from_expr(&parse_expr("(+ x (* y y))").unwrap());
//! assert_eq!(a, b); // same interned node: pointer equality
//! assert_eq!(a.size(), 5);
//! assert_eq!(a.count_free(ppe_lang::Symbol::intern("y")), 2);
//! assert_eq!(a.to_expr(), parse_expr("(+ x (* y y))").unwrap());
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::ast::{Const, Expr};
use crate::prim::Prim;
use crate::symbol::Symbol;

/// The node shape of a [`Term`] — structurally identical to [`Expr`], with
/// interned children.
#[derive(PartialEq, Debug)]
pub enum TermNode {
    /// A constant `c`.
    Const(Const),
    /// A variable reference `x`.
    Var(Symbol),
    /// A primitive application `p(e₁, …, eₙ)`.
    Prim(Prim, Vec<Term>),
    /// A conditional `if e₁ e₂ e₃`.
    If(Term, Term, Term),
    /// A call of a named top-level function.
    Call(Symbol, Vec<Term>),
    /// `let x = e₁ in e₂`.
    Let(Symbol, Term, Term),
    /// A lambda abstraction.
    Lambda(Vec<Symbol>, Term),
    /// A general application of a computed function.
    App(Term, Vec<Term>),
    /// A reference to a top-level function used as a value.
    FnRef(Symbol),
}

/// The shared payload behind a [`Term`] handle.
#[derive(Debug)]
struct TermData {
    node: TermNode,
    /// 64-bit structural fingerprint (in-process: mixes [`Symbol`]
    /// indices, which depend on interning order — see
    /// [`crate::Program::fingerprint`] for the spelling-stable hash).
    fingerprint: u64,
    /// Node count, matching [`Expr::size`].
    size: u32,
    /// Free-variable occurrence counts, sorted by symbol, deduplicated.
    /// `count_free` is a binary search; binder-use queries that would
    /// re-traverse an [`Expr`] read this instead.
    free: Box<[(Symbol, u32)]>,
}

/// An interned, hash-consed expression.
///
/// `clone` is a reference-count bump, equality is pointer equality in the
/// common case (with a structural fallback guarding against fingerprint
/// collisions), and `Hash` writes the precomputed fingerprint.
#[derive(Clone)]
pub struct Term(Arc<TermData>);

/// Counters describing the process-wide term interner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Distinct nodes currently interned (allocations performed).
    pub nodes_interned: u64,
    /// Constructions satisfied by an existing node (sharing events).
    pub hits: u64,
}

impl InternerStats {
    /// Fraction of constructions that reused an existing node, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.nodes_interned + self.hits;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const SHARDS: usize = 16;

/// Buckets of interned terms keyed by fingerprint, sharded to keep lock
/// contention low when specializations run concurrently (`ppe serve`).
struct Interner {
    shards: [Mutex<HashMap<u64, Vec<Term>>>; SHARDS],
}

static INTERNER: OnceLock<Interner> = OnceLock::new();
static NODES_INTERNED: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);

fn interner() -> &'static Interner {
    INTERNER.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
    })
}

/// Small integers memoized on the leaf fast path: wide enough for loop
/// counters and vector sizes, narrow enough that the per-thread table
/// stays trivial.
const LEAF_INT_MIN: i64 = -16;
const LEAF_INT_MAX: i64 = 128;

thread_local! {
    /// Leaf fast path: per-thread memos of interned variables (dense by
    /// symbol index) and small constants. Leaves dominate tiny-term
    /// workloads — a 4-element inner-product specialization builds the
    /// same handful of `Var`/`Int` nodes over and over — and paying the
    /// sharded-lock round trip for each one is what regressed
    /// `e1_online_iprod_n4` when terms were first interned. A memo hit
    /// costs one indexed read and an `Arc` bump; misses fall through to
    /// the interner and populate the memo. Memory is bounded by the
    /// symbol table, which is already process-lifetime.
    static VAR_LEAVES: RefCell<Vec<Option<Term>>> = const { RefCell::new(Vec::new()) };
    static CONST_LEAVES: RefCell<Vec<Option<Term>>> = const { RefCell::new(Vec::new()) };
}

/// The memo slot for a constant on the leaf fast path, if it has one
/// (booleans and small integers).
fn const_leaf_slot(c: &Const) -> Option<usize> {
    match c {
        Const::Bool(b) => Some(usize::from(*b)),
        Const::Int(n) if (LEAF_INT_MIN..=LEAF_INT_MAX).contains(n) => {
            Some(2 + (n - LEAF_INT_MIN) as usize)
        }
        _ => None,
    }
}

/// Looks up slot `i` in a leaf memo, or interns `node` and records it.
fn leaf(
    cache: &'static std::thread::LocalKey<RefCell<Vec<Option<Term>>>>,
    i: usize,
    node: impl FnOnce() -> TermNode,
) -> Term {
    cache.with(|memo| {
        if let Some(Some(t)) = memo.borrow().get(i) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return t.clone();
        }
        let t = Term::intern(node());
        let mut memo = memo.borrow_mut();
        if memo.len() <= i {
            memo.resize(i + 1, None);
        }
        memo[i] = Some(t.clone());
        t
    })
}

/// A snapshot of the global interner's counters (monotonic over the
/// process lifetime; diff two snapshots to meter one workload).
pub fn interner_stats() -> InternerStats {
    InternerStats {
        nodes_interned: NODES_INTERNED.load(Ordering::Relaxed),
        hits: HITS.load(Ordering::Relaxed),
    }
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
        // The bits as written, so `0.0` and `-0.0` stay distinct terms
        // (and distinct VM chunk keys) although they are equal `F64`s.
        Const::Float(x) => mix(3, x.get().to_bits()),
    }
}

/// Merges sorted occurrence lists, summing counts of equal symbols.
fn merge_free(a: &[(Symbol, u32)], b: &[(Symbol, u32)]) -> Vec<(Symbol, u32)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn without(free: Vec<(Symbol, u32)>, bound: &[Symbol]) -> Vec<(Symbol, u32)> {
    if bound.is_empty() {
        return free;
    }
    free.into_iter()
        .filter(|(x, _)| !bound.contains(x))
        .collect()
}

fn merge_many<'a>(terms: impl Iterator<Item = &'a Term>) -> Vec<(Symbol, u32)> {
    let mut acc: Vec<(Symbol, u32)> = Vec::new();
    for t in terms {
        acc = merge_free(&acc, t.free_vars());
    }
    acc
}

impl Term {
    /// Interns `node`, computing fingerprint, size, and free-variable data
    /// from the (already interned) children, and returns the canonical
    /// handle for it.
    fn intern(node: TermNode) -> Term {
        let (fingerprint, size, free) = describe(&node);
        let shard = &interner().shards[(fingerprint as usize) & (SHARDS - 1)];
        let mut bucket = shard.lock().expect("term interner poisoned");
        let candidates = bucket.entry(fingerprint).or_default();
        if let Some(existing) = candidates.iter().find(|t| t.0.node == node) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return existing.clone();
        }
        NODES_INTERNED.fetch_add(1, Ordering::Relaxed);
        let term = Term(Arc::new(TermData {
            node,
            fingerprint,
            size,
            free: free.into_boxed_slice(),
        }));
        candidates.push(term.clone());
        term
    }

    /// An interned constant.
    pub fn constant(c: Const) -> Term {
        match const_leaf_slot(&c) {
            Some(i) => leaf(&CONST_LEAVES, i, || TermNode::Const(c)),
            None => Term::intern(TermNode::Const(c)),
        }
    }

    /// An interned variable reference.
    pub fn var(x: Symbol) -> Term {
        leaf(&VAR_LEAVES, x.index() as usize, || TermNode::Var(x))
    }

    /// An interned primitive application.
    pub fn prim(p: Prim, args: Vec<Term>) -> Term {
        Term::intern(TermNode::Prim(p, args))
    }

    /// An interned conditional.
    pub fn if_(c: Term, t: Term, f: Term) -> Term {
        Term::intern(TermNode::If(c, t, f))
    }

    /// An interned first-order call.
    pub fn call(f: Symbol, args: Vec<Term>) -> Term {
        Term::intern(TermNode::Call(f, args))
    }

    /// An interned `let`.
    pub fn let_(x: Symbol, bound: Term, body: Term) -> Term {
        Term::intern(TermNode::Let(x, bound, body))
    }

    /// An interned lambda.
    pub fn lambda(params: Vec<Symbol>, body: Term) -> Term {
        Term::intern(TermNode::Lambda(params, body))
    }

    /// An interned general application.
    pub fn app(f: Term, args: Vec<Term>) -> Term {
        Term::intern(TermNode::App(f, args))
    }

    /// An interned function reference.
    pub fn fnref(f: Symbol) -> Term {
        Term::intern(TermNode::FnRef(f))
    }

    /// The node, for matching.
    pub fn node(&self) -> &TermNode {
        &self.0.node
    }

    /// The precomputed structural fingerprint (in-process only).
    pub fn fingerprint(&self) -> u64 {
        self.0.fingerprint
    }

    /// Node count, equal to [`Expr::size`] of [`Term::to_expr`] — O(1).
    pub fn size(&self) -> usize {
        self.0.size as usize
    }

    /// Free variables with their occurrence counts, sorted by symbol —
    /// O(1) access (computed once at interning time).
    pub fn free_vars(&self) -> &[(Symbol, u32)] {
        &self.0.free
    }

    /// Number of free occurrences of `x` — a binary search, not a
    /// traversal.
    pub fn count_free(&self, x: Symbol) -> u32 {
        match self.0.free.binary_search_by_key(&x, |&(s, _)| s) {
            Ok(i) => self.0.free[i].1,
            Err(_) => 0,
        }
    }

    /// True if `x` occurs free in the term.
    pub fn has_free(&self, x: Symbol) -> bool {
        self.count_free(x) != 0
    }

    /// Interns an expression tree bottom-up.
    pub fn from_expr(e: &Expr) -> Term {
        match e {
            Expr::Const(c) => Term::constant(*c),
            Expr::Var(x) => Term::var(*x),
            Expr::Prim(p, args) => Term::prim(*p, args.iter().map(Term::from_expr).collect()),
            Expr::If(c, t, f) => {
                Term::if_(Term::from_expr(c), Term::from_expr(t), Term::from_expr(f))
            }
            Expr::Call(f, args) => Term::call(*f, args.iter().map(Term::from_expr).collect()),
            Expr::Let(x, b, body) => Term::let_(*x, Term::from_expr(b), Term::from_expr(body)),
            Expr::Lambda(params, body) => Term::lambda(params.clone(), Term::from_expr(body)),
            Expr::App(f, args) => Term::app(
                Term::from_expr(f),
                args.iter().map(Term::from_expr).collect(),
            ),
            Expr::FnRef(f) => Term::fnref(*f),
        }
    }

    /// Expands the term back into an owned expression tree.
    pub fn to_expr(&self) -> Expr {
        match self.node() {
            TermNode::Const(c) => Expr::Const(*c),
            TermNode::Var(x) => Expr::Var(*x),
            TermNode::Prim(p, args) => Expr::Prim(*p, args.iter().map(Term::to_expr).collect()),
            TermNode::If(c, t, f) => Expr::If(
                Box::new(c.to_expr()),
                Box::new(t.to_expr()),
                Box::new(f.to_expr()),
            ),
            TermNode::Call(f, args) => Expr::Call(*f, args.iter().map(Term::to_expr).collect()),
            TermNode::Let(x, b, body) => {
                Expr::Let(*x, Box::new(b.to_expr()), Box::new(body.to_expr()))
            }
            TermNode::Lambda(params, body) => {
                Expr::Lambda(params.clone(), Box::new(body.to_expr()))
            }
            TermNode::App(f, args) => Expr::App(
                Box::new(f.to_expr()),
                args.iter().map(Term::to_expr).collect(),
            ),
            TermNode::FnRef(f) => Expr::FnRef(*f),
        }
    }
}

/// Computes `(fingerprint, size, free)` for a node whose children are
/// already interned (so their metadata is O(1) to read).
fn describe(node: &TermNode) -> (u64, u32, Vec<(Symbol, u32)>) {
    let kids_size = |kids: &[Term]| kids.iter().map(|k| k.0.size).sum::<u32>();
    match node {
        TermNode::Const(c) => (fp::constant(c), 1, Vec::new()),
        TermNode::Var(x) => (fp::var(*x), 1, vec![(*x, 1)]),
        TermNode::Prim(p, args) => (
            fp::prim(*p, args.iter().map(Term::fingerprint)),
            1 + kids_size(args),
            merge_many(args.iter()),
        ),
        TermNode::If(c, t, f) => (
            fp::if_(c.fingerprint(), t.fingerprint(), f.fingerprint()),
            1 + c.0.size + t.0.size + f.0.size,
            merge_free(&merge_free(c.free_vars(), t.free_vars()), f.free_vars()),
        ),
        TermNode::Call(f, args) => (
            fp::call(*f, args.iter().map(Term::fingerprint)),
            1 + kids_size(args),
            merge_many(args.iter()),
        ),
        TermNode::Let(x, b, body) => (
            fp::let_(*x, b.fingerprint(), body.fingerprint()),
            1 + b.0.size + body.0.size,
            merge_free(b.free_vars(), &without(body.free_vars().to_vec(), &[*x])),
        ),
        TermNode::Lambda(params, body) => (
            fp::lambda(params, body.fingerprint()),
            1 + body.0.size,
            without(body.free_vars().to_vec(), params),
        ),
        TermNode::App(f, args) => (
            fp::app(f.fingerprint(), args.iter().map(Term::fingerprint)),
            1 + f.0.size + kids_size(args),
            merge_free(f.free_vars(), &merge_many(args.iter())),
        ),
        TermNode::FnRef(f) => (fp::fnref(*f), 1, Vec::new()),
    }
}

/// What `Term::from_expr(e).fingerprint()` returns, computed by a plain
/// walk of `e`: no node is interned and no lock is taken. For callers
/// that need a tree's fingerprint but not the tree as a term (the VM
/// chunk key, through [`crate::Program::term_fingerprint`]).
pub fn fingerprint_of(e: &Expr) -> u64 {
    match e {
        Expr::Const(c) => fp::constant(c),
        Expr::Var(x) => fp::var(*x),
        Expr::Prim(p, args) => fp::prim(*p, args.iter().map(fingerprint_of)),
        Expr::If(c, t, f) => fp::if_(fingerprint_of(c), fingerprint_of(t), fingerprint_of(f)),
        Expr::Call(f, args) => fp::call(*f, args.iter().map(fingerprint_of)),
        Expr::Let(x, b, body) => fp::let_(*x, fingerprint_of(b), fingerprint_of(body)),
        Expr::Lambda(params, body) => fp::lambda(params, fingerprint_of(body)),
        Expr::App(f, args) => fp::app(fingerprint_of(f), args.iter().map(fingerprint_of)),
        Expr::FnRef(f) => fp::fnref(*f),
    }
}

/// The fingerprint of each node kind, fed its children's fingerprints.
/// [`describe`] (interning) and [`fingerprint_of`] (a plain walk) both
/// combine through these, so the two cannot drift.
mod fp {
    use super::{const_bits, fp_str, mix};
    use crate::ast::Const;
    use crate::prim::Prim;
    use crate::symbol::Symbol;

    /// `tag` mixed with the child count, then with each child in order.
    fn kids(tag: u64, fps: impl ExactSizeIterator<Item = u64>) -> u64 {
        let len = fps.len() as u64;
        fps.fold(mix(tag, len), mix)
    }

    pub(super) fn constant(c: &Const) -> u64 {
        mix(10, const_bits(c))
    }

    pub(super) fn var(x: Symbol) -> u64 {
        mix(11, u64::from(x.index()))
    }

    pub(super) fn prim(p: Prim, args: impl ExactSizeIterator<Item = u64>) -> u64 {
        kids(mix(12, p.name().len() as u64 ^ fp_str(p.name())), args)
    }

    pub(super) fn if_(c: u64, t: u64, f: u64) -> u64 {
        mix(mix(mix(13, c), t), f)
    }

    pub(super) fn call(f: Symbol, args: impl ExactSizeIterator<Item = u64>) -> u64 {
        kids(mix(14, u64::from(f.index())), args)
    }

    pub(super) fn let_(x: Symbol, bound: u64, body: u64) -> u64 {
        mix(mix(mix(15, u64::from(x.index())), bound), body)
    }

    pub(super) fn lambda(params: &[Symbol], body: u64) -> u64 {
        params.iter().fold(mix(16, params.len() as u64), |h, p| {
            mix(h, u64::from(p.index()))
        }) ^ mix(16, body)
    }

    pub(super) fn app(f: u64, args: impl ExactSizeIterator<Item = u64>) -> u64 {
        kids(mix(17, f), args)
    }

    pub(super) fn fnref(f: Symbol) -> u64 {
        mix(18, u64::from(f.index()))
    }
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

impl PartialEq for Term {
    fn eq(&self, other: &Term) -> bool {
        // Canonical interning makes pointer equality the common case; the
        // structural fallback keeps `Eq` sound even under fingerprint
        // collisions (two distinct nodes can share a bucket).
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.fingerprint == other.0.fingerprint
                && self.0.size == other.0.size
                && self.0.node == other.0.node)
    }
}

impl Eq for Term {}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.fingerprint);
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0.node, f)
    }
}

impl From<&Expr> for Term {
    fn from(e: &Expr) -> Term {
        Term::from_expr(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn t(src: &str) -> Term {
        Term::from_expr(&parse_expr(src).unwrap())
    }

    #[test]
    fn structurally_equal_terms_share_one_allocation() {
        let a = t("(+ x (* y y))");
        let b = t("(+ x (* y y))");
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
    }

    #[test]
    fn subterms_are_shared_across_distinct_terms() {
        let common = Expr::call("f", vec![Expr::var("x"), Expr::int(1)]);
        let a = Term::from_expr(&Expr::prim(
            crate::Prim::Add,
            vec![common.clone(), Expr::int(2)],
        ));
        let b = Term::from_expr(&Expr::prim(crate::Prim::Sub, vec![common, Expr::int(3)]));
        let (TermNode::Prim(_, xs), TermNode::Prim(_, ys)) = (a.node(), b.node()) else {
            panic!("prim nodes expected");
        };
        assert!(Arc::ptr_eq(&xs[0].0, &ys[0].0), "common subterm not shared");
    }

    #[test]
    fn round_trip_preserves_structure() {
        let exprs = vec![
            parse_expr("(+ 1 2)").unwrap(),
            parse_expr("(if (< x 0) (neg x) x)").unwrap(),
            parse_expr("(let ((y (* x x))) (+ y y))").unwrap(),
            parse_expr("(lambda (a b) (+ a b))").unwrap(),
            parse_expr("1.5").unwrap(),
            parse_expr("#t").unwrap(),
            Expr::call("f", vec![Expr::var("x")]),
            Expr::FnRef(Symbol::intern("f")),
            Expr::App(
                Box::new(Expr::FnRef(Symbol::intern("f"))),
                vec![Expr::int(1), Expr::int(2)],
            ),
        ];
        for e in exprs {
            assert_eq!(Term::from_expr(&e).to_expr(), e, "{e:?}");
        }
    }

    #[test]
    fn size_matches_expr_size() {
        let exprs = vec![
            parse_expr("(+ 1 2)").unwrap(),
            parse_expr("(let ((y 1)) y)").unwrap(),
            Expr::If(
                Box::new(Expr::var("x")),
                Box::new(Expr::int(1)),
                Box::new(Expr::call("f", vec![Expr::call("g", vec![Expr::var("y")])])),
            ),
        ];
        for e in exprs {
            assert_eq!(Term::from_expr(&e).size(), e.size(), "{e:?}");
        }
    }

    #[test]
    fn free_vars_respect_binders_and_count_occurrences() {
        let term = t("(let ((y (+ x x))) (+ y (* x z)))");
        let x = Symbol::intern("x");
        assert_eq!(term.count_free(x), 3);
        assert_eq!(term.count_free(Symbol::intern("y")), 0);
        assert_eq!(term.count_free(Symbol::intern("z")), 1);
        assert!(!term.has_free(Symbol::intern("w")));
        // Sorted, deduplicated.
        let free = term.free_vars();
        assert!(free.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn lambda_params_are_bound() {
        let term = t("(lambda (a) (+ a b))");
        assert_eq!(term.count_free(Symbol::intern("a")), 0);
        assert_eq!(term.count_free(Symbol::intern("b")), 1);
    }

    #[test]
    fn distinct_terms_differ() {
        assert_ne!(t("(+ x 1)"), t("(+ x 2)"));
        assert_ne!(t("(+ x 1)"), t("(- x 1)"));
        assert_ne!(t("x"), t("y"));
    }

    #[test]
    fn hashing_is_fingerprint_based_and_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        let h = |term: &Term| {
            let mut s = DefaultHasher::new();
            term.hash(&mut s);
            s.finish()
        };
        let rec = || {
            Expr::If(
                Box::new(parse_expr("(< n 0)").unwrap()),
                Box::new(Expr::var("x")),
                Box::new(Expr::call(
                    "g",
                    vec![Expr::var("x"), parse_expr("(- n 1)").unwrap()],
                )),
            )
        };
        let a = Term::from_expr(&rec());
        let b = Term::from_expr(&rec());
        assert_eq!(h(&a), h(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn interner_stats_record_sharing() {
        let before = interner_stats();
        // A self-similar term: the two (* q q) children intern once.
        let _ = t("(+ (* q17 q17) (* q17 q17))");
        let after = interner_stats();
        assert!(after.nodes_interned >= before.nodes_interned);
        assert!(
            after.hits > before.hits,
            "shared subterm construction must count as a hit"
        );
    }

    #[test]
    fn stats_hit_rate_is_bounded() {
        let s = InternerStats {
            nodes_interned: 3,
            hits: 1,
        };
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(InternerStats::default().hit_rate(), 0.0);
    }
}
