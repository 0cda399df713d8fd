//! The VM-backed static-evaluation shortcut: eligibility analysis and the
//! backend contract.
//!
//! When a specializer walk reaches a subterm it is about to evaluate
//! *fully statically* — every reachable primitive folds to a constant —
//! the tree walk re-derives that constant one `prim_product`/`Prim::eval`
//! at a time, allocating products along the way. Interpreter-style
//! workloads (the paper's Section 6 examples, the E8 bench) re-walk the
//! same source subterms once per unfolding, so the same static arithmetic
//! is re-derived thousands of times. The shortcut lowers such a subterm
//! to a `ppe-vm` chunk once — keyed by its structural fingerprint
//! ([`fingerprint_of`]) — and replays it on concrete [`Value`]s
//! thereafter.
//!
//! # The lowering contract (what qualifies as "fully static")
//!
//! A subtree is *eligible* when it is built from `Const`, `Var`, `Let`,
//! and `Prim` nodes only, the primitives exclude the vector *creators*
//! (`mkvec`, `updvec`), and it contains at least one primitive. At a
//! particular visit it actually *fires* only if every free variable
//! reifies to a concrete first-order [`Value`] (a constant, or a vector
//! its `contents` facet pins) and the VM produces a first-order constant. On any
//! other outcome — a type error, an out-of-range index, a non-constant
//! result — the engine falls back to the tree walk, **uncharged**, which
//! is trivially identical to not having tried.
//!
//! Byte-identity of residuals between the two paths is inductive over
//! that grammar: a VM success means every primitive in the subtree
//! evaluated concretely to a defined value, and on such subtrees the
//! engines fold every primitive to exactly that value (the PE facet is
//! concrete evaluation; sound facets must agree with a defined concrete
//! result, Lemma 3). Conversely any subterm the walk would residualize
//! (a `⊥`-denoting primitive, a dynamic variable) makes the VM run fail
//! or the reification bail, so the walk runs unchanged. Budget parity is
//! exact as well: eligible subtrees have no branches, so the walk visits
//! exactly `size` nodes; the driver pre-checks that `size - 1` fuel
//! remains (else it falls back, reproducing the walk's trip point
//! bit-for-bit) and charges `size - 1` ticks through
//! [`crate::Governor::charge`] after a VM success.
//!
//! All three engines reach the shortcut through one driver,
//! [`crate::builder::ResidualBuilder::spec_eval`], which owns the
//! per-run state: the eligibility memo by node address, the reify cache,
//! and the memo of products result constants abstract into. The shortcut
//! fires from the first tick of a run: firing is observationally
//! invisible, and the per-node analysis it costs is paid once per node.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::Arc;

use ppe_core::facets::{ContentsVal, ElemVal};
use ppe_core::{FacetSet, PeVal, ProductVal};
use ppe_lang::term::fingerprint_of;
use ppe_lang::{Const, Expr, Prim, Symbol, Value};

/// An engine-pluggable evaluator for eligible static subtrees.
///
/// Implemented by `ppe_vm::VmStaticEval` (chunk-cached bytecode); the
/// trait lives here so `PeConfig` can carry a handle without inverting
/// the crate dependency order.
pub trait SpecEvalBackend: fmt::Debug + Send + Sync {
    /// Evaluates `body` with `params` bound positionally to `args`.
    ///
    /// `key` is the term fingerprint of `body` (see
    /// [`StaticSubtree::key`]); implementations use it to cache the
    /// lowered form. Returns `None` on *any* failure — compile trouble, a
    /// runtime error, an internal limit — in which case the engine takes
    /// the tree-walk path as if the call had never happened.
    fn eval(&self, key: u64, body: &Expr, params: &[Symbol], args: &[Value]) -> Option<Value>;
}

/// Per-run shortcut state a [`crate::builder::ResidualBuilder`] carries
/// when a backend is installed: the handle plus the eligibility memo and
/// the reification and product caches.
#[derive(Debug)]
pub(crate) struct SpecState {
    /// The installed backend (from [`crate::PeConfig::spec_eval`]).
    pub(crate) backend: Arc<dyn SpecEvalBackend>,
    /// Eligibility facts per walked node.
    pub(crate) memo: SubtreeMemo,
    /// Vector reifications per product payload.
    pub(crate) reify: ReifyCache,
    /// Index of the `contents` facet in the run's facet set, when present
    /// — the only facet precise enough to reify a vector. Engines without
    /// products (simple) or whose shortcut must stay scalar (offline)
    /// leave it `None` and reify constants only.
    pub(crate) contents_idx: Option<usize>,
    /// Reused argument buffer for backend calls. One attempt is live at a
    /// time, and eligible visits happen once per primitive the walk
    /// folds, so reusing the allocation matters.
    pub(crate) args_buf: Vec<Value>,
    /// Products of backend result constants, memoized per run.
    pub(crate) products: ConstProducts,
    /// Residual `λ`s whose bodies the walk β-reduced, kept alive for the
    /// run so that no later node can be allocated at an address `memo` has
    /// seen (a body sits behind its `λ`'s box, so moving the `λ` here does
    /// not move it).
    pub(crate) walked: Vec<Expr>,
}

impl SpecState {
    /// Shortcut state for one specialization run.
    pub(crate) fn new(backend: Arc<dyn SpecEvalBackend>, contents_idx: Option<usize>) -> SpecState {
        SpecState {
            backend,
            memo: SubtreeMemo::new(),
            reify: ReifyCache::new(),
            contents_idx,
            args_buf: Vec::new(),
            products: ConstProducts::default(),
            walked: Vec::new(),
        }
    }
}

/// Per-run memo of the [`ProductVal`]s backend results abstract into.
/// Interpreter-style workloads fold the same constants (program counters,
/// opcodes, test outcomes) once per unfolding, and
/// [`ProductVal::from_const`] allocates a fresh product — with one
/// abstraction per facet — every time. Bounded; cleared wholesale on
/// overflow (products are pure functions of the constant and the run's
/// facet set, so eviction is only a performance event).
#[derive(Debug, Default)]
pub(crate) struct ConstProducts {
    map: HashMap<Const, ProductVal, BuildAddrHasher>,
}

impl ConstProducts {
    const CAP: usize = 4096;

    /// The product `c` abstracts into under `facets`, memoized.
    pub fn get_or_insert(&mut self, c: Const, facets: &FacetSet) -> ProductVal {
        if let Some(found) = self.map.get(&c) {
            return found.clone();
        }
        let out = ProductVal::from_const(c, facets);
        if self.map.len() >= ConstProducts::CAP {
            self.map.clear();
        }
        self.map.insert(c, out.clone());
        out
    }
}

/// Smallest eligible subtree worth shipping to the backend: `size 3` is
/// one binary primitive, already a net win once the chunk is warm
/// because a fold through the product machinery allocates where the VM
/// replay does not.
pub const MIN_SUBTREE_SIZE: u64 = 3;

/// Structural facts about one eligible subtree, computed once per walked
/// node and memoized by address. Engines walk a borrowed program, whose
/// node addresses are stable for the whole run; the one residual they
/// walk, a β-reduced `λ` body, is kept alive to the end of the run (see
/// [`crate::builder::ResidualBuilder::retain_walked`]).
#[derive(Debug)]
pub struct StaticSubtree {
    /// The plain expression the backend lowers, when the walked node is
    /// not itself an [`Expr`] (the offline walk's annotated nodes); `None`
    /// means the node is its own body.
    pub body: Option<Expr>,
    /// Free variables in first-occurrence order — the parameters of the
    /// lowered chunk.
    pub params: Vec<Symbol>,
    /// Structural fingerprint of the subtree, computed on the first
    /// backend call: most eligible nodes never fire (a free variable is
    /// dynamic).
    key: OnceCell<u64>,
    /// Node count: exactly the ticks the tree walk would spend on it.
    pub size: u64,
    /// Primitive applications inside: the walk's `reductions` delta.
    pub n_prims: u64,
}

/// Hasher for node-address and small scalar keys: one multiply–xor-shift
/// round per word. These memos are probed on every `Prim`/`Let` the walk
/// visits, so the default hasher's per-probe setup cost would tax the
/// whole specialization; a single multiply mixes an (aligned,
/// low-entropy) address or constant well enough for a bounded per-run
/// table.
#[derive(Default)]
pub struct AddrHasher(u64);

/// [`BuildHasherDefault`] alias for [`AddrHasher`]-keyed maps (the VM
/// backend keys its `(chunk, args)` result memo with it too).
pub type BuildAddrHasher = BuildHasherDefault<AddrHasher>;

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let x = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Fold the high bits down: the table indexes with low bits.
        self.0 = x ^ (x >> 32);
    }

    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

impl fmt::Debug for AddrHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AddrHasher").field(&self.0).finish()
    }
}

/// A node a specializer walk can offer the shortcut: a source [`Expr`]
/// (online, simple) or an annotated node (offline).
pub trait StaticNode {
    /// Whether the node's shape can root an eligible subtree (a primitive
    /// or a `let`): the cheap filter in front of the memo probe.
    fn may_root(&self) -> bool;
    /// Eligibility facts, computed once per node and run.
    fn subtree(&self) -> Option<StaticSubtree>;
    /// The node as a plain expression, when it is one.
    fn as_expr(&self) -> Option<&Expr>;
}

impl StaticNode for Expr {
    fn may_root(&self) -> bool {
        matches!(self, Expr::Prim(..) | Expr::Let(..))
    }

    fn subtree(&self) -> Option<StaticSubtree> {
        analyze(self)
    }

    fn as_expr(&self) -> Option<&Expr> {
        Some(self)
    }
}

/// Per-run memo of [`StaticSubtree`] facts, keyed by node address.
///
/// For an [`Expr`] node the memo is filled bottom-up: the first probe of a
/// node folds the facts of its whole eligible region — the `Prim`/`Let`
/// nodes reachable through `Const`, `Var`, `Let` and non-creator `Prim`
/// nodes — child by child, and records every `Prim`/`Let` node of it. The
/// walk then finds each nested node's facts where it looks for them, and
/// a later fold stops at any node already recorded, so every node is
/// analysed once per run and nesting costs linear time, not quadratic.
#[derive(Debug, Default)]
pub(crate) struct SubtreeMemo {
    /// `Some` for a node whose subtree keeps to the eligibility grammar,
    /// whether or not it clears the size thresholds (see
    /// [`StaticSubtree::qualifies`]); `None` for one that breaks it.
    map: HashMap<usize, Option<Rc<StaticSubtree>>, BuildAddrHasher>,
}

/// A finished child in [`SubtreeMemo::fill`].
enum Child {
    /// A constant (`None`) or a variable.
    Leaf(Option<Symbol>),
    /// A `Prim` or `Let` that keeps to the grammar.
    Node(Rc<StaticSubtree>),
    /// A subtree that breaks the grammar.
    Ineligible,
}

impl Child {
    fn of(facts: Option<Rc<StaticSubtree>>) -> Child {
        facts.map_or(Child::Ineligible, Child::Node)
    }
}

fn addr<N: ?Sized>(node: &N) -> usize {
    node as *const N as *const () as usize
}

impl SubtreeMemo {
    /// An empty memo.
    pub fn new() -> SubtreeMemo {
        SubtreeMemo::default()
    }

    /// The eligibility facts for `node`, computed on first sight.
    pub fn info<N: StaticNode + ?Sized>(&mut self, node: &N) -> Option<Rc<StaticSubtree>> {
        let at = addr(node);
        let facts = match self.map.get(&at) {
            Some(found) => found.clone(),
            None => match node.as_expr() {
                Some(e) => self.fill(e),
                None => {
                    let computed = node.subtree().map(Rc::new);
                    self.map.insert(at, computed.clone());
                    computed
                }
            },
        };
        facts.filter(|f| f.qualifies())
    }

    /// Folds the facts of `root`'s eligible region bottom-up (post-order,
    /// children left to right), recording every `Prim`/`Let` node of it
    /// that the memo has not seen; returns `root`'s entry.
    fn fill(&mut self, root: &Expr) -> Option<Rc<StaticSubtree>> {
        enum Step<'e> {
            Visit(&'e Expr),
            Finish(&'e Expr),
        }
        let mut stack = vec![Step::Visit(root)];
        let mut children: Vec<Child> = Vec::new();
        while let Some(step) = stack.pop() {
            match step {
                Step::Visit(e) => match e {
                    Expr::Const(_) => children.push(Child::Leaf(None)),
                    Expr::Var(x) => children.push(Child::Leaf(Some(*x))),
                    // Vector creators are excluded: their defined results
                    // are not constants, so the walk keeps them residual
                    // while the VM would happily compute past them.
                    Expr::Prim(Prim::MkVec | Prim::UpdVec, _) => {
                        self.map.insert(addr(e), None);
                        children.push(Child::Ineligible);
                    }
                    Expr::Prim(_, args) => match self.map.get(&addr(e)) {
                        Some(found) => children.push(Child::of(found.clone())),
                        None => {
                            stack.push(Step::Finish(e));
                            stack.extend(args.iter().rev().map(Step::Visit));
                        }
                    },
                    Expr::Let(_, bound, body) => match self.map.get(&addr(e)) {
                        Some(found) => children.push(Child::of(found.clone())),
                        None => {
                            stack.push(Step::Finish(e));
                            stack.push(Step::Visit(body));
                            stack.push(Step::Visit(bound));
                        }
                    },
                    _ => children.push(Child::Ineligible),
                },
                Step::Finish(e) => {
                    let arity = match e {
                        Expr::Prim(_, args) => args.len(),
                        _ => 2,
                    };
                    let own = children.split_off(children.len() - arity);
                    let facts = combine(e, &own).map(Rc::new);
                    self.map.insert(addr(e), facts.clone());
                    children.push(Child::of(facts));
                }
            }
        }
        match children.pop() {
            Some(Child::Node(facts)) => Some(facts),
            _ => None,
        }
    }
}

/// The facts of a `Prim` or `Let` node `e` from its children's, in
/// order; `None` if any child breaks the grammar. Parameters are the
/// children's in first-occurrence order, less a `let`'s binder in its
/// body, which is the order [`Expr::free_vars`] visits them in.
fn combine(e: &Expr, children: &[Child]) -> Option<StaticSubtree> {
    let binder = match e {
        Expr::Let(x, _, _) => Some(*x),
        _ => None,
    };
    let mut size = 1u64;
    let mut n_prims = u64::from(matches!(e, Expr::Prim(..)));
    let mut params = Vec::new();
    for (i, child) in children.iter().enumerate() {
        let vars: &[Symbol] = match child {
            Child::Leaf(x) => {
                size += 1;
                x.as_slice()
            }
            Child::Node(f) => {
                size += f.size;
                n_prims += f.n_prims;
                &f.params
            }
            Child::Ineligible => return None,
        };
        // A `let`'s second child is its body, where the binder is bound.
        let bound = if i == 1 { binder } else { None };
        for &v in vars {
            if Some(v) != bound && !params.contains(&v) {
                params.push(v);
            }
        }
    }
    Some(StaticSubtree {
        body: None,
        params,
        key: OnceCell::new(),
        size,
        n_prims,
    })
}

/// Checks the eligibility grammar and collects the subtree facts.
pub fn analyze(e: &Expr) -> Option<StaticSubtree> {
    let mut n_prims = 0u64;
    let mut stack = vec![e];
    while let Some(x) = stack.pop() {
        match x {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Prim(p, args) => {
                // Vector creators are excluded: their defined results are
                // not constants, so the walk keeps them residual while
                // the VM would happily compute past them.
                if matches!(p, Prim::MkVec | Prim::UpdVec) {
                    return None;
                }
                n_prims += 1;
                stack.extend(args.iter());
            }
            Expr::Let(_, bound, body) => {
                stack.push(bound);
                stack.push(body);
            }
            _ => return None,
        }
    }
    if n_prims == 0 {
        return None;
    }
    let size = e.size() as u64;
    if size < MIN_SUBTREE_SIZE {
        return None;
    }
    let mut params = Vec::new();
    e.free_vars(&mut params);
    Some(StaticSubtree {
        body: None,
        params,
        key: OnceCell::new(),
        size,
        n_prims,
    })
}

impl StaticSubtree {
    /// The backend's cache key: the structural fingerprint
    /// ([`fingerprint_of`]) of `body`, the subtree these facts describe.
    pub fn key(&self, body: &Expr) -> u64 {
        *self.key.get_or_init(|| fingerprint_of(body))
    }

    /// Whether the subtree is worth shipping to the backend: it applies
    /// a primitive and reaches [`MIN_SUBTREE_SIZE`].
    fn qualifies(&self) -> bool {
        self.n_prims > 0 && self.size >= MIN_SUBTREE_SIZE
    }
}

/// [`analyze`] for an expression built for the shortcut (the offline walk
/// strips its annotated nodes to one): the facts carry it as their body.
pub fn analyze_owned(e: Expr) -> Option<StaticSubtree> {
    let facts = analyze(&e)?;
    Some(StaticSubtree {
        body: Some(e),
        ..facts
    })
}

/// How many reified vectors one run keeps by payload identity. E8-style
/// workloads thread a couple of static vectors (code, constants) through
/// every unfolding; each reifies once.
const REIFY_CACHE_SLOTS: usize = 8;

/// Memoized product → [`Value`] reification for *vector* products.
///
/// A dynamic variable whose contents facet is `Exact` with every element
/// `Known` denotes exactly one concrete vector; rebuilding it per
/// primitive would swamp the shortcut, so conversions are cached on
/// [`ProductVal::identity`] (products are immutable and shared by
/// reference count, so one payload reifies once per run).
#[derive(Debug, Default)]
pub(crate) struct ReifyCache {
    slots: Vec<(usize, Value)>,
}

impl ReifyCache {
    /// An empty cache.
    pub fn new() -> ReifyCache {
        ReifyCache::default()
    }

    /// The concrete vector `v` denotes, if its contents facet pins every
    /// element; `contents_idx` is the facet's index in the governing set.
    pub fn get_or_reify(&mut self, v: &ProductVal, contents_idx: usize) -> Option<Value> {
        let id = v.identity();
        if let Some((_, val)) = self.slots.iter().find(|(k, _)| *k == id) {
            return Some(val.clone());
        }
        let out = reify_vector(v, contents_idx)?;
        if self.slots.len() >= REIFY_CACHE_SLOTS {
            self.slots.remove(0);
        }
        self.slots.push((id, out.clone()));
        Some(out)
    }
}

fn reify_vector(v: &ProductVal, contents_idx: usize) -> Option<Value> {
    // `⊥` products denote no value; a constant product is scalar and is
    // reified from its residual, not here.
    if *v.pe() != PeVal::Top {
        return None;
    }
    match v.facet(contents_idx).downcast_ref::<ContentsVal>()? {
        ContentsVal::Exact(elems) => {
            let mut out = Vec::with_capacity(elems.len());
            for e in elems {
                match e {
                    ElemVal::Known(c) => out.push(Value::from_const(*c)),
                    ElemVal::Unknown => return None,
                }
            }
            Some(Value::vector(out))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppe_core::facets::ContentsFacet;
    use ppe_core::{AbsVal, FacetSet};
    use ppe_lang::parse_program;
    use ppe_lang::Const;

    fn body_of(src: &str) -> Expr {
        parse_program(src).unwrap().main().body.clone()
    }

    #[test]
    fn straight_line_arithmetic_is_eligible() {
        let e = body_of("(define (f x y) (+ (* x 2) (let ((t (- y 1))) (* t t))))");
        let mut memo = SubtreeMemo::new();
        let info = memo.info(&e).expect("eligible");
        assert_eq!(info.size, e.size() as u64);
        assert_eq!(info.n_prims, 4);
        assert_eq!(info.params, vec![Symbol::intern("x"), Symbol::intern("y")]);
        // Memo answers by address.
        let again = memo.info(&e).expect("memo hit");
        assert_eq!(again.key(&e), info.key(&e));
        assert_eq!(info.key(&e), fingerprint_of(&e));
    }

    #[test]
    fn branches_calls_and_vector_creators_are_not() {
        for src in [
            "(define (f x) (if (< x 0) 0 x))",
            "(define (f x) (f (+ x 1)))",
            "(define (f x) (vsize (mkvec 3)))",
            "(define (f v i) (updvec v i 0))",
            "(define (f x) x)",       // no primitive
            "(define (f x) (neg x))", // below MIN_SUBTREE_SIZE? size 2
        ] {
            let e = body_of(src);
            assert!(SubtreeMemo::new().info(&e).is_none(), "{src}");
        }
    }

    #[test]
    fn vref_and_vsize_consumers_stay_eligible() {
        let e = body_of("(define (f v i) (+ (vref v i) (vsize v)))");
        let info = SubtreeMemo::new().info(&e).expect("eligible");
        assert_eq!(info.n_prims, 3);
    }

    #[test]
    fn shadowed_binders_are_not_params() {
        let e = body_of("(define (f x) (let ((y (+ x 1))) (* y y)))");
        let info = SubtreeMemo::new().info(&e).expect("eligible");
        assert_eq!(info.params, vec![Symbol::intern("x")]);
    }

    /// Every `Prim`/`Let` node of `e`, parents before children: the order
    /// the walk probes them in.
    fn roots<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        if e.may_root() {
            out.push(e);
        }
        match e {
            Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => {}
            Expr::Prim(_, args) | Expr::Call(_, args) => args.iter().for_each(|a| roots(a, out)),
            Expr::If(c, t, f) => [c, t, f].into_iter().for_each(|x| roots(x, out)),
            Expr::Let(_, b, body) => [b, body].into_iter().for_each(|x| roots(x, out)),
            Expr::Lambda(_, body) => roots(body, out),
            Expr::App(f, args) => {
                roots(f, out);
                args.iter().for_each(|a| roots(a, out));
            }
        }
    }

    /// The memo's facts for every node of `e` against `analyze` on each
    /// node alone.
    fn check_against_analyze(e: &Expr) {
        let mut nodes = Vec::new();
        roots(e, &mut nodes);
        let mut memo = SubtreeMemo::new();
        for node in nodes {
            match (memo.info(node), analyze(node)) {
                (None, None) => {}
                (Some(got), Some(want)) => assert_eq!(
                    (&got.params, got.size, got.n_prims),
                    (&want.params, want.size, want.n_prims)
                ),
                (got, want) => panic!("memo {got:?} vs analyze {want:?} at {node:?}"),
            }
        }
    }

    #[test]
    fn bottom_up_memo_agrees_with_analyze_on_every_node() {
        for src in [
            "(define (f x y) (+ (* x 2) (let ((t (- y 1))) (* t t))))",
            "(define (f x y) (let ((x (+ x y))) (* x y)))",
            "(define (f x y) (let ((a 1)) (let ((b a)) (+ b (- y x)))))",
            "(define (f x) (+ (if (< x 0) (* x x) (- x 1)) (* 2 x)))",
            "(define (f v i) (+ (vref v i) (vsize (mkvec (+ i 1)))))",
            "(define (f x) (let ((y 1)) y))",
            "(define (f x) (neg (neg x)))",
            "(define (f g x) (+ (g (* x 2)) (let ((h (lambda (z) (+ z x)))) (* x 3))))",
            "(define (f x) (+ (f (+ x 1)) (* (+ x 2) (- x 3))))",
        ] {
            check_against_analyze(&body_of(src));
        }
    }

    #[test]
    fn one_probe_records_the_whole_region() {
        let depth = 2000;
        let src = format!(
            "(define (f x) {}x{})",
            "(+ 1 ".repeat(depth),
            ")".repeat(depth)
        );
        let e = body_of(&src);
        let mut memo = SubtreeMemo::new();
        let info = memo.info(&e).expect("eligible");
        assert_eq!(
            (info.size, info.n_prims),
            (2 * depth as u64 + 1, depth as u64)
        );
        assert_eq!(info.params, vec![Symbol::intern("x")]);
        assert_eq!(memo.map.len(), depth);
        // The walk's probes of the nested nodes are all hits.
        let mut node = &e;
        while let Expr::Prim(_, args) = node {
            assert!(memo.info(node).is_some());
            node = &args[1];
        }
        assert_eq!(memo.map.len(), depth);
    }

    #[test]
    fn reify_cache_pins_fully_known_vectors() {
        let facets = FacetSet::with_facets(vec![Box::new(ContentsFacet)]);
        let known = ProductVal::dynamic(&facets).with_facet(
            0,
            AbsVal::new(ContentsVal::known(vec![Const::Int(7), Const::Int(9)])),
        );
        let mut cache = ReifyCache::new();
        let v = cache.get_or_reify(&known, 0).expect("reifies");
        assert_eq!(v, Value::vector(vec![Value::Int(7), Value::Int(9)]));
        // Identity hit: same payload, same value.
        assert_eq!(cache.get_or_reify(&known, 0), Some(v));

        let fuzzy = ProductVal::dynamic(&facets)
            .with_facet(0, AbsVal::new(ContentsVal::Exact(vec![ElemVal::Unknown])));
        assert_eq!(cache.get_or_reify(&fuzzy, 0), None);
    }
}
