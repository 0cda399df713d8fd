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
//! ([`fingerprint_of`](ppe_lang::term::fingerprint_of)) — and replays it
//! on concrete [`Value`]s thereafter.
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
//! per-run state: the reify cache, the memo of products result constants
//! abstract into, and eligibility facts for the residual `λ` bodies the
//! walk β-reduces. The grammar is syntactic, so a source node's facts come
//! from the program's own table ([`ppe_lang::Program::facts`]), computed
//! once per parsed program and shared by every run; the offline walk's
//! annotated nodes keep theirs on the analysis that annotated them. The
//! shortcut fires from the first tick of a run: firing is observationally
//! invisible.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use ppe_core::facets::{ContentsVal, ElemVal};
use ppe_core::{FacetSet, PeVal, ProductVal};
use ppe_lang::term::{BuildAddrHasher, EligibilityTable, SubtreeFacts};
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
    /// [`SubtreeFacts::key`]); implementations use it to cache the
    /// lowered form. Returns `None` on *any* failure — compile trouble, a
    /// runtime error, an internal limit — in which case the engine takes
    /// the tree-walk path as if the call had never happened.
    fn eval(&self, key: u64, body: &Expr, params: &[Symbol], args: &[Value]) -> Option<Value>;
}

/// Per-run shortcut state a [`crate::builder::ResidualBuilder`] carries
/// when a backend is installed: the handle, the source program's
/// eligibility table, the memo for residual bodies, and the reification
/// and product caches.
#[derive(Debug)]
pub(crate) struct SpecState<'p> {
    /// The installed backend (from [`crate::PeConfig::spec_eval`]).
    pub(crate) backend: Arc<dyn SpecEvalBackend>,
    /// Eligibility facts of the source program's nodes.
    pub(crate) source: &'p EligibilityTable,
    /// Eligibility facts of the residual bodies the run walks.
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

impl<'p> SpecState<'p> {
    /// Shortcut state for one specialization run over the program whose
    /// eligibility table is `source`.
    pub(crate) fn new(
        backend: Arc<dyn SpecEvalBackend>,
        source: &'p EligibilityTable,
        contents_idx: Option<usize>,
    ) -> SpecState<'p> {
        SpecState {
            backend,
            source,
            memo: SubtreeMemo::default(),
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
/// [`ProductVal::from_const`] builds a fresh product — with one
/// abstraction per facet — every time. Keyed by [`Const`], whose floats
/// compare by their bits, so `0.0` and `-0.0` get their own products.
/// Bounded; cleared wholesale on overflow (products are pure functions of
/// the constant and the run's facet set, so eviction is only a
/// performance event).
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

/// The eligibility facts of a node that is not an [`Expr`] (the offline
/// walk's annotated nodes), with the plain expression the backend lowers
/// for it.
#[derive(Debug)]
pub struct StaticSubtree {
    /// The expression the backend lowers.
    pub body: Expr,
    /// Its facts.
    pub facts: SubtreeFacts,
}

/// A node a specializer walk can offer the shortcut: a source [`Expr`]
/// (online, simple) or an annotated node (offline).
pub trait StaticNode {
    /// Whether the node's shape can root an eligible subtree (a primitive
    /// or a `let`): the cheap filter in front of the table probe.
    fn may_root(&self) -> bool;
    /// The node as a plain expression, when it is one. Its facts come
    /// from the source program's table, or for a residual body the walk
    /// reduces, from the run's memo.
    fn as_expr(&self) -> Option<&Expr>;
    /// Eligibility facts of a node that is not an [`Expr`], kept with the
    /// node.
    fn subtree(&self) -> Option<&StaticSubtree> {
        None
    }
}

impl StaticNode for Expr {
    fn may_root(&self) -> bool {
        matches!(self, Expr::Prim(..) | Expr::Let(..))
    }

    fn as_expr(&self) -> Option<&Expr> {
        Some(self)
    }
}

/// Per-run eligibility facts for the `Expr` nodes a walk visits that are
/// not the source program's: β-reduced residual `λ` bodies, filled
/// bottom-up like the program's table. Keyed by node address, which is
/// sound because the run keeps those bodies alive until it ends.
#[derive(Debug, Default)]
pub(crate) struct SubtreeMemo {
    exprs: EligibilityTable,
}

impl SubtreeMemo {
    /// The facts of residual node `e`, filling its subtree on first sight.
    fn expr(&mut self, e: &Expr) -> Option<&SubtreeFacts> {
        if self.exprs.get(e).is_none() {
            self.exprs.fill(e);
        }
        self.exprs.get(e).flatten()
    }
}

/// The facts of `node` and the expression the backend lowers for it, when
/// the node roots a subtree worth shipping ([`qualifies`]). A source node
/// reads the program's table `source`, a residual body the run's `memo`,
/// and an annotated node its own facts.
pub(crate) fn lookup<'a, N: StaticNode + ?Sized>(
    source: &'a EligibilityTable,
    memo: &'a mut SubtreeMemo,
    node: &'a N,
) -> Option<(&'a SubtreeFacts, &'a Expr)> {
    let (facts, body) = match node.as_expr() {
        Some(e) => {
            let facts = match source.get(e) {
                Some(found) => found,
                None => memo.expr(e),
            };
            (facts?, e)
        }
        None => {
            let s = node.subtree()?;
            (&s.facts, &s.body)
        }
    };
    qualifies(facts).then_some((facts, body))
}

/// Whether a subtree is worth shipping to the backend: it applies a
/// primitive and reaches [`MIN_SUBTREE_SIZE`].
fn qualifies(facts: &SubtreeFacts) -> bool {
    facts.n_prims > 0 && facts.size >= MIN_SUBTREE_SIZE
}

/// Checks the eligibility grammar on `e`'s subtree alone and collects its
/// facts, `None` unless they qualify: the per-node definition that the
/// bottom-up tables are tested against.
pub fn analyze(e: &Expr) -> Option<SubtreeFacts> {
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
    Some(SubtreeFacts::new(params, size, n_prims))
}

/// [`analyze`] for an expression built for the shortcut (the offline walk
/// strips its annotated nodes to one): the facts carry it as their body.
pub fn analyze_owned(e: Expr) -> Option<StaticSubtree> {
    let facts = analyze(&e)?;
    Some(StaticSubtree { body: e, facts })
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
/// reference count, so one payload reifies once per run). Each slot holds
/// its product, so no other payload can be allocated at an address the
/// cache answers for. Only successful reifications are stored.
#[derive(Debug, Default)]
pub(crate) struct ReifyCache {
    slots: Vec<(ProductVal, Value)>,
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
        if let Some((_, val)) = self.slots.iter().find(|(k, _)| k.identity() == id) {
            return Some(val.clone());
        }
        let out = reify_vector(v, contents_idx)?;
        if self.slots.len() >= REIFY_CACHE_SLOTS {
            self.slots.remove(0);
        }
        self.slots.push((v.clone(), out.clone()));
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
    use ppe_lang::term::fingerprint_of;
    use ppe_lang::Const;
    use ppe_lang::{parse_program, Program};

    fn program(src: &str) -> Program {
        parse_program(src).unwrap()
    }

    /// What the driver finds for `e`, a node of `p` or a residual: its
    /// parameters, size and primitive count.
    fn facts(p: &Program, memo: &mut SubtreeMemo, e: &Expr) -> Option<(Vec<Symbol>, u64, u64)> {
        lookup(&p.facts().eligibility, memo, e).map(|(f, _)| (f.params.clone(), f.size, f.n_prims))
    }

    #[test]
    fn straight_line_arithmetic_is_eligible() {
        let p = program("(define (f x y) (+ (* x 2) (let ((t (- y 1))) (* t t))))");
        let e = &p.main().body;
        let mut memo = SubtreeMemo::default();
        let (params, size, n_prims) = facts(&p, &mut memo, e).expect("eligible");
        assert_eq!(size, e.size() as u64);
        assert_eq!(n_prims, 4);
        assert_eq!(params, vec![Symbol::intern("x"), Symbol::intern("y")]);
        let (info, body) = lookup(&p.facts().eligibility, &mut memo, e).unwrap();
        assert!(std::ptr::eq(body, e), "a source node is its own body");
        assert_eq!(info.key(e), fingerprint_of(e));
        // A source node reads the program's table; the run memo stays empty.
        assert!(memo.exprs.is_empty());
        // A residual copy of the body is not the program's: the memo
        // fills it, with the same facts.
        let copy = e.clone();
        let again = facts(&p, &mut memo, &copy).expect("memo fill");
        assert_eq!(again, (params, size, n_prims));
        assert_eq!(memo.exprs.len(), 5, "four primitives and a `let`");
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
            let p = program(src);
            let mut memo = SubtreeMemo::default();
            assert!(facts(&p, &mut memo, &p.main().body).is_none(), "{src}");
        }
    }

    #[test]
    fn vref_and_vsize_consumers_stay_eligible() {
        let p = program("(define (f v i) (+ (vref v i) (vsize v)))");
        let mut memo = SubtreeMemo::default();
        let (_, _, n_prims) = facts(&p, &mut memo, &p.main().body).expect("eligible");
        assert_eq!(n_prims, 3);
    }

    #[test]
    fn shadowed_binders_are_not_params() {
        let p = program("(define (f x) (let ((y (+ x 1))) (* y y)))");
        let mut memo = SubtreeMemo::default();
        let (params, _, _) = facts(&p, &mut memo, &p.main().body).expect("eligible");
        assert_eq!(params, vec![Symbol::intern("x")]);
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

    /// The facts the driver finds for every node of `p`'s definitions, and
    /// of a residual copy of each body, against `analyze` on each node
    /// alone. Source nodes must all come from the program's table, which
    /// holds exactly the program's `Prim`/`Let` nodes.
    fn check_against_analyze(p: &Program) {
        let copies: Vec<Expr> = p.defs().iter().map(|d| d.body.clone()).collect();
        let mut source = Vec::new();
        let mut residual = Vec::new();
        for (d, copy) in p.defs().iter().zip(&copies) {
            roots(&d.body, &mut source);
            roots(copy, &mut residual);
        }
        assert_eq!(p.facts().eligibility.len(), source.len());
        let mut memo = SubtreeMemo::default();
        for (i, node) in source.iter().chain(&residual).enumerate() {
            let got = facts(p, &mut memo, node);
            if i < source.len() {
                assert!(
                    memo.exprs.is_empty(),
                    "source node {node:?} missed the table"
                );
            }
            let want = analyze(node).map(|f| (f.params, f.size, f.n_prims));
            assert_eq!(got, want, "at {node:?}");
        }
        assert_eq!(memo.exprs.len(), residual.len());
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
            "(define (f x) (g (+ x 1) (* x 2))) (define (g a b) (let ((c (- a b))) (+ c 1)))",
        ] {
            check_against_analyze(&program(src));
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
        let p = program(&src);
        let e = &p.main().body;
        let mut memo = SubtreeMemo::default();
        let (params, size, n_prims) = facts(&p, &mut memo, e).expect("eligible");
        assert_eq!((size, n_prims), (2 * depth as u64 + 1, depth as u64));
        assert_eq!(params, vec![Symbol::intern("x")]);
        // The program's table holds every nested node, so the walk's
        // probes of them all hit it, and the run memo stays empty.
        assert_eq!(p.facts().eligibility.len(), depth);
        let mut node = e;
        while let Expr::Prim(_, args) = node {
            assert!(facts(&p, &mut memo, node).is_some());
            node = &args[1];
        }
        assert!(memo.exprs.is_empty());
        // A residual copy fills the run memo in one probe, and its nested
        // probes all hit.
        let copy = e.clone();
        assert!(facts(&p, &mut memo, &copy).is_some());
        assert_eq!(memo.exprs.len(), depth);
        let mut node = &copy;
        while let Expr::Prim(_, args) = node {
            assert!(facts(&p, &mut memo, node).is_some());
            node = &args[1];
        }
        assert_eq!(memo.exprs.len(), depth);
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

    #[test]
    fn reify_cache_never_answers_for_the_shared_top_product() {
        let facets = FacetSet::with_facets(vec![Box::new(ContentsFacet)]);
        let top = ProductVal::dynamic(&facets);
        let mut cache = ReifyCache::new();
        assert_eq!(cache.get_or_reify(&top, 0), None);
        let pinned = top.with_facet(0, AbsVal::new(ContentsVal::known(vec![Const::Int(1)])));
        assert!(cache.get_or_reify(&pinned, 0).is_some());
        drop(pinned);
        // The shared ⊤ payload outlives every pinned one and never reifies.
        assert_eq!(ProductVal::dynamic(&facets).identity(), top.identity());
        assert_eq!(cache.get_or_reify(&ProductVal::dynamic(&facets), 0), None);
    }

    #[test]
    fn reify_cache_never_answers_for_a_dropped_payload() {
        // A slot keyed by a bare address would answer a dropped product's
        // vector for the next product allocated at that address.
        let facets = FacetSet::with_facets(vec![Box::new(ContentsFacet)]);
        let mut cache = ReifyCache::new();
        for n in 0..64 {
            let v = ProductVal::dynamic(&facets)
                .with_facet(0, AbsVal::new(ContentsVal::known(vec![Const::Int(n)])));
            assert_eq!(
                cache.get_or_reify(&v, 0),
                Some(Value::vector(vec![Value::Int(n)])),
                "at {n}"
            );
        }
    }
}
