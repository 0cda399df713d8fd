//! Structural facts about expression trees: fingerprints and
//! static-evaluation eligibility.
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
//! [`EligibilityTable`] records, per `Prim`/`let` node, whether the
//! subtree it roots keeps to the static-evaluation grammar (`Const`,
//! `Var`, `let`, and primitives other than the vector creators) and, if
//! so, its [`SubtreeFacts`]. The grammar is syntactic and names no facet,
//! so the table of a source program is computed once per program
//! ([`crate::Program::facts`]) and shared by every specialization run.
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
//! // `0.0` and `-0.0` are different constants, and fingerprint apart.
//! let c = parse_expr("(+ x (* y -0.0))")?;
//! assert_ne!(a, c);
//! assert_ne!(fingerprint_of(&a), fingerprint_of(&c));
//! # Ok::<(), ppe_lang::ParseError>(())
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use crate::ast::{Const, Expr};
use crate::prim::Prim;
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
        // distinct VM chunk keys), as they are distinct `F64`s.
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

/// Hasher for node-address and small scalar keys: one multiply–xor-shift
/// round per word. The eligibility tables are probed on every `Prim`/`Let`
/// a specializer walk visits, so the default hasher's per-probe setup
/// cost would tax the whole specialization; a single multiply mixes an
/// (aligned, low-entropy) address or constant well enough.
#[derive(Default)]
pub struct AddrHasher(u64);

/// [`BuildHasherDefault`] alias for [`AddrHasher`]-keyed maps.
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

/// Structural facts about one subtree that keeps to the static-evaluation
/// grammar.
#[derive(Debug)]
pub struct SubtreeFacts {
    /// Free variables in first-occurrence order (the order
    /// [`Expr::free_vars`] visits them in).
    pub params: Vec<Symbol>,
    /// Node count.
    pub size: u64,
    /// Primitive applications inside.
    pub n_prims: u64,
    /// [`fingerprint_of`] the subtree, computed on first use: most
    /// eligible nodes are never evaluated (a free variable is dynamic).
    key: OnceLock<u64>,
}

impl SubtreeFacts {
    /// Facts with the fingerprint not yet computed.
    pub fn new(params: Vec<Symbol>, size: u64, n_prims: u64) -> SubtreeFacts {
        SubtreeFacts {
            params,
            size,
            n_prims,
            key: OnceLock::new(),
        }
    }

    /// [`fingerprint_of`] `body`, the subtree these facts describe,
    /// memoized.
    pub fn key(&self, body: &Expr) -> u64 {
        *self.key.get_or_init(|| fingerprint_of(body))
    }
}

/// Whether `e` is a vector creator: their defined results are not
/// constants, so the specializers keep them residual, and the grammar
/// excludes them.
fn creates_vector(e: &Expr) -> bool {
    matches!(e, Expr::Prim(Prim::MkVec | Prim::UpdVec, _))
}

/// Eligibility facts of `Prim`/`let` nodes, keyed by node address: `Some`
/// for a node whose subtree keeps to the grammar, `None` for one that
/// breaks it. Sound only while every recorded node stays alive, so that no
/// other node can be allocated at a recorded address: a program's table
/// lives on the program ([`crate::Program::facts`]), and a specialization
/// run keeps the residual bodies it records alive until it ends.
#[derive(Default)]
pub struct EligibilityTable {
    map: HashMap<usize, Option<SubtreeFacts>, BuildAddrHasher>,
}

/// A finished child in [`EligibilityTable::fill`].
#[derive(Clone, Copy)]
enum Child {
    /// A constant (`None`) or a variable.
    Leaf(Option<Symbol>),
    /// A `Prim` or `let` that keeps to the grammar, by address.
    Node(usize),
    /// A subtree that breaks the grammar.
    Ineligible,
}

fn addr(e: &Expr) -> usize {
    e as *const Expr as usize
}

/// How many children `e` has in [`EligibilityTable::fill`]'s walk.
fn arity(e: &Expr) -> usize {
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => 0,
        Expr::Prim(_, args) | Expr::Call(_, args) => args.len(),
        Expr::If(..) => 3,
        Expr::Let(..) => 2,
        Expr::Lambda(..) => 1,
        Expr::App(_, args) => 1 + args.len(),
    }
}

impl EligibilityTable {
    /// The facts recorded for `node`: `None` when the node is not in the
    /// table, `Some(None)` when its subtree breaks the grammar.
    #[inline]
    pub fn get(&self, node: &Expr) -> Option<Option<&SubtreeFacts>> {
        self.map.get(&addr(node)).map(Option::as_ref)
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no node is recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Records every `Prim`/`let` node of `root`'s subtree that the table
    /// has not seen, in one bottom-up walk (post-order, children left to
    /// right): each node's facts fold from its children's. A recorded
    /// node's whole subtree is recorded, so the walk stops there, and each
    /// node is analysed once however deeply it nests. Iterative, so depth
    /// costs heap, not stack.
    pub fn fill(&mut self, root: &Expr) {
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
                    Expr::FnRef(_) => children.push(Child::Ineligible),
                    _ => match self.map.get(&addr(e)) {
                        Some(Some(_)) => children.push(Child::Node(addr(e))),
                        Some(None) => children.push(Child::Ineligible),
                        None => {
                            stack.push(Step::Finish(e));
                            // Pushed right to left, so they pop left to right.
                            match e {
                                Expr::Prim(_, args) | Expr::Call(_, args) => {
                                    stack.extend(args.iter().rev().map(Step::Visit));
                                }
                                Expr::If(c, t, f) => {
                                    stack.extend([f, t, c].map(|x| Step::Visit(x)));
                                }
                                Expr::Let(_, bound, body) => {
                                    stack.extend([body, bound].map(|x| Step::Visit(x)));
                                }
                                Expr::Lambda(_, body) => stack.push(Step::Visit(body)),
                                Expr::App(f, args) => {
                                    stack.extend(args.iter().rev().map(Step::Visit));
                                    stack.push(Step::Visit(f));
                                }
                                Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => {}
                            }
                        }
                    },
                },
                Step::Finish(e) => {
                    let own = children.len() - arity(e);
                    let result = match e {
                        Expr::Prim(..) | Expr::Let(..) => {
                            let facts = if creates_vector(e) {
                                None
                            } else {
                                self.combine(e, &children[own..])
                            };
                            let result = if facts.is_some() {
                                Child::Node(addr(e))
                            } else {
                                Child::Ineligible
                            };
                            self.map.insert(addr(e), facts);
                            result
                        }
                        _ => Child::Ineligible,
                    };
                    children.truncate(own);
                    children.push(result);
                }
            }
        }
    }

    /// The facts of a `Prim` or `let` node `e` from its children's, in
    /// order; `None` if any child breaks the grammar. Parameters are the
    /// children's in first-occurrence order, less a `let`'s binder in its
    /// body, which is the order [`Expr::free_vars`] visits them in.
    fn combine(&self, e: &Expr, children: &[Child]) -> Option<SubtreeFacts> {
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
                Child::Node(at) => {
                    let f = self.map.get(at)?.as_ref()?;
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
        Some(SubtreeFacts::new(params, size, n_prims))
    }
}

impl fmt::Debug for EligibilityTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EligibilityTable")
            .field("nodes", &self.map.len())
            .finish()
    }
}
