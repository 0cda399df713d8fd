//! Pass 4: dependency graph, closure fingerprints, and change impact.
//!
//! The paper's correctness story (Definitions 5–7) makes a residual for
//! entry point `f` a function of `f`'s *reachable closure* only: the
//! definitions `f` can transitively call, plus the facet configuration.
//! Nothing outside that closure can influence the residual, so a sound
//! cache key for "specialize `f`" needs to pin down exactly the closure
//! — not the whole program. This module computes that key component:
//!
//! - a **call graph** over the definitions, built by the same
//!   [`collect_calls`] edge collector the unfold-safety pass uses (one
//!   builder, no drift);
//! - its **SCC condensation** (iterative Tarjan, so deep call chains
//!   cannot overflow the stack);
//! - a per-definition **closure fingerprint**: an order-independent
//!   combination of the *local* fingerprints ([`FunDef::fingerprint`],
//!   spelling-stable) of every definition reachable from it. Members of
//!   one SCC reach the same set, so they combine the same multiset and
//!   mutual recursion needs no special casing; sorting the reachable
//!   set by name before hashing makes the result independent of
//!   definition order and deterministic across runs *and processes* —
//!   which is what lets it key the disk tier.
//!
//! Local fingerprints deliberately use [`FunDef::fingerprint`] rather
//! than the hash-consed [`ppe_lang::term::Term`] fingerprint: the Term
//! interner mixes process-local symbol ids, which is fine for the VM's
//! in-process chunk cache but would silently miss across restarts if
//! embedded in persistent keys.
//!
//! On top of the graph this module derives two diagnostics/reports:
//!
//! - [`check_dead_code`]: `W0005` for definitions unreachable from the
//!   entry point (`main`, i.e. the first definition);
//! - [`impact`]: given the graphs of an old and a new version of a
//!   program, classify every entry point as unchanged / added /
//!   invalidated, and for invalidated entries exhibit a shortest call
//!   path from the entry to a definition whose local fingerprint
//!   changed — the "why was my cache entry dropped" explanation behind
//!   `ppe check --impact`.

use std::collections::{HashMap, HashSet};

use ppe_lang::diag::Diagnostic;
use ppe_lang::{Expr, FunDef, Program, Symbol};

/// Direct-call edges of `e`: every function that evaluating (or
/// specializing) `e` may invoke. `Call` targets are the obvious edges;
/// `FnRef` also counts — a referenced function can flow to an `App` and
/// be applied, so a sound closure must include it. Shared by
/// `callgraph::check_unfolding` and [`DepGraph`] so the two passes can
/// never disagree about what "calls" means.
pub fn collect_calls(e: &Expr, out: &mut HashSet<Symbol>) {
    match e {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::FnRef(f) => {
            out.insert(*f);
        }
        Expr::Prim(_, args) => args.iter().for_each(|a| collect_calls(a, out)),
        Expr::Call(f, args) => {
            out.insert(*f);
            args.iter().for_each(|a| collect_calls(a, out));
        }
        Expr::If(c, t, f) => {
            collect_calls(c, out);
            collect_calls(t, out);
            collect_calls(f, out);
        }
        Expr::Let(_, b, body) => {
            collect_calls(b, out);
            collect_calls(body, out);
        }
        Expr::Lambda(_, body) => collect_calls(body, out),
        Expr::App(f, args) => {
            collect_calls(f, out);
            args.iter().for_each(|a| collect_calls(a, out));
        }
    }
}

/// The dependency graph of a program: call edges, SCC condensation, and
/// per-definition local + transitive-closure fingerprints.
///
/// Building one is `O(defs × edges)` (the per-definition reachability
/// walk dominates); programs here are small enough that this is
/// microseconds. The server builds one per distinct parsed source and
/// caches it alongside the parse.
#[derive(Debug)]
pub struct DepGraph {
    /// Definition names in definition order.
    names: Vec<Symbol>,
    /// Name → index into the parallel vectors.
    index: HashMap<Symbol, usize>,
    /// Per definition: callee indices, sorted by callee spelling and
    /// deduplicated. Calls to unknown functions carry no edge (they are
    /// `E0005` territory, not reachability).
    callees: Vec<Vec<usize>>,
    /// Per definition: spelling-stable [`FunDef::fingerprint`].
    local_fps: Vec<u64>,
    /// Per definition: closure fingerprint over its reachable set.
    closure_fps: Vec<u64>,
    /// Per definition: SCC id (reverse-topological-ish Tarjan order).
    scc_of: Vec<usize>,
    /// Number of SCCs.
    scc_count: usize,
}

impl DepGraph {
    /// Builds the graph for `program`.
    pub fn of_program(program: &Program) -> DepGraph {
        Self::of_defs(program.defs())
    }

    /// Builds the graph for a slice of definitions (first = entry point).
    /// Duplicate names keep the first occurrence, matching
    /// `Program::lookup`'s resolution.
    pub fn of_defs(defs: &[FunDef]) -> DepGraph {
        let names: Vec<Symbol> = defs.iter().map(|d| d.name).collect();
        let mut index = HashMap::with_capacity(defs.len());
        for (i, d) in defs.iter().enumerate() {
            index.entry(d.name).or_insert(i);
        }
        let callees: Vec<Vec<usize>> = defs
            .iter()
            .map(|d| {
                let mut targets = HashSet::new();
                collect_calls(&d.body, &mut targets);
                let mut out: Vec<usize> = targets
                    .iter()
                    .filter_map(|f| index.get(f).copied())
                    .collect();
                out.sort_by_key(|&j| names[j].as_str());
                out.dedup();
                out
            })
            .collect();
        let local_fps: Vec<u64> = defs.iter().map(FunDef::fingerprint).collect();
        let (scc_of, scc_count) = tarjan_sccs(&callees);
        let closure_fps = (0..defs.len())
            .map(|i| {
                let mut reach = reachable_from(i, &callees);
                reach.sort_by_key(|&j| names[j].as_str());
                let mut h = Fnv64::new();
                h.write_u64(reach.len() as u64);
                for j in reach {
                    h.write_str(names[j].as_str());
                    h.write_u64(local_fps[j]);
                }
                h.finish()
            })
            .collect();
        DepGraph {
            names,
            index,
            callees,
            local_fps,
            closure_fps,
            scc_of,
            scc_count,
        }
    }

    /// Definition names, in definition order.
    pub fn names(&self) -> &[Symbol] {
        &self.names
    }

    /// The closure fingerprint of `f`: an order-independent hash of the
    /// `(name, local fingerprint)` pairs of every definition reachable
    /// from `f` (including `f` itself). `None` when `f` is not defined.
    pub fn closure_fingerprint(&self, f: Symbol) -> Option<u64> {
        self.index.get(&f).map(|&i| self.closure_fps[i])
    }

    /// The local (single-definition) fingerprint of `f`.
    pub fn local_fingerprint(&self, f: Symbol) -> Option<u64> {
        self.index.get(&f).map(|&i| self.local_fps[i])
    }

    /// Direct callees of `f`, sorted by spelling.
    pub fn callees(&self, f: Symbol) -> Option<Vec<Symbol>> {
        self.index
            .get(&f)
            .map(|&i| self.callees[i].iter().map(|&j| self.names[j]).collect())
    }

    /// Every definition reachable from `f` (including `f`), sorted by
    /// spelling. `None` when `f` is not defined.
    pub fn reachable(&self, f: Symbol) -> Option<Vec<Symbol>> {
        let &i = self.index.get(&f)?;
        let mut reach: Vec<Symbol> = reachable_from(i, &self.callees)
            .into_iter()
            .map(|j| self.names[j])
            .collect();
        reach.sort_by_key(|s| s.as_str());
        Some(reach)
    }

    /// The SCC id of `f` (Tarjan discovery order; callees' SCCs are
    /// numbered no later than their callers').
    pub fn scc_of(&self, f: Symbol) -> Option<usize> {
        self.index.get(&f).map(|&i| self.scc_of[i])
    }

    /// Number of strongly connected components.
    pub fn scc_count(&self) -> usize {
        self.scc_count
    }

    /// Definitions unreachable from the entry point (the first
    /// definition), in definition order. Empty for an empty def list.
    pub fn unreachable_from_entry(&self) -> Vec<Symbol> {
        if self.names.is_empty() {
            return Vec::new();
        }
        let live: HashSet<usize> = reachable_from(0, &self.callees).into_iter().collect();
        (0..self.names.len())
            .filter(|i| !live.contains(i))
            .map(|i| self.names[i])
            .collect()
    }

    /// A shortest call path `from = g₀ → g₁ → … → to` (BFS over
    /// spelling-sorted callees, so deterministic). `None` when either
    /// endpoint is undefined or `to` is unreachable from `from`.
    pub fn call_path(&self, from: Symbol, to: Symbol) -> Option<Vec<Symbol>> {
        let &start = self.index.get(&from)?;
        let &goal = self.index.get(&to)?;
        if start == goal {
            return Some(vec![from]);
        }
        let mut prev: HashMap<usize, usize> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([start]);
        let mut seen = HashSet::from([start]);
        while let Some(v) = queue.pop_front() {
            for &w in &self.callees[v] {
                if seen.insert(w) {
                    prev.insert(w, v);
                    if w == goal {
                        let mut path = vec![w];
                        let mut cur = w;
                        while cur != start {
                            cur = prev[&cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path.into_iter().map(|i| self.names[i]).collect());
                    }
                    queue.push_back(w);
                }
            }
        }
        None
    }
}

/// All indices reachable from `start` (including `start`) by DFS.
fn reachable_from(start: usize, callees: &[Vec<usize>]) -> Vec<usize> {
    let mut seen = HashSet::from([start]);
    let mut stack = vec![start];
    let mut out = vec![start];
    while let Some(v) = stack.pop() {
        for &w in &callees[v] {
            if seen.insert(w) {
                out.push(w);
                stack.push(w);
            }
        }
    }
    out
}

/// Iterative Tarjan: returns `(scc id per node, scc count)`. Iterative
/// because object programs can be machine-generated with call chains
/// deeper than the default thread stack.
fn tarjan_sccs(callees: &[Vec<usize>]) -> (Vec<usize>, usize) {
    let n = callees.len();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![0usize; n];
    let mut next_disc = 0usize;
    let mut scc_count = 0usize;
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(root, 0)];
        disc[root] = next_disc;
        low[root] = next_disc;
        next_disc += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&(v, i)) = work.last() {
            if i < callees[v].len() {
                work.last_mut().expect("non-empty").1 += 1;
                let w = callees[v][i];
                if disc[w] == usize::MAX {
                    disc[w] = next_disc;
                    low[w] = next_disc;
                    next_disc += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == disc[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc_of[w] = scc_count;
                        if w == v {
                            break;
                        }
                    }
                    scc_count += 1;
                }
            }
        }
    }
    (scc_of, scc_count)
}

/// `W0005`: definitions unreachable from the entry point. Emitted from
/// the condensed graph so mutually recursive dead clusters are reported
/// even though they "call each other". Skipped when the defs don't form
/// a valid `Program` (duplicates/empty) — well-formedness errors already
/// block everything downstream.
pub fn check_dead_code(defs: &[FunDef], out: &mut Vec<Diagnostic>) {
    let Ok(program) = Program::new(defs.to_vec()) else {
        return;
    };
    let graph = DepGraph::of_program(&program);
    let entry = program.main().name;
    for name in graph.unreachable_from_entry() {
        out.push(
            Diagnostic::warning(
                "W0005",
                format!(
                    "`{name}` is dead code: unreachable from the entry point `{entry}` \
                     (no call path from `{entry}` reaches it)"
                ),
            )
            .in_function(name),
        );
    }
}

/// How one entry point is affected by an edit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EntryImpact {
    /// Closure fingerprint unchanged: every cached residual keyed on it
    /// is still valid.
    Unchanged,
    /// The definition is new in the edited program.
    Added,
    /// Something reachable changed.
    Invalidated {
        /// A reachable definition whose local fingerprint differs (or is
        /// new in the edited program).
        changed: Symbol,
        /// A shortest call path from the entry to `changed`, inclusive
        /// of both ends.
        via: Vec<Symbol>,
    },
}

/// Per-entry impact of editing `old` into `new`, plus the definitions
/// that were removed outright.
#[derive(Clone, Debug)]
pub struct ImpactReport {
    /// One row per definition of the *new* program, sorted by name.
    pub entries: Vec<(Symbol, EntryImpact)>,
    /// Definitions present in `old` but not in `new`, sorted by name.
    pub removed: Vec<Symbol>,
}

/// Classifies every definition of `new` against `old`.
///
/// Soundness of the `Unchanged` verdict is exactly the closure-key
/// argument: equal closure fingerprints mean (modulo hash collisions)
/// the reachable definitions are pairwise identical, and by Definitions
/// 5–7 the residual for the entry depends on nothing else. For
/// `Invalidated` entries a witness always exists: if every definition
/// reachable in `new` had an unchanged local fingerprint, the bodies —
/// hence the edges, hence the reachable set, hence the closure
/// fingerprint — would all be unchanged, contradicting the fingerprint
/// mismatch. The BFS finds the nearest such witness.
pub fn impact(old: &DepGraph, new: &DepGraph) -> ImpactReport {
    let old_names: HashSet<Symbol> = old.names().iter().copied().collect();
    let new_names: HashSet<Symbol> = new.names().iter().copied().collect();

    let mut entries: Vec<(Symbol, EntryImpact)> = new_names
        .iter()
        .map(|&f| {
            let verdict = if !old_names.contains(&f) {
                EntryImpact::Added
            } else if old.closure_fingerprint(f) == new.closure_fingerprint(f) {
                EntryImpact::Unchanged
            } else {
                // BFS from f (spelling-sorted callees → deterministic)
                // to the nearest definition whose local fingerprint is
                // new or changed.
                let witness = new
                    .reachable(f)
                    .unwrap_or_default()
                    .into_iter()
                    .filter(|&d| old.local_fingerprint(d) != new.local_fingerprint(d))
                    .filter_map(|d| new.call_path(f, d))
                    .min_by_key(|path| (path.len(), path.last().map(|s| s.as_str())));
                match witness {
                    Some(via) => EntryImpact::Invalidated {
                        changed: *via.last().expect("path is non-empty"),
                        via,
                    },
                    // Unreachable in practice (see the doc argument);
                    // degrade to blaming the entry itself.
                    None => EntryImpact::Invalidated {
                        changed: f,
                        via: vec![f],
                    },
                }
            };
            (f, verdict)
        })
        .collect();
    entries.sort_by_key(|(f, _)| f.as_str());

    let mut removed: Vec<Symbol> = old_names.difference(&new_names).copied().collect();
    removed.sort_by_key(|s| s.as_str());
    ImpactReport { entries, removed }
}

/// The same FNV-1a combiner `ppe_lang` uses for spelling-stable hashes;
/// duplicated here (it is four lines of arithmetic) rather than exported
/// as public lang API.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, n: u64) {
        for b in n.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-prefixed, matching `ppe_lang`'s convention.
    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for b in s.as_bytes() {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppe_lang::parse_program;

    fn graph(src: &str) -> DepGraph {
        DepGraph::of_program(&parse_program(src).unwrap())
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    const CHAIN: &str = "(define (top x) (mid x))\n\
                         (define (mid x) (leaf x))\n\
                         (define (leaf x) (+ x 1))\n\
                         (define (orphan x) (* x 2))";

    #[test]
    fn reachability_and_dead_code() {
        let g = graph(CHAIN);
        assert_eq!(
            g.reachable(sym("top")).unwrap(),
            vec![sym("leaf"), sym("mid"), sym("top")]
        );
        assert_eq!(g.reachable(sym("leaf")).unwrap(), vec![sym("leaf")]);
        assert_eq!(g.unreachable_from_entry(), vec![sym("orphan")]);
        assert_eq!(g.closure_fingerprint(sym("missing")), None);
    }

    #[test]
    fn closure_fp_ignores_unreachable_edits_but_sees_reachable_ones() {
        let g = graph(CHAIN);
        let edited_orphan = graph(&CHAIN.replace("(* x 2)", "(* x 3)"));
        let edited_leaf = graph(&CHAIN.replace("(+ x 1)", "(+ x 9)"));
        let top = sym("top");
        assert_eq!(
            g.closure_fingerprint(top),
            edited_orphan.closure_fingerprint(top),
            "editing a def unreachable from `top` must not move its closure fp"
        );
        assert_ne!(
            g.closure_fingerprint(top),
            edited_leaf.closure_fingerprint(top),
            "editing a def `top` reaches must move its closure fp"
        );
        // The leaf edit invalidates the whole chain above it…
        assert_ne!(
            g.closure_fingerprint(sym("mid")),
            edited_leaf.closure_fingerprint(sym("mid"))
        );
        // …but not the sibling orphan.
        assert_eq!(
            g.closure_fingerprint(sym("orphan")),
            edited_leaf.closure_fingerprint(sym("orphan"))
        );
    }

    #[test]
    fn closure_fp_is_definition_order_independent() {
        let g = graph(CHAIN);
        let shuffled = graph(
            "(define (top x) (mid x))\n\
             (define (orphan x) (* x 2))\n\
             (define (leaf x) (+ x 1))\n\
             (define (mid x) (leaf x))",
        );
        for f in ["top", "mid", "leaf", "orphan"] {
            assert_eq!(
                g.closure_fingerprint(sym(f)),
                shuffled.closure_fingerprint(sym(f)),
                "closure fp of `{f}` must not depend on definition order"
            );
        }
    }

    #[test]
    fn mutual_recursion_forms_one_scc_with_equal_closure_fps_per_member_set() {
        let g = graph(
            "(define (evn n) (if (= n 0) 1 (odd (- n 1))))\n\
             (define (odd n) (if (= n 0) 0 (evn (- n 1))))",
        );
        assert_eq!(g.scc_of(sym("evn")), g.scc_of(sym("odd")));
        assert_eq!(g.scc_count(), 1);
        // Both members reach the same set, and the closure hash is over
        // the reachable *set* (not the starting point), so it is
        // identical for every member of an SCC.
        assert_eq!(
            g.closure_fingerprint(sym("evn")),
            g.closure_fingerprint(sym("odd"))
        );
    }

    #[test]
    fn fnref_counts_as_an_edge() {
        // A bare known-function name parses as `Expr::FnRef`.
        let g = graph(
            "(define (main x) (let ((g helper)) (g x)))\n\
             (define (helper x) (+ x 1))",
        );
        assert_eq!(g.callees(sym("main")).unwrap(), vec![sym("helper")]);
        assert!(g.unreachable_from_entry().is_empty());
    }

    #[test]
    fn call_path_is_shortest_and_deterministic() {
        let g = graph(
            "(define (a x) (if (b x) (c x) x))\n\
             (define (b x) (d x))\n\
             (define (c x) (d x))\n\
             (define (d x) x)",
        );
        assert_eq!(
            g.call_path(sym("a"), sym("d")).unwrap(),
            vec![sym("a"), sym("b"), sym("d")],
            "ties break toward the alphabetically first callee"
        );
        assert_eq!(g.call_path(sym("d"), sym("a")), None);
        assert_eq!(g.call_path(sym("a"), sym("a")).unwrap(), vec![sym("a")]);
    }

    #[test]
    fn impact_classifies_entries() {
        let old = graph(CHAIN);
        let new = graph(&format!(
            "{}\n(define (fresh x) x)",
            CHAIN.replace("(+ x 1)", "(+ x 9)")
        ));
        let report = impact(&old, &new);
        let by_name: HashMap<Symbol, EntryImpact> = report.entries.into_iter().collect();
        assert_eq!(by_name[&sym("fresh")], EntryImpact::Added);
        assert_eq!(by_name[&sym("orphan")], EntryImpact::Unchanged);
        assert_eq!(
            by_name[&sym("leaf")],
            EntryImpact::Invalidated {
                changed: sym("leaf"),
                via: vec![sym("leaf")],
            }
        );
        assert_eq!(
            by_name[&sym("top")],
            EntryImpact::Invalidated {
                changed: sym("leaf"),
                via: vec![sym("top"), sym("mid"), sym("leaf")],
            }
        );
        assert!(report.removed.is_empty());
        let shrunk = impact(&new, &old);
        assert_eq!(shrunk.removed, vec![sym("fresh")]);
    }

    #[test]
    fn dead_code_diagnostic_names_entry_and_orphan() {
        let program = parse_program(CHAIN).unwrap();
        let mut out = Vec::new();
        check_dead_code(program.defs(), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "W0005");
        assert!(out[0].message.contains("`orphan`"), "{}", out[0].message);
        assert!(out[0].message.contains("`top`"), "{}", out[0].message);
    }
}
