//! The residual builder: the bookkeeping the three specializers share.
//!
//! Figure 2's simple evaluator, Figure 3's online specializer and Section
//! 5's offline specializer differ only in their valuation function. The
//! rest is one job, done here once: minting residual names from one
//! reserved-name set, the specialization cache `Sf` and its cap, the list
//! of residual definitions and its completion check, step and budget
//! charging through the [`Governor`], `let` wrapping, and assembling and
//! validating the final [`Residual`]. The static-evaluation shortcut
//! ([`crate::spec_eval`]) sits behind one driver here as well,
//! [`ResidualBuilder::spec_eval`], so each engine has a single call site.
//!
//! An engine supplies its `Sf` pattern type `P` (the simple evaluator
//! specializes each function once, fully dynamic, so its pattern is `()`;
//! the parameterized engines key on products of facet values) and the
//! value `V` its environment carries next to each residual.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use ppe_core::{FacetSet, PeVal, ProductVal};
use ppe_lang::{Const, Expr, FunDef, Program, Symbol, Value};

use crate::config::PeConfig;
use crate::error::PeError;
use crate::governor::Governor;
use crate::input::{PeStats, Residual};
use crate::spec_eval::{self, SpecState, StaticNode};

/// The specialization environment `ρ : Var → (Exp × V)`, scoped as a
/// stack: each source variable maps to its residual expression and to what
/// the engine knows about its value (`()` for the simple evaluator, a
/// product of facet values for the parameterized ones).
#[derive(Debug)]
pub struct Env<V> {
    stack: Vec<(Symbol, Expr, V)>,
}

impl<V> Default for Env<V> {
    fn default() -> Env<V> {
        Env { stack: Vec::new() }
    }
}

impl<V> Env<V> {
    /// An empty environment.
    pub fn new() -> Env<V> {
        Env::default()
    }

    /// The innermost binding of `x`.
    pub fn lookup(&self, x: Symbol) -> Option<(&Expr, &V)> {
        self.stack
            .iter()
            .rev()
            .find(|(n, _, _)| *n == x)
            .map(|(_, e, v)| (e, v))
    }

    /// Binds `x`, shadowing any outer binding.
    pub fn push(&mut self, x: Symbol, e: Expr, v: V) {
        self.stack.push((x, e, v));
    }

    /// A scope mark for [`Env::reset`].
    pub fn mark(&self) -> usize {
        self.stack.len()
    }

    /// Drops every binding pushed since `mark`.
    pub fn reset(&mut self, mark: usize) {
        self.stack.truncate(mark);
    }

    /// The environment for β-reducing a residual `λ params. body`: each
    /// other free variable of `body` is a residual variable in scope where
    /// the λ is applied, so it stands for itself, with value `value`.
    pub fn closed_over(params: &[Symbol], body: &Expr, value: V) -> Env<V>
    where
        V: Clone,
    {
        let mut free = Vec::new();
        body.free_vars(&mut free);
        let mut env = Env::new();
        for z in free.into_iter().filter(|z| !params.contains(z)) {
            env.push(z, Expr::Var(z), value.clone());
        }
        env
    }

    /// Whether a visible binding of a variable other than `x` has a
    /// residual mentioning the residual variable `x`: a residual binder
    /// named `x` in the scope of this environment would capture it.
    fn denotes(&self, x: Symbol) -> bool {
        self.stack.iter().enumerate().any(|(i, (y, r, _))| {
            *y != x && mentions(r, x) && self.stack[i + 1..].iter().all(|(z, _, _)| z != y)
        })
    }
}

/// Whether residual `r` has `x` free. The engines only bind atomic
/// residuals (constants, variables, function references), which answer
/// without a walk; anything larger gets the full free-variable check.
fn mentions(r: &Expr, x: Symbol) -> bool {
    match r {
        Expr::Var(y) => *y == x,
        Expr::Const(_) | Expr::FnRef(_) => false,
        _ => {
            let mut free = Vec::new();
            r.free_vars(&mut free);
            free.contains(&x)
        }
    }
}

/// What an environment value tells the static-evaluation driver: the
/// product a dynamic variable's facets pin, if the engine tracks one.
pub trait BindingValue {
    /// The product of facet values, when the engine carries one.
    fn product(&self) -> Option<&ProductVal>;
}

impl BindingValue for () {
    fn product(&self) -> Option<&ProductVal> {
        None
    }
}

impl BindingValue for ProductVal {
    fn product(&self) -> Option<&ProductVal> {
        Some(self)
    }
}

/// What `Sf` answered for one `(function, pattern)` probe.
#[derive(Debug)]
pub enum Probe<P, V> {
    /// Fold onto an existing specialization: its residual name and its
    /// result value, `None` while its body is still being specialized
    /// (recursive re-entry).
    Hit(Symbol, Option<V>),
    /// A new specialization under a freshly minted name, at the pattern
    /// finally used (the generalized one if the cap forced it). The engine
    /// specializes the body and hands it to [`ResidualBuilder::complete`].
    Miss(Symbol, P),
}

/// Mutable state of one specialization run over a program that outlives
/// it (`'p`).
#[derive(Debug)]
pub struct ResidualBuilder<'p, P, V> {
    /// `Sf`: pattern → (residual name, result value once known).
    sf: HashMap<(Symbol, P), (Symbol, Option<V>)>,
    max_specializations: usize,
    def_order: Vec<Symbol>,
    /// Residual name → (source function it specializes, definition once
    /// complete).
    defs: HashMap<Symbol, (Symbol, Option<FunDef>)>,
    names: HashSet<Symbol>,
    tmp_counter: u64,
    /// Counters of what the run did.
    pub stats: PeStats,
    /// Budget accounting for the run.
    pub gov: Governor,
    /// Shortcut state when [`PeConfig::spec_eval`] installs a backend.
    spec: Option<SpecState<'p>>,
}

impl<'p, P: Clone + Eq + Hash, V: Clone> ResidualBuilder<'p, P, V> {
    /// A builder for one run of `program` under `config`: the walk visits
    /// `program`'s nodes, whose [`Program::facts`] it reads. `contents_idx`
    /// is the index of the `contents` facet when the engine's environment
    /// carries products that may pin a vector; the static-evaluation
    /// driver then reifies such vectors as arguments.
    pub fn new(
        config: &PeConfig,
        program: &'p Program,
        contents_idx: Option<usize>,
    ) -> ResidualBuilder<'p, P, V> {
        let facts = program.facts();
        ResidualBuilder {
            sf: HashMap::new(),
            max_specializations: config.max_specializations,
            def_order: Vec::new(),
            defs: HashMap::new(),
            // Residual names avoid every name the source spells.
            names: facts.names.clone(),
            tmp_counter: 0,
            stats: PeStats::default(),
            gov: Governor::new(config),
            spec: config
                .spec_eval
                .clone()
                .map(|backend| SpecState::new(backend, &facts.eligibility, contents_idx)),
        }
    }

    /// Charges one walk step: the `steps` counter and one governor tick.
    ///
    /// # Errors
    ///
    /// As for [`Governor::tick`].
    pub fn spend(&mut self) -> Result<(), PeError> {
        self.stats.steps += 1;
        self.gov.tick()
    }

    /// A fresh let-inserted temporary.
    fn fresh_tmp(&mut self) -> Symbol {
        loop {
            self.tmp_counter += 1;
            let candidate = tmp_name(self.tmp_counter);
            if self.names.insert(candidate) {
                return candidate;
            }
        }
    }

    /// The residual name for source binder `x` (of a `let` or a `λ`)
    /// entering the scope of `env`: `x` itself, unless another visible
    /// binding's residual mentions the residual variable `x` — then a
    /// residual binder named `x` would capture it, and a fresh `x_n` is
    /// minted instead. Unfolding is what brings such residuals in: the
    /// callee's parameters are bound to the caller's residual variables.
    pub fn binder<W>(&mut self, x: Symbol, env: &Env<W>) -> Symbol {
        if env.denotes(x) {
            mint(&mut self.names, x)
        } else {
            x
        }
    }

    /// The source function residual function `g` specializes, or `g`
    /// itself when this run did not mint it. Lets `((fnref f_1) e…)` —
    /// a residual function reference applied directly — get the full call
    /// treatment of the function it stands for.
    pub fn source_of(&self, g: Symbol) -> Symbol {
        self.defs.get(&g).map_or(g, |(f, _)| *f)
    }

    /// Binds parameter `param` of a function being unfolded to the
    /// argument `residual`: trivial residuals substitute directly, others
    /// go through a fresh `let` collected in `lets` (preserving strictness
    /// and avoiding duplication).
    pub fn bind_param(
        &mut self,
        param: Symbol,
        residual: Expr,
        value: V,
        env: &mut Env<V>,
        lets: &mut Vec<(Symbol, Expr)>,
    ) {
        if matches!(residual, Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_)) {
            env.push(param, residual, value);
        } else {
            let tmp = self.fresh_tmp();
            lets.push((tmp, residual));
            env.push(param, Expr::Var(tmp), value);
        }
    }

    /// Looks `(f, pattern)` up in `Sf`, counting a hit; on a miss, mints
    /// the residual name of a new specialization and registers it.
    ///
    /// Once `Sf` holds [`PeConfig::max_specializations`] entries, a new
    /// pattern other than `generalized()` trips the governor's cache
    /// budget ([`Governor::cache_full`]: `Fail` errors, `Degrade` records
    /// the trip) and is replaced by the generalized pattern. Generalized
    /// patterns are admitted past the cap: there is at most one per source
    /// function, so `Sf` stays finite.
    ///
    /// # Errors
    ///
    /// [`PeError::SpecializationLimit`] under `Fail` at the cap.
    pub fn probe(
        &mut self,
        f: Symbol,
        pattern: P,
        generalized: impl FnOnce() -> P,
    ) -> Result<Probe<P, V>, PeError> {
        let mut key = (f, pattern);
        // At the cap (rare), settle the pattern before the one probe below.
        if self.sf.len() >= self.max_specializations && !self.sf.contains_key(&key) {
            let general = generalized();
            if key.1 != general {
                self.gov.cache_full(self.max_specializations, f)?;
                key.1 = general;
            }
        }
        match self.sf.entry(key) {
            Entry::Occupied(hit) => {
                self.stats.cache_hits += 1;
                let (name, value) = hit.get();
                Ok(Probe::Hit(*name, value.clone()))
            }
            Entry::Vacant(slot) => {
                let name = mint(&mut self.names, f);
                let pattern = slot.key().1.clone();
                slot.insert((name, None));
                self.def_order.push(name);
                self.defs.insert(name, (f, None));
                self.stats.specializations += 1;
                Ok(Probe::Miss(name, pattern))
            }
        }
    }

    /// Completes the specialization a [`Probe::Miss`] reserved: accounts
    /// the body's residual size to `f`, stores the definition, and records
    /// its result `value` in `Sf` for later folds.
    ///
    /// # Errors
    ///
    /// As for [`Governor::add_residual_size`].
    pub fn complete(
        &mut self,
        f: Symbol,
        pattern: P,
        def: FunDef,
        value: V,
    ) -> Result<(), PeError> {
        self.gov.add_residual_size(def.body.size(), f)?;
        self.defs.insert(def.name, (f, Some(def)));
        if let Some(entry) = self.sf.get_mut(&(f, pattern)) {
            entry.1 = Some(value);
        }
        Ok(())
    }

    /// Assembles the residual program: the entry point `name` with the
    /// `kept` parameters its `body` still mentions (an input consumed
    /// through its facets, like the bytecode vector in interpreter
    /// specialization, drops out), followed by every specialized function
    /// in creation order, validated.
    ///
    /// # Errors
    ///
    /// [`PeError::MalformedResidual`] when a specialization was never
    /// completed or the program does not validate; budget errors as for
    /// [`Governor::add_residual_size`].
    pub fn finish(
        mut self,
        name: Symbol,
        mut kept: Vec<Symbol>,
        body: Expr,
    ) -> Result<Residual, PeError> {
        self.gov.add_residual_size(body.size(), name)?;
        let mut free = Vec::new();
        body.free_vars(&mut free);
        kept.retain(|p| free.contains(p));
        let mut defs = vec![FunDef::new(name, kept, body)];
        for dname in &self.def_order {
            match self.defs.remove(dname) {
                Some((_, Some(d))) => defs.push(d),
                _ => {
                    return Err(PeError::MalformedResidual(format!(
                        "specialized function `{dname}` was never completed"
                    )))
                }
            }
        }
        let program = Program::new(defs)
            .and_then(|p| p.validate().map(|()| p))
            .map_err(PeError::MalformedResidual)?;
        Ok(Residual {
            program,
            stats: self.stats,
            report: self.gov.into_report(),
        })
    }

    /// The static-evaluation shortcut for `node`: its constant value when
    /// the node roots an eligible subtree, every free variable reifies
    /// under `env`, and the backend evaluates it to a first-order
    /// constant. The walk's accounting for the skipped subtree is charged
    /// exactly (see [`crate::spec_eval`]). `Ok(None)` means "walk
    /// normally": nothing was charged.
    ///
    /// # Errors
    ///
    /// As for [`Governor::charge`], at the tick the walk would trip.
    #[inline]
    pub fn spec_eval<N, W>(&mut self, node: &N, env: &Env<W>) -> Result<Option<Const>, PeError>
    where
        N: StaticNode + ?Sized,
        W: BindingValue,
    {
        if self.spec.is_none() || !node.may_root() {
            return Ok(None);
        }
        self.spec_eval_slow(node, env)
    }

    #[inline(never)]
    fn spec_eval_slow<N, W>(&mut self, node: &N, env: &Env<W>) -> Result<Option<Const>, PeError>
    where
        N: StaticNode + ?Sized,
        W: BindingValue,
    {
        let Some(spec) = self.spec.as_mut() else {
            return Ok(None);
        };
        let Some((info, body)) = spec_eval::lookup(spec.source, &mut spec.memo, node) else {
            return Ok(None);
        };
        // Fire only where the walk would finish the subtree without
        // tripping (or soft-degrading) a budget, so skipping it is
        // invisible: the walk would tick `size - 1` more times (the root's
        // tick is spent) and recurse at most `size` frames deeper.
        let extra = u32::try_from(info.size).unwrap_or(u32::MAX);
        if !self.gov.recursion_headroom(extra) || self.gov.remaining_fuel() < info.size - 1 {
            return Ok(None);
        }
        spec.args_buf.clear();
        for &p in &info.params {
            let Some((res, value)) = env.lookup(p) else {
                return Ok(None);
            };
            match res {
                // A constant residual is exactly the value the walk folds
                // with.
                Expr::Const(c) => spec.args_buf.push(Value::from_const(*c)),
                // A dynamic variable may still denote one concrete vector
                // when its contents facet pins every element.
                Expr::Var(_) => {
                    let (Some(ci), Some(product)) = (spec.contents_idx, value.product()) else {
                        return Ok(None);
                    };
                    match spec.reify.get_or_reify(product, ci) {
                        Some(v) => spec.args_buf.push(v),
                        None => return Ok(None),
                    }
                }
                _ => return Ok(None),
            }
        }
        let Some(out) = spec
            .backend
            .eval(info.key(body), body, &info.params, &spec.args_buf)
        else {
            return Ok(None);
        };
        // A non-constant result (a vector flowing out) is not foldable.
        let Some(c) = out.to_const() else {
            return Ok(None);
        };
        self.gov.charge(info.size - 1)?;
        self.stats.steps += info.size - 1;
        self.stats.reductions += info.n_prims;
        Ok(Some(c))
    }

    /// Keeps `lambda`, a residual `λ` whose body the walk has just
    /// β-reduced, alive until the run ends. The shortcut's per-run memo
    /// identifies such bodies' nodes by address, which is sound only while
    /// no other node can be allocated at an address it has seen: a dropped
    /// residual body would free its addresses for reuse.
    pub fn retain_walked(&mut self, lambda: Expr) {
        if let Some(spec) = self.spec.as_mut() {
            spec.walked.push(lambda);
        }
    }

    /// The product a shortcut result `c` abstracts into under `facets`,
    /// memoized per run: interpreter-style workloads fold the same
    /// constants once per unfolding.
    pub fn const_product(&mut self, c: Const, facets: &FacetSet) -> ProductVal {
        match self.spec.as_mut() {
            Some(spec) => spec.products.get_or_insert(c, facets),
            None => ProductVal::from_const(c, facets),
        }
    }
}

impl ResidualBuilder<'_, Vec<ProductVal>, ProductVal> {
    /// `Sf` with instantiation and folding for the parameterized engines:
    /// the residual name of `f` specialized at the product `pattern`, and
    /// the value of a call to it. On a miss, `walk` specializes the body of
    /// `f` in an environment binding each of `params` to its product.
    ///
    /// The call's value keeps the facet components of the body's value but
    /// has PE component `⊤`: a residual call is not a constant (the facet
    /// properties hold for the value *if* the call terminates, the paper's
    /// "modulo termination" reading). A call re-entering a specialization
    /// whose body is still being walked gets the fully dynamic value.
    ///
    /// # Errors
    ///
    /// As for [`ResidualBuilder::probe`] and
    /// [`ResidualBuilder::complete`], and whatever `walk` returns.
    pub fn specialize_at<E: From<PeError>>(
        &mut self,
        f: Symbol,
        params: &[Symbol],
        pattern: Vec<ProductVal>,
        facets: &FacetSet,
        walk: impl FnOnce(&mut Self, &mut Env<ProductVal>) -> Result<(Expr, ProductVal), E>,
    ) -> Result<(Symbol, ProductVal), E> {
        let generalized = || vec![ProductVal::dynamic(facets); params.len()];
        let (name, pattern) = match self.probe(f, pattern, generalized)? {
            Probe::Hit(name, value) => {
                return Ok((name, value.unwrap_or_else(|| ProductVal::dynamic(facets))))
            }
            Probe::Miss(name, pattern) => (name, pattern),
        };
        let mut env = Env::new();
        for (p, v) in params.iter().zip(&pattern) {
            env.push(*p, Expr::Var(*p), v.clone());
        }
        let (body, body_val) = walk(self, &mut env)?;
        let value = body_val.with_pe(PeVal::Top);
        let def = FunDef::new(name, params.to_vec(), body);
        self.complete(f, pattern, def, value.clone())?;
        Ok((name, value))
    }
}

thread_local! {
    /// `tmp_1`, `tmp_2`, … as interned on this thread so far. Every run
    /// numbers its temporaries from 1, so after the first runs a temporary
    /// costs neither a `format!` nor a trip through the global interner.
    static TMP_NAMES: RefCell<Vec<Symbol>> = const { RefCell::new(Vec::new()) };
}

/// The symbol `tmp_n` (`n ≥ 1`).
fn tmp_name(n: u64) -> Symbol {
    TMP_NAMES.with(|names| {
        let mut names = names.borrow_mut();
        while (names.len() as u64) < n {
            let next = names.len() + 1;
            names.push(Symbol::intern(&format!("tmp_{next}")));
        }
        names[n as usize - 1]
    })
}

/// Mints `base_n` for the least `n ≥ 1` not in `names`, and reserves it.
/// A free function over the name set so it can run while an `Sf` entry
/// handle still borrows the cache.
fn mint(names: &mut HashSet<Symbol>, base: Symbol) -> Symbol {
    let mut n = 1u64;
    loop {
        let candidate = Symbol::intern(&format!("{base}_{n}"));
        if names.insert(candidate) {
            return candidate;
        }
        n += 1;
    }
}

/// Wraps `body` in the collected `let`s, innermost last.
pub fn wrap_lets(lets: Vec<(Symbol, Expr)>, body: Expr) -> Expr {
    let mut out = body;
    for (name, bound) in lets.into_iter().rev() {
        out = Expr::Let(name, Box::new(bound), Box::new(out));
    }
    out
}
