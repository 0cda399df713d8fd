//! The online parameterized partial evaluator — Figure 3 of the paper.
//!
//! `PE` threads `(residual expression, product of facet values)` through
//! the program; the specialization cache `Sf` maps `(function, product
//! pattern)` to residual function names, achieving "instantiation and
//! folding … and uniqueness of specialized functions" (Section 2). The
//! call policy (the paper's abstracted `APP`) is:
//!
//! - a call with some *constant* argument is **unfolded**, up to
//!   [`crate::PeConfig::max_unfold_depth`] (with let-insertion for
//!   non-trivial argument expressions, preserving strictness);
//! - a call with facet information but no constants is **specialized**:
//!   folded onto a cache entry keyed by the products of facet values;
//! - past the unfold budget, arguments are **generalized** to fully
//!   dynamic before specializing, guaranteeing one cache entry per
//!   function and hence termination.

use ppe_core::{FacetSet, PeVal, PrimOutcome, ProductVal};
use ppe_lang::{Expr, FunDef, Program, Symbol};

use crate::builder::{wrap_lets, Env, ResidualBuilder};
use crate::config::PeConfig;
use crate::error::PeError;
use crate::input::{PeInput, Residual};

/// The online parameterized partial evaluator (Figure 3).
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug)]
pub struct OnlinePe<'a> {
    program: &'a Program,
    facets: &'a FacetSet,
    config: PeConfig,
}

/// The specialization environment `ρ : Var → (Exp × D̂)` of Figure 3.
type PeEnv = Env<ProductVal>;

/// Run state: the builder keyed by products of facet values (`Sf` maps
/// `(function, product pattern)` to the residual name and, once known, the
/// result product, which lets callers keep facet information across folded
/// calls).
type St<'p> = ResidualBuilder<'p, Vec<ProductVal>, ProductVal>;

impl<'a> OnlinePe<'a> {
    /// Creates a specializer for `program` parameterized by `facets`, with
    /// the default policy.
    pub fn new(program: &'a Program, facets: &'a FacetSet) -> OnlinePe<'a> {
        OnlinePe {
            program,
            facets,
            config: PeConfig::default(),
        }
    }

    /// Creates a specializer with an explicit policy.
    pub fn with_config(
        program: &'a Program,
        facets: &'a FacetSet,
        config: PeConfig,
    ) -> OnlinePe<'a> {
        OnlinePe {
            program,
            facets,
            config,
        }
    }

    /// Specializes the program's main function with respect to `inputs`
    /// (the paper's `PE_Prog`).
    ///
    /// # Errors
    ///
    /// See [`PeError`] for the failure modes (unknown facet, arity
    /// mismatch, exhausted budgets).
    pub fn specialize_main(&self, inputs: &[PeInput]) -> Result<Residual, PeError> {
        self.specialize(self.program.main().name, inputs)
    }

    /// Specializes an arbitrary defined function with respect to `inputs`.
    ///
    /// The residual program's entry point keeps the original function name
    /// and only the parameters whose inputs were not first-order
    /// constants.
    ///
    /// # Errors
    ///
    /// As for [`OnlinePe::specialize_main`].
    pub fn specialize(&self, name: Symbol, inputs: &[PeInput]) -> Result<Residual, PeError> {
        let def = self
            .program
            .lookup(name)
            .ok_or(PeError::UnknownFunction(name))?;
        if def.arity() != inputs.len() {
            return Err(PeError::InputArity {
                function: name,
                expected: def.arity(),
                got: inputs.len(),
            });
        }
        let mut st = St::new(&self.config, self.program, self.facets.index_of("contents"));
        let mut env = PeEnv::new();
        let mut kept_params = Vec::new();
        let candidates = if self.config.check_consistency {
            ppe_core::consistency::default_candidates()
        } else {
            Vec::new()
        };
        for (param, input) in def.params.iter().zip(inputs) {
            let product = input.to_product(self.facets)?;
            if self.config.check_consistency {
                ppe_core::consistency::check_consistent(&product, self.facets, &candidates)
                    .map_err(|_| PeError::InconsistentInput(format!("{param} = {product}")))?;
            }
            if let PeVal::Const(c) = product.pe() {
                env.push(*param, Expr::Const(*c), product);
            } else {
                kept_params.push(*param);
                env.push(*param, Expr::Var(*param), product);
            }
        }
        let (body, _) = self.pe(&def.body, &mut env, 0, &mut st)?;
        st.finish(name, kept_params, body)
    }

    /// The valuation function `PE` of Figure 3, behind the governor's
    /// recursion guard: a runaway walk surfaces as
    /// [`PeError::DepthLimit`] instead of a native stack overflow.
    fn pe(
        &self,
        e: &Expr,
        env: &mut PeEnv,
        depth: u32,
        st: &mut St,
    ) -> Result<(Expr, ProductVal), PeError> {
        st.gov.enter_recursion()?;
        let out = self.pe_inner(e, env, depth, st);
        st.gov.exit_recursion();
        out
    }

    fn pe_inner(
        &self,
        e: &Expr,
        env: &mut PeEnv,
        depth: u32,
        st: &mut St,
    ) -> Result<(Expr, ProductVal), PeError> {
        st.spend()?;
        if let Some(c) = st.spec_eval(e, env)? {
            return Ok((Expr::Const(c), st.const_product(c, self.facets)));
        }
        match e {
            // PE[c] = K̂[c]: the constant propagates into every facet.
            Expr::Const(c) => Ok((Expr::Const(*c), ProductVal::from_const(*c, self.facets))),
            // PE[x] = ρ[x].
            Expr::Var(x) => {
                let (res, val) = env
                    .lookup(*x)
                    .ok_or_else(|| PeError::MalformedResidual(format!("unbound `{x}`")))?;
                Ok((res.clone(), val.clone()))
            }
            // PE[p(e…)] = K̂_P[p] — the product operator ω̂_p decides.
            Expr::Prim(p, args) => {
                let mut residuals = Vec::with_capacity(args.len());
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    let (r, v) = self.pe(a, env, depth, st)?;
                    residuals.push(r);
                    vals.push(v);
                }
                match self.facets.prim_product(*p, &vals) {
                    PrimOutcome::Const(c) => {
                        st.stats.reductions += 1;
                        Ok((Expr::Const(c), ProductVal::from_const(c, self.facets)))
                    }
                    PrimOutcome::Closed(v) => {
                        st.stats.residual_prims += 1;
                        Ok((Expr::Prim(*p, residuals), v))
                    }
                    PrimOutcome::Unknown => {
                        st.stats.residual_prims += 1;
                        Ok((Expr::Prim(*p, residuals), ProductVal::dynamic(self.facets)))
                    }
                    PrimOutcome::Bottom => {
                        st.stats.residual_prims += 1;
                        Ok((Expr::Prim(*p, residuals), ProductVal::bottom(self.facets)))
                    }
                }
            }
            // PE[if e₁ e₂ e₃]: reduce when the test is a constant,
            // otherwise specialize both branches and join their values.
            Expr::If(c, t, f) => {
                let (cr, _cv) = self.pe(c, env, depth, st)?;
                if let Expr::Const(cc) = cr {
                    if let Some(b) = cc.as_bool() {
                        st.stats.static_branches += 1;
                        return self.pe(if b { t } else { f }, env, depth, st);
                    }
                }
                st.stats.dynamic_branches += 1;
                let (tr, tv) = self.pe_branch(t, &cr, true, env, depth, st)?;
                let (fr, fv) = self.pe_branch(f, &cr, false, env, depth, st)?;
                Ok((
                    Expr::If(Box::new(cr), Box::new(tr), Box::new(fr)),
                    tv.join(&fv, self.facets),
                ))
            }
            // `let` is not in Figure 3 (it is sugar) but its treatment is
            // forced: bind and drop when the bound residual is trivial,
            // keep the binding otherwise.
            Expr::Let(x, b, body) => {
                let (br, bv) = self.pe(b, env, depth, st)?;
                let mark = env.mark();
                if matches!(br, Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_)) {
                    env.push(*x, br, bv);
                    let out = self.pe(body, env, depth, st);
                    env.reset(mark);
                    out
                } else {
                    let xr = st.binder(*x, env);
                    env.push(*x, Expr::Var(xr), bv);
                    let (bodyr, bodyv) = self.pe(body, env, depth, st)?;
                    env.reset(mark);
                    Ok((Expr::Let(xr, Box::new(br), Box::new(bodyr)), bodyv))
                }
            }
            // PE[f(e…)] = APP.
            Expr::Call(f, args) => {
                let mut residuals = Vec::with_capacity(args.len());
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    let (r, v) = self.pe(a, env, depth, st)?;
                    residuals.push(r);
                    vals.push(v);
                }
                self.app(*f, residuals, vals, depth, st)
            }
            // Higher-order forms (Section 5.5; "the techniques for higher
            // order online partial evaluation are now known").
            Expr::FnRef(f) => {
                // Keep the reference applicable in the residual program by
                // pointing it at a fully generalized specialization.
                let spec = self.generalized_spec(*f, st)?;
                Ok((Expr::FnRef(spec), ProductVal::dynamic(self.facets)))
            }
            Expr::Lambda(params, body) => {
                let mark = env.mark();
                let residual_params: Vec<Symbol> =
                    params.iter().map(|p| st.binder(*p, env)).collect();
                for (p, pr) in params.iter().zip(&residual_params) {
                    env.push(*p, Expr::Var(*pr), ProductVal::dynamic(self.facets));
                }
                let (br, _) = self.pe(body, env, depth, st)?;
                env.reset(mark);
                Ok((
                    Expr::Lambda(residual_params, Box::new(br)),
                    ProductVal::dynamic(self.facets),
                ))
            }
            Expr::App(f, args) => {
                let (fr, _fv) = self.pe(f, env, depth, st)?;
                let mut residuals = Vec::with_capacity(args.len());
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    let (r, v) = self.pe(a, env, depth, st)?;
                    residuals.push(r);
                    vals.push(v);
                }
                match fr {
                    // A known top-level target turns into a first-order
                    // call and enjoys the full APP treatment.
                    Expr::FnRef(g) => {
                        let original = st.source_of(g);
                        self.app(original, residuals, vals, depth, st)
                    }
                    // A manifest λ β-reduces (with let-insertion) while the
                    // unfold budget and the governor allow it.
                    Expr::Lambda(params, body)
                        if depth < self.config.max_unfold_depth && !st.gov.is_exhausted() =>
                    {
                        st.stats.unfolds += 1;
                        let dynamic = ProductVal::dynamic(self.facets);
                        let mut inner = PeEnv::closed_over(&params, &body, dynamic);
                        let mut lets = Vec::new();
                        for ((p, r), v) in params.iter().zip(residuals).zip(vals) {
                            st.bind_param(*p, r, v, &mut inner, &mut lets);
                        }
                        let (out, val) = self.pe(&body, &mut inner, depth + 1, st)?;
                        st.retain_walked(Expr::Lambda(params, body));
                        Ok((wrap_lets(lets, out), val))
                    }
                    other => Ok((
                        Expr::App(Box::new(other), residuals),
                        ProductVal::dynamic(self.facets),
                    )),
                }
            }
        }
    }

    /// Specializes one branch of a residual conditional; when constraint
    /// propagation is enabled (Section 4.4's future work, Redfun-style),
    /// the knowledge that the test evaluated to `outcome` is pushed into
    /// the branch environment first.
    fn pe_branch(
        &self,
        branch: &Expr,
        cond_residual: &Expr,
        outcome: bool,
        env: &mut PeEnv,
        depth: u32,
        st: &mut St,
    ) -> Result<(Expr, ProductVal), PeError> {
        if !self.config.propagate_constraints {
            return self.pe(branch, env, depth, st);
        }
        let mark = env.mark();
        self.assume_cond(cond_residual, outcome, env);
        let out = self.pe(branch, env, depth, st);
        env.reset(mark);
        out
    }

    /// Pushes refined bindings implied by `cond_residual == outcome` onto
    /// `env` (scoped by the caller via mark/reset).
    fn assume_cond(&self, cond: &Expr, outcome: bool, env: &mut PeEnv) {
        match cond {
            // A bare boolean variable: it *is* `outcome` in this branch.
            Expr::Var(x) => {
                if let Some((res, val)) = env.lookup(*x) {
                    let (res, val) = (res.clone(), val.clone());
                    if !val.pe().is_const() {
                        let c = ppe_lang::Const::Bool(outcome);
                        let _ = res;
                        env.push(*x, Expr::Const(c), ProductVal::from_const(c, self.facets));
                    }
                }
            }
            // (not e): recurse with the outcome flipped.
            Expr::Prim(ppe_lang::Prim::Not, args) => {
                self.assume_cond(&args[0], !outcome, env);
            }
            // A binary comparison over variables/constants.
            Expr::Prim(p, cargs) if cargs.len() == 2 => {
                use ppe_lang::Prim;
                if !matches!(
                    p,
                    Prim::Lt | Prim::Le | Prim::Gt | Prim::Ge | Prim::Eq | Prim::Ne
                ) {
                    return;
                }
                // Values of both sides, available only for trivial
                // residuals (which is where refinement is useful anyway).
                let side_val = |e: &Expr| -> Option<(Option<Symbol>, Expr, ProductVal)> {
                    match e {
                        Expr::Var(x) => env
                            .lookup(*x)
                            .map(|(res, val)| (Some(*x), res.clone(), val.clone())),
                        Expr::Const(c) => {
                            Some((None, e.clone(), ProductVal::from_const(*c, self.facets)))
                        }
                        _ => None,
                    }
                };
                let Some(left) = side_val(&cargs[0]) else {
                    return;
                };
                let Some(right) = side_val(&cargs[1]) else {
                    return;
                };
                let vals = [left.2.clone(), right.2.clone()];
                let is_equality = (*p == Prim::Eq && outcome) || (*p == Prim::Ne && !outcome);
                let mut pending: Vec<(Symbol, Expr, ProductVal)> = Vec::new();
                for (position, side) in [&left, &right].into_iter().enumerate() {
                    let Some(x) = side.0 else { continue };
                    let other = &vals[1 - position];
                    // Equality against a constant: the variable *is* that
                    // constant in this branch — unless it is a float zero,
                    // which `=` does not tell from the other zero.
                    if is_equality {
                        let exact = other
                            .pe()
                            .as_const()
                            .filter(|c| !matches!(c, ppe_lang::Const::Float(x) if x.get() == 0.0));
                        if let Some(c) = exact {
                            pending.push((
                                x,
                                Expr::Const(c),
                                ProductVal::from_const(c, self.facets),
                            ));
                            continue;
                        }
                    }
                    // Facet-level refinement through `assume`.
                    let mut val = side.2.clone();
                    let mut changed = false;
                    for (i, facet) in self.facets.iter().enumerate() {
                        let wrapped: Vec<ppe_core::FacetArg<'_>> = vals
                            .iter()
                            .map(|v| ppe_core::FacetArg {
                                pe: v.pe(),
                                abs: v.facet(i),
                            })
                            .collect();
                        if let Some(abs) = facet.assume(*p, &wrapped, outcome, position) {
                            val = val.with_facet(i, abs);
                            changed = true;
                        }
                    }
                    if changed {
                        pending.push((x, side.1.clone(), val));
                    }
                }
                for (x, res, val) in pending {
                    env.push(x, res, val);
                }
            }
            _ => {}
        }
    }

    /// The call treatment `APP` (abstracted in Figure 3; policy documented
    /// at module level).
    fn app(
        &self,
        f: Symbol,
        residuals: Vec<Expr>,
        vals: Vec<ProductVal>,
        depth: u32,
        st: &mut St,
    ) -> Result<(Expr, ProductVal), PeError> {
        let def = self.program.lookup(f).ok_or(PeError::UnknownFunction(f))?;
        // Static information worth unfolding over: a constant argument, or
        // a *known function value* (the lever of higher-order
        // specialization: combinators unfold when their functional
        // arguments are manifest).
        let has_static = vals.iter().any(|v| v.pe().is_const())
            || residuals
                .iter()
                .any(|r| matches!(r, Expr::FnRef(_) | Expr::Lambda(..)));
        if has_static && st.gov.may_unfold(depth, self.config.max_unfold_depth, f) {
            // Unfold: static data present.
            st.stats.unfolds += 1;
            let mut inner = PeEnv::new();
            let mut lets = Vec::new();
            for ((p, r), v) in def.params.iter().zip(residuals).zip(vals) {
                st.bind_param(*p, r, v, &mut inner, &mut lets);
            }
            let (out, val) = self.pe(&def.body, &mut inner, depth + 1, st)?;
            return Ok((wrap_lets(lets, out), val));
        }
        // Specialize. Past the unfold budget (or once the governor is
        // exhausted) the pattern is generalized to fully dynamic so that
        // the cache stays finite.
        let pattern: Vec<ProductVal> =
            if st.gov.must_generalize(depth, self.config.max_unfold_depth) {
                vec![ProductVal::dynamic(self.facets); vals.len()]
            } else {
                vals.iter()
                    .map(|v| {
                        if v.is_bottom(self.facets) {
                            ProductVal::bottom(self.facets)
                        } else {
                            v.clone()
                        }
                    })
                    .collect()
            };
        let (spec, value) = self.specialized_fn(f, def, pattern, st)?;
        Ok((Expr::Call(spec, residuals), value))
    }

    /// A specialization of `f` at a fully dynamic pattern, for residual
    /// function references.
    fn generalized_spec(&self, f: Symbol, st: &mut St) -> Result<Symbol, PeError> {
        let def = self.program.lookup(f).ok_or(PeError::UnknownFunction(f))?;
        let pattern = vec![ProductVal::dynamic(self.facets); def.arity()];
        Ok(self.specialized_fn(f, def, pattern, st)?.0)
    }

    /// Looks up or creates the specialized version of `f` at `pattern` —
    /// the cache `Sf` with instantiation and folding. Depth resets inside a
    /// specialization body: unfolding is budgeted per call chain, and the
    /// cache guarantees overall termination.
    fn specialized_fn(
        &self,
        f: Symbol,
        def: &FunDef,
        pattern: Vec<ProductVal>,
        st: &mut St,
    ) -> Result<(Symbol, ProductVal), PeError> {
        st.specialize_at(f, &def.params, pattern, self.facets, |st, env| {
            self.pe(&def.body, env, 0, st)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::PeInput;
    use ppe_core::facets::{ParityFacet, ParityVal, SignFacet, SignVal, SizeFacet};
    use ppe_core::{size_of, AbsVal};
    use ppe_lang::{parse_program, pretty_program, Const, Evaluator, Value};

    const IPROD: &str = "(define (iprod a b) (let ((n (vsize a))) (dotprod a b n)))
         (define (dotprod a b n)
           (if (= n 0) 0.0
               (+ (* (vref a n) (vref b n)) (dotprod a b (- n 1)))))";

    fn size_facets() -> FacetSet {
        FacetSet::with_facets(vec![Box::new(SizeFacet)])
    }

    fn sign_facets() -> FacetSet {
        FacetSet::with_facets(vec![Box::new(SignFacet)])
    }

    #[test]
    fn inner_product_unrolls_to_figure_8() {
        let p = parse_program(IPROD).unwrap();
        let facets = size_facets();
        let pe = OnlinePe::new(&p, &facets);
        let r = pe
            .specialize_main(&[
                PeInput::dynamic().with_facet("size", size_of(3)),
                PeInput::dynamic().with_facet("size", size_of(3)),
            ])
            .unwrap();
        // One residual function (iprod), non-recursive, fully unrolled.
        assert_eq!(r.program.defs().len(), 1);
        let printed = pretty_program(&r.program);
        // Figure 8's shape: three vref pairs at indices 3, 2, 1; no
        // conditional, no call to dotprod.
        for i in 1..=3 {
            assert!(printed.contains(&format!("(vref a {i})")), "{printed}");
            assert!(printed.contains(&format!("(vref b {i})")), "{printed}");
        }
        assert!(!printed.contains("dotprod"), "{printed}");
        assert!(!printed.contains("if"), "{printed}");
        assert_eq!(r.stats.static_branches, 4); // n = 3, 2, 1, 0
    }

    #[test]
    fn figure_8_residual_computes_the_inner_product() {
        let p = parse_program(IPROD).unwrap();
        let facets = size_facets();
        let r = OnlinePe::new(&p, &facets)
            .specialize_main(&[
                PeInput::dynamic().with_facet("size", size_of(3)),
                PeInput::dynamic().with_facet("size", size_of(3)),
            ])
            .unwrap();
        let a = Value::vector(vec![
            Value::Float(1.0),
            Value::Float(2.0),
            Value::Float(3.0),
        ]);
        let b = Value::vector(vec![
            Value::Float(4.0),
            Value::Float(5.0),
            Value::Float(6.0),
        ]);
        let expected = Evaluator::new(&p)
            .run_main(&[a.clone(), b.clone()])
            .unwrap();
        let got = Evaluator::new(&r.program).run_main(&[a, b]).unwrap();
        assert_eq!(expected, got);
        assert_eq!(got, Value::Float(32.0));
    }

    #[test]
    fn known_vector_inputs_work_like_size_refinements() {
        let p = parse_program(IPROD).unwrap();
        let facets = size_facets();
        let a = Value::vector(vec![Value::Float(1.0), Value::Float(2.0)]);
        let r = OnlinePe::new(&p, &facets)
            .specialize_main(&[PeInput::known(a), PeInput::dynamic()])
            .unwrap();
        // Size of `a` is known (2); `b`'s size is not needed for the
        // unrolling because only (vsize a) is consulted.
        let printed = pretty_program(&r.program);
        assert!(printed.contains("(vref a 2)"), "{printed}");
        assert!(!printed.contains("dotprod"), "{printed}");
    }

    #[test]
    fn sign_facet_eliminates_dead_branches() {
        // abs(x) with x known positive loses its conditional entirely.
        let src = "(define (abs x) (if (< x 0) (neg x) x))";
        let p = parse_program(src).unwrap();
        let facets = sign_facets();
        let r = OnlinePe::new(&p, &facets)
            .specialize_main(&[PeInput::dynamic().with_facet("sign", AbsVal::new(SignVal::Pos))])
            .unwrap();
        assert_eq!(r.program.main().body, Expr::var("x"));
        assert_eq!(r.stats.static_branches, 1);
    }

    #[test]
    fn closed_operators_propagate_facet_values_through_lets() {
        // y = x * x is `pos` when x is neg, so the branch on y < 0 dies.
        let src = "(define (f x) (let ((y (* x x))) (if (< y 0) 0 1)))";
        let p = parse_program(src).unwrap();
        let facets = sign_facets();
        let r = OnlinePe::new(&p, &facets)
            .specialize_main(&[PeInput::dynamic().with_facet("sign", AbsVal::new(SignVal::Neg))])
            .unwrap();
        let printed = pretty_program(&r.program);
        assert!(!printed.contains("if"), "{printed}");
    }

    #[test]
    fn specialization_is_keyed_by_facet_values() {
        // A recursive function whose argument keeps its sign: the online
        // evaluator folds the recursion onto a sign-keyed specialization.
        let src = "(define (walk x) (if (= x 0) 0 (walk (* x x))))";
        let p = parse_program(src).unwrap();
        let facets = sign_facets();
        let config = PeConfig {
            max_unfold_depth: 4,
            ..PeConfig::default()
        };
        let r = OnlinePe::with_config(&p, &facets, config)
            .specialize_main(&[PeInput::dynamic().with_facet("sign", AbsVal::new(SignVal::Pos))])
            .unwrap();
        // pos * pos = pos: (= x 0) cannot be decided (x may be any pos),
        // so walk specializes on the `pos` pattern and folds.
        assert!(r.stats.specializations >= 1);
        let mut ev = Evaluator::new(&r.program);
        // walk(pos) diverges unless x*x hits 0 — it never does for pos.
        // Instead check against a terminating variant is not possible;
        // just check residual validity by construction (validate ran).
        let _ = &mut ev;
    }

    #[test]
    fn fully_static_call_reduces_to_a_constant() {
        let src = "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let r = OnlinePe::new(&p, &facets)
            .specialize_main(&[PeInput::known(Value::Int(6))])
            .unwrap();
        assert_eq!(r.program.main().body, Expr::int(720));
        assert!(r.program.main().params.is_empty());
    }

    #[test]
    fn empty_facet_set_matches_simple_pe() {
        use crate::simple::{SimpleInput, SimplePe};
        let srcs = [
            "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
            "(define (f x n) (if (= n 0) x (+ x (f x (- n 1)))))",
        ];
        for src in srcs {
            let p = parse_program(src).unwrap();
            let facets = FacetSet::new();
            let online = OnlinePe::new(&p, &facets)
                .specialize_main(&[PeInput::dynamic(), PeInput::known(Value::Int(3))])
                .unwrap();
            let simple = SimplePe::new(&p)
                .specialize_main(&[SimpleInput::Dynamic, SimpleInput::Known(Const::Int(3))])
                .unwrap();
            assert_eq!(
                pretty_program(&online.program),
                pretty_program(&simple.program),
                "simple PE and PE-facet-only parameterized PE disagree on {src}"
            );
        }
    }

    #[test]
    fn products_of_facets_cooperate() {
        // Parity decides (= x 0) is false for odd x; sign then keeps the
        // recursion well-founded... here we just check both facets feed
        // reductions in one pass: parity kills the equality test, sign
        // kills the comparison.
        let src = "(define (f x) (if (= x 0) 100 (if (< x 0) 200 300)))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SignFacet), Box::new(ParityFacet)]);
        let r = OnlinePe::new(&p, &facets)
            .specialize_main(&[PeInput::dynamic()
                .with_facet("sign", AbsVal::new(SignVal::Pos))
                .with_facet("parity", AbsVal::new(ParityVal::Odd))])
            .unwrap();
        assert_eq!(r.program.main().body, Expr::int(300));
    }

    #[test]
    fn generalization_terminates_growing_static_recursion() {
        let src = "(define (count n) (if (< n 0) 0 (count (+ n 1))))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let config = PeConfig {
            max_unfold_depth: 8,
            ..PeConfig::default()
        };
        let r = OnlinePe::with_config(&p, &facets, config)
            .specialize_main(&[PeInput::known(Value::Int(0))])
            .unwrap();
        // The unfold budget is consumed, then the recursion folds onto a
        // generalized specialization.
        assert_eq!(r.stats.specializations, 1);
        assert!(r.stats.unfolds >= 8);
    }

    #[test]
    fn bottom_expressions_stay_residual() {
        // (/ 1 0) denotes ⊥: it must not be "reduced", and the residual
        // program must still error at run time.
        let src = "(define (f x) (+ x (/ 1 0)))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let r = OnlinePe::new(&p, &facets)
            .specialize_main(&[PeInput::dynamic()])
            .unwrap();
        let printed = pretty_program(&r.program);
        assert!(printed.contains("(/ 1 0)"), "{printed}");
        let err = Evaluator::new(&r.program)
            .run_main(&[Value::Int(1)])
            .unwrap_err();
        assert_eq!(err, ppe_lang::EvalError::DivByZero);
    }

    #[test]
    fn stats_count_reductions_and_unfolds() {
        let src = "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let r = OnlinePe::new(&p, &facets)
            .specialize_main(&[PeInput::dynamic(), PeInput::known(Value::Int(4))])
            .unwrap();
        assert_eq!(r.stats.unfolds, 4);
        assert_eq!(r.stats.static_branches, 5);
        assert!(r.stats.reductions >= 9); // 4×(= n 0) + 4×(- n 1) + final (= 0 0)
    }

    #[test]
    fn unknown_facet_name_is_rejected() {
        let p = parse_program("(define (f x) x)").unwrap();
        let facets = FacetSet::new();
        let err = OnlinePe::new(&p, &facets)
            .specialize_main(&[PeInput::dynamic().with_facet("sign", AbsVal::new(SignVal::Pos))])
            .unwrap_err();
        assert_eq!(err, PeError::UnknownFacet("sign".into()));
    }

    #[test]
    fn residual_entry_drops_constant_parameters_only() {
        let src = "(define (f x y z) (+ x (+ y z)))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let r = OnlinePe::new(&p, &facets)
            .specialize_main(&[
                PeInput::dynamic(),
                PeInput::known(Value::Int(10)),
                PeInput::dynamic(),
            ])
            .unwrap();
        let params: Vec<&str> = r.program.main().params.iter().map(|s| s.as_str()).collect();
        assert_eq!(params, vec!["x", "z"]);
    }
}

#[cfg(test)]
mod constraint_tests {
    use super::*;
    use crate::input::PeInput;
    use ppe_core::facets::{RangeFacet, SignFacet};
    use ppe_core::FacetSet;
    use ppe_lang::{parse_program, pretty_program, Evaluator, Value};

    fn with_constraints() -> PeConfig {
        PeConfig {
            propagate_constraints: true,
            ..PeConfig::default()
        }
    }

    #[test]
    fn sign_constraints_kill_redundant_tests() {
        // Inside the then-branch of (< x 0), x is known negative, so the
        // nested identical test dies.
        let src = "(define (f x) (if (< x 0) (if (< x 0) 1 2) 3))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SignFacet)]);
        let r = OnlinePe::with_config(&p, &facets, with_constraints())
            .specialize_main(&[PeInput::dynamic()])
            .unwrap();
        let printed = pretty_program(&r.program);
        assert_eq!(
            r.program.main().body,
            Expr::If(
                Box::new(Expr::prim(
                    ppe_lang::Prim::Lt,
                    vec![Expr::var("x"), Expr::int(0)]
                )),
                Box::new(Expr::int(1)),
                Box::new(Expr::int(3)),
            ),
            "{printed}"
        );
    }

    #[test]
    fn negated_constraints_flow_to_the_else_branch() {
        // In the else branch of (< x 0), x is ≥ 0 — expressible in the
        // Range facet (the flat Sign domain has no "non-negative" point),
        // so the nested identical test dies there.
        let src = "(define (f x) (if (< x 0) (neg x) (if (< x 0) (neg x) x)))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(RangeFacet)]);
        let r = OnlinePe::with_config(&p, &facets, with_constraints())
            .specialize_main(&[PeInput::dynamic()])
            .unwrap();
        let printed = pretty_program(&r.program);
        // The nested conditional is gone: exactly one `if` remains and the
        // else branch collapsed to `x`.
        assert_eq!(printed.matches("(if").count(), 1, "{printed}");
        assert!(printed.contains("(if (< x 0) (neg x) x)"), "{printed}");
    }

    #[test]
    fn equality_constant_binds_the_variable() {
        let src = "(define (f x) (if (= x 5) (* x x) 0))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let r = OnlinePe::with_config(&p, &facets, with_constraints())
            .specialize_main(&[PeInput::dynamic()])
            .unwrap();
        let printed = pretty_program(&r.program);
        assert!(printed.contains("(if (= x 5) 25 0)"), "{printed}");
    }

    #[test]
    fn equality_with_a_float_zero_binds_nothing() {
        // `(= x 0.0)` also holds at `x = -0.0`, where `(neg x)` is `0.0`:
        // binding `x` to `0.0` would fold the branch to `-0.0`.
        let src = "(define (f x) (if (= x 0.0) (neg x) (if (= x -0.0) x 1.0)))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SignFacet)]);
        let r = OnlinePe::with_config(&p, &facets, with_constraints())
            .specialize_main(&[PeInput::dynamic()])
            .unwrap();
        for x in [0.0, -0.0, 2.5] {
            let expected = Evaluator::new(&p).run_main(&[Value::Float(x)]).unwrap();
            let got = Evaluator::new(&r.program)
                .run_main(&[Value::Float(x)])
                .unwrap();
            match (&expected, &got) {
                (Value::Float(a), Value::Float(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "x = {x:?}: {expected} vs {got}")
                }
                _ => panic!("x = {x:?}: {expected} vs {got}"),
            }
        }
    }

    #[test]
    fn range_constraints_narrow_intervals() {
        // After (< n 10) in the then branch, n ≤ 9; combined with the
        // input range n ≥ 0 the nested (< n 100) is decidable.
        let src = "(define (f n) (if (< n 10) (if (< n 100) 1 2) 3))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(RangeFacet)]);
        let r = OnlinePe::with_config(&p, &facets, with_constraints())
            .specialize_main(&[PeInput::dynamic().with_facet(
                "range",
                ppe_core::AbsVal::new(ppe_core::facets::RangeVal::at_least(0)),
            )])
            .unwrap();
        let printed = pretty_program(&r.program);
        assert!(printed.contains("(if (< n 10) 1 3)"), "{printed}");
    }

    #[test]
    fn boolean_variable_conditions_bind_in_branches() {
        let src = "(define (f b) (if b (if b 1 2) (if b 3 4)))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let r = OnlinePe::with_config(&p, &facets, with_constraints())
            .specialize_main(&[PeInput::dynamic()])
            .unwrap();
        let printed = pretty_program(&r.program);
        assert!(printed.contains("(if b 1 4)"), "{printed}");
    }

    #[test]
    fn not_flips_the_outcome() {
        // (not (< x 0)) true ⇒ x ≥ 0 (a Range fact): the nested test
        // reduces to its else branch.
        let src = "(define (f x) (if (not (< x 0)) (if (< x 0) 1 2) 3))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(RangeFacet)]);
        let r = OnlinePe::with_config(&p, &facets, with_constraints())
            .specialize_main(&[PeInput::dynamic()])
            .unwrap();
        let printed = pretty_program(&r.program);
        assert!(printed.contains("2"), "{printed}");
        assert!(!printed.contains("(if (< x 0) 1 2)"), "{printed}");
    }

    #[test]
    fn refined_residuals_stay_correct() {
        // Semantic check across inputs: constraints must never change
        // observable behaviour.
        let src = "(define (f x) (if (< x 0) (if (<= x 0) (neg x) -99) (if (>= x 0) x -77)))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SignFacet), Box::new(RangeFacet)]);
        let r = OnlinePe::with_config(&p, &facets, with_constraints())
            .specialize_main(&[PeInput::dynamic()])
            .unwrap();
        for x in [-5i64, -1, 0, 1, 5] {
            let expected = Evaluator::new(&p).run_main(&[Value::Int(x)]).unwrap();
            let got = Evaluator::new(&r.program)
                .run_main(&[Value::Int(x)])
                .unwrap();
            assert_eq!(expected, got, "x = {x}");
        }
        // And the impossible branches are gone.
        let printed = pretty_program(&r.program);
        assert!(!printed.contains("-99"), "{printed}");
        assert!(!printed.contains("-77"), "{printed}");
    }

    #[test]
    fn constraints_off_by_default_preserves_figure_2_equivalence() {
        let src = "(define (f x) (if (= x 5) (* x x) 0))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let r = OnlinePe::new(&p, &facets)
            .specialize_main(&[PeInput::dynamic()])
            .unwrap();
        // Without propagation the nested (* x x) stays dynamic.
        assert!(pretty_program(&r.program).contains("(* x x)"));
    }
}

#[cfg(test)]
mod consistency_tests {
    use super::*;
    use crate::input::PeInput;
    use ppe_core::facets::{ParityFacet, ParityVal, SignFacet, SignVal};
    use ppe_core::AbsVal;
    use ppe_lang::parse_program;

    #[test]
    fn inconsistent_inputs_are_rejected_when_checking() {
        // sign = zero ∧ parity = odd describes no integer.
        let p = parse_program("(define (f x) x)").unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SignFacet), Box::new(ParityFacet)]);
        let config = PeConfig {
            check_consistency: true,
            ..PeConfig::default()
        };
        let err = OnlinePe::with_config(&p, &facets, config)
            .specialize_main(&[PeInput::dynamic()
                .with_facet("sign", AbsVal::new(SignVal::Zero))
                .with_facet("parity", AbsVal::new(ParityVal::Odd))])
            .unwrap_err();
        assert!(matches!(err, PeError::InconsistentInput(_)), "{err:?}");
    }

    #[test]
    fn consistent_inputs_pass_the_check() {
        let p = parse_program("(define (f x) x)").unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SignFacet), Box::new(ParityFacet)]);
        let config = PeConfig {
            check_consistency: true,
            ..PeConfig::default()
        };
        OnlinePe::with_config(&p, &facets, config)
            .specialize_main(&[PeInput::dynamic()
                .with_facet("sign", AbsVal::new(SignVal::Pos))
                .with_facet("parity", AbsVal::new(ParityVal::Odd))])
            .unwrap();
    }
}
