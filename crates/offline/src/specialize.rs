//! The offline specializer: follows the annotations produced by facet
//! analysis.
//!
//! "The task of program specialization reduces to following the
//! information yielded by the facet analysis" (Section 5). Where the
//! online evaluator consults every facet's open operator at every
//! primitive and decides branches and unfoldings on the fly, this walk
//! performs exactly the pre-selected actions: [`PrimAction::Reduce`]
//! invokes the one operator the analysis chose, static conditionals take
//! their branch without examining alternatives' values, and call
//! treatment is fixed per call site.
//!
//! The classical caveat of offline partial evaluation applies: when
//! unfolding does not consume static data the specializer does not
//! terminate by itself; budgets turn that into
//! [`OfflineError::OutOfFuel`].

use ppe_core::{FacetArg, FacetSet, PeVal, ProductVal};
use ppe_lang::StdOpClass;
use ppe_lang::{Const, Expr, Prim, Program, Symbol, Value};
use ppe_online::builder::{wrap_lets, Env, ResidualBuilder};
use ppe_online::spec_eval::{self, StaticNode, StaticSubtree};
use ppe_online::{ExhaustionPolicy, PeConfig, PeError, PeInput, Residual};

use crate::analysis::{abstract_of_product, Analysis};
use crate::annotate::{AnnExpr, AnnFunDef, AnnKind, CallAction, PrimAction};
use crate::error::OfflineError;

impl From<PeError> for OfflineError {
    fn from(e: PeError) -> OfflineError {
        match e {
            PeError::UnknownFunction(f) => OfflineError::UnknownFunction(f),
            PeError::InputArity {
                function,
                expected,
                got,
            } => OfflineError::InputArity {
                function,
                expected,
                got,
            },
            PeError::UnknownFacet(n) => OfflineError::UnknownFacet(n),
            PeError::SpecializationLimit(n) => OfflineError::SpecializationLimit(n),
            PeError::OutOfFuel => OfflineError::OutOfFuel,
            PeError::InconsistentInput(_) => OfflineError::InputsIncompatibleWithAnalysis,
            PeError::MalformedResidual(m) => OfflineError::MalformedResidual(m),
            PeError::DeadlineExceeded => OfflineError::DeadlineExceeded,
            PeError::ResidualSizeLimit(n) => OfflineError::ResidualSizeLimit(n),
            PeError::DepthLimit(n) => OfflineError::DepthLimit(n),
        }
    }
}

/// The offline parameterized partial evaluator (Section 5).
///
/// # Examples
///
/// ```
/// use ppe_core::{facets::SizeFacet, size_of, FacetSet};
/// use ppe_lang::parse_program;
/// use ppe_offline::{analyze, AbstractInput, OfflinePe};
/// use ppe_online::PeInput;
///
/// let program = parse_program(
///     "(define (iprod a b) (let ((n (vsize a))) (dotprod a b n)))
///      (define (dotprod a b n)
///        (if (= n 0) 0.0
///            (+ (* (vref a n) (vref b n)) (dotprod a b (- n 1)))))",
/// )?;
/// let facets = FacetSet::with_facets(vec![Box::new(SizeFacet)]);
/// let inputs = [
///     PeInput::dynamic().with_facet("size", size_of(3)),
///     PeInput::dynamic().with_facet("size", size_of(3)),
/// ];
/// // Phase 1: facet analysis at the inputs' abstraction.
/// let abstract_inputs: Vec<AbstractInput> = inputs
///     .iter()
///     .map(|i| AbstractInput::of_product(i.to_product(&facets).unwrap()))
///     .collect();
/// let analysis = analyze(&program, &facets, &abstract_inputs)?;
/// // Phase 2: specialization follows the annotations.
/// let pe = OfflinePe::new(&program, &facets, &analysis);
/// let residual = pe.specialize(&inputs)?;
/// assert_eq!(residual.program.defs().len(), 1); // Figure 8 again
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct OfflinePe<'a> {
    program: &'a Program,
    facets: &'a FacetSet,
    analysis: &'a Analysis,
    config: PeConfig,
}

/// Run state: the builder keyed, like the online engine's, by products of
/// facet values, whose result product preserves facet information across
/// folded calls.
type St<'p> = ResidualBuilder<'p, Vec<ProductVal>, ProductVal>;

/// Rebuilds the plain expression under an annotated subtree, `None` as soon
/// as any node falls outside the shortcut grammar: only constants,
/// variables, `let`, and primitives the analysis marked
/// `Reduce {source: 0}` (all-arguments-static, concrete evaluation) — the
/// one action whose folding the VM replays exactly. Facet-sourced
/// reductions (`source > 0`) consult abstract values the VM does not model,
/// and `Residualize` must stay residual. The mapping is 1:1 per node, so
/// the stripped expression's size equals the ticks the annotated walk
/// would spend.
fn strip_static(e: &AnnExpr) -> Option<Expr> {
    match &e.kind {
        AnnKind::Const(c) => Some(Expr::Const(*c)),
        AnnKind::Var(x) => Some(Expr::Var(*x)),
        AnnKind::Prim { p, args, action } => {
            if *action != (PrimAction::Reduce { source: 0 })
                || matches!(p, Prim::MkVec | Prim::UpdVec)
            {
                return None;
            }
            let mut out = Vec::with_capacity(args.len());
            for a in args {
                out.push(strip_static(a)?);
            }
            Some(Expr::Prim(*p, out))
        }
        AnnKind::Let { x, bound, body } => Some(Expr::Let(
            *x,
            Box::new(strip_static(bound)?),
            Box::new(strip_static(body)?),
        )),
        _ => None,
    }
}

/// The offline walk offers the shortcut annotated nodes: eligible exactly
/// when `strip_static` rebuilds them, and the stripped expression is the
/// body the backend lowers. Only constants reify (the builder runs without
/// a `contents` index): `Reduce {source: 0}` implies every argument is
/// PE-static, and vectors are never PE-constants.
impl StaticNode for AnnExpr {
    fn may_root(&self) -> bool {
        matches!(&self.kind, AnnKind::Prim { .. } | AnnKind::Let { .. })
    }

    fn as_expr(&self) -> Option<&Expr> {
        None
    }

    fn subtree(&self) -> Option<&StaticSubtree> {
        self.shortcut
            .0
            .get_or_init(|| strip_static(self).and_then(spec_eval::analyze_owned))
            .as_ref()
    }
}

impl<'a> OfflinePe<'a> {
    /// Creates an offline specializer from a completed [`Analysis`].
    pub fn new(
        program: &'a Program,
        facets: &'a FacetSet,
        analysis: &'a Analysis,
    ) -> OfflinePe<'a> {
        OfflinePe {
            program,
            facets,
            analysis,
            config: PeConfig::default(),
        }
    }

    /// Creates an offline specializer with an explicit policy.
    pub fn with_config(
        program: &'a Program,
        facets: &'a FacetSet,
        analysis: &'a Analysis,
        config: PeConfig,
    ) -> OfflinePe<'a> {
        OfflinePe {
            program,
            facets,
            analysis,
            config,
        }
    }

    /// Specializes the analyzed entry function with respect to `inputs`.
    ///
    /// # Errors
    ///
    /// [`OfflineError::InputsIncompatibleWithAnalysis`] when an input is
    /// not approximated by the abstract input the analysis was run with;
    /// otherwise the usual budget and validation errors.
    pub fn specialize(&self, inputs: &[PeInput]) -> Result<Residual, OfflineError> {
        let entry = self.analysis.entry;
        let ann = self
            .analysis
            .annotated
            .get(&entry)
            .ok_or(OfflineError::UnknownFunction(entry))?;
        if ann.params.len() != inputs.len() {
            return Err(OfflineError::InputArity {
                function: entry,
                expected: ann.params.len(),
                got: inputs.len(),
            });
        }
        let mut st = St::new(&self.config, self.program, None);
        let mut env = Env::new();
        let mut kept_params = Vec::new();
        for ((param, input), analyzed) in ann.params.iter().zip(inputs).zip(&self.analysis.inputs) {
            let product = input.to_product(self.facets)?;
            // Soundness gate: specialization inputs must refine what the
            // analysis assumed.
            let abstracted = abstract_of_product(&product, &self.analysis.aset);
            if !abstracted.leq(analyzed, &self.analysis.aset) {
                return Err(OfflineError::InputsIncompatibleWithAnalysis);
            }
            if let PeVal::Const(c) = product.pe() {
                env.push(*param, Expr::Const(*c), product);
            } else {
                kept_params.push(*param);
                env.push(*param, Expr::Var(*param), product);
            }
        }
        let (body, _) = self.walk(&ann.body, &mut env, 0, &mut st)?;
        let mut residual = st.finish(entry, kept_params, body)?;
        // One combined report: what the analysis degraded, then what the
        // specialization walk degraded.
        let mut report = self.analysis.degradation.clone();
        report.merge(&residual.report);
        residual.report = report;
        Ok(residual)
    }

    /// Walks an annotated expression, performing the pre-selected actions.
    /// Runs behind the governor's recursion guard, so a runaway walk
    /// surfaces as [`OfflineError::DepthLimit`] instead of a native stack
    /// overflow.
    fn walk(
        &self,
        e: &AnnExpr,
        env: &mut Env<ProductVal>,
        depth: u32,
        st: &mut St,
    ) -> Result<(Expr, ProductVal), OfflineError> {
        st.gov.enter_recursion().map_err(OfflineError::from)?;
        let out = self.walk_inner(e, env, depth, st);
        st.gov.exit_recursion();
        out
    }

    fn walk_inner(
        &self,
        e: &AnnExpr,
        env: &mut Env<ProductVal>,
        depth: u32,
        st: &mut St,
    ) -> Result<(Expr, ProductVal), OfflineError> {
        st.spend()?;
        if let Some(c) = st.spec_eval(e, env)? {
            return Ok((Expr::Const(c), st.const_product(c, self.facets)));
        }
        match &e.kind {
            AnnKind::Const(c) => Ok((Expr::Const(*c), ProductVal::from_const(*c, self.facets))),
            AnnKind::Var(x) => env
                .lookup(*x)
                .map(|(e, v)| (e.clone(), v.clone()))
                .ok_or_else(|| OfflineError::MalformedResidual(format!("unbound `{x}`"))),
            AnnKind::Prim { p, args, action } => {
                let mut residuals = Vec::with_capacity(args.len());
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    let (r, v) = self.walk(a, env, depth, st)?;
                    residuals.push(r);
                    vals.push(v);
                }
                match action {
                    PrimAction::Reduce { source: 0 } => {
                        // All arguments are constants: standard evaluation.
                        let consts: Option<Vec<Const>> =
                            residuals.iter().map(Expr::as_const).collect();
                        if let Some(cs) = consts {
                            let concrete: Vec<Value> =
                                cs.iter().map(|c| Value::from_const(*c)).collect();
                            match p.eval(&concrete) {
                                Ok(v) => {
                                    if let Some(c) = v.to_const() {
                                        st.stats.reductions += 1;
                                        return Ok((
                                            Expr::Const(c),
                                            ProductVal::from_const(c, self.facets),
                                        ));
                                    }
                                    // Defined but not a constant (e.g.
                                    // `mkvec 3`): the value is fully known
                                    // at specialization time, so every
                                    // facet gets its exact abstraction,
                                    // but the expression stays residual.
                                    st.stats.residual_prims += 1;
                                    return Ok((
                                        Expr::Prim(*p, residuals),
                                        ProductVal::from_value(&v, self.facets),
                                    ));
                                }
                                Err(_) => {
                                    // The concrete operation denotes ⊥
                                    // (e.g. a division by zero): stay
                                    // residual — the paper's "modulo
                                    // termination" caveat.
                                    st.stats.residual_prims += 1;
                                    return Ok((
                                        Expr::Prim(*p, residuals),
                                        ProductVal::bottom(self.facets),
                                    ));
                                }
                            }
                        }
                        // An argument the analysis proved Static failed to
                        // become a constant: that happens exactly when a
                        // static subcomputation denoted ⊥ (the paper's
                        // "modulo termination" caveat). Residualize.
                        st.stats.residual_prims += 1;
                        let value = self.track_residual_prim(*p, &vals);
                        Ok((Expr::Prim(*p, residuals), value))
                    }
                    PrimAction::Reduce { source } => {
                        // The analysis selected a specific facet's open
                        // operator: invoke exactly that one.
                        let idx = *source - 1;
                        let facet = self.facets.facet(idx);
                        let wrapped: Vec<FacetArg<'_>> = vals
                            .iter()
                            .map(|v| FacetArg {
                                pe: v.pe(),
                                abs: v.facet(idx),
                            })
                            .collect();
                        match facet.open_op(*p, &wrapped) {
                            PeVal::Const(c) => {
                                st.stats.reductions += 1;
                                Ok((Expr::Const(c), ProductVal::from_const(c, self.facets)))
                            }
                            // Anything else is the ⊥-induced miss above
                            // (a sound facet can only fail to deliver its
                            // promised constant when the value denotes ⊥,
                            // Property 6): residualize.
                            _ => {
                                st.stats.residual_prims += 1;
                                let value = self.track_residual_prim(*p, &vals);
                                Ok((Expr::Prim(*p, residuals), value))
                            }
                        }
                    }
                    PrimAction::Residualize => {
                        st.stats.residual_prims += 1;
                        let value = self.track_residual_prim(*p, &vals);
                        Ok((Expr::Prim(*p, residuals), value))
                    }
                }
            }
            AnnKind::If {
                cond,
                then_branch,
                else_branch,
                static_cond,
            } => {
                let (cr, _cv) = self.walk(cond, env, depth, st)?;
                if *static_cond {
                    if let Expr::Const(cc) = cr {
                        if let Some(b) = cc.as_bool() {
                            st.stats.static_branches += 1;
                            return self.walk(
                                if b { then_branch } else { else_branch },
                                env,
                                depth,
                                st,
                            );
                        }
                    }
                    // The test denotes ⊥ at specialization time; fall
                    // through to the dynamic treatment (sound).
                }
                st.stats.dynamic_branches += 1;
                let (tr, tv) = self.walk(then_branch, env, depth, st)?;
                let (fr, fv) = self.walk(else_branch, env, depth, st)?;
                Ok((
                    Expr::If(Box::new(cr), Box::new(tr), Box::new(fr)),
                    tv.join(&fv, self.facets),
                ))
            }
            AnnKind::Let { x, bound, body } => {
                let (br, bv) = self.walk(bound, env, depth, st)?;
                let mark = env.mark();
                if matches!(br, Expr::Const(_) | Expr::Var(_)) {
                    env.push(*x, br, bv);
                    let out = self.walk(body, env, depth, st);
                    env.reset(mark);
                    out
                } else {
                    let xr = st.binder(*x, env);
                    env.push(*x, Expr::Var(xr), bv);
                    let (bodyr, bodyv) = self.walk(body, env, depth, st)?;
                    env.reset(mark);
                    Ok((Expr::Let(xr, Box::new(br), Box::new(bodyr)), bodyv))
                }
            }
            AnnKind::Call { f, args, action } => {
                let mut residuals = Vec::with_capacity(args.len());
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    let (r, v) = self.walk(a, env, depth, st)?;
                    residuals.push(r);
                    vals.push(v);
                }
                let callee = self
                    .analysis
                    .annotated
                    .get(f)
                    .ok_or(OfflineError::UnknownFunction(*f))?;
                match action {
                    CallAction::Unfold => {
                        if !st.gov.may_unfold(depth, self.config.max_unfold_depth, *f) {
                            // The annotations carry no pattern for a call
                            // the analysis decided to unfold. Fail reports
                            // divergence, as before; Degrade folds onto a
                            // fully generalized specialization — sound,
                            // because the walk residualizes wherever an
                            // annotation's optimism is not met.
                            if st.gov.policy() == ExhaustionPolicy::Fail {
                                return Err(OfflineError::OutOfFuel);
                            }
                            let pattern = vec![ProductVal::dynamic(self.facets); vals.len()];
                            return self.fold_call(*f, callee, pattern, residuals, st);
                        }
                        st.stats.unfolds += 1;
                        let mut inner = Env::new();
                        let mut lets = Vec::new();
                        for ((p, r), v) in callee.params.iter().zip(residuals).zip(vals) {
                            st.bind_param(*p, r, v, &mut inner, &mut lets);
                        }
                        let (out, val) = self.walk(&callee.body, &mut inner, depth + 1, st)?;
                        Ok((wrap_lets(lets, out), val))
                    }
                    CallAction::Specialize => {
                        // Pattern: the facet-level information only (PE
                        // components are dynamic by the analysis). Once the
                        // governor is exhausted the pattern is generalized
                        // so the cache stops growing.
                        let pattern: Vec<ProductVal> = if st.gov.is_exhausted() {
                            vec![ProductVal::dynamic(self.facets); vals.len()]
                        } else {
                            vals.iter().map(|v| v.with_pe(PeVal::Top)).collect()
                        };
                        self.fold_call(*f, callee, pattern, residuals, st)
                    }
                }
            }
        }
    }

    /// Looks up or creates the specialization of `f` at `pattern` — the
    /// cache `Sf` — and emits the folded call.
    fn fold_call(
        &self,
        f: Symbol,
        callee: &AnnFunDef,
        pattern: Vec<ProductVal>,
        residuals: Vec<Expr>,
        st: &mut St,
    ) -> Result<(Expr, ProductVal), OfflineError> {
        let (name, value) =
            st.specialize_at(f, &callee.params, pattern, self.facets, |st, env| {
                self.walk(&callee.body, env, 0, st)
            })?;
        Ok((Expr::Call(name, residuals), value))
    }

    /// Value tracking for a residual primitive: closed operators propagate
    /// facet components (e.g. `updvec` preserves a vector's size); open
    /// operators yield no information.
    fn track_residual_prim(&self, p: Prim, vals: &[ProductVal]) -> ProductVal {
        if vals.iter().any(|v| v.is_bottom(self.facets)) {
            return ProductVal::bottom(self.facets);
        }
        match p.std_class() {
            StdOpClass::Closed => {
                let mut components = Vec::with_capacity(self.facets.len());
                for (i, facet) in self.facets.iter().enumerate() {
                    let wrapped: Vec<FacetArg<'_>> = vals
                        .iter()
                        .map(|v| FacetArg {
                            pe: v.pe(),
                            abs: v.facet(i),
                        })
                        .collect();
                    components.push(facet.closed_op(p, &wrapped));
                }
                ProductVal::from_components(PeVal::Top, components, self.facets)
            }
            StdOpClass::Open => ProductVal::dynamic(self.facets),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, AbstractInput};
    use ppe_core::facets::{SignFacet, SignVal, SizeFacet};
    use ppe_core::{size_of, AbsVal};
    use ppe_lang::{parse_program, pretty_program, Evaluator};

    const IPROD: &str = "(define (iprod a b) (let ((n (vsize a))) (dotprod a b n)))
         (define (dotprod a b n)
           (if (= n 0) 0.0
               (+ (* (vref a n) (vref b n)) (dotprod a b (- n 1)))))";

    fn iprod_offline(n: i64) -> Residual {
        let p = parse_program(IPROD).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SizeFacet)]);
        let inputs = [
            PeInput::dynamic().with_facet("size", size_of(n)),
            PeInput::dynamic().with_facet("size", size_of(n)),
        ];
        let abstract_inputs: Vec<AbstractInput> = inputs
            .iter()
            .map(|i| AbstractInput::of_product(i.to_product(&facets).unwrap()))
            .collect();
        let analysis = analyze(&p, &facets, &abstract_inputs).unwrap();
        OfflinePe::new(&p, &facets, &analysis)
            .specialize(&inputs)
            .unwrap()
    }

    #[test]
    fn offline_reproduces_figure_8() {
        let r = iprod_offline(3);
        assert_eq!(r.program.defs().len(), 1);
        let printed = pretty_program(&r.program);
        for i in 1..=3 {
            assert!(printed.contains(&format!("(vref a {i})")), "{printed}");
        }
        assert!(!printed.contains("dotprod"), "{printed}");
    }

    #[test]
    fn offline_and_online_agree_on_the_inner_product() {
        use ppe_online::OnlinePe;
        let p = parse_program(IPROD).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SizeFacet)]);
        let inputs = [
            PeInput::dynamic().with_facet("size", size_of(4)),
            PeInput::dynamic().with_facet("size", size_of(4)),
        ];
        let online = OnlinePe::new(&p, &facets).specialize_main(&inputs).unwrap();
        let offline = iprod_offline(4);
        assert_eq!(
            pretty_program(&online.program),
            pretty_program(&offline.program)
        );
    }

    #[test]
    fn offline_residual_is_correct() {
        let r = iprod_offline(3);
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
        assert_eq!(
            Evaluator::new(&r.program).run_main(&[a, b]).unwrap(),
            Value::Float(32.0)
        );
    }

    #[test]
    fn incompatible_inputs_are_rejected() {
        let p = parse_program(IPROD).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SizeFacet)]);
        let analysis = analyze(
            &p,
            &facets,
            &[
                AbstractInput::of_product(
                    PeInput::dynamic()
                        .with_facet("size", size_of(3))
                        .to_product(&facets)
                        .unwrap(),
                ),
                AbstractInput::of_product(
                    PeInput::dynamic()
                        .with_facet("size", size_of(3))
                        .to_product(&facets)
                        .unwrap(),
                ),
            ],
        )
        .unwrap();
        // Specializing with *no* size information is not covered by the
        // "size is static" analysis.
        let err = OfflinePe::new(&p, &facets, &analysis)
            .specialize(&[PeInput::dynamic(), PeInput::dynamic()])
            .unwrap_err();
        assert_eq!(err, OfflineError::InputsIncompatibleWithAnalysis);
    }

    #[test]
    fn compatible_but_different_sizes_reuse_the_analysis() {
        // Analysis at "size static"; specialization at size 2 and size 5
        // both refine it — the same binding-time division serves both,
        // the paper's main point about the offline split.
        for n in [2, 5] {
            let r = iprod_offline(n);
            let printed = pretty_program(&r.program);
            assert!(printed.contains(&format!("(vref a {n})")), "{printed}");
        }
    }

    #[test]
    fn sign_driven_branch_elimination_offline() {
        let src = "(define (clamp x) (if (< (* x x) 0) 0 x))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SignFacet)]);
        let inputs = [PeInput::dynamic().with_facet("sign", AbsVal::new(SignVal::Neg))];
        let abstract_inputs: Vec<AbstractInput> = inputs
            .iter()
            .map(|i| AbstractInput::of_product(i.to_product(&facets).unwrap()))
            .collect();
        let analysis = analyze(&p, &facets, &abstract_inputs).unwrap();
        let r = OfflinePe::new(&p, &facets, &analysis)
            .specialize(&inputs)
            .unwrap();
        assert_eq!(r.program.main().body, Expr::var("x"));
    }

    #[test]
    fn dynamic_recursion_folds_to_one_specialization() {
        let src = "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let analysis = analyze(&p, &facets, &[AbstractInput::dynamic()]).unwrap();
        let r = OfflinePe::new(&p, &facets, &analysis)
            .specialize(&[PeInput::dynamic()])
            .unwrap();
        assert_eq!(r.stats.specializations, 1);
        assert!(r.stats.cache_hits >= 1);
    }

    #[test]
    fn static_inputs_fully_evaluate() {
        let src = "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let analysis = analyze(&p, &facets, &[AbstractInput::static_()]).unwrap();
        let r = OfflinePe::new(&p, &facets, &analysis)
            .specialize(&[PeInput::known(Value::Int(5))])
            .unwrap();
        assert_eq!(r.program.main().body, Expr::int(120));
    }

    #[test]
    fn divergent_static_unfolding_errors_out() {
        let src = "(define (f n) (if (< n 0) 0 (f (+ n 1))))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let analysis = analyze(&p, &facets, &[AbstractInput::static_()]).unwrap();
        let config = PeConfig {
            max_unfold_depth: 32,
            ..PeConfig::default()
        };
        let err = OfflinePe::with_config(&p, &facets, &analysis, config)
            .specialize(&[PeInput::known(Value::Int(0))])
            .unwrap_err();
        assert_eq!(err, OfflineError::OutOfFuel);
    }
}
