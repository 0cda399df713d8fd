//! Facet analysis — Figure 4 of the paper.
//!
//! The analysis computes, by fixpoint iteration over the finite-height
//! domain of facet signatures, a product of abstract facet values for
//! every function parameter and result, then annotates every expression
//! with its abstract product and the specializer action it determines.
//!
//! The valuation function `Ẽ` is implemented literally; the signature
//! collection `Ã` is realized by recording every call site's argument
//! products and re-analyzing each function at the widened join of its call
//! sites until nothing changes (the `h̃` iteration). One deliberate
//! approximation: where Figure 4 consults the recursive abstract function
//! environment `ζ[f]` for a call with no dynamic argument, we use the
//! function's current signature result — the standard monovariant
//! treatment, which converges to the same fixpoint shape and keeps the
//! analysis linear in practice.

use std::collections::HashMap;

use ppe_core::{AbstractFacetSet, AbstractProductVal, BtVal, FacetSet, ProductVal};
use ppe_lang::{Expr, Program, Symbol};
use ppe_online::{DegradationReport, Governor, PeConfig};

use crate::annotate::{AnnExpr, AnnFunDef, AnnKind, CallAction, PrimAction, Shortcut};
use crate::error::OfflineError;
use crate::signature::{FacetSignature, SigEnv};

/// Iteration cap for the signature fixpoint (a backstop; finite-height
/// domains with widening stabilize far earlier).
const MAX_ITERATIONS: u32 = 10_000;

/// An abstract description of one entry input for facet analysis.
///
/// # Examples
///
/// ```
/// use ppe_core::{facets::AbstractSizeVal, AbsVal};
/// use ppe_offline::AbstractInput;
///
/// // "dynamic vector, static size" — the paper's ⟨Dyn, s⟩.
/// let input = AbstractInput::dynamic()
///     .with_facet("size", AbsVal::new(AbstractSizeVal::StaticSize));
/// # let _ = input;
/// ```
#[derive(Clone, Debug)]
pub enum AbstractInput {
    /// Directly specified binding time plus abstract-facet refinements.
    Direct {
        /// The binding time of the input.
        bt: BtVal,
        /// `(facet name, abstract facet value)` refinements.
        refinements: Vec<(String, ppe_core::AbsVal)>,
    },
    /// Abstract an online-level product (the canonical route when the
    /// same inputs will later drive specialization): the binding time is
    /// `τ̄` of the PE component and each facet component goes through its
    /// facet mapping `ᾱ`.
    OfProduct(ProductVal),
}

impl AbstractInput {
    /// A fully dynamic input.
    pub fn dynamic() -> AbstractInput {
        AbstractInput::Direct {
            bt: BtVal::Dynamic,
            refinements: Vec::new(),
        }
    }

    /// A static (known at specialization time) input with no facet
    /// refinements.
    pub fn static_() -> AbstractInput {
        AbstractInput::Direct {
            bt: BtVal::Static,
            refinements: Vec::new(),
        }
    }

    /// Adds an abstract-facet refinement (builder style).
    ///
    /// # Panics
    ///
    /// Panics on an [`AbstractInput::OfProduct`] input, whose facet values
    /// are already determined.
    #[must_use]
    pub fn with_facet(self, facet_name: &str, value: ppe_core::AbsVal) -> AbstractInput {
        match self {
            AbstractInput::Direct {
                bt,
                mut refinements,
            } => {
                refinements.push((facet_name.to_owned(), value));
                AbstractInput::Direct { bt, refinements }
            }
            AbstractInput::OfProduct(_) => {
                panic!("with_facet on an OfProduct input: facets are derived from the product")
            }
        }
    }

    /// Abstracts an online product of facet values (see
    /// [`AbstractInput::OfProduct`]).
    pub fn of_product(product: ProductVal) -> AbstractInput {
        AbstractInput::OfProduct(product)
    }

    pub(crate) fn lower(
        &self,
        facets: &FacetSet,
        aset: &AbstractFacetSet,
    ) -> Result<AbstractProductVal, OfflineError> {
        match self {
            AbstractInput::Direct { bt, refinements } => {
                let base = match bt {
                    BtVal::Bottom => AbstractProductVal::bottom(aset),
                    BtVal::Static => AbstractProductVal::static_top(aset),
                    BtVal::Dynamic => AbstractProductVal::dynamic(aset),
                };
                let mut out = base;
                for (name, abs) in refinements {
                    let idx = facets
                        .index_of(name)
                        .ok_or_else(|| OfflineError::UnknownFacet(name.clone()))?;
                    out = out.with_facet(idx, abs.clone());
                }
                Ok(out)
            }
            AbstractInput::OfProduct(p) => Ok(abstract_of_product(p, aset)),
        }
    }
}

/// Abstracts an online product into the offline domain: `τ̄` on the PE
/// component, `ᾱᵢ` on each facet component. Analysis sees an
/// [`AbstractInput::OfProduct`] input only through this abstraction, so
/// products that abstract alike share one analysis (Definition 8).
pub fn abstract_of_product(p: &ProductVal, aset: &AbstractFacetSet) -> AbstractProductVal {
    let bt = BtVal::from_pe(p.pe());
    let facets: Vec<ppe_core::AbsVal> = p
        .facet_components()
        .iter()
        .enumerate()
        .map(|(i, a)| aset.abstract_facet(i).alpha_facet(a))
        .collect();
    AbstractProductVal::from_components(bt, facets, aset)
}

/// The result of facet analysis: signatures, annotated definitions, and
/// the context needed by the offline specializer.
#[derive(Debug)]
pub struct Analysis {
    /// Every reached function's facet signature (Figure 4's `SigEnv`).
    pub signatures: SigEnv,
    /// Annotated definitions for every reached function.
    pub annotated: HashMap<Symbol, AnnFunDef>,
    /// Number of `h̃` iterations until the fixpoint.
    pub iterations: u32,
    /// The entry function analyzed.
    pub entry: Symbol,
    /// The abstract inputs the analysis was run with.
    pub inputs: Vec<AbstractProductVal>,
    /// Budgets that tripped during analysis (the wall-clock deadline under
    /// `ExhaustionPolicy::Degrade`, which widens every signature to fully
    /// dynamic instead of failing). Empty on a within-budget run.
    pub degradation: DegradationReport,
    pub(crate) aset: AbstractFacetSet,
}

impl Analysis {
    /// Renders a Figure-9-style table: per function, the parameter
    /// products and one row per annotated primitive, call, `let` and
    /// conditional test.
    pub fn report(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for def in program.defs() {
            let Some(sig) = self.signatures.get(def.name) else {
                continue;
            };
            let _ = writeln!(out, "{}:", def.name);
            for (p, v) in def.params.iter().zip(&sig.args) {
                let _ = writeln!(out, "  {:<28} {}", p.to_string(), v.display());
            }
            if let Some(ann) = self.annotated.get(&def.name) {
                let mut rows = Vec::new();
                ann.body.report_rows(&mut rows);
                for (desc, val) in rows {
                    let _ = writeln!(out, "  {desc:<28} {val}");
                }
            }
            let _ = writeln!(out, "  {:<28} {}", "result", sig.result.display());
        }
        out
    }
}

/// Runs facet analysis (Figure 4) on `program`'s main function with the
/// given abstract inputs.
///
/// # Errors
///
/// [`OfflineError::HigherOrder`] for programs using Section 5.5 forms
/// (analyze those with [`crate::higher_order`]); [`OfflineError`] variants
/// for arity/facet mismatches.
pub fn analyze(
    program: &Program,
    facets: &FacetSet,
    inputs: &[AbstractInput],
) -> Result<Analysis, OfflineError> {
    analyze_fn(program, facets, program.main().name, inputs)
}

/// Runs facet analysis under an explicit budget/policy configuration.
///
/// Only the wall-clock budget applies to analysis (its fixpoint is
/// guaranteed to converge; the deadline guards against pathological
/// iteration counts). Under `ExhaustionPolicy::Degrade` an expired
/// deadline widens *every* signature — arguments and results — to fully
/// dynamic and annotates at that sound fixpoint instead of failing.
///
/// # Errors
///
/// As for [`analyze`], plus [`OfflineError::DeadlineExceeded`] under
/// `ExhaustionPolicy::Fail`.
pub fn analyze_with_config(
    program: &Program,
    facets: &FacetSet,
    inputs: &[AbstractInput],
    config: &PeConfig,
) -> Result<Analysis, OfflineError> {
    analyze_fn_with_config(program, facets, program.main().name, inputs, config)
}

/// Runs facet analysis with an arbitrary entry function.
///
/// # Errors
///
/// As for [`analyze`].
pub fn analyze_fn(
    program: &Program,
    facets: &FacetSet,
    entry: Symbol,
    inputs: &[AbstractInput],
) -> Result<Analysis, OfflineError> {
    analyze_fn_with_config(program, facets, entry, inputs, &PeConfig::default())
}

/// Runs facet analysis with an arbitrary entry function and an explicit
/// budget/policy configuration (see [`analyze_with_config`]).
///
/// # Errors
///
/// As for [`analyze_with_config`].
pub fn analyze_fn_with_config(
    program: &Program,
    facets: &FacetSet,
    entry: Symbol,
    inputs: &[AbstractInput],
    config: &PeConfig,
) -> Result<Analysis, OfflineError> {
    if program.is_higher_order() {
        return Err(OfflineError::HigherOrder);
    }
    let def = program
        .lookup(entry)
        .ok_or(OfflineError::UnknownFunction(entry))?;
    if def.arity() != inputs.len() {
        return Err(OfflineError::InputArity {
            function: entry,
            expected: def.arity(),
            got: inputs.len(),
        });
    }
    let aset = facets.abstract_set();
    let lowered: Vec<AbstractProductVal> = inputs
        .iter()
        .map(|i| i.lower(facets, &aset))
        .collect::<Result<_, _>>()?;

    let mut sig = SigEnv::new();
    sig.insert(
        entry,
        FacetSignature {
            args: lowered.clone(),
            result: AbstractProductVal::bottom(&aset),
        },
    );

    // The h̃ iteration: analyze every reached function at its current
    // signature arguments; absorb result and call-site contributions;
    // repeat until stable. The governor supplies the wall-clock guard:
    // per-iteration checks, since per-node ticks would dominate the
    // analysis cost.
    let mut gov = Governor::new(config);
    let mut iterations = 0;
    loop {
        iterations += 1;
        if iterations > MAX_ITERATIONS {
            return Err(OfflineError::NoFixpoint);
        }
        gov.check_deadline().map_err(OfflineError::from)?;
        if gov.is_exhausted() {
            // Degrade: widen every signature — arguments *and* results —
            // to fully dynamic. That is a (maximal) sound fixpoint, so the
            // annotation pass below stays correct; it merely promises no
            // static reductions. Widening only parts of a signature would
            // be unsound.
            let widened: Vec<(Symbol, FacetSignature)> = sig
                .iter()
                .map(|(f, s)| {
                    (
                        f,
                        FacetSignature {
                            args: s.args.iter().map(|a| a.clone().force_dynamic()).collect(),
                            result: s.result.clone().force_dynamic(),
                        },
                    )
                })
                .collect();
            for (f, s) in widened {
                sig.insert(f, s);
            }
            break;
        }
        // The snapshot fixes this iteration's reads (all functions are
        // analyzed at the same generation of arguments); it is cheap to
        // take, since signatures clone by reference count. Stabilization
        // is detected by `absorb`'s change reports rather than a deep
        // environment comparison.
        let snapshot = sig.clone();
        let mut changed = false;
        for d in program.defs() {
            let Some(s) = snapshot.get(d.name) else {
                continue; // not reached yet
            };
            let mut env: Vec<(Symbol, AbstractProductVal)> = d
                .params
                .iter()
                .copied()
                .zip(s.args.iter().cloned())
                .collect();
            let mut calls = Vec::new();
            let result = eval_abs(&d.body, &mut env, &sig, &aset, &mut calls);
            changed |= sig.absorb(
                d.name,
                &FacetSignature {
                    args: s.args.clone(),
                    result,
                },
                &aset,
            );
            for (g, args) in calls {
                let arity = args.len();
                let contribution = FacetSignature {
                    args,
                    result: sig
                        .get(g)
                        .map(|gs| gs.result.clone())
                        .unwrap_or_else(|| FacetSignature::bottom(arity, &aset).result),
                };
                changed |= sig.absorb(g, &contribution, &aset);
            }
        }
        if !changed {
            break;
        }
    }

    // Annotation pass at the fixpoint.
    let mut annotated = HashMap::new();
    for d in program.defs() {
        let Some(s) = sig.get(d.name) else { continue };
        let mut env: Vec<(Symbol, AbstractProductVal)> = d
            .params
            .iter()
            .copied()
            .zip(s.args.iter().cloned())
            .collect();
        let body = annotate(&d.body, &mut env, &sig, &aset);
        annotated.insert(
            d.name,
            AnnFunDef {
                name: d.name,
                params: d.params.clone(),
                body,
            },
        );
    }

    Ok(Analysis {
        signatures: sig,
        annotated,
        iterations,
        entry,
        inputs: lowered,
        degradation: gov.into_report(),
        aset,
    })
}

/// The valuation function `Ẽ` of Figure 4.
fn eval_abs(
    e: &Expr,
    env: &mut Vec<(Symbol, AbstractProductVal)>,
    sig: &SigEnv,
    aset: &AbstractFacetSet,
    calls: &mut Vec<(Symbol, Vec<AbstractProductVal>)>,
) -> AbstractProductVal {
    match e {
        Expr::Const(c) => AbstractProductVal::from_const(*c, aset),
        Expr::Var(x) => env
            .iter()
            .rev()
            .find(|(n, _)| n == x)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| AbstractProductVal::bottom(aset)),
        Expr::Prim(p, args) => {
            let vals: Vec<AbstractProductVal> = args
                .iter()
                .map(|a| eval_abs(a, env, sig, aset, calls))
                .collect();
            aset.abstract_prim(*p, &vals).value
        }
        Expr::If(c, t, f) => {
            let cv = eval_abs(c, env, sig, aset, calls);
            let tv = eval_abs(t, env, sig, aset, calls);
            let fv = eval_abs(f, env, sig, aset, calls);
            if cv.is_bottom(aset) {
                AbstractProductVal::bottom(aset)
            } else if cv.bt().is_static() {
                tv.join(&fv, aset)
            } else {
                // (Dynamic, δ̃₂² ⊔ δ̃₃², …) — Figure 4's dynamic-test rule.
                tv.join(&fv, aset).force_dynamic()
            }
        }
        Expr::Let(x, b, body) => {
            let bv = eval_abs(b, env, sig, aset, calls);
            env.push((*x, bv));
            let out = eval_abs(body, env, sig, aset, calls);
            env.pop();
            out
        }
        Expr::Call(f, args) => {
            let vals: Vec<AbstractProductVal> = args
                .iter()
                .map(|a| eval_abs(a, env, sig, aset, calls))
                .collect();
            calls.push((*f, vals.clone()));
            if vals.iter().any(|v| v.bt().is_dynamic()) {
                // Figure 4: any dynamic argument makes the call's value
                // fully dynamic.
                AbstractProductVal::dynamic(aset)
            } else if vals.iter().any(|v| v.is_bottom(aset)) {
                AbstractProductVal::bottom(aset)
            } else {
                // ζ[f](δ̃…) approximated by the current signature result.
                sig.get(*f)
                    .map(|s| s.result.clone())
                    .unwrap_or_else(|| AbstractProductVal::bottom(aset))
            }
        }
        // First-order analysis; callers have already rejected HO programs.
        Expr::Lambda(..) | Expr::App(..) | Expr::FnRef(_) => AbstractProductVal::dynamic(aset),
    }
}

/// The annotation pass: re-runs `Ẽ` at the fixpoint, recording per-node
/// values and specializer actions.
fn annotate(
    e: &Expr,
    env: &mut Vec<(Symbol, AbstractProductVal)>,
    sig: &SigEnv,
    aset: &AbstractFacetSet,
) -> AnnExpr {
    match e {
        Expr::Const(c) => AnnExpr {
            value: AbstractProductVal::from_const(*c, aset),
            kind: AnnKind::Const(*c),
            shortcut: Shortcut::default(),
        },
        Expr::Var(x) => AnnExpr {
            value: env
                .iter()
                .rev()
                .find(|(n, _)| n == x)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| AbstractProductVal::bottom(aset)),
            kind: AnnKind::Var(*x),
            shortcut: Shortcut::default(),
        },
        Expr::Prim(p, args) => {
            let ann_args: Vec<AnnExpr> = args.iter().map(|a| annotate(a, env, sig, aset)).collect();
            let vals: Vec<AbstractProductVal> = ann_args.iter().map(|a| a.value.clone()).collect();
            let r = aset.abstract_prim(*p, &vals);
            let action = if r.value.bt().is_static() {
                // Prefer the cheapest source: the PE facet (standard
                // evaluation) when it suffices, otherwise the first facet
                // whose open operator proved staticness.
                let source = r.static_sources.first().copied().unwrap_or(0);
                PrimAction::Reduce { source }
            } else {
                PrimAction::Residualize
            };
            AnnExpr {
                value: r.value,
                kind: AnnKind::Prim {
                    p: *p,
                    args: ann_args,
                    action,
                },
                shortcut: Shortcut::default(),
            }
        }
        Expr::If(c, t, f) => {
            let cond = annotate(c, env, sig, aset);
            let then_branch = annotate(t, env, sig, aset);
            let else_branch = annotate(f, env, sig, aset);
            let static_cond = cond.value.bt().is_static();
            let joined = then_branch.value.join(&else_branch.value, aset);
            let value = if cond.value.is_bottom(aset) {
                AbstractProductVal::bottom(aset)
            } else if static_cond {
                joined
            } else {
                joined.force_dynamic()
            };
            AnnExpr {
                value,
                kind: AnnKind::If {
                    cond: Box::new(cond),
                    then_branch: Box::new(then_branch),
                    else_branch: Box::new(else_branch),
                    static_cond,
                },
                shortcut: Shortcut::default(),
            }
        }
        Expr::Let(x, b, body) => {
            let bound = annotate(b, env, sig, aset);
            env.push((*x, bound.value.clone()));
            let body_ann = annotate(body, env, sig, aset);
            env.pop();
            AnnExpr {
                value: body_ann.value.clone(),
                kind: AnnKind::Let {
                    x: *x,
                    bound: Box::new(bound),
                    body: Box::new(body_ann),
                },
                shortcut: Shortcut::default(),
            }
        }
        Expr::Call(f, args) => {
            let ann_args: Vec<AnnExpr> = args.iter().map(|a| annotate(a, env, sig, aset)).collect();
            let any_static = ann_args.iter().any(|a| a.value.bt().is_static());
            let action = if any_static {
                CallAction::Unfold
            } else {
                CallAction::Specialize
            };
            let value = if ann_args.iter().any(|a| a.value.bt().is_dynamic()) {
                AbstractProductVal::dynamic(aset)
            } else if ann_args.iter().any(|a| a.value.is_bottom(aset)) {
                AbstractProductVal::bottom(aset)
            } else {
                sig.get(*f)
                    .map(|s| s.result.clone())
                    .unwrap_or_else(|| AbstractProductVal::bottom(aset))
            };
            AnnExpr {
                value,
                kind: AnnKind::Call {
                    f: *f,
                    args: ann_args,
                    action,
                },
                shortcut: Shortcut::default(),
            }
        }
        Expr::Lambda(..) | Expr::App(..) | Expr::FnRef(_) => {
            unreachable!("higher-order programs are rejected before annotation")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppe_core::facets::{AbstractSizeVal, SignFacet, SignVal, SizeFacet};
    use ppe_core::AbsVal;
    use ppe_lang::parse_program;

    const IPROD: &str = "(define (iprod a b) (let ((n (vsize a))) (dotprod a b n)))
         (define (dotprod a b n)
           (if (= n 0) 0.0
               (+ (* (vref a n) (vref b n)) (dotprod a b (- n 1)))))";

    fn size_inputs() -> Vec<AbstractInput> {
        vec![
            AbstractInput::dynamic().with_facet("size", AbsVal::new(AbstractSizeVal::StaticSize)),
            AbstractInput::dynamic().with_facet("size", AbsVal::new(AbstractSizeVal::StaticSize)),
        ]
    }

    #[test]
    fn figure_9_signature_for_iprod() {
        let p = parse_program(IPROD).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SizeFacet)]);
        let analysis = analyze(&p, &facets, &size_inputs()).unwrap();

        // iprod's parameters: ⟨Dyn, s⟩ (Figure 9, first row).
        let iprod = analysis.signatures.get("iprod".into()).unwrap();
        assert_eq!(iprod.args[0].display(), "⟨Dyn, s⟩");
        assert_eq!(iprod.args[1].display(), "⟨Dyn, s⟩");

        // dotprod: A, B dynamic vectors; n Static (derived from vsize).
        let dotprod = analysis.signatures.get("dotprod".into()).unwrap();
        assert!(dotprod.args[2].bt().is_static(), "n must be Static");
        // The overall result is dynamic (elements unknown).
        assert!(dotprod.result.bt().is_dynamic());
    }

    #[test]
    fn figure_9_annotations_for_dotprod() {
        let p = parse_program(IPROD).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SizeFacet)]);
        let analysis = analyze(&p, &facets, &size_inputs()).unwrap();
        let dot = &analysis.annotated[&Symbol::intern("dotprod")];
        // The conditional test (= n 0) is static (Figure 9's ⟨Stat⟩).
        let AnnKind::If {
            static_cond, cond, ..
        } = &dot.body.kind
        else {
            panic!("dotprod body should be an if");
        };
        assert!(static_cond);
        assert!(cond.value.bt().is_static());
    }

    #[test]
    fn vsize_reduction_is_attributed_to_the_size_facet() {
        let p = parse_program(IPROD).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SizeFacet)]);
        let analysis = analyze(&p, &facets, &size_inputs()).unwrap();
        let iprod = &analysis.annotated[&Symbol::intern("iprod")];
        let AnnKind::Let { bound, .. } = &iprod.body.kind else {
            panic!("iprod body should be a let");
        };
        let AnnKind::Prim { action, .. } = &bound.kind else {
            panic!("bound expression should be (vsize a)");
        };
        // Source 1 = user facet 0 = the Size facet: the analysis selected
        // the reduction operation in advance (the paper's contribution 3).
        assert_eq!(*action, PrimAction::Reduce { source: 1 });
    }

    #[test]
    fn binding_time_only_analysis_is_conventional_bta() {
        // Without facets, the analysis is exactly a monovariant BTA.
        let src = "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let analysis = analyze(
            &p,
            &facets,
            &[AbstractInput::dynamic(), AbstractInput::static_()],
        )
        .unwrap();
        let sig = analysis.signatures.get("power".into()).unwrap();
        assert!(sig.args[0].bt().is_dynamic());
        assert!(sig.args[1].bt().is_static());
        // The result depends on the dynamic x.
        assert!(sig.result.bt().is_dynamic());
        // The recursive call is annotated Unfold (n is static).
        let ann = &analysis.annotated[&Symbol::intern("power")];
        let mut rows = Vec::new();
        ann.body.report_rows(&mut rows);
        assert!(
            rows.iter().any(|(d, _)| d.contains("call power [unfold]")),
            "{rows:?}"
        );
    }

    #[test]
    fn dynamic_conditional_forces_dynamic_bt_but_keeps_facets() {
        // if (dynamic) then -1 else -2: result sign is neg either way.
        let src = "(define (f x) (if (< x 0) -1 -2))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SignFacet)]);
        let analysis = analyze(&p, &facets, &[AbstractInput::dynamic()]).unwrap();
        let sig = analysis.signatures.get("f".into()).unwrap();
        assert!(sig.result.bt().is_dynamic());
        assert_eq!(
            sig.result.facet(0).downcast_ref::<SignVal>(),
            Some(&SignVal::Neg)
        );
    }

    #[test]
    fn sign_facet_statically_decides_comparisons() {
        let src = "(define (f x) (if (< (* x x) 0) 1 2))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SignFacet)]);
        let analysis = analyze(
            &p,
            &facets,
            &[AbstractInput::dynamic().with_facet("sign", AbsVal::new(SignVal::Neg))],
        )
        .unwrap();
        let ann = &analysis.annotated[&Symbol::intern("f")];
        let AnnKind::If { static_cond, .. } = &ann.body.kind else {
            panic!("f body should be an if");
        };
        // x neg ⇒ x*x pos ⇒ (< pos 0) decided by the Sign abstract facet.
        assert!(static_cond);
        // And the result is the constant branch join: Static.
        assert!(ann.body.value.bt().is_static());
    }

    #[test]
    fn higher_order_programs_are_rejected() {
        let p = parse_program("(define (f g x) (g x))").unwrap();
        let facets = FacetSet::new();
        let err = analyze(
            &p,
            &facets,
            &[AbstractInput::dynamic(), AbstractInput::dynamic()],
        )
        .unwrap_err();
        assert_eq!(err, OfflineError::HigherOrder);
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let p = parse_program("(define (f x) x)").unwrap();
        let facets = FacetSet::new();
        let err = analyze(&p, &facets, &[]).unwrap_err();
        assert!(matches!(err, OfflineError::InputArity { .. }));
    }

    #[test]
    fn report_contains_figure_9_rows() {
        let p = parse_program(IPROD).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SizeFacet)]);
        let analysis = analyze(&p, &facets, &size_inputs()).unwrap();
        let report = analysis.report(&p);
        assert!(report.contains("iprod:"), "{report}");
        assert!(report.contains("⟨Dyn, s⟩"), "{report}");
        assert!(report.contains("if-test [static]"), "{report}");
    }

    #[test]
    fn fixpoint_terminates_with_widening_on_ranges() {
        // A loop that grows its static argument: the Range facet's
        // interval widens instead of climbing forever.
        use ppe_core::facets::RangeFacet;
        let src = "(define (f n) (if (< n 0) n (f (+ n 1))))";
        let p = parse_program(src).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(RangeFacet)]);
        let analysis = analyze(&p, &facets, &[AbstractInput::static_()]).unwrap();
        assert!(analysis.iterations < 100);
    }
}
