//! Binding-time certificate checking: validation of annotated output.
//!
//! Facet analysis ([`crate::analyze`], Figure 4) produces a two-level
//! program: every expression carries an abstract product (whose first
//! component is Definition 10's binding-time facet) and a pre-selected
//! specializer action. The offline specializer *trusts* those annotations
//! — a wrong one makes it evaluate a dynamic operand at specialization
//! time (crash / wrong residual) or unfold without bound. This module
//! turns the annotation from a trusted artifact into a *checkable
//! certificate*: [`check_certificate`] re-derives, node by node and using
//! only the recorded child values, what a congruent annotation must say,
//! and reports every disagreement as a structured
//! [`Diagnostic`].
//!
//! The congruence conditions checked (each with a stable code):
//!
//! | code | condition violated |
//! |------|--------------------|
//! | `E0101` | a `Reduce` action its operands cannot justify — a static operator consuming a dynamic operand with no lift, or a facet source that proves nothing |
//! | `E0102` | an eliminable conditional not under static control (`static_cond` true with a non-static test), or a residual conditional whose value claims staticness |
//! | `E0103` | an `Unfold` call with no static argument (nothing bounds the unfolding) |
//! | `E0104` | a recorded abstract product that does not cover the value recomputed from its children — the certificate under-approximates |
//!
//! Soundness direction: a recorded value *wider* than the recomputed one
//! (extra dynamics) is accepted — over-approximation loses precision, not
//! correctness. Only under-approximation is an error, which is why the
//! per-node comparison is `recomputed ⊑ recorded` via
//! [`AbstractProductVal::leq`].

use ppe_core::{AbstractFacetSet, AbstractProductVal};
use ppe_lang::diag::Diagnostic;
use ppe_lang::Symbol;

use crate::analysis::Analysis;
use crate::annotate::{AnnExpr, AnnFunDef, AnnKind, CallAction, PrimAction};
use crate::signature::SigEnv;

/// Checks every annotated definition of `analysis` for congruence.
///
/// Returns all findings (deterministically ordered: functions by name,
/// nodes in evaluation order); an empty vector is the certificate's
/// acceptance. A freshly computed [`Analysis`] always passes — the checker
/// re-derives the same rules the annotater applied — so any diagnostic
/// means the annotation was corrupted or produced by a buggy analysis.
///
/// # Examples
///
/// ```
/// use ppe_core::FacetSet;
/// use ppe_lang::parse_program;
/// use ppe_offline::{analyze, certify::check_certificate, AbstractInput};
///
/// let p = parse_program(
///     "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
/// )?;
/// let analysis = analyze(&p, &FacetSet::new(), &[
///     AbstractInput::dynamic(),
///     AbstractInput::static_(),
/// ])?;
/// assert!(check_certificate(&analysis).is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_certificate(analysis: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut names: Vec<Symbol> = analysis.annotated.keys().copied().collect();
    names.sort_by_key(|s| s.to_string());
    for name in names {
        let def = &analysis.annotated[&name];
        check_def(def, &analysis.signatures, &analysis.aset, &mut out);
    }
    out
}

fn check_def(def: &AnnFunDef, sig: &SigEnv, aset: &AbstractFacetSet, out: &mut Vec<Diagnostic>) {
    let Some(s) = sig.get(def.name) else {
        out.push(
            Diagnostic::error(
                "E0104",
                format!("annotated definition of `{}` has no signature", def.name),
            )
            .in_function(def.name),
        );
        return;
    };
    if s.args.len() != def.params.len() {
        out.push(
            Diagnostic::error(
                "E0104",
                format!(
                    "signature of `{}` has {} argument products for {} parameters",
                    def.name,
                    s.args.len(),
                    def.params.len()
                ),
            )
            .in_function(def.name),
        );
        return;
    }
    let mut env: Vec<(Symbol, AbstractProductVal)> = def
        .params
        .iter()
        .copied()
        .zip(s.args.iter().cloned())
        .collect();
    let mut cx = Cx {
        function: def.name,
        sig,
        aset,
        out,
    };
    check_expr(&def.body, &mut env, "body", &mut cx);
}

/// Shared checking context: where findings go and what they reference.
struct Cx<'a> {
    function: Symbol,
    sig: &'a SigEnv,
    aset: &'a AbstractFacetSet,
    out: &'a mut Vec<Diagnostic>,
}

impl Cx<'_> {
    fn emit(&mut self, code: &'static str, path: &str, message: String) {
        self.out.push(
            Diagnostic::error(code, message)
                .in_function(self.function)
                .at_path(path),
        );
    }
}

/// Checks one node and returns the value recomputed from the *recorded*
/// child values (so corruption is reported at the node that lies, not at
/// every ancestor).
fn check_expr(
    e: &AnnExpr,
    env: &mut Vec<(Symbol, AbstractProductVal)>,
    path: &str,
    cx: &mut Cx<'_>,
) {
    let recomputed = match &e.kind {
        AnnKind::Const(c) => AbstractProductVal::from_const(*c, cx.aset),
        AnnKind::Var(x) => env
            .iter()
            .rev()
            .find(|(n, _)| n == x)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| AbstractProductVal::bottom(cx.aset)),
        AnnKind::Prim { p, args, action } => {
            for (i, a) in args.iter().enumerate() {
                check_expr(a, env, &format!("{path}.arg{i}"), cx);
            }
            let vals: Vec<AbstractProductVal> = args.iter().map(|a| a.value.clone()).collect();
            let r = cx.aset.abstract_prim(*p, &vals);
            if let PrimAction::Reduce { source } = action {
                if !r.static_sources.contains(source) {
                    let why = if *source == 0 {
                        "the PE facet: some operand is not a static constant (missing lift)"
                            .to_owned()
                    } else if *source > cx.aset.len() {
                        format!("facet {} (only {} facets exist)", source - 1, cx.aset.len())
                    } else {
                        format!(
                            "facet {}: its open operator proves nothing here",
                            source - 1
                        )
                    };
                    cx.emit(
                        "E0101",
                        path,
                        format!("`({p} …)` is annotated `Reduce` but the reduction is not justified by {why}"),
                    );
                }
            }
            r.value
        }
        AnnKind::If {
            cond,
            then_branch,
            else_branch,
            static_cond,
        } => {
            check_expr(cond, env, &format!("{path}.cond"), cx);
            check_expr(then_branch, env, &format!("{path}.then"), cx);
            check_expr(else_branch, env, &format!("{path}.else"), cx);
            let cond_bottom = cond.value.is_bottom(cx.aset);
            if *static_cond && !cond.value.bt().is_static() && !cond_bottom {
                cx.emit(
                    "E0102",
                    path,
                    "conditional is annotated eliminable (`static_cond`) but its test is not static"
                        .to_owned(),
                );
            }
            let joined = then_branch.value.join(&else_branch.value, cx.aset);
            if cond_bottom {
                AbstractProductVal::bottom(cx.aset)
            } else if *static_cond {
                joined
            } else {
                joined.force_dynamic()
            }
        }
        AnnKind::Call { f, args, action } => {
            for (i, a) in args.iter().enumerate() {
                check_expr(a, env, &format!("{path}.arg{i}"), cx);
            }
            if *action == CallAction::Unfold && !args.iter().any(|a| a.value.bt().is_static()) {
                cx.emit(
                    "E0103",
                    path,
                    format!(
                        "call of `{f}` is annotated `Unfold` but no argument is static — nothing bounds the unfolding"
                    ),
                );
            }
            if args.iter().any(|a| a.value.bt().is_dynamic()) {
                AbstractProductVal::dynamic(cx.aset)
            } else if args.iter().any(|a| a.value.is_bottom(cx.aset)) {
                AbstractProductVal::bottom(cx.aset)
            } else {
                cx.sig
                    .get(*f)
                    .map(|s| s.result.clone())
                    .unwrap_or_else(|| AbstractProductVal::bottom(cx.aset))
            }
        }
        AnnKind::Let { x, bound, body } => {
            check_expr(bound, env, &format!("{path}.bound"), cx);
            env.push((*x, bound.value.clone()));
            check_expr(body, env, &format!("{path}.body"), cx);
            env.pop();
            body.value.clone()
        }
    };
    if !recomputed.leq(&e.value, cx.aset) {
        cx.emit(
            "E0104",
            path,
            format!(
                "recorded value {} does not cover recomputed value {} — the certificate under-approximates",
                e.value.display(),
                recomputed.display()
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, AbstractInput};
    use ppe_core::facets::SizeFacet;
    use ppe_core::{AbsVal, FacetSet};
    use ppe_lang::parse_program;

    const POWER: &str = "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))";
    const IPROD: &str = "(define (iprod a b) (let ((n (vsize a))) (dotprod a b n)))
         (define (dotprod a b n)
           (if (= n 0) 0.0
               (+ (* (vref a n) (vref b n)) (dotprod a b (- n 1)))))";

    fn power_analysis() -> crate::analysis::Analysis {
        let p = parse_program(POWER).unwrap();
        analyze(
            &p,
            &FacetSet::new(),
            &[AbstractInput::dynamic(), AbstractInput::static_()],
        )
        .unwrap()
    }

    #[test]
    fn honest_annotations_pass() {
        assert!(check_certificate(&power_analysis()).is_empty());
        let p = parse_program(IPROD).unwrap();
        let facets = FacetSet::with_facets(vec![Box::new(SizeFacet)]);
        let s = AbsVal::new(ppe_core::facets::AbstractSizeVal::StaticSize);
        let analysis = analyze(
            &p,
            &facets,
            &[
                AbstractInput::dynamic().with_facet("size", s.clone()),
                AbstractInput::dynamic().with_facet("size", s),
            ],
        )
        .unwrap();
        assert!(check_certificate(&analysis).is_empty());
    }

    #[test]
    fn corrupt_reduce_on_dynamic_operand_is_e0101() {
        let mut analysis = power_analysis();
        let def = analysis
            .annotated
            .get_mut(&Symbol::intern("power"))
            .unwrap();
        // The else branch (* x (power …)) residualizes (x dynamic): claim
        // the PE facet reduces it.
        let AnnKind::If { else_branch, .. } = &mut def.body.kind else {
            panic!("power body is an if");
        };
        let AnnKind::Prim { action, .. } = &mut else_branch.kind else {
            panic!("else branch is (* …)");
        };
        *action = PrimAction::Reduce { source: 0 };
        let diags = check_certificate(&analysis);
        assert!(diags.iter().any(|d| d.code == "E0101"), "{diags:?}");
    }

    #[test]
    fn corrupt_static_cond_is_e0102() {
        let p = parse_program("(define (f x) (if (< x 0) 1 2))").unwrap();
        let mut analysis = analyze(&p, &FacetSet::new(), &[AbstractInput::dynamic()]).unwrap();
        let def = analysis.annotated.get_mut(&Symbol::intern("f")).unwrap();
        let AnnKind::If { static_cond, .. } = &mut def.body.kind else {
            panic!("f body is an if");
        };
        *static_cond = true; // the test (< x 0) is dynamic
        let diags = check_certificate(&analysis);
        assert!(diags.iter().any(|d| d.code == "E0102"), "{diags:?}");
    }

    #[test]
    fn corrupt_unfold_without_static_argument_is_e0103() {
        let p = parse_program("(define (f x) (if (< x 0) (f (+ x 1)) x))").unwrap();
        let mut analysis = analyze(&p, &FacetSet::new(), &[AbstractInput::dynamic()]).unwrap();
        let def = analysis.annotated.get_mut(&Symbol::intern("f")).unwrap();
        let AnnKind::If { then_branch, .. } = &mut def.body.kind else {
            panic!("f body is an if");
        };
        let AnnKind::Call { action, .. } = &mut then_branch.kind else {
            panic!("then branch is (f …)");
        };
        *action = CallAction::Unfold; // every argument is dynamic
        let diags = check_certificate(&analysis);
        assert!(diags.iter().any(|d| d.code == "E0103"), "{diags:?}");
    }

    #[test]
    fn corrupt_value_claiming_staticness_is_e0104() {
        let mut analysis = power_analysis();
        let def = analysis
            .annotated
            .get_mut(&Symbol::intern("power"))
            .unwrap();
        // Claim the whole (dynamic) body is static.
        let forced = AbstractProductVal::static_top(&analysis.aset);
        def.body.value = forced;
        let diags = check_certificate(&analysis);
        assert!(diags.iter().any(|d| d.code == "E0104"), "{diags:?}");
        // And the finding carries a function + path location.
        let d = diags.iter().find(|d| d.code == "E0104").unwrap();
        assert_eq!(d.location(), "power:body");
    }

    #[test]
    fn diagnostics_are_deterministically_ordered() {
        let mut analysis = power_analysis();
        let def = analysis
            .annotated
            .get_mut(&Symbol::intern("power"))
            .unwrap();
        def.body.value = AbstractProductVal::static_top(&analysis.aset);
        let a = check_certificate(&analysis);
        let b = check_certificate(&analysis);
        assert_eq!(a, b);
    }
}
