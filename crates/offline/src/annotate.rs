//! Annotated (two-level) syntax: the output of facet analysis that drives
//! the offline specializer.
//!
//! Facet analysis does more than compute signatures: for every expression
//! it decides *in advance* what the specializer will do — reduce a
//! primitive (and by *which facet's* operator), take a branch statically,
//! unfold a call, or rebuild. This realizes the paper's third contribution:
//! "not only does the facet analysis statically determine which properties
//! trigger computations, but it also selects the corresponding reduction
//! operations prior to specialization" (Section 1).

use std::cell::OnceCell;
use std::fmt;

use ppe_core::AbstractProductVal;
use ppe_lang::{Const, Prim, Symbol};
use ppe_online::spec_eval::StaticSubtree;

/// What the specializer does at a primitive application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrimAction {
    /// Reduce to a constant. `source` is the component that guarantees the
    /// constant: `0` is the partial-evaluation facet (all arguments are
    /// constants — compute by standard evaluation), `i + 1` is user facet
    /// `i` (invoke that facet's open operator).
    Reduce {
        /// Which product component produces the constant.
        source: usize,
    },
    /// Rebuild the application in the residual program.
    Residualize,
}

/// What the specializer does at a function call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallAction {
    /// Unfold the call (some argument is static).
    Unfold,
    /// Fold onto a specialized residual function.
    Specialize,
}

/// An annotated expression: the source shape plus the abstract product
/// computed by facet analysis and the pre-selected specializer action.
#[derive(Clone, Debug, PartialEq)]
pub struct AnnExpr {
    /// The abstract product of facet values of this expression.
    pub value: AbstractProductVal,
    /// The annotated node.
    pub kind: AnnKind,
    /// The node's static-evaluation facts, computed on first use and kept
    /// with the analysis, so every run the analysis serves shares them.
    pub(crate) shortcut: Shortcut,
}

/// A lazily computed [`StaticSubtree`] for one annotated node. It caches
/// a function of the node, so a clone starts empty and equality ignores
/// it.
#[derive(Default)]
pub(crate) struct Shortcut(pub(crate) OnceCell<Option<StaticSubtree>>);

impl Clone for Shortcut {
    fn clone(&self) -> Shortcut {
        Shortcut::default()
    }
}

impl PartialEq for Shortcut {
    fn eq(&self, _: &Shortcut) -> bool {
        true
    }
}

impl fmt::Debug for Shortcut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Shortcut")
    }
}

/// The node alternatives of [`AnnExpr`].
#[derive(Clone, Debug, PartialEq)]
pub enum AnnKind {
    /// A constant.
    Const(Const),
    /// A variable.
    Var(Symbol),
    /// A primitive application with its pre-selected action.
    Prim {
        /// The operator.
        p: Prim,
        /// Annotated arguments.
        args: Vec<AnnExpr>,
        /// Reduce or rebuild.
        action: PrimAction,
    },
    /// A conditional; `static_cond` records whether analysis proved the
    /// test static (the branch decision happens at specialization time).
    If {
        /// The annotated test.
        cond: Box<AnnExpr>,
        /// The annotated consequent.
        then_branch: Box<AnnExpr>,
        /// The annotated alternative.
        else_branch: Box<AnnExpr>,
        /// True iff the test's binding time is `Static`.
        static_cond: bool,
    },
    /// A call of a top-level function with its pre-selected treatment.
    Call {
        /// The callee.
        f: Symbol,
        /// Annotated arguments.
        args: Vec<AnnExpr>,
        /// Unfold or specialize.
        action: CallAction,
    },
    /// A `let` binding.
    Let {
        /// The bound variable.
        x: Symbol,
        /// The annotated bound expression.
        bound: Box<AnnExpr>,
        /// The annotated body.
        body: Box<AnnExpr>,
    },
}

impl AnnExpr {
    /// Collects `(description, value)` rows for reporting in the style of
    /// the paper's Figure 9 (one row per primitive, call and conditional
    /// test).
    pub fn report_rows(&self, out: &mut Vec<(String, String)>) {
        match &self.kind {
            AnnKind::Const(_) | AnnKind::Var(_) => {}
            AnnKind::Prim { p, args, action } => {
                for a in args {
                    a.report_rows(out);
                }
                let action_str = match action {
                    PrimAction::Reduce { source: 0 } => " [reduce: PE]".to_owned(),
                    PrimAction::Reduce { source } => format!(" [reduce: facet {}]", source - 1),
                    PrimAction::Residualize => String::new(),
                };
                out.push((format!("({p} …){action_str}"), self.value.display()));
            }
            AnnKind::If {
                cond,
                then_branch,
                else_branch,
                static_cond,
            } => {
                cond.report_rows(out);
                out.push((
                    format!(
                        "if-test [{}]",
                        if *static_cond { "static" } else { "dynamic" }
                    ),
                    cond.value.display(),
                ));
                then_branch.report_rows(out);
                else_branch.report_rows(out);
            }
            AnnKind::Call { f, args, action } => {
                for a in args {
                    a.report_rows(out);
                }
                out.push((
                    format!(
                        "call {f} [{}]",
                        match action {
                            CallAction::Unfold => "unfold",
                            CallAction::Specialize => "specialize",
                        }
                    ),
                    self.value.display(),
                ));
            }
            AnnKind::Let { bound, body, x } => {
                bound.report_rows(out);
                out.push((format!("let {x}"), bound.value.display()));
                body.report_rows(out);
            }
        }
    }
}

/// An annotated function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct AnnFunDef {
    /// The function's name.
    pub name: Symbol,
    /// Formal parameters.
    pub params: Vec<Symbol>,
    /// The annotated body.
    pub body: AnnExpr,
}

#[cfg(test)]
mod tests {
    use crate::analysis::{analyze, AbstractInput};
    use crate::annotate::{AnnKind, CallAction, PrimAction};
    use ppe_core::FacetSet;
    use ppe_lang::parse_program;

    fn rows_of(src: &str, inputs: &[AbstractInput]) -> Vec<(String, String)> {
        let p = parse_program(src).unwrap();
        let facets = FacetSet::new();
        let analysis = analyze(&p, &facets, inputs).unwrap();
        let ann = &analysis.annotated[&p.main().name];
        let mut rows = Vec::new();
        ann.body.report_rows(&mut rows);
        rows
    }

    #[test]
    fn rows_cover_prims_ifs_lets_and_calls() {
        let rows = rows_of(
            "(define (f x n)
               (let ((m (+ n 1)))
                 (if (= m 0) x (g x m))))
             (define (g x m) x)",
            &[AbstractInput::dynamic(), AbstractInput::static_()],
        );
        let descs: Vec<&str> = rows.iter().map(|(d, _)| d.as_str()).collect();
        assert!(
            descs.iter().any(|d| d.contains("(+ …) [reduce: PE]")),
            "{descs:?}"
        );
        assert!(descs.iter().any(|d| d.contains("let m")), "{descs:?}");
        assert!(
            descs.iter().any(|d| d.contains("if-test [static]")),
            "{descs:?}"
        );
        assert!(
            descs.iter().any(|d| d.contains("call g [unfold]")),
            "{descs:?}"
        );
    }

    #[test]
    fn dynamic_everything_reports_residual_actions() {
        let rows = rows_of(
            "(define (f x) (if (< x 0) (f (+ x 1)) x))",
            &[AbstractInput::dynamic()],
        );
        let descs: Vec<&str> = rows.iter().map(|(d, _)| d.as_str()).collect();
        assert!(
            descs.iter().any(|d| d.contains("if-test [dynamic]")),
            "{descs:?}"
        );
        assert!(
            descs.iter().any(|d| d.contains("call f [specialize]")),
            "{descs:?}"
        );
        assert!(
            descs.iter().all(|d| !d.contains("[reduce")),
            "nothing reduces: {descs:?}"
        );
    }

    #[test]
    fn actions_compare_and_debug() {
        assert_eq!(
            PrimAction::Reduce { source: 0 },
            PrimAction::Reduce { source: 0 }
        );
        assert_ne!(PrimAction::Reduce { source: 0 }, PrimAction::Residualize);
        assert_ne!(CallAction::Unfold, CallAction::Specialize);
        let k = AnnKind::Var(ppe_lang::Symbol::intern("v"));
        assert!(format!("{k:?}").contains("Var"));
    }
}
