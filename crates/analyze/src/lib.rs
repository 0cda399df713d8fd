//! Static diagnostics for PPE programs, inputs, and annotations.
//!
//! The engines (`ppe-online`, `ppe-offline`) and the service (`ppe-server`)
//! assume well-formed programs, consistent input products (Definition 6),
//! and congruent binding-time annotations (Definition 10). This crate
//! checks all three *statically* and reports every finding as a
//! [`Diagnostic`] — a stable rustc-style code, a severity, a message, and
//! a location — instead of a first-error string or a mid-specialization
//! crash. It backs the `ppe check` CLI subcommand and the server's
//! pre-flight pass.
//!
//! The passes (each pass is a module):
//!
//! 1. [`wellformed`]: unbound variables, call-site arity, unknown
//!    functions, duplicate definitions/parameters, shadowing — over the
//!    *lenient* parse ([`ppe_lang::parse_defs`]), so every problem is
//!    reported, not just the first. Unknown primitives and
//!    primitive-arity mistakes surface as `E0001` from the parser, which
//!    resolves operators while source positions are still in hand.
//! 2. [`callgraph`]: unfold-safety over the static call graph — both the
//!    structural mode (recursion no conditional guards, shared with
//!    `ppe_online::preflight`) and the binding-time-aware mode (recursion
//!    controlled only by static data, the classic infinite-unfolding
//!    risk).
//! 3. [`occurrence`]: unused parameters and dead `let` bindings, sharing
//!    `ppe_lang::opt`'s definition of droppable so the analyzer and the
//!    optimizer never disagree.
//! 4. [`depgraph`]: the dependency graph — call edges (one shared
//!    builder with pass 2), SCC condensation, per-definition closure
//!    fingerprints for incremental re-specialization, dead-code
//!    detection (`W0005`), and old-vs-new change-impact classification.
//! 5. Binding-time certificate checking: re-exported from
//!    [`ppe_offline::certify`], which validates annotated output for
//!    congruence (codes `E0101`–`E0104`).
//!
//! Input products are checked for Definition-6 consistency by
//! [`check_inputs`] (`E0007`), reusing `PeVal::concretizes` — the same
//! membership predicate the witness search uses.
//!
//! See `ppe_lang::diag` for the full code table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod depgraph;
pub mod occurrence;
pub mod wellformed;

use ppe_core::consistency::{check_consistent, default_candidates};
use ppe_core::{FacetSet, ProductVal};
use ppe_lang::diag::{error_count, warning_count};
use ppe_lang::{parse_defs, FunDef, Program};
pub use ppe_lang::{Diagnostic, Severity};
pub use ppe_offline::certify::check_certificate;

/// Runs `walk` on `path` extended by `.{segment}`, then restores `path`.
/// The passes thread one buffer through a whole body this way, so memory
/// stays linear in nesting depth and a path is copied out only when a
/// diagnostic is emitted.
fn descend(path: &mut String, segment: impl std::fmt::Display, walk: impl FnOnce(&mut String)) {
    use std::fmt::Write as _;
    let len = path.len();
    write!(path, ".{segment}").expect("writing to a String cannot fail");
    walk(path);
    path.truncate(len);
}

/// The result of checking one program source: all diagnostics, in
/// deterministic order (pass order, then definition order, then
/// evaluation order within a body).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckReport {
    /// Every finding.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        error_count(&self.diagnostics)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        warning_count(&self.diagnostics)
    }

    /// True iff there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True iff at least one finding is an error.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }
}

/// Checks program source text: lenient parse, then passes 1–4.
///
/// A lexical/syntactic problem (including unknown primitives and
/// primitive arity, which the parser owns) yields a single `E0001`
/// diagnostic carrying the parser's line/column; otherwise the raw
/// definitions go through [`check_defs`].
///
/// # Examples
///
/// ```
/// use ppe_analyze::check_source;
///
/// let report = check_source("(define (f x) (+ x y))");
/// assert_eq!(report.diagnostics[0].code, "E0004"); // unbound `y`
/// assert!(report.has_errors());
/// assert!(check_source("(define (f x) x)").is_clean());
/// ```
pub fn check_source(src: &str) -> CheckReport {
    match parse_defs(src) {
        Err(e) => CheckReport {
            diagnostics: vec![
                Diagnostic::error("E0001", e.message.clone()).at_line_col(e.line, e.col)
            ],
        },
        Ok(defs) => CheckReport {
            diagnostics: check_defs(&defs),
        },
    }
}

/// Passes 1–4 over raw definitions (the lenient-parse output or
/// programmatically built defs).
pub fn check_defs(defs: &[FunDef]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    wellformed::check(defs, &mut out);
    callgraph::check_structural(defs, &mut out);
    depgraph::check_dead_code(defs, &mut out);
    occurrence::check(defs, &mut out);
    out
}

/// Passes 1–4 over an already-validated [`Program`] — the server's
/// pre-flight entry point: errors will be absent (validation already
/// gated), warnings (`W0001`–`W0005`) remain meaningful.
pub fn check_program(program: &Program) -> Vec<Diagnostic> {
    check_defs(program.defs())
}

/// Checks each input product for Definition-6 consistency against the
/// default candidate pool, reporting `E0007` per inconsistent product.
/// Membership of the PE component is `PeVal::concretizes` — the predicate
/// shared with `ppe_core::consistency`.
///
/// # Examples
///
/// ```
/// use ppe_analyze::check_inputs;
/// use ppe_core::{facets::{SignFacet, SignVal}, AbsVal, FacetSet, ProductVal};
/// use ppe_lang::Const;
///
/// let set = FacetSet::with_facets(vec![Box::new(SignFacet)]);
/// // The constant 3 claimed negative: no concrete value fits both.
/// let bad = ProductVal::from_const(Const::Int(3), &set)
///     .with_facet(0, AbsVal::new(SignVal::Neg));
/// let diags = check_inputs(&[bad], &set);
/// assert_eq!(diags[0].code, "E0007");
/// ```
pub fn check_inputs(products: &[ProductVal], set: &FacetSet) -> Vec<Diagnostic> {
    let candidates = default_candidates();
    let mut out = Vec::new();
    for (i, p) in products.iter().enumerate() {
        if let Err(e) = check_consistent(p, set, &candidates) {
            out.push(Diagnostic::error(
                "E0007",
                format!("input {i} is inconsistent: {e}"),
            ));
        }
    }
    out
}

/// Binding-time-aware unfold-safety (`W0002`): see
/// [`callgraph::check_unfolding`].
pub fn check_unfolding(program: &Program, analysis: &ppe_offline::Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    callgraph::check_unfolding(program, analysis, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppe_offline::{analyze, AbstractInput};

    fn codes(src: &str) -> Vec<&'static str> {
        check_source(src)
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn parse_errors_are_e0001_with_position() {
        let r = check_source("(define (f x)");
        assert_eq!(r.diagnostics.len(), 1);
        let d = &r.diagnostics[0];
        assert_eq!(d.code, "E0001");
        assert!(d.line >= 1);
        // Unknown primitive: also the parser's finding.
        let r = check_source("(define (f x) (frobnicate x))");
        assert_eq!(r.diagnostics[0].code, "E0001");
        assert!(r.diagnostics[0].message.contains("unknown operator"));
        // Primitive arity: likewise.
        let r = check_source("(define (f x) (+ x))");
        assert_eq!(r.diagnostics[0].code, "E0001");
        assert!(r.diagnostics[0].message.contains("expects"));
    }

    #[test]
    fn duplicate_definition_is_e0002() {
        assert!(codes("(define (f x) x) (define (f y) y)").contains(&"E0002"));
    }

    #[test]
    fn duplicate_parameter_is_e0003() {
        assert!(codes("(define (f x x) x)").contains(&"E0003"));
    }

    #[test]
    fn unbound_variable_is_e0004_with_path() {
        let r = check_source("(define (f x) (if (= x 0) x (+ x y)))");
        let d = r.diagnostics.iter().find(|d| d.code == "E0004").unwrap();
        assert_eq!(d.message, "unbound variable `y`");
        assert_eq!(d.location(), "f:body.else.arg1");
    }

    #[test]
    fn unknown_function_is_e0005() {
        // Unreachable from source text (the parser resolves operators),
        // but reachable through programmatically built defs.
        use ppe_lang::{Expr, Symbol};
        let def = FunDef::new(
            Symbol::intern("f"),
            vec![Symbol::intern("x")],
            Expr::Call(
                Symbol::intern("ghost"),
                vec![Expr::Var(Symbol::intern("x"))],
            ),
        );
        let diags = check_defs(&[def]);
        assert!(diags.iter().any(|d| d.code == "E0005"), "{diags:?}");
    }

    #[test]
    fn call_arity_mismatch_is_e0006() {
        let r = check_source("(define (f x) (g x x)) (define (g y) y)");
        let d = r.diagnostics.iter().find(|d| d.code == "E0006").unwrap();
        assert_eq!(d.message, "`g` expects 1 arguments but is called with 2");
    }

    #[test]
    fn shadowing_is_w0001() {
        let r = check_source("(define (f x) (let ((x (+ x 1))) x))");
        assert!(r.diagnostics.iter().any(|d| d.code == "W0001"));
        assert!(!r.has_errors());
    }

    #[test]
    fn unconditional_recursion_is_w0002() {
        let r = check_source("(define (spin n) (spin (+ n 1)))");
        let d = r.diagnostics.iter().find(|d| d.code == "W0002").unwrap();
        assert!(
            d.message.contains("no reachable base case"),
            "{}",
            d.message
        );
    }

    #[test]
    fn unused_parameter_is_w0003_and_dead_let_is_w0004() {
        let r = check_source("(define (f x u) (let ((dead 42)) x))");
        let cs: Vec<_> = r.diagnostics.iter().map(|d| d.code).collect();
        assert!(cs.contains(&"W0003"), "{cs:?}");
        assert!(cs.contains(&"W0004"), "{cs:?}");
    }

    #[test]
    fn non_droppable_dead_binding_is_not_w0004() {
        // (g x) may diverge: the optimizer keeps it, so must we.
        let r = check_source(
            "(define (f x) (let ((dead (g x))) x)) (define (g x) (if (= x 0) 0 (g (- x 1))))",
        );
        assert!(!r.diagnostics.iter().any(|d| d.code == "W0004"));
    }

    #[test]
    fn clean_corpus_programs_are_clean() {
        for src in [
            "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
            "(define (iprod a b) (let ((n (vsize a))) (dotprod a b n)))
             (define (dotprod a b n)
               (if (= n 0) 0.0 (+ (* (vref a n) (vref b n)) (dotprod a b (- n 1)))))",
        ] {
            let r = check_source(src);
            assert!(r.is_clean(), "{src}: {:?}", r.diagnostics);
        }
    }

    #[test]
    fn static_recursion_under_bta_is_w0002() {
        let src = "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))";
        let program = ppe_lang::parse_program(src).unwrap();
        let analysis = analyze(
            &program,
            &FacetSet::new(),
            &[AbstractInput::dynamic(), AbstractInput::static_()],
        )
        .unwrap();
        let diags = check_unfolding(&program, &analysis);
        let d = diags.iter().find(|d| d.code == "W0002").unwrap();
        assert!(d.message.contains("purely static"), "{}", d.message);
        // With n dynamic the call specializes instead: no warning.
        let analysis = analyze(
            &program,
            &FacetSet::new(),
            &[AbstractInput::dynamic(), AbstractInput::dynamic()],
        )
        .unwrap();
        assert!(check_unfolding(&program, &analysis).is_empty());
    }

    #[test]
    fn report_counts() {
        let r = check_source("(define (f x u) (+ x y))");
        assert_eq!(r.errors(), 1); // unbound y
        assert_eq!(r.warnings(), 1); // unused u
        assert!(!r.is_clean());
        assert!(r.has_errors());
    }
}
