//! # Parameterized Partial Evaluation
//!
//! A Rust implementation of Consel & Khoo, *Parameterized Partial
//! Evaluation* (PLDI 1991; extended version YALEU/DCS/RR-865): partial
//! evaluation parameterized by user-defined static properties (*facets*),
//! in both **online** and **offline** (facet analysis + specialization)
//! form.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`lang`] — the object language: AST, parser, printer, standard
//!   evaluator (Figure 1 of the paper).
//! - [`core`] — facets, abstract facets, products, the partial-evaluation
//!   and binding-time facets, safety checking, and a library of ready-made
//!   facets (Sections 3–5.3).
//! - [`online`] — the online parameterized partial evaluator (Figure 3) and
//!   the conventional simple partial evaluator (Figure 2).
//! - [`offline`] — facet analysis (Figure 4), the analysis-driven
//!   specializer, and the higher-order analysis (Figures 5–6).
//! - [`analyze`] — the static analyzer behind `ppe check`: structured
//!   diagnostics (stable codes, severities, locations) for well-formedness,
//!   unfold-safety, occurrence, input consistency (Definition 6), and
//!   binding-time-certificate congruence (Definition 10).
//! - [`server`] — the concurrent specialization service: a sharded
//!   content-addressed residual cache with single-flight deduplication,
//!   a work-stealing batch driver, and a JSON-lines serve loop (the
//!   `ppe batch` / `ppe serve` subcommands).
//!
//! ## Quickstart
//!
//! Specialize the paper's inner-product program with respect to the *size*
//! of its vector arguments (Section 6):
//!
//! ```
//! use ppe::lang::parse_program;
//! use ppe::core::{facets::SizeFacet, size_of, FacetSet};
//! use ppe::online::{OnlinePe, PeInput};
//!
//! let program = parse_program(
//!     "(define (iprod a b) (let ((n (vsize a))) (dotprod a b n)))
//!      (define (dotprod a b n)
//!        (if (= n 0) 0.0
//!            (+ (* (vref a n) (vref b n)) (dotprod a b (- n 1)))))",
//! )?;
//!
//! let facets = FacetSet::with_facets(vec![Box::new(SizeFacet)]);
//! let pe = OnlinePe::new(&program, &facets);
//! let residual = pe.specialize_main(&[
//!     PeInput::dynamic().with_facet("size", size_of(3)),
//!     PeInput::dynamic().with_facet("size", size_of(3)),
//! ])?;
//! // The residual program is the fully unrolled Figure 8 of the paper.
//! assert!(ppe::lang::pretty_program(&residual.program).contains("vref"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

//! ## Architecture tour
//!
//! The pipeline mirrors the paper's structure:
//!
//! 1. **Say what is known.** Concrete inputs are [`online::PeInput::known`];
//!    unknown inputs are [`online::PeInput::dynamic`], optionally refined
//!    with per-facet abstract values (`.with_facet("size", size_of(3))`).
//!    Internally each input becomes a [`core::ProductVal`]: the smashed
//!    product of the PE facet's `Values` component and one component per
//!    user facet (Definition 5).
//! 2. **Online** ([`online::OnlinePe`]): every primitive application goes
//!    through the product operator (`K̂_P` of Figure 3). Closed operators
//!    compute new abstract values; open operators may answer a constant —
//!    from *any* facet — which reduces the expression and re-abstracts
//!    into all facets. Calls unfold on static information or fold onto
//!    cached specializations (`Sf`).
//! 3. **Offline** ([`offline::analyze`] + [`offline::OfflinePe`]): facet
//!    analysis (Figure 4) runs the same product logic over *abstract
//!    facets* (`Values̄` + `D̄ᵢ`), producing per-function facet signatures
//!    and per-expression annotations that name the facet performing each
//!    reduction; the specializer then just follows them.
//! 4. **Check your facets.** [`core::safety`] makes the paper's
//!    Definition 2 obligations executable; run
//!    [`core::safety::validate_facet`] over samples before trusting a new
//!    facet (`ppe verify-facets` does exactly this for the shipped ones).
//! 5. **Check your programs.** [`analyze::check_source`] reports every
//!    static problem — unbound variables, arity mismatches, unfold-unsafe
//!    recursion, incongruent annotations — as a [`lang::Diagnostic`] with a
//!    stable code, before the engines ever see the program (`ppe check`,
//!    and the server's pre-flight pass).
//!
//! Residual programs are ordinary [`lang::Program`]s: run them with
//! [`lang::Evaluator`], compile them to bytecode and run them fast with
//! [`vm`], clean them with [`lang::optimize_program`] and
//! [`lang::prune_unused_params`] (both at once, in place, with
//! [`lang::optimize_residual`]), or print them with
//! [`lang::pretty_program`].

#![forbid(unsafe_code)]

pub use ppe_analyze as analyze;
pub use ppe_core as core;
pub use ppe_lang as lang;
pub use ppe_offline as offline;
pub use ppe_online as online;
pub use ppe_server as server;
pub use ppe_vm as vm;
