//! Offline parameterized partial evaluation (Section 5 of Consel & Khoo,
//! *Parameterized Partial Evaluation*, PLDI 1991).
//!
//! The offline strategy splits partial evaluation into:
//!
//! 1. **Facet analysis** ([`analyze`], Figure 4) — a generalization of
//!    binding-time analysis that statically computes, for every function, a
//!    *facet signature* (products of abstract facet values for its
//!    parameters and result), and annotates every expression with the
//!    reduction that will fire at specialization time — including *which
//!    facet's* open operator produces each static value;
//! 2. **Specialization** ([`OfflinePe`]) — a simple walk that follows the
//!    annotations: it no longer searches facets for reductions, it performs
//!    exactly the pre-selected ones.
//!
//! Section 5.5's higher-order facet analysis (Figures 5–6) is implemented
//! in [`higher_order`].
//!
//! # Example: the paper's Section 6.2
//!
//! ```
//! use ppe_core::{facets::{AbstractSizeVal, SizeFacet}, AbsVal, FacetSet};
//! use ppe_lang::parse_program;
//! use ppe_offline::{analyze, AbstractInput};
//!
//! let program = parse_program(
//!     "(define (iprod a b) (let ((n (vsize a))) (dotprod a b n)))
//!      (define (dotprod a b n)
//!        (if (= n 0) 0.0
//!            (+ (* (vref a n) (vref b n)) (dotprod a b (- n 1)))))",
//! )?;
//! let facets = FacetSet::with_facets(vec![Box::new(SizeFacet)]);
//! // Both vectors dynamic, but their *size* is static: ⟨Dyn, s⟩.
//! let s = AbsVal::new(AbstractSizeVal::StaticSize);
//! let analysis = analyze(&program, &facets, &[
//!     AbstractInput::dynamic().with_facet("size", s.clone()),
//!     AbstractInput::dynamic().with_facet("size", s),
//! ])?;
//! // Figure 9: n is Static in dotprod — the conditional reduces.
//! let sig = analysis.signatures.get("dotprod".into()).unwrap();
//! assert!(sig.args[2].bt().is_static());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod annotate;
pub mod certify;
mod error;
pub mod higher_order;
pub mod polyvariant;
mod signature;
mod specialize;

pub use analysis::{
    abstract_of_product, analyze, analyze_fn, analyze_fn_with_config, analyze_with_config,
    AbstractInput, Analysis,
};
pub use annotate::{AnnExpr, AnnFunDef, AnnKind, CallAction, PrimAction};
pub use error::OfflineError;
pub use signature::{FacetSignature, SigEnv};
pub use specialize::OfflinePe;
