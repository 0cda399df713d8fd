//! Online parameterized partial evaluation (Figure 3 of Consel & Khoo,
//! *Parameterized Partial Evaluation*, PLDI 1991), together with the
//! conventional simple partial evaluator of Figure 2 as an independently
//! implemented baseline.
//!
//! The online specializer threads triples `(residual expression,
//! product-of-facet-values, cache)` through the program. Constants produced
//! by *any* facet (via its open operators) reduce expressions; closed
//! operators propagate abstract values; the cache `Sf` folds repeated
//! specializations of the same function at the same abstract pattern.
//!
//! # Example: the paper's Section 6.1
//!
//! ```
//! use ppe_core::{facets::SizeFacet, size_of, FacetSet};
//! use ppe_lang::parse_program;
//! use ppe_online::{OnlinePe, PeInput};
//!
//! let program = parse_program(
//!     "(define (iprod a b) (let ((n (vsize a))) (dotprod a b n)))
//!      (define (dotprod a b n)
//!        (if (= n 0) 0.0
//!            (+ (* (vref a n) (vref b n)) (dotprod a b (- n 1)))))",
//! )?;
//! let facets = FacetSet::with_facets(vec![Box::new(SizeFacet)]);
//! let pe = OnlinePe::new(&program, &facets);
//! let residual = pe.specialize_main(&[
//!     PeInput::dynamic().with_facet("size", size_of(3)),
//!     PeInput::dynamic().with_facet("size", size_of(3)),
//! ])?;
//! // Fully unrolled — Figure 8 of the paper: no residual recursion.
//! assert_eq!(residual.program.defs().len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
mod config;
mod error;
pub mod governor;
mod input;
mod online;
pub mod preflight;
mod simple;
pub mod spec_eval;

pub use config::PeConfig;
pub use error::PeError;
pub use governor::{Budget, DegradationEvent, DegradationReport, ExhaustionPolicy, Governor};
pub use input::{PeInput, PeStats, Residual};
pub use online::OnlinePe;
pub use simple::{SimpleInput, SimplePe};
pub use spec_eval::SpecEvalBackend;
