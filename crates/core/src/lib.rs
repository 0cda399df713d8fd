//! The facet framework of Consel & Khoo, *Parameterized Partial Evaluation*
//! (PLDI 1991).
//!
//! This crate implements the paper's algebraic machinery:
//!
//! - [`PeVal`] — the online partial-evaluation domain `Values`
//!   (`Const` lifted with `⊥` and `⊤`, Section 3.2);
//! - [`BtVal`] — the binding-time domain `Values̄`
//!   (`⊥ ⊑ Static ⊑ Dynamic`, Section 3.2);
//! - [`Facet`] — user-defined static properties as abstractions of a
//!   semantic algebra, with **closed** and **open** operators
//!   (Definitions 2–4);
//! - [`AbstractFacet`] — the offline abstraction of a facet
//!   (Definition 8);
//! - [`FacetSet`] / [`ProductVal`] — products of facets with the partial
//!   evaluation facet at component 0 (Definitions 5–7, Section 4.4);
//! - [`AbstractFacetSet`] / [`AbstractProductVal`] — products of abstract
//!   facets with the binding-time facet at component 0
//!   (Definitions 9–10, Section 5);
//! - [`safety`] — executable versions of the paper's safety conditions
//!   (Definition 2 condition 5, Properties 1–8), used by the test suite to
//!   validate every shipped facet and available to validate user facets;
//! - [`facets`] — a library of ready-made facets: the Sign facet of
//!   Examples 1–2, a Parity facet, an interval Range facet (with widening,
//!   per the paper's footnote on infinite-height lattices), and the vector
//!   Size facet of Section 6.
//!
//! # Defining a facet
//!
//! A facet supplies an abstract domain (a finite-height lattice), an
//! abstraction function `α`, and abstract versions of the primitive
//! operators, classified as closed (`D̂ⁿ → D̂`) or open (`D̂ⁿ → Values`):
//!
//! ```
//! use ppe_core::{facets::SignFacet, Facet, PeVal};
//! use ppe_lang::{Prim, Value};
//!
//! let sign = SignFacet;
//! let pos = sign.alpha(&Value::Int(3));
//! let neg = sign.alpha(&Value::Int(-2));
//! // `<` is an open operator: it *triggers computation* from properties.
//! let out = sign.open_op_on(Prim::Lt, &[neg, pos]);
//! assert_eq!(out, PeVal::constant(true.into()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abs_val;
mod abstract_facet;
mod abstract_product;
mod bt_val;
pub mod consistency;
mod facet;
pub mod facets;
mod lattice;
mod pe_val;
mod product;
pub mod safety;
mod short_list;

pub use abs_val::{AbsVal, AbstractValue};
pub use abstract_facet::{AbstractArg, AbstractFacet};
pub use abstract_product::{AbstractFacetSet, AbstractProductVal};
pub use bt_val::{bt_op, BtVal};
pub use facet::{Facet, FacetArg, OpClass};
pub use lattice::{check_lattice_laws, Lattice, LatticeLawViolation};
pub use pe_val::{pe_op, PeVal};
pub use product::{FacetSet, PrimOutcome, ProductVal};

/// Convenience: the Size-facet abstract value for a known vector size
/// (Section 6.1), as an [`AbsVal`].
pub fn size_of(n: i64) -> AbsVal {
    AbsVal::new(facets::SizeVal::Known(n))
}
