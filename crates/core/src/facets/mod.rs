//! Ready-made facets.
//!
//! - [`SignFacet`] — the Sign facet of Examples 1–2 (extended to the full
//!   primitive algebra);
//! - [`ParityFacet`] — even/odd, a second first-class example of a
//!   user-defined property;
//! - [`RangeFacet`] — integer intervals with widening (exercising the
//!   paper's footnote 1 on infinite-height lattices);
//! - [`SizeFacet`] — the vector Size facet of Section 6, whose abstract
//!   facet ([`AbstractSizeFacet`]) has a *different* domain (`{⊥, s, d}`)
//!   than the online facet, exactly as in Section 6.2;
//! - [`TypeFacet`] — runtime-type tracking whose open operators detect
//!   guaranteed type errors (answering `⊥`) and whose `assume` learns
//!   types from observed comparison outcomes;
//! - [`ConstSetFacet`] — k-bounded sets of possible constants
//!   (generalized constant propagation, with branch filtering);
//! - [`ContentsFacet`] — exact vector contents, making `vref` at constant
//!   indices static (the facet behind interpreter specialization,
//!   `examples/interpreter.rs`);
//! - [`MimicAbstractFacet`] — the generic construction of an abstract facet
//!   for facets whose offline domain coincides with the online domain.

mod const_set;
mod contents;
mod mimic;
mod parity;
mod range;
mod sign;
mod size;
mod ty;

pub use const_set::{ConstSetFacet, ConstSetVal, DEFAULT_SET_BOUND};
pub use contents::{
    AbstractContentsFacet, AbstractContentsVal, ContentsFacet, ContentsVal, ElemVal, MAX_TRACKED,
};
pub use mimic::MimicAbstractFacet;
pub use parity::{ParityFacet, ParityVal};
pub use range::{RangeFacet, RangeVal};
pub use sign::{SignFacet, SignVal};
pub use size::{AbstractSizeFacet, AbstractSizeVal, SizeFacet, SizeVal};
pub use ty::{TypeFacet, TypeVal};

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    use ppe_lang::{Const, Value};

    use super::*;
    use crate::{AbsVal, Facet};

    fn hash(v: &AbsVal) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// `shared` stands for exactly the element `fresh` erases.
    fn assert_same(shared: &AbsVal, fresh: &AbsVal, what: &str) {
        assert_eq!(shared, fresh, "{what}");
        assert_eq!(hash(shared), hash(fresh), "{what}");
        assert_eq!(shared.to_string(), fresh.to_string(), "{what}");
        assert_eq!(format!("{shared:?}"), format!("{fresh:?}"), "{what}");
    }

    /// Whether two handles share one allocation (their elements sit at
    /// one address).
    fn one_allocation<T: 'static>(a: &AbsVal, b: &AbsVal) -> bool {
        std::ptr::eq(
            a.downcast_ref::<T>().unwrap(),
            b.downcast_ref::<T>().unwrap(),
        )
    }

    struct Expected {
        facet: Box<dyn Facet>,
        top: AbsVal,
        bottom: AbsVal,
        /// A value and the element its α must be.
        alpha: (Value, AbsVal),
        all: Option<Vec<AbsVal>>,
    }

    fn every_builtin_facet() -> Vec<Expected> {
        vec![
            Expected {
                facet: Box::new(SignFacet),
                top: AbsVal::new(SignVal::Top),
                bottom: AbsVal::new(SignVal::Bot),
                alpha: (Value::Bool(true), AbsVal::new(SignVal::Top)),
                all: Some(SignVal::ALL.map(AbsVal::new).to_vec()),
            },
            Expected {
                facet: Box::new(ParityFacet),
                top: AbsVal::new(ParityVal::Top),
                bottom: AbsVal::new(ParityVal::Bot),
                alpha: (Value::Float(2.0), AbsVal::new(ParityVal::Top)),
                all: Some(ParityVal::ALL.map(AbsVal::new).to_vec()),
            },
            Expected {
                facet: Box::new(TypeFacet),
                top: AbsVal::new(TypeVal::Top),
                bottom: AbsVal::new(TypeVal::Bot),
                alpha: (Value::Bool(false), AbsVal::new(TypeVal::Bool)),
                all: Some(TypeVal::ALL.map(AbsVal::new).to_vec()),
            },
            Expected {
                facet: Box::new(RangeFacet),
                top: AbsVal::new(RangeVal::TOP),
                bottom: AbsVal::new(RangeVal::Bot),
                alpha: (Value::Float(1.5), AbsVal::new(RangeVal::TOP)),
                all: None,
            },
            Expected {
                facet: Box::new(SizeFacet),
                top: AbsVal::new(SizeVal::Top),
                bottom: AbsVal::new(SizeVal::Bot),
                alpha: (Value::Int(3), AbsVal::new(SizeVal::Top)),
                all: None,
            },
            Expected {
                facet: Box::new(ContentsFacet),
                top: AbsVal::new(ContentsVal::Top),
                bottom: AbsVal::new(ContentsVal::Bot),
                alpha: (Value::Int(3), AbsVal::new(ContentsVal::Top)),
                all: None,
            },
            Expected {
                facet: Box::new(ConstSetFacet::default()),
                top: AbsVal::new(ConstSetVal::Top),
                bottom: AbsVal::new(ConstSetVal::Bot),
                alpha: (Value::vector(vec![]), AbsVal::new(ConstSetVal::Top)),
                all: None,
            },
        ]
    }

    #[test]
    fn shared_elements_equal_fresh_ones() {
        for e in every_builtin_facet() {
            let f = &*e.facet;
            let name = f.name();
            assert_same(&f.top(), &e.top, &format!("{name} ⊤"));
            assert_same(&f.bottom(), &e.bottom, &format!("{name} ⊥"));
            let (v, want) = &e.alpha;
            assert_same(&f.alpha(v), want, &format!("{name} α({v:?})"));
            match (f.enumerate(), &e.all) {
                (Some(got), Some(want)) => {
                    assert_eq!(got.len(), want.len(), "{name}");
                    for (i, (g, w)) in got.iter().zip(want).enumerate() {
                        assert_same(g, w, &format!("{name} element {i}"));
                    }
                }
                (None, None) => {}
                (got, _) => panic!("{name} enumerates {got:?}"),
            }
        }
    }

    #[test]
    fn built_in_facets_hand_out_one_allocation_per_element() {
        let sign = SignFacet;
        assert!(one_allocation::<SignVal>(&sign.top(), &sign.top()));
        assert!(one_allocation::<SignVal>(
            &sign.alpha(&Value::Int(-4)),
            &sign.enumerate().unwrap()[3]
        ));
        let size = SizeFacet;
        assert!(one_allocation::<SizeVal>(
            &size.alpha(&Value::Int(1)),
            &size.alpha(&Value::Bool(true))
        ));
        let contents = ContentsFacet;
        assert!(one_allocation::<ContentsVal>(
            &contents.bottom(),
            &contents.bottom()
        ));
        // Elements outside the shared set are fresh, and equal all the same.
        let range = RangeFacet;
        let (a, b) = (range.alpha(&Value::Int(7)), range.alpha(&Value::Int(7)));
        assert!(!one_allocation::<RangeVal>(&a, &b));
        assert_same(&a, &AbsVal::new(RangeVal::exactly(7)), "range α(7)");
        let set = ConstSetFacet::default();
        assert_same(
            &set.alpha(&Value::Int(2)),
            &AbsVal::new(ConstSetVal::just(Const::Int(2))),
            "const-set α(2)",
        );
    }
}
