//! A vector *Contents* facet: abstract values carry the exact contents of
//! a vector, element by element.
//!
//! This facet demonstrates the reach of the paper's framework beyond the
//! examples it shows: facet domains may embed concrete data. Vectors have
//! no textual representation, so the partial evaluation facet can never
//! make `vref` static — but a Contents facet can: `Vref̂(exact, i)` with a
//! constant in-range index *is* a constant (an open operator triggering a
//! computation, Section 3.2). This is what lets an interpreter whose
//! program is a statically known vector be specialized away — see
//! `examples/interpreter.rs`.
//!
//! Elements form the two-point chain `Known(c) ⊑ Unknown`; vectors of
//! equal length are ordered pointwise, different lengths are incomparable.
//! The domain height is bounded by the longest vector plus two, finite for
//! any program run.

use std::fmt;
use std::rc::Rc;

use ppe_lang::{Const, Prim, Value};

use crate::abs_val::{AbsVal, SharedElements};
use crate::abstract_facet::{AbstractArg, AbstractFacet};
use crate::bt_val::BtVal;
use crate::facet::{Facet, FacetArg};
use crate::pe_val::PeVal;

/// Largest vector the facet tracks exactly; longer ones abstract to `⊤`
/// (keeps abstract values and cache keys small).
pub const MAX_TRACKED: usize = 4_096;

/// One tracked element: a known constant or an unknown value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ElemVal {
    /// The element is this constant.
    Known(Const),
    /// The element is something (possibly not even a constant).
    Unknown,
}

impl ElemVal {
    fn join(self, other: ElemVal) -> ElemVal {
        match (self, other) {
            (ElemVal::Known(a), ElemVal::Known(b)) if a == b => self,
            _ => ElemVal::Unknown,
        }
    }

    fn leq(self, other: ElemVal) -> bool {
        matches!(other, ElemVal::Unknown) || self == other
    }
}

/// An element of the Contents domain.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ContentsVal {
    /// `⊥` — undefined.
    Bot,
    /// A vector of exactly these (partially known) elements.
    Exact(Vec<ElemVal>),
    /// `⊤` — not a vector, or contents unknown.
    Top,
}

impl ContentsVal {
    /// An exact vector with every element known.
    pub fn known(elems: Vec<Const>) -> ContentsVal {
        ContentsVal::Exact(elems.into_iter().map(ElemVal::Known).collect())
    }
}

impl SharedElements for ContentsVal {
    const SHARED: &'static [ContentsVal] = &[ContentsVal::Bot, ContentsVal::Top];
}

impl fmt::Display for ContentsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContentsVal::Bot => f.write_str("⊥"),
            ContentsVal::Top => f.write_str("⊤"),
            ContentsVal::Exact(elems) => {
                f.write_str("#(")?;
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    match e {
                        ElemVal::Known(c) => write!(f, "{c}")?,
                        ElemVal::Unknown => f.write_str("?")?,
                    }
                }
                f.write_str(")")
            }
        }
    }
}

/// The Contents facet.
///
/// # Examples
///
/// ```
/// use ppe_core::facets::{ContentsFacet, ContentsVal};
/// use ppe_core::{AbsVal, Facet, PeVal};
/// use ppe_lang::{Const, Prim, Value};
///
/// let f = ContentsFacet;
/// let code = f.alpha(&Value::vector(vec![Value::Int(7), Value::Int(9)]));
/// // Reading a known element at a constant index is a *constant*.
/// let pe_idx = PeVal::constant(Const::Int(2));
/// let pe_top = PeVal::Top;
/// let idx_abs = f.top();
/// let out = f.open_op(
///     Prim::VRef,
///     &[
///         ppe_core::FacetArg { pe: &pe_top, abs: &code },
///         ppe_core::FacetArg { pe: &pe_idx, abs: &idx_abs },
///     ],
/// );
/// assert_eq!(out, PeVal::constant(Const::Int(9)));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct ContentsFacet;

impl ContentsFacet {
    fn get<'a>(&self, v: &'a AbsVal) -> &'a ContentsVal {
        v.expect_ref::<ContentsVal>("contents")
    }
}

impl Facet for ContentsFacet {
    fn name(&self) -> &'static str {
        "contents"
    }

    fn bottom(&self) -> AbsVal {
        AbsVal::shared(ContentsVal::Bot)
    }

    fn top(&self) -> AbsVal {
        AbsVal::shared(ContentsVal::Top)
    }

    fn join(&self, a: &AbsVal, b: &AbsVal) -> AbsVal {
        let out = match (self.get(a), self.get(b)) {
            (ContentsVal::Bot, x) | (x, ContentsVal::Bot) => x.clone(),
            (ContentsVal::Exact(x), ContentsVal::Exact(y)) if x.len() == y.len() => {
                ContentsVal::Exact(x.iter().zip(y).map(|(p, q)| p.join(*q)).collect())
            }
            _ => ContentsVal::Top,
        };
        AbsVal::shared(out)
    }

    fn leq(&self, a: &AbsVal, b: &AbsVal) -> bool {
        match (self.get(a), self.get(b)) {
            (ContentsVal::Bot, _) | (_, ContentsVal::Top) => true,
            (ContentsVal::Exact(x), ContentsVal::Exact(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.leq(*q))
            }
            _ => false,
        }
    }

    fn alpha(&self, v: &Value) -> AbsVal {
        AbsVal::shared(match v {
            Value::Vector(elems) if elems.len() <= MAX_TRACKED => ContentsVal::Exact(
                elems
                    .iter()
                    .map(|e| match e.to_const() {
                        Some(c) => ElemVal::Known(c),
                        None => ElemVal::Unknown,
                    })
                    .collect(),
            ),
            _ => ContentsVal::Top,
        })
    }

    fn closed_op(&self, p: Prim, args: &[FacetArg<'_>]) -> AbsVal {
        match p {
            Prim::MkVec => AbsVal::shared(match args[0].pe {
                PeVal::Bottom => ContentsVal::Bot,
                PeVal::Const(Const::Int(n)) if (0..=MAX_TRACKED as i64).contains(n) => {
                    ContentsVal::Exact(vec![
                        ElemVal::Known(Const::Float(
                            ppe_lang::F64::new(0.0).expect("0.0 is not NaN"),
                        ));
                        *n as usize
                    ])
                }
                _ => ContentsVal::Top,
            }),
            Prim::UpdVec => {
                if *args[1].pe == PeVal::Bottom || *args[2].pe == PeVal::Bottom {
                    return self.bottom();
                }
                match self.get(args[0].abs) {
                    ContentsVal::Bot => self.bottom(),
                    ContentsVal::Top => self.top(),
                    ContentsVal::Exact(elems) => match args[1].pe {
                        // Constant in-range index: update that element.
                        PeVal::Const(Const::Int(i)) if *i >= 1 && (*i as usize) <= elems.len() => {
                            let mut out = elems.clone();
                            out[(*i - 1) as usize] = match args[2].pe.as_const() {
                                Some(c) => ElemVal::Known(c),
                                None => ElemVal::Unknown,
                            };
                            AbsVal::shared(ContentsVal::Exact(out))
                        }
                        // Constant out-of-range index: the concrete
                        // operation errors, denoting ⊥.
                        PeVal::Const(Const::Int(_)) => self.bottom(),
                        PeVal::Const(_) => self.bottom(), // type error: ⊥
                        // Unknown index: any element may have changed,
                        // but the length is preserved.
                        _ => {
                            AbsVal::shared(ContentsVal::Exact(vec![ElemVal::Unknown; elems.len()]))
                        }
                    },
                }
            }
            _ => {
                if args.iter().any(|a| self.arg_is_bottom(a)) {
                    self.bottom()
                } else {
                    self.top()
                }
            }
        }
    }

    fn open_op(&self, p: Prim, args: &[FacetArg<'_>]) -> PeVal {
        match p {
            Prim::VSize => match self.get(args[0].abs) {
                ContentsVal::Bot => PeVal::Bottom,
                ContentsVal::Exact(elems) => PeVal::constant(Const::Int(elems.len() as i64)),
                ContentsVal::Top => {
                    if *args[0].pe == PeVal::Bottom {
                        PeVal::Bottom
                    } else {
                        PeVal::Top
                    }
                }
            },
            Prim::VRef => {
                if *args[0].pe == PeVal::Bottom || *args[1].pe == PeVal::Bottom {
                    return PeVal::Bottom;
                }
                match self.get(args[0].abs) {
                    ContentsVal::Bot => PeVal::Bottom,
                    ContentsVal::Top => PeVal::Top,
                    ContentsVal::Exact(elems) => match args[1].pe {
                        PeVal::Const(Const::Int(i)) if *i >= 1 && (*i as usize) <= elems.len() => {
                            match elems[(*i - 1) as usize] {
                                ElemVal::Known(c) => PeVal::constant(c),
                                ElemVal::Unknown => PeVal::Top,
                            }
                        }
                        // Constant index out of range: ⊥ (concrete error).
                        PeVal::Const(_) => PeVal::Bottom,
                        _ => PeVal::Top,
                    },
                }
            }
            _ => {
                if args.iter().any(|a| self.arg_is_bottom(a)) {
                    PeVal::Bottom
                } else {
                    PeVal::Top
                }
            }
        }
    }

    fn concretizes(&self, abs: &AbsVal, v: &Value) -> bool {
        match self.get(abs) {
            ContentsVal::Bot => false,
            ContentsVal::Top => true,
            ContentsVal::Exact(elems) => match v {
                Value::Vector(actual) => {
                    actual.len() == elems.len()
                        && actual.iter().zip(elems).all(|(a, e)| match e {
                            ElemVal::Known(c) => a.to_const() == Some(*c),
                            ElemVal::Unknown => true,
                        })
                }
                _ => false,
            },
        }
    }

    fn abstract_facet(&self) -> Rc<dyn AbstractFacet> {
        Rc::new(AbstractContentsFacet)
    }
}

/// The offline abstraction of [`ContentsFacet`]: the chain
/// `⊥ ⊑ all-known ⊑ length-known ⊑ dynamic`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum AbstractContentsVal {
    /// `⊥`.
    Bot,
    /// Every element statically known.
    AllKnown,
    /// Length known, some elements unknown.
    LengthKnown,
    /// Nothing known.
    Dynamic,
}

impl fmt::Display for AbstractContentsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AbstractContentsVal::Bot => "⊥",
            AbstractContentsVal::AllKnown => "known",
            AbstractContentsVal::LengthKnown => "len",
            AbstractContentsVal::Dynamic => "d",
        })
    }
}

/// The abstract Contents facet (offline level).
#[derive(Clone, Copy, Debug, Default)]
pub struct AbstractContentsFacet;

impl AbstractContentsFacet {
    fn get(&self, v: &AbsVal) -> AbstractContentsVal {
        *v.expect_ref::<AbstractContentsVal>("contents (abstract)")
    }
}

impl AbstractFacet for AbstractContentsFacet {
    fn name(&self) -> &'static str {
        "contents"
    }

    fn bottom(&self) -> AbsVal {
        AbsVal::new(AbstractContentsVal::Bot)
    }

    fn top(&self) -> AbsVal {
        AbsVal::new(AbstractContentsVal::Dynamic)
    }

    fn join(&self, a: &AbsVal, b: &AbsVal) -> AbsVal {
        AbsVal::new(self.get(a).max(self.get(b)))
    }

    fn leq(&self, a: &AbsVal, b: &AbsVal) -> bool {
        self.get(a) <= self.get(b)
    }

    fn alpha_facet(&self, online: &AbsVal) -> AbsVal {
        AbsVal::new(match online.expect_ref::<ContentsVal>("contents") {
            ContentsVal::Bot => AbstractContentsVal::Bot,
            ContentsVal::Exact(elems) => {
                if elems.iter().all(|e| matches!(e, ElemVal::Known(_))) {
                    AbstractContentsVal::AllKnown
                } else {
                    AbstractContentsVal::LengthKnown
                }
            }
            ContentsVal::Top => AbstractContentsVal::Dynamic,
        })
    }

    fn closed_op(&self, p: Prim, args: &[AbstractArg<'_>]) -> AbsVal {
        match p {
            Prim::MkVec => AbsVal::new(match args[0].bt {
                BtVal::Bottom => AbstractContentsVal::Bot,
                BtVal::Static => AbstractContentsVal::AllKnown,
                BtVal::Dynamic => AbstractContentsVal::Dynamic,
            }),
            Prim::UpdVec => {
                if *args[1].bt == BtVal::Bottom || *args[2].bt == BtVal::Bottom {
                    return self.bottom();
                }
                let v = self.get(args[0].abs);
                AbsVal::new(match v {
                    AbstractContentsVal::Bot => AbstractContentsVal::Bot,
                    AbstractContentsVal::Dynamic => AbstractContentsVal::Dynamic,
                    _ => {
                        if *args[1].bt == BtVal::Static
                            && *args[2].bt == BtVal::Static
                            && v == AbstractContentsVal::AllKnown
                        {
                            AbstractContentsVal::AllKnown
                        } else {
                            AbstractContentsVal::LengthKnown
                        }
                    }
                })
            }
            _ => {
                if args.iter().any(|a| self.arg_is_bottom(a)) {
                    self.bottom()
                } else {
                    self.top()
                }
            }
        }
    }

    fn open_op(&self, p: Prim, args: &[AbstractArg<'_>]) -> BtVal {
        match p {
            Prim::VSize => match self.get(args[0].abs) {
                AbstractContentsVal::Bot => BtVal::Bottom,
                AbstractContentsVal::AllKnown | AbstractContentsVal::LengthKnown => BtVal::Static,
                AbstractContentsVal::Dynamic => {
                    if *args[0].bt == BtVal::Bottom {
                        BtVal::Bottom
                    } else {
                        BtVal::Dynamic
                    }
                }
            },
            Prim::VRef => {
                if *args[0].bt == BtVal::Bottom || *args[1].bt == BtVal::Bottom {
                    return BtVal::Bottom;
                }
                match (self.get(args[0].abs), args[1].bt) {
                    (AbstractContentsVal::Bot, _) => BtVal::Bottom,
                    (AbstractContentsVal::AllKnown, BtVal::Static) => BtVal::Static,
                    _ => BtVal::Dynamic,
                }
            }
            _ => {
                if args.iter().any(|a| self.arg_is_bottom(a)) {
                    BtVal::Bottom
                } else {
                    BtVal::Dynamic
                }
            }
        }
    }

    fn enumerate(&self) -> Option<Vec<AbsVal>> {
        Some(
            [
                AbstractContentsVal::Bot,
                AbstractContentsVal::AllKnown,
                AbstractContentsVal::LengthKnown,
                AbstractContentsVal::Dynamic,
            ]
            .iter()
            .map(|v| AbsVal::new(*v))
            .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arg<'a>(pe: &'a PeVal, abs: &'a AbsVal) -> FacetArg<'a> {
        FacetArg { pe, abs }
    }

    #[test]
    fn alpha_captures_exact_contents() {
        let f = ContentsFacet;
        let v = Value::vector(vec![Value::Int(1), Value::Bool(true)]);
        let a = f.alpha(&v);
        assert_eq!(
            a.downcast_ref::<ContentsVal>(),
            Some(&ContentsVal::known(vec![Const::Int(1), Const::Bool(true)]))
        );
        assert!(f.concretizes(&a, &v));
    }

    #[test]
    fn vref_of_known_element_is_a_constant() {
        let f = ContentsFacet;
        let code = AbsVal::new(ContentsVal::known(vec![Const::Int(10), Const::Int(20)]));
        let pe_top = PeVal::Top;
        let idx = PeVal::constant(Const::Int(1));
        let top = f.top();
        let out = f.open_op(Prim::VRef, &[arg(&pe_top, &code), arg(&idx, &top)]);
        assert_eq!(out, PeVal::constant(Const::Int(10)));
    }

    #[test]
    fn vref_out_of_range_is_bottom() {
        let f = ContentsFacet;
        let code = AbsVal::new(ContentsVal::known(vec![Const::Int(10)]));
        let pe_top = PeVal::Top;
        let idx = PeVal::constant(Const::Int(5));
        let top = f.top();
        let out = f.open_op(Prim::VRef, &[arg(&pe_top, &code), arg(&idx, &top)]);
        assert_eq!(out, PeVal::Bottom);
    }

    #[test]
    fn updvec_with_constant_index_updates_the_element() {
        let f = ContentsFacet;
        let v = AbsVal::new(ContentsVal::known(vec![Const::Int(1), Const::Int(2)]));
        let pe_top = PeVal::Top;
        let idx = PeVal::constant(Const::Int(2));
        let val = PeVal::constant(Const::Int(9));
        let top = f.top();
        let out = f.closed_op(
            Prim::UpdVec,
            &[arg(&pe_top, &v), arg(&idx, &top), arg(&val, &top)],
        );
        assert_eq!(
            out.downcast_ref::<ContentsVal>(),
            Some(&ContentsVal::known(vec![Const::Int(1), Const::Int(9)]))
        );
    }

    #[test]
    fn updvec_with_dynamic_index_forgets_elements_but_keeps_length() {
        let f = ContentsFacet;
        let v = AbsVal::new(ContentsVal::known(vec![Const::Int(1), Const::Int(2)]));
        let pe_top = PeVal::Top;
        let top = f.top();
        let out = f.closed_op(
            Prim::UpdVec,
            &[arg(&pe_top, &v), arg(&pe_top, &top), arg(&pe_top, &top)],
        );
        assert_eq!(
            out.downcast_ref::<ContentsVal>(),
            Some(&ContentsVal::Exact(vec![ElemVal::Unknown; 2]))
        );
    }

    #[test]
    fn updvec_with_dynamic_value_only_forgets_that_slot() {
        let f = ContentsFacet;
        let v = AbsVal::new(ContentsVal::known(vec![Const::Int(1), Const::Int(2)]));
        let pe_top = PeVal::Top;
        let idx = PeVal::constant(Const::Int(1));
        let top = f.top();
        let out = f.closed_op(
            Prim::UpdVec,
            &[arg(&pe_top, &v), arg(&idx, &top), arg(&pe_top, &top)],
        );
        assert_eq!(
            out.downcast_ref::<ContentsVal>(),
            Some(&ContentsVal::Exact(vec![
                ElemVal::Unknown,
                ElemVal::Known(Const::Int(2)),
            ]))
        );
    }

    #[test]
    fn mkvec_makes_known_zeros() {
        let f = ContentsFacet;
        let n = PeVal::constant(Const::Int(2));
        let top = f.top();
        let out = f.closed_op(Prim::MkVec, &[arg(&n, &top)]);
        match out.downcast_ref::<ContentsVal>() {
            Some(ContentsVal::Exact(e)) => {
                assert_eq!(e.len(), 2);
                assert!(matches!(e[0], ElemVal::Known(Const::Float(_))));
            }
            other => panic!("expected Exact, got {other:?}"),
        }
    }

    #[test]
    fn vsize_knows_the_length() {
        let f = ContentsFacet;
        let v = AbsVal::new(ContentsVal::Exact(vec![ElemVal::Unknown; 7]));
        assert_eq!(
            f.open_op_on(Prim::VSize, &[v]),
            PeVal::constant(Const::Int(7))
        );
    }

    #[test]
    fn lattice_orders_pointwise() {
        let f = ContentsFacet;
        let known = AbsVal::new(ContentsVal::known(vec![Const::Int(1)]));
        let fuzzy = AbsVal::new(ContentsVal::Exact(vec![ElemVal::Unknown]));
        assert!(f.leq(&known, &fuzzy));
        assert!(!f.leq(&fuzzy, &known));
        assert_eq!(f.join(&known, &fuzzy), fuzzy);
        // Different lengths join to ⊤.
        let longer = AbsVal::new(ContentsVal::Exact(vec![ElemVal::Unknown; 2]));
        assert_eq!(f.join(&fuzzy, &longer), f.top());
    }

    #[test]
    fn facet_passes_the_safety_battery() {
        let mut candidates = crate::consistency::default_candidates();
        candidates.push(Value::vector(vec![Value::Int(1), Value::Int(2)]));
        candidates.push(Value::vector(vec![Value::Float(1.5)]));
        crate::safety::validate_facet(&ContentsFacet, &candidates).unwrap();
    }

    #[test]
    fn abstract_level_follows_the_chain() {
        let a = AbstractContentsFacet;
        let known = AbsVal::new(AbstractContentsVal::AllKnown);
        let len = AbsVal::new(AbstractContentsVal::LengthKnown);
        assert!(a.leq(&known, &len));
        // vref of all-known contents at a static index is Static.
        let bt_static = BtVal::Static;
        let out = a.open_op(
            Prim::VRef,
            &[
                AbstractArg {
                    bt: &bt_static,
                    abs: &known,
                },
                AbstractArg {
                    bt: &bt_static,
                    abs: &a.top(),
                },
            ],
        );
        assert_eq!(out, BtVal::Static);
    }
}
