//! The vector Size facet of Section 6 — the paper's running example — at
//! both levels: the online facet `[V̂; Ô]` (Section 6.1) and its abstract
//! facet `[V̄; Ō]` (Section 6.2), whose domain `{⊥, s, d}` genuinely
//! differs from the online domain (unlike Sign's identity mapping).

use std::fmt;
use std::rc::Rc;

use ppe_lang::{Const, Prim, Value};

use crate::abs_val::{AbsVal, SharedElements};
use crate::abstract_facet::{AbstractArg, AbstractFacet};
use crate::bt_val::BtVal;
use crate::facet::{Facet, FacetArg};
use crate::pe_val::PeVal;

/// An element of the online Size domain `V̂ = Int ∪ {⊥, ⊤}` (Section 6.1):
/// flat — distinct sizes are incomparable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SizeVal {
    /// `⊥` — undefined.
    Bot,
    /// A vector of exactly this size.
    Known(i64),
    /// `⊤` — size unknown (or not a vector).
    Top,
}

impl SizeVal {
    fn join(self, other: SizeVal) -> SizeVal {
        match (self, other) {
            (SizeVal::Bot, x) | (x, SizeVal::Bot) => x,
            (a, b) if a == b => a,
            _ => SizeVal::Top,
        }
    }

    fn leq(self, other: SizeVal) -> bool {
        self == SizeVal::Bot || other == SizeVal::Top || self == other
    }
}

impl SharedElements for SizeVal {
    const SHARED: &'static [SizeVal] = &[SizeVal::Bot, SizeVal::Top];
}

impl fmt::Display for SizeVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizeVal::Bot => f.write_str("⊥"),
            SizeVal::Known(n) => write!(f, "{n}"),
            SizeVal::Top => f.write_str("⊤"),
        }
    }
}

/// The online Size facet (Section 6.1).
///
/// Closed: `mkvec` (reads the size out of the *partial-evaluation*
/// component of its argument, the paper's `MkV̂ec : Values → V̂`) and
/// `updvec` (size-preserving). Open: `vsize` (the paper's `Vecf̂` — yields
/// the size as a constant) and `vref` (never a constant).
///
/// # Examples
///
/// ```
/// use ppe_core::{facets::{SizeFacet, SizeVal}, AbsVal, Facet, PeVal};
/// use ppe_lang::{Const, Prim, Value};
///
/// let f = SizeFacet;
/// let v3 = AbsVal::new(SizeVal::Known(3));
/// assert_eq!(f.open_op_on(Prim::VSize, &[v3]), PeVal::constant(Const::Int(3)));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct SizeFacet;

impl SizeFacet {
    fn get(&self, v: &AbsVal) -> SizeVal {
        *v.expect_ref::<SizeVal>("size")
    }
}

impl Facet for SizeFacet {
    fn name(&self) -> &'static str {
        "size"
    }

    fn bottom(&self) -> AbsVal {
        AbsVal::shared(SizeVal::Bot)
    }

    fn top(&self) -> AbsVal {
        AbsVal::shared(SizeVal::Top)
    }

    fn join(&self, a: &AbsVal, b: &AbsVal) -> AbsVal {
        AbsVal::shared(self.get(a).join(self.get(b)))
    }

    fn leq(&self, a: &AbsVal, b: &AbsVal) -> bool {
        self.get(a).leq(self.get(b))
    }

    fn alpha(&self, v: &Value) -> AbsVal {
        AbsVal::shared(match v {
            Value::Vector(elems) => SizeVal::Known(elems.len() as i64),
            _ => SizeVal::Top,
        })
    }

    fn closed_op(&self, p: Prim, args: &[FacetArg<'_>]) -> AbsVal {
        match p {
            // MkV̂ec : Values → V̂ — a constant size makes a known-size
            // vector (the size flows in through the PE component).
            Prim::MkVec => AbsVal::shared(match args[0].pe {
                PeVal::Bottom => SizeVal::Bot,
                PeVal::Const(Const::Int(n)) => SizeVal::Known(*n),
                _ => SizeVal::Top,
            }),
            // UpdV̂ec(v̂, i, r) : V̂ × Values × Values → V̂ — strict in the
            // index and element, size-preserving otherwise.
            Prim::UpdVec => {
                if *args[1].pe == PeVal::Bottom || *args[2].pe == PeVal::Bottom {
                    self.bottom()
                } else {
                    args[0].abs.clone()
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
            // Vecf̂(v̂) — a known size is *the* size, as a constant.
            Prim::VSize => match self.get(args[0].abs) {
                SizeVal::Bot => PeVal::Bottom,
                SizeVal::Known(n) => PeVal::constant(Const::Int(n)),
                SizeVal::Top => {
                    if *args[0].pe == PeVal::Bottom {
                        PeVal::Bottom
                    } else {
                        PeVal::Top
                    }
                }
            },
            // Vref̂(v̂, i) — elements are never statically known here.
            Prim::VRef => {
                if self.get(args[0].abs) == SizeVal::Bot
                    || *args[0].pe == PeVal::Bottom
                    || *args[1].pe == PeVal::Bottom
                {
                    PeVal::Bottom
                } else {
                    PeVal::Top
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
            SizeVal::Bot => false,
            SizeVal::Top => true,
            SizeVal::Known(n) => matches!(v, Value::Vector(e) if e.len() as i64 == n),
        }
    }

    fn abstract_facet(&self) -> Rc<dyn AbstractFacet> {
        Rc::new(AbstractSizeFacet)
    }
}

/// An element of the abstract Size domain `V̄ = {⊥, s, d}` (Section 6.2) —
/// a *chain*: `⊥ ⊑ s ⊑ d`, where `s` means "the size is static" and `d`
/// "the size is dynamic".
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum AbstractSizeVal {
    /// `⊥` — undefined.
    Bot,
    /// `s` — statically known size.
    StaticSize,
    /// `d` — dynamically known size.
    DynamicSize,
}

impl fmt::Display for AbstractSizeVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AbstractSizeVal::Bot => "⊥",
            AbstractSizeVal::StaticSize => "s",
            AbstractSizeVal::DynamicSize => "d",
        })
    }
}

/// The abstract Size facet (Section 6.2).
///
/// `ᾱ_V̂` maps `⊥ ↦ ⊥`, `⊤ ↦ d`, and any known size to `s`. `V̄Size`
/// (`Vecf̄`) answers `Static` on `s` — the fact facet analysis exploits to
/// make `n` static in `iprod` (Figure 9).
#[derive(Clone, Copy, Debug, Default)]
pub struct AbstractSizeFacet;

impl AbstractSizeFacet {
    fn get(&self, v: &AbsVal) -> AbstractSizeVal {
        *v.expect_ref::<AbstractSizeVal>("size (abstract)")
    }
}

impl AbstractFacet for AbstractSizeFacet {
    fn name(&self) -> &'static str {
        "size"
    }

    fn bottom(&self) -> AbsVal {
        AbsVal::new(AbstractSizeVal::Bot)
    }

    fn top(&self) -> AbsVal {
        AbsVal::new(AbstractSizeVal::DynamicSize)
    }

    fn join(&self, a: &AbsVal, b: &AbsVal) -> AbsVal {
        AbsVal::new(self.get(a).max(self.get(b)))
    }

    fn leq(&self, a: &AbsVal, b: &AbsVal) -> bool {
        self.get(a) <= self.get(b)
    }

    fn alpha_facet(&self, online: &AbsVal) -> AbsVal {
        AbsVal::new(match online.expect_ref::<SizeVal>("size") {
            SizeVal::Bot => AbstractSizeVal::Bot,
            SizeVal::Known(_) => AbstractSizeVal::StaticSize,
            SizeVal::Top => AbstractSizeVal::DynamicSize,
        })
    }

    fn closed_op(&self, p: Prim, args: &[AbstractArg<'_>]) -> AbsVal {
        match p {
            // MkV̄ec : Values̄ → V̄ (Section 6.2).
            Prim::MkVec => AbsVal::new(match args[0].bt {
                BtVal::Bottom => AbstractSizeVal::Bot,
                BtVal::Static => AbstractSizeVal::StaticSize,
                BtVal::Dynamic => AbstractSizeVal::DynamicSize,
            }),
            // UpdV̄ec(v̄, i, r) — strict, size-preserving.
            Prim::UpdVec => {
                if *args[1].bt == BtVal::Bottom || *args[2].bt == BtVal::Bottom {
                    self.bottom()
                } else {
                    args[0].abs.clone()
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

    fn open_op(&self, p: Prim, args: &[AbstractArg<'_>]) -> BtVal {
        match p {
            // V̄Size(v̄): s ↦ Static — "the conditional can be reduced
            // statically" (Section 6.2).
            Prim::VSize => match self.get(args[0].abs) {
                AbstractSizeVal::Bot => BtVal::Bottom,
                AbstractSizeVal::StaticSize => BtVal::Static,
                AbstractSizeVal::DynamicSize => {
                    if *args[0].bt == BtVal::Bottom {
                        BtVal::Bottom
                    } else {
                        BtVal::Dynamic
                    }
                }
            },
            Prim::VRef => {
                if self.get(args[0].abs) == AbstractSizeVal::Bot
                    || *args[0].bt == BtVal::Bottom
                    || *args[1].bt == BtVal::Bottom
                {
                    BtVal::Bottom
                } else {
                    BtVal::Dynamic
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
        Some(vec![
            AbsVal::new(AbstractSizeVal::Bot),
            AbsVal::new(AbstractSizeVal::StaticSize),
            AbsVal::new(AbstractSizeVal::DynamicSize),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_measures_vectors() {
        let f = SizeFacet;
        let v = Value::vector(vec![Value::Float(0.0); 4]);
        assert_eq!(f.alpha(&v).downcast_ref(), Some(&SizeVal::Known(4)));
        assert_eq!(f.alpha(&Value::Int(4)).downcast_ref(), Some(&SizeVal::Top));
    }

    #[test]
    fn vsize_yields_the_size_as_a_constant() {
        let f = SizeFacet;
        assert_eq!(
            f.open_op_on(Prim::VSize, &[AbsVal::new(SizeVal::Known(3))]),
            PeVal::constant(Const::Int(3))
        );
        assert_eq!(
            f.open_op_on(Prim::VSize, &[AbsVal::new(SizeVal::Top)]),
            PeVal::Top
        );
        assert_eq!(
            f.open_op_on(Prim::VSize, &[AbsVal::new(SizeVal::Bot)]),
            PeVal::Bottom
        );
    }

    #[test]
    fn mkvec_reads_the_pe_component() {
        let f = SizeFacet;
        let pe = PeVal::constant(Const::Int(7));
        let abs = f.top();
        let out = f.closed_op(Prim::MkVec, &[FacetArg { pe: &pe, abs: &abs }]);
        assert_eq!(out.downcast_ref(), Some(&SizeVal::Known(7)));
        let dyn_pe = PeVal::Top;
        let out = f.closed_op(
            Prim::MkVec,
            &[FacetArg {
                pe: &dyn_pe,
                abs: &abs,
            }],
        );
        assert_eq!(out.downcast_ref(), Some(&SizeVal::Top));
    }

    #[test]
    fn updvec_preserves_size() {
        let f = SizeFacet;
        let v = AbsVal::new(SizeVal::Known(3));
        let pe = PeVal::Top;
        let args = [
            FacetArg { pe: &pe, abs: &v },
            FacetArg {
                pe: &pe,
                abs: &f.top(),
            },
            FacetArg {
                pe: &pe,
                abs: &f.top(),
            },
        ];
        assert_eq!(
            f.closed_op(Prim::UpdVec, &args).downcast_ref(),
            Some(&SizeVal::Known(3))
        );
    }

    #[test]
    fn vref_is_never_static_here() {
        let f = SizeFacet;
        assert_eq!(
            f.open_op_on(Prim::VRef, &[AbsVal::new(SizeVal::Known(3)), f.top()]),
            PeVal::Top
        );
    }

    #[test]
    fn abstract_alpha_follows_section_6_2() {
        let a = AbstractSizeFacet;
        assert_eq!(
            a.alpha_facet(&AbsVal::new(SizeVal::Known(9)))
                .downcast_ref(),
            Some(&AbstractSizeVal::StaticSize)
        );
        assert_eq!(
            a.alpha_facet(&AbsVal::new(SizeVal::Top)).downcast_ref(),
            Some(&AbstractSizeVal::DynamicSize)
        );
        assert_eq!(
            a.alpha_facet(&AbsVal::new(SizeVal::Bot)).downcast_ref(),
            Some(&AbstractSizeVal::Bot)
        );
    }

    #[test]
    fn abstract_vsize_is_static_on_s() {
        let a = AbstractSizeFacet;
        assert_eq!(
            a.open_op_on(Prim::VSize, &[AbsVal::new(AbstractSizeVal::StaticSize)]),
            BtVal::Static
        );
        assert_eq!(
            a.open_op_on(Prim::VSize, &[AbsVal::new(AbstractSizeVal::DynamicSize)]),
            BtVal::Dynamic
        );
    }

    #[test]
    fn abstract_domain_is_a_chain() {
        let a = AbstractSizeFacet;
        let s = AbsVal::new(AbstractSizeVal::StaticSize);
        let d = AbsVal::new(AbstractSizeVal::DynamicSize);
        assert!(a.leq(&s, &d));
        assert!(!a.leq(&d, &s));
        assert_eq!(a.join(&s, &d), d);
    }

    #[test]
    fn property_6_for_vsize() {
        // If the abstract open operator says Static, the facet operator
        // yields a constant on every related facet value.
        let online = SizeFacet;
        let abs = AbstractSizeFacet;
        let s = AbsVal::new(AbstractSizeVal::StaticSize);
        if abs.open_op_on(Prim::VSize, &[s]) == BtVal::Static {
            for n in [0i64, 1, 5, 100] {
                let v = AbsVal::new(SizeVal::Known(n));
                assert!(online.open_op_on(Prim::VSize, &[v]).is_const());
            }
        }
    }
}
