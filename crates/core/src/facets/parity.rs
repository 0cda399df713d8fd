//! A Parity facet: even/odd, a second worked example of a user-defined
//! static property (the paper's framework is *parameterized*; this facet
//! exists to be combined with others in a product, cf. Definition 5).
//!
//! Closed: `+`, `-`, `*`, `neg` follow parity arithmetic. Open: `=` and
//! `/=` decide when the parities differ (two integers of different parity
//! can never be equal).

use std::fmt;
use std::rc::Rc;

use ppe_lang::{Prim, Value};

use crate::abs_val::{AbsVal, SharedElements};
use crate::abstract_facet::AbstractFacet;
use crate::facet::{Facet, FacetArg};
use crate::facets::mimic::mimic;
use crate::pe_val::PeVal;
use crate::short_list::ShortList;

/// An element of the Parity domain `{⊥, even, odd, ⊤}`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ParityVal {
    /// `⊥` — undefined.
    Bot,
    /// An even integer.
    Even,
    /// An odd integer.
    Odd,
    /// `⊤` — unknown parity (or not an integer).
    Top,
}

impl ParityVal {
    /// All four elements.
    pub const ALL: [ParityVal; 4] = [
        ParityVal::Bot,
        ParityVal::Even,
        ParityVal::Odd,
        ParityVal::Top,
    ];

    /// The parity of an integer.
    pub fn of_i64(n: i64) -> ParityVal {
        if n % 2 == 0 {
            ParityVal::Even
        } else {
            ParityVal::Odd
        }
    }

    fn join(self, other: ParityVal) -> ParityVal {
        match (self, other) {
            (ParityVal::Bot, x) | (x, ParityVal::Bot) => x,
            (a, b) if a == b => a,
            _ => ParityVal::Top,
        }
    }

    fn leq(self, other: ParityVal) -> bool {
        self == ParityVal::Bot || other == ParityVal::Top || self == other
    }
}

impl SharedElements for ParityVal {
    const SHARED: &'static [ParityVal] = &ParityVal::ALL;
}

impl fmt::Display for ParityVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ParityVal::Bot => "⊥",
            ParityVal::Even => "even",
            ParityVal::Odd => "odd",
            ParityVal::Top => "⊤",
        })
    }
}

/// The Parity facet.
///
/// # Examples
///
/// ```
/// use ppe_core::{facets::{ParityFacet, ParityVal}, AbsVal, Facet, PeVal};
/// use ppe_lang::{Const, Prim};
///
/// let f = ParityFacet;
/// let even = AbsVal::new(ParityVal::Even);
/// let odd = AbsVal::new(ParityVal::Odd);
/// // An even and an odd integer are never equal.
/// assert_eq!(f.open_op_on(Prim::Eq, &[even, odd]), PeVal::constant(Const::Bool(false)));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct ParityFacet;

impl ParityFacet {
    fn get(&self, v: &AbsVal) -> ParityVal {
        *v.expect_ref::<ParityVal>("parity")
    }

    fn args(&self, args: &[FacetArg<'_>]) -> ShortList<ParityVal> {
        args.iter()
            .map(|a| {
                if *a.pe == PeVal::Bottom {
                    ParityVal::Bot
                } else {
                    self.get(a.abs)
                }
            })
            .collect()
    }
}

impl Facet for ParityFacet {
    fn name(&self) -> &'static str {
        "parity"
    }

    fn bottom(&self) -> AbsVal {
        AbsVal::shared(ParityVal::Bot)
    }

    fn top(&self) -> AbsVal {
        AbsVal::shared(ParityVal::Top)
    }

    fn join(&self, a: &AbsVal, b: &AbsVal) -> AbsVal {
        AbsVal::shared(self.get(a).join(self.get(b)))
    }

    fn leq(&self, a: &AbsVal, b: &AbsVal) -> bool {
        self.get(a).leq(self.get(b))
    }

    fn alpha(&self, v: &Value) -> AbsVal {
        AbsVal::shared(match v {
            Value::Int(n) => ParityVal::of_i64(*n),
            _ => ParityVal::Top,
        })
    }

    fn closed_op(&self, p: Prim, args: &[FacetArg<'_>]) -> AbsVal {
        use ParityVal::*;
        let s = self.args(args);
        if s.contains(&Bot) {
            return self.bottom();
        }
        let out = match (p, &*s) {
            (Prim::Add | Prim::Sub, [a, b]) => match (a, b) {
                (Even, Even) | (Odd, Odd) => Even,
                (Even, Odd) | (Odd, Even) => Odd,
                _ => Top,
            },
            (Prim::Mul, [a, b]) => match (a, b) {
                (Even, _) | (_, Even) if *a != Top && *b != Top => Even,
                (Even, Top) | (Top, Even) => Even,
                (Odd, Odd) => Odd,
                _ => Top,
            },
            (Prim::Neg, [a]) => *a,
            _ => Top,
        };
        AbsVal::shared(out)
    }

    fn open_op(&self, p: Prim, args: &[FacetArg<'_>]) -> PeVal {
        use ParityVal::*;
        let s = self.args(args);
        if s.contains(&Bot) {
            return PeVal::Bottom;
        }
        match (p, &*s) {
            // Different parities ⇒ the integers differ.
            (Prim::Eq, [Even, Odd] | [Odd, Even]) => PeVal::constant(false.into()),
            (Prim::Ne, [Even, Odd] | [Odd, Even]) => PeVal::constant(true.into()),
            _ => PeVal::Top,
        }
    }

    fn concretizes(&self, abs: &AbsVal, v: &Value) -> bool {
        match self.get(abs) {
            ParityVal::Top => true,
            ParityVal::Bot => false,
            p => matches!(v, Value::Int(n) if ParityVal::of_i64(*n) == p),
        }
    }

    fn enumerate(&self) -> Option<Vec<AbsVal>> {
        Some(ParityVal::ALL.iter().map(|p| AbsVal::shared(*p)).collect())
    }

    fn abstract_facet(&self) -> Rc<dyn AbstractFacet> {
        mimic(ParityFacet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppe_lang::Const;

    fn a(p: ParityVal) -> AbsVal {
        AbsVal::new(p)
    }

    #[test]
    fn alpha_classifies_integers() {
        let f = ParityFacet;
        assert_eq!(
            f.alpha(&Value::Int(4)).downcast_ref(),
            Some(&ParityVal::Even)
        );
        assert_eq!(
            f.alpha(&Value::Int(-3)).downcast_ref(),
            Some(&ParityVal::Odd)
        );
        assert_eq!(
            f.alpha(&Value::Float(2.0)).downcast_ref(),
            Some(&ParityVal::Top)
        );
    }

    #[test]
    fn parity_arithmetic() {
        let f = ParityFacet;
        let add = |x, y| {
            f.closed_op_on(Prim::Add, &[a(x), a(y)])
                .downcast_ref::<ParityVal>()
                .copied()
                .unwrap()
        };
        assert_eq!(add(ParityVal::Odd, ParityVal::Odd), ParityVal::Even);
        assert_eq!(add(ParityVal::Odd, ParityVal::Even), ParityVal::Odd);
        let mul = |x, y| {
            f.closed_op_on(Prim::Mul, &[a(x), a(y)])
                .downcast_ref::<ParityVal>()
                .copied()
                .unwrap()
        };
        assert_eq!(mul(ParityVal::Even, ParityVal::Top), ParityVal::Even);
        assert_eq!(mul(ParityVal::Odd, ParityVal::Odd), ParityVal::Odd);
        assert_eq!(mul(ParityVal::Odd, ParityVal::Top), ParityVal::Top);
    }

    #[test]
    fn equality_decided_by_differing_parity() {
        let f = ParityFacet;
        assert_eq!(
            f.open_op_on(Prim::Eq, &[a(ParityVal::Even), a(ParityVal::Odd)]),
            PeVal::constant(Const::Bool(false))
        );
        assert_eq!(
            f.open_op_on(Prim::Eq, &[a(ParityVal::Even), a(ParityVal::Even)]),
            PeVal::Top
        );
    }

    #[test]
    fn strictness() {
        let f = ParityFacet;
        assert_eq!(
            f.open_op_on(Prim::Eq, &[a(ParityVal::Bot), a(ParityVal::Odd)]),
            PeVal::Bottom
        );
        assert_eq!(
            f.closed_op_on(Prim::Add, &[a(ParityVal::Bot), a(ParityVal::Odd)]),
            f.bottom()
        );
    }

    #[test]
    fn concretization_respects_alpha() {
        let f = ParityFacet;
        for n in [-5i64, -2, 0, 7, 100] {
            let v = Value::Int(n);
            assert!(f.concretizes(&f.alpha(&v), &v));
        }
        assert!(!f.concretizes(&a(ParityVal::Even), &Value::Int(3)));
    }
}
