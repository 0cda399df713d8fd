//! The Sign facet of Examples 1 and 2, extended from `{+, ≺}` to the full
//! numeric algebra.
//!
//! Domain: `D̂ = {⊥, pos, zero, neg, ⊤}` with `⊥ ⊑ d ⊑ ⊤` and
//! `pos`/`zero`/`neg` pairwise incomparable. Arithmetic is closed; the
//! comparisons are open and decide a comparison whenever the signs suffice
//! (`≺̂(zero, pos) = true` in the paper).

use std::fmt;
use std::rc::Rc;

use ppe_lang::{Prim, Value};

use crate::abs_val::{AbsVal, SharedElements};
use crate::abstract_facet::AbstractFacet;
use crate::facet::{Facet, FacetArg};
use crate::facets::mimic::mimic;
use crate::pe_val::PeVal;
use crate::short_list::ShortList;

/// An element of the Sign domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SignVal {
    /// `⊥` — undefined.
    Bot,
    /// Strictly positive.
    Pos,
    /// Exactly zero.
    Zero,
    /// Strictly negative.
    Neg,
    /// `⊤` — unknown sign (or not a number at all).
    Top,
}

impl SignVal {
    /// All five elements (the domain is tiny and flat).
    pub const ALL: [SignVal; 5] = [
        SignVal::Bot,
        SignVal::Pos,
        SignVal::Zero,
        SignVal::Neg,
        SignVal::Top,
    ];

    /// The sign of an integer.
    pub fn of_i64(n: i64) -> SignVal {
        match n.cmp(&0) {
            std::cmp::Ordering::Greater => SignVal::Pos,
            std::cmp::Ordering::Equal => SignVal::Zero,
            std::cmp::Ordering::Less => SignVal::Neg,
        }
    }

    /// The sign of a float.
    pub fn of_f64(x: f64) -> SignVal {
        if x > 0.0 {
            SignVal::Pos
        } else if x < 0.0 {
            SignVal::Neg
        } else {
            SignVal::Zero
        }
    }

    fn join(self, other: SignVal) -> SignVal {
        match (self, other) {
            (SignVal::Bot, x) | (x, SignVal::Bot) => x,
            (a, b) if a == b => a,
            _ => SignVal::Top,
        }
    }

    fn leq(self, other: SignVal) -> bool {
        self == SignVal::Bot || other == SignVal::Top || self == other
    }

    /// The set of orderings `a ? b` consistent with the signs, or `None`
    /// when either side is `⊥`. This single table derives every
    /// comparison operator soundly.
    fn possible_orderings(self, other: SignVal) -> Option<&'static [std::cmp::Ordering]> {
        use std::cmp::Ordering::*;
        if self == SignVal::Bot || other == SignVal::Bot {
            return None;
        }
        Some(match (self, other) {
            (SignVal::Zero, SignVal::Zero) => &[Equal],
            (SignVal::Pos, SignVal::Zero | SignVal::Neg) => &[Greater],
            (SignVal::Zero, SignVal::Neg) => &[Greater],
            (SignVal::Neg, SignVal::Zero | SignVal::Pos) => &[Less],
            (SignVal::Zero, SignVal::Pos) => &[Less],
            _ => &[Less, Equal, Greater],
        })
    }
}

impl SharedElements for SignVal {
    const SHARED: &'static [SignVal] = &SignVal::ALL;
}

impl fmt::Display for SignVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SignVal::Bot => "⊥",
            SignVal::Pos => "pos",
            SignVal::Zero => "zero",
            SignVal::Neg => "neg",
            SignVal::Top => "⊤",
        })
    }
}

/// The Sign facet (Example 1), a [`Facet`] over the numeric algebra.
///
/// # Examples
///
/// ```
/// use ppe_core::{facets::{SignFacet, SignVal}, AbsVal, Facet, PeVal};
/// use ppe_lang::{Const, Prim, Value};
///
/// let f = SignFacet;
/// assert_eq!(f.alpha(&Value::Int(-7)).downcast_ref::<SignVal>(), Some(&SignVal::Neg));
/// let out = f.open_op_on(Prim::Lt, &[AbsVal::new(SignVal::Neg), AbsVal::new(SignVal::Pos)]);
/// assert_eq!(out, PeVal::constant(Const::Bool(true)));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct SignFacet;

impl SignFacet {
    fn get(&self, v: &AbsVal) -> SignVal {
        *v.expect_ref::<SignVal>("sign")
    }

    fn abs(&self, s: SignVal) -> AbsVal {
        AbsVal::shared(s)
    }

    fn args_signs(&self, args: &[FacetArg<'_>]) -> ShortList<SignVal> {
        args.iter()
            .map(|a| {
                if *a.pe == PeVal::Bottom {
                    SignVal::Bot
                } else {
                    self.get(a.abs)
                }
            })
            .collect()
    }
}

impl Facet for SignFacet {
    fn name(&self) -> &'static str {
        "sign"
    }

    fn bottom(&self) -> AbsVal {
        self.abs(SignVal::Bot)
    }

    fn top(&self) -> AbsVal {
        self.abs(SignVal::Top)
    }

    fn join(&self, a: &AbsVal, b: &AbsVal) -> AbsVal {
        self.abs(self.get(a).join(self.get(b)))
    }

    fn leq(&self, a: &AbsVal, b: &AbsVal) -> bool {
        self.get(a).leq(self.get(b))
    }

    fn alpha(&self, v: &Value) -> AbsVal {
        self.abs(match v {
            Value::Int(n) => SignVal::of_i64(*n),
            Value::Float(x) => SignVal::of_f64(*x),
            _ => SignVal::Top,
        })
    }

    fn closed_op(&self, p: Prim, args: &[FacetArg<'_>]) -> AbsVal {
        use SignVal::*;
        let s = self.args_signs(args);
        if s.contains(&Bot) {
            return self.bottom();
        }
        let out = match (p, &*s) {
            // The paper's +̂ (Example 1): zero is the identity, equal signs
            // are preserved, mixed signs join to ⊤.
            (Prim::Add, [a, b]) => match (a, b) {
                (Zero, x) | (x, Zero) => *x,
                (a, b) if a == b => *a,
                _ => Top,
            },
            (Prim::Sub, [a, b]) => {
                let neg_b = match b {
                    Pos => Neg,
                    Neg => Pos,
                    other => *other,
                };
                match (*a, neg_b) {
                    (Zero, x) | (x, Zero) => x,
                    (x, y) if x == y => x,
                    _ => Top,
                }
            }
            (Prim::Mul, [a, b]) => match (a, b) {
                (Zero, _) | (_, Zero) => Zero,
                (Pos, Pos) | (Neg, Neg) => Pos,
                (Pos, Neg) | (Neg, Pos) => Neg,
                _ => Top,
            },
            (Prim::Neg, [a]) => match a {
                Pos => Neg,
                Neg => Pos,
                Zero => Zero,
                other => *other,
            },
            // `mod` by a nonzero divisor is ≥ 0 (rem_euclid); without a
            // "nonneg" point the best sound answer is ⊤ — except that a
            // zero dividend gives zero.
            (Prim::Mod, [Zero, _]) => Zero,
            _ => Top,
        };
        self.abs(out)
    }

    fn open_op(&self, p: Prim, args: &[FacetArg<'_>]) -> PeVal {
        use std::cmp::Ordering::*;
        let s = self.args_signs(args);
        if s.contains(&SignVal::Bot) {
            return PeVal::Bottom;
        }
        let accept: fn(std::cmp::Ordering) -> bool = match p {
            Prim::Lt => |o| o == Less,
            Prim::Le => |o| o != Greater,
            Prim::Gt => |o| o == Greater,
            Prim::Ge => |o| o != Less,
            Prim::Eq => |o| o == Equal,
            Prim::Ne => |o| o != Equal,
            _ => return PeVal::Top,
        };
        let [a, b] = [s[0], s[1]];
        // Comparisons only decide over numeric signs; ⊤ may stand for a
        // non-number, where the comparison errors (⊥), so deciding from ⊤
        // would still be safe — but nothing can be decided from ⊤ anyway.
        match a.possible_orderings(b) {
            None => PeVal::Bottom,
            Some(orderings) => {
                if a == SignVal::Top || b == SignVal::Top {
                    return PeVal::Top;
                }
                if orderings.iter().all(|&o| accept(o)) {
                    PeVal::constant(true.into())
                } else if orderings.iter().all(|&o| !accept(o)) {
                    PeVal::constant(false.into())
                } else {
                    PeVal::Top
                }
            }
        }
    }

    fn concretizes(&self, abs: &AbsVal, v: &Value) -> bool {
        let sign = self.get(abs);
        match sign {
            SignVal::Top => true,
            SignVal::Bot => false,
            s => match v {
                Value::Int(n) => SignVal::of_i64(*n) == s,
                Value::Float(x) => SignVal::of_f64(*x) == s,
                _ => false,
            },
        }
    }

    fn enumerate(&self) -> Option<Vec<AbsVal>> {
        Some(SignVal::ALL.iter().map(|s| self.abs(*s)).collect())
    }

    fn abstract_facet(&self) -> Rc<dyn AbstractFacet> {
        // Example 2: the Sign abstract facet is the Sign facet itself
        // under the identity facet mapping.
        mimic(SignFacet)
    }

    /// Constraint propagation: knowing `(p a b) = outcome` narrows the
    /// sign of one argument. Derived generically from the orderings
    /// table: the refined sign joins every base sign compatible with some
    /// ordering that yields `outcome`.
    fn assume(
        &self,
        p: Prim,
        args: &[FacetArg<'_>],
        outcome: bool,
        position: usize,
    ) -> Option<AbsVal> {
        use std::cmp::Ordering::*;
        if args.len() != 2 || position > 1 {
            return None;
        }
        let accept: fn(std::cmp::Ordering) -> bool = match p {
            Prim::Lt => |o| o == Less,
            Prim::Le => |o| o != Greater,
            Prim::Gt => |o| o == Greater,
            Prim::Ge => |o| o != Less,
            Prim::Eq => |o| o == Equal,
            Prim::Ne => |o| o != Equal,
            _ => return None,
        };
        let signs = self.args_signs(args);
        let other = signs[1 - position];
        if matches!(other, SignVal::Bot | SignVal::Top) {
            return None;
        }
        let mut refined = SignVal::Bot;
        for candidate in [SignVal::Pos, SignVal::Zero, SignVal::Neg] {
            let (a, b) = if position == 0 {
                (candidate, other)
            } else {
                (other, candidate)
            };
            let Some(orderings) = a.possible_orderings(b) else {
                continue;
            };
            if orderings.iter().any(|&o| accept(o) == outcome) {
                refined = refined.join(candidate);
            }
        }
        // Meet with what is already known (flat domain).
        let current = signs[position];
        let out = match (current, refined) {
            (SignVal::Top, r) => r,
            (c, SignVal::Top) => c,
            (c, r) if c == r => c,
            // Contradiction: this branch is unreachable.
            _ => SignVal::Bot,
        };
        if out == current {
            None
        } else {
            Some(self.abs(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppe_lang::Const;

    fn a(s: SignVal) -> AbsVal {
        AbsVal::new(s)
    }

    #[test]
    fn alpha_classifies_numbers() {
        let f = SignFacet;
        assert_eq!(f.alpha(&Value::Int(0)).downcast_ref(), Some(&SignVal::Zero));
        assert_eq!(
            f.alpha(&Value::Float(-0.5)).downcast_ref(),
            Some(&SignVal::Neg)
        );
        assert_eq!(
            f.alpha(&Value::Bool(true)).downcast_ref(),
            Some(&SignVal::Top)
        );
    }

    #[test]
    fn add_follows_example_1() {
        let f = SignFacet;
        let plus = |x, y| {
            f.closed_op_on(Prim::Add, &[a(x), a(y)])
                .downcast_ref::<SignVal>()
                .copied()
                .unwrap()
        };
        assert_eq!(plus(SignVal::Zero, SignVal::Neg), SignVal::Neg);
        assert_eq!(plus(SignVal::Pos, SignVal::Zero), SignVal::Pos);
        assert_eq!(plus(SignVal::Pos, SignVal::Pos), SignVal::Pos);
        assert_eq!(plus(SignVal::Pos, SignVal::Neg), SignVal::Top);
        assert_eq!(plus(SignVal::Bot, SignVal::Pos), SignVal::Bot);
    }

    #[test]
    fn mul_knows_the_rule_of_signs() {
        let f = SignFacet;
        let times = |x, y| {
            f.closed_op_on(Prim::Mul, &[a(x), a(y)])
                .downcast_ref::<SignVal>()
                .copied()
                .unwrap()
        };
        assert_eq!(times(SignVal::Neg, SignVal::Neg), SignVal::Pos);
        assert_eq!(times(SignVal::Pos, SignVal::Neg), SignVal::Neg);
        assert_eq!(times(SignVal::Zero, SignVal::Top), SignVal::Zero);
    }

    #[test]
    fn lt_follows_example_1_table() {
        let f = SignFacet;
        let lt = |x, y| f.open_op_on(Prim::Lt, &[a(x), a(y)]);
        assert_eq!(
            lt(SignVal::Pos, SignVal::Neg),
            PeVal::constant(Const::Bool(false))
        );
        assert_eq!(
            lt(SignVal::Pos, SignVal::Zero),
            PeVal::constant(Const::Bool(false))
        );
        assert_eq!(
            lt(SignVal::Zero, SignVal::Pos),
            PeVal::constant(Const::Bool(true))
        );
        assert_eq!(
            lt(SignVal::Zero, SignVal::Zero),
            PeVal::constant(Const::Bool(false))
        );
        assert_eq!(
            lt(SignVal::Neg, SignVal::Pos),
            PeVal::constant(Const::Bool(true))
        );
        assert_eq!(
            lt(SignVal::Neg, SignVal::Zero),
            PeVal::constant(Const::Bool(true))
        );
        assert_eq!(lt(SignVal::Pos, SignVal::Pos), PeVal::Top);
        assert_eq!(lt(SignVal::Top, SignVal::Neg), PeVal::Top);
        assert_eq!(lt(SignVal::Bot, SignVal::Pos), PeVal::Bottom);
    }

    #[test]
    fn equality_decides_zero_zero() {
        let f = SignFacet;
        assert_eq!(
            f.open_op_on(Prim::Eq, &[a(SignVal::Zero), a(SignVal::Zero)]),
            PeVal::constant(Const::Bool(true))
        );
        assert_eq!(
            f.open_op_on(Prim::Ne, &[a(SignVal::Pos), a(SignVal::Zero)]),
            PeVal::constant(Const::Bool(true))
        );
        assert_eq!(
            f.open_op_on(Prim::Eq, &[a(SignVal::Pos), a(SignVal::Pos)]),
            PeVal::Top
        );
    }

    #[test]
    fn concretization_contains_alpha_image() {
        let f = SignFacet;
        for v in [
            Value::Int(-3),
            Value::Int(0),
            Value::Int(9),
            Value::Float(2.5),
        ] {
            let abs = f.alpha(&v);
            assert!(f.concretizes(&abs, &v), "{v:?} ∉ γ(α({v:?}))");
        }
    }

    #[test]
    fn enumerate_covers_the_domain() {
        let f = SignFacet;
        let all = f.enumerate().unwrap();
        assert_eq!(all.len(), 5);
        assert!(all.contains(&f.bottom()) && all.contains(&f.top()));
    }
}
