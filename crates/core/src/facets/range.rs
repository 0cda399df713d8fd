//! An integer Range (interval) facet.
//!
//! Unlike Sign and Parity, this domain has *infinite height*, exercising
//! the paper's footnote 1 to Definition 2: "with a lattice of infinite
//! height, a widening operator can be used to find fixpoints in a finite
//! number of steps". [`RangeFacet::widen`] implements the classic interval
//! widening (unstable bounds jump to ±∞).

use std::fmt;
use std::rc::Rc;

use ppe_lang::{Prim, Value};

use crate::abs_val::{AbsVal, SharedElements};
use crate::abstract_facet::AbstractFacet;
use crate::facet::{Facet, FacetArg};
use crate::facets::mimic::mimic;
use crate::pe_val::PeVal;
use crate::short_list::ShortList;

/// An element of the interval domain: `⊥` or `[lo, hi]` with optional
/// (infinite) bounds. `⊤` is `[-∞, +∞]`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RangeVal {
    /// `⊥` — undefined.
    Bot,
    /// The interval `[lo, hi]`; `None` bounds are infinite. Invariant:
    /// `lo ≤ hi` when both are finite.
    Range {
        /// Lower bound (`None` = `-∞`).
        lo: Option<i64>,
        /// Upper bound (`None` = `+∞`).
        hi: Option<i64>,
    },
}

impl RangeVal {
    /// The unbounded interval `⊤`.
    pub const TOP: RangeVal = RangeVal::Range { lo: None, hi: None };

    /// The singleton interval `[n, n]`.
    pub fn exactly(n: i64) -> RangeVal {
        RangeVal::Range {
            lo: Some(n),
            hi: Some(n),
        }
    }

    /// The bounded interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn between(lo: i64, hi: i64) -> RangeVal {
        assert!(lo <= hi, "malformed interval [{lo}, {hi}]");
        RangeVal::Range {
            lo: Some(lo),
            hi: Some(hi),
        }
    }

    /// `[n, +∞)`.
    pub fn at_least(n: i64) -> RangeVal {
        RangeVal::Range {
            lo: Some(n),
            hi: None,
        }
    }

    /// `(-∞, n]`.
    pub fn at_most(n: i64) -> RangeVal {
        RangeVal::Range {
            lo: None,
            hi: Some(n),
        }
    }

    fn join(self, other: RangeVal) -> RangeVal {
        match (self, other) {
            (RangeVal::Bot, x) | (x, RangeVal::Bot) => x,
            (RangeVal::Range { lo: a, hi: b }, RangeVal::Range { lo: c, hi: d }) => {
                RangeVal::Range {
                    lo: match (a, c) {
                        (Some(x), Some(y)) => Some(x.min(y)),
                        _ => None,
                    },
                    hi: match (b, d) {
                        (Some(x), Some(y)) => Some(x.max(y)),
                        _ => None,
                    },
                }
            }
        }
    }

    fn leq(self, other: RangeVal) -> bool {
        match (self, other) {
            (RangeVal::Bot, _) => true,
            (_, RangeVal::Bot) => false,
            (RangeVal::Range { lo: a, hi: b }, RangeVal::Range { lo: c, hi: d }) => {
                let lo_ok = match (a, c) {
                    (_, None) => true,
                    (None, Some(_)) => false,
                    (Some(x), Some(y)) => x >= y,
                };
                let hi_ok = match (b, d) {
                    (_, None) => true,
                    (None, Some(_)) => false,
                    (Some(x), Some(y)) => x <= y,
                };
                lo_ok && hi_ok
            }
        }
    }
}

impl SharedElements for RangeVal {
    const SHARED: &'static [RangeVal] = &[RangeVal::Bot, RangeVal::TOP];
}

impl fmt::Display for RangeVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RangeVal::Bot => f.write_str("⊥"),
            RangeVal::Range { lo: None, hi: None } => f.write_str("⊤"),
            RangeVal::Range { lo, hi } => {
                match lo {
                    Some(n) => write!(f, "[{n}, ")?,
                    None => f.write_str("(-∞, ")?,
                }
                match hi {
                    Some(n) => write!(f, "{n}]"),
                    None => f.write_str("+∞)"),
                }
            }
        }
    }
}

/// The Range facet: integer intervals with widening.
///
/// # Examples
///
/// ```
/// use ppe_core::{facets::{RangeFacet, RangeVal}, AbsVal, Facet, PeVal};
/// use ppe_lang::{Const, Prim};
///
/// let f = RangeFacet;
/// let small = AbsVal::new(RangeVal::between(0, 9));
/// let big = AbsVal::new(RangeVal::at_least(100));
/// // Disjoint intervals decide the comparison.
/// assert_eq!(f.open_op_on(Prim::Lt, &[small, big]), PeVal::constant(Const::Bool(true)));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct RangeFacet;

impl RangeFacet {
    fn get(&self, v: &AbsVal) -> RangeVal {
        *v.expect_ref::<RangeVal>("range")
    }

    fn args(&self, args: &[FacetArg<'_>]) -> ShortList<RangeVal> {
        args.iter()
            .map(|a| {
                if *a.pe == PeVal::Bottom {
                    RangeVal::Bot
                } else {
                    self.get(a.abs)
                }
            })
            .collect()
    }
}

fn add_bound(a: Option<i64>, b: Option<i64>) -> Option<i64> {
    match (a, b) {
        (Some(x), Some(y)) => x.checked_add(y),
        _ => None,
    }
}

impl Facet for RangeFacet {
    fn name(&self) -> &'static str {
        "range"
    }

    fn bottom(&self) -> AbsVal {
        AbsVal::shared(RangeVal::Bot)
    }

    fn top(&self) -> AbsVal {
        AbsVal::shared(RangeVal::TOP)
    }

    fn join(&self, a: &AbsVal, b: &AbsVal) -> AbsVal {
        AbsVal::shared(self.get(a).join(self.get(b)))
    }

    fn leq(&self, a: &AbsVal, b: &AbsVal) -> bool {
        self.get(a).leq(self.get(b))
    }

    fn alpha(&self, v: &Value) -> AbsVal {
        AbsVal::shared(match v {
            Value::Int(n) => RangeVal::exactly(*n),
            _ => RangeVal::TOP,
        })
    }

    fn closed_op(&self, p: Prim, args: &[FacetArg<'_>]) -> AbsVal {
        use RangeVal::*;
        let s = self.args(args);
        if s.contains(&Bot) {
            return self.bottom();
        }
        let out = match (p, &*s) {
            (Prim::Add, [Range { lo: a, hi: b }, Range { lo: c, hi: d }]) => Range {
                lo: add_bound(*a, *c),
                hi: add_bound(*b, *d),
            },
            (Prim::Sub, [Range { lo: a, hi: b }, Range { lo: c, hi: d }]) => Range {
                lo: add_bound(*a, d.map(|x| x.checked_neg()).flatten()),
                hi: add_bound(*b, c.map(|x| x.checked_neg()).flatten()),
            },
            (Prim::Neg, [Range { lo, hi }]) => Range {
                lo: hi.and_then(i64::checked_neg),
                hi: lo.and_then(i64::checked_neg),
            },
            (
                Prim::Mul,
                [Range {
                    lo: Some(a),
                    hi: Some(b),
                }, Range {
                    lo: Some(c),
                    hi: Some(d),
                }],
            ) => {
                let products = [
                    a.checked_mul(*c),
                    a.checked_mul(*d),
                    b.checked_mul(*c),
                    b.checked_mul(*d),
                ];
                match products {
                    [Some(w), Some(x), Some(y), Some(z)] => Range {
                        lo: Some(w.min(x).min(y).min(z)),
                        hi: Some(w.max(x).max(y).max(z)),
                    },
                    _ => RangeVal::TOP,
                }
            }
            // n mod d for d ∈ [lo, hi] with lo > 0 is in [0, hi - 1].
            (Prim::Mod, [_, Range { lo: Some(lo), hi }]) if *lo > 0 => Range {
                lo: Some(0),
                hi: hi.map(|h| h - 1),
            },
            _ => RangeVal::TOP,
        };
        AbsVal::shared(out)
    }

    fn open_op(&self, p: Prim, args: &[FacetArg<'_>]) -> PeVal {
        use RangeVal::*;
        let s = self.args(args);
        if s.contains(&Bot) {
            return PeVal::Bottom;
        }
        let (a, b) = match &*s {
            [x, y] => (*x, *y),
            _ => return PeVal::Top,
        };
        let (Range { lo: alo, hi: ahi }, Range { lo: blo, hi: bhi }) = (a, b) else {
            return PeVal::Top;
        };
        // Decidable facts about two intervals.
        let def_lt = matches!((ahi, blo), (Some(x), Some(y)) if x < y);
        let def_le = matches!((ahi, blo), (Some(x), Some(y)) if x <= y);
        let def_gt = matches!((alo, bhi), (Some(x), Some(y)) if x > y);
        let def_ge = matches!((alo, bhi), (Some(x), Some(y)) if x >= y);
        let disjoint = def_lt || def_gt;
        let both_singleton_equal = alo == ahi && blo == bhi && alo == blo && alo.is_some();
        let decide = |yes: bool, no: bool| -> PeVal {
            if yes {
                PeVal::constant(true.into())
            } else if no {
                PeVal::constant(false.into())
            } else {
                PeVal::Top
            }
        };
        match p {
            Prim::Lt => decide(def_lt, def_ge),
            Prim::Le => decide(def_le, def_gt),
            Prim::Gt => decide(def_gt, def_le),
            Prim::Ge => decide(def_ge, def_lt),
            Prim::Eq => decide(both_singleton_equal, disjoint),
            Prim::Ne => decide(disjoint, both_singleton_equal),
            _ => PeVal::Top,
        }
    }

    fn concretizes(&self, abs: &AbsVal, v: &Value) -> bool {
        match self.get(abs) {
            RangeVal::Bot => false,
            RangeVal::Range { lo: None, hi: None } => true,
            RangeVal::Range { lo, hi } => match v {
                Value::Int(n) => lo.is_none_or(|l| l <= *n) && hi.is_none_or(|h| *n <= h),
                _ => false,
            },
        }
    }

    fn widen(&self, old: &AbsVal, new: &AbsVal) -> AbsVal {
        // Classic interval widening: a bound that moved outward jumps to
        // infinity; stable bounds are kept.
        let (o, n) = (self.get(old), self.get(new));
        let out = match (o, n) {
            (RangeVal::Bot, x) => x,
            (x, RangeVal::Bot) => x,
            (RangeVal::Range { lo: a, hi: b }, RangeVal::Range { lo: c, hi: d }) => {
                RangeVal::Range {
                    lo: match (a, c) {
                        (Some(x), Some(y)) if y >= x => Some(x),
                        _ => None,
                    },
                    hi: match (b, d) {
                        (Some(x), Some(y)) if y <= x => Some(x),
                        _ => None,
                    },
                }
            }
        };
        AbsVal::shared(out)
    }

    fn abstract_facet(&self) -> Rc<dyn AbstractFacet> {
        mimic(RangeFacet)
    }

    /// Constraint propagation (Section 4.4's future work): knowing
    /// `(p a b) = outcome` intersects the refined argument's interval
    /// with the half-line the comparison implies.
    fn assume(
        &self,
        p: Prim,
        args: &[FacetArg<'_>],
        outcome: bool,
        position: usize,
    ) -> Option<AbsVal> {
        if args.len() != 2 || position > 1 {
            return None;
        }
        let s = self.args(args);
        let current = s[position];
        let other = s[1 - position];
        let RangeVal::Range { lo: olo, hi: ohi } = other else {
            return None;
        };
        // Normalize to "x q other" with x the refined argument: when x is
        // on the right, replace p by its converse; when the outcome is
        // false, by its negation.
        let converse = |p: Prim| match p {
            Prim::Lt => Prim::Gt,
            Prim::Le => Prim::Ge,
            Prim::Gt => Prim::Lt,
            Prim::Ge => Prim::Le,
            other => other,
        };
        let negation = |p: Prim| match p {
            Prim::Lt => Prim::Ge,
            Prim::Le => Prim::Gt,
            Prim::Gt => Prim::Le,
            Prim::Ge => Prim::Lt,
            Prim::Eq => Prim::Ne,
            Prim::Ne => Prim::Eq,
            other => other,
        };
        let mut q = p;
        if position == 1 {
            q = converse(q);
        }
        if !outcome {
            q = negation(q);
        }
        let half_line = match q {
            // x < other ⇒ x ≤ other.hi − 1.
            Prim::Lt => RangeVal::Range {
                lo: None,
                hi: ohi.and_then(|h| h.checked_sub(1)),
            },
            Prim::Le => RangeVal::Range { lo: None, hi: ohi },
            // x > other ⇒ x ≥ other.lo + 1.
            Prim::Gt => RangeVal::Range {
                lo: olo.and_then(|l| l.checked_add(1)),
                hi: None,
            },
            Prim::Ge => RangeVal::Range { lo: olo, hi: None },
            // x = other ⇒ x lies in the other interval.
            Prim::Eq => other,
            // x ≠ other: intervals cannot express holes.
            _ => return None,
        };
        let refined = intersect(current, half_line);
        if refined == current {
            None
        } else {
            Some(AbsVal::shared(refined))
        }
    }
}

/// Interval intersection (the domain's meet); empty intersections are `⊥`.
fn intersect(a: RangeVal, b: RangeVal) -> RangeVal {
    match (a, b) {
        (RangeVal::Bot, _) | (_, RangeVal::Bot) => RangeVal::Bot,
        (RangeVal::Range { lo: a1, hi: b1 }, RangeVal::Range { lo: a2, hi: b2 }) => {
            let lo = match (a1, a2) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (Some(x), None) | (None, Some(x)) => Some(x),
                (None, None) => None,
            };
            let hi = match (b1, b2) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (Some(x), None) | (None, Some(x)) => Some(x),
                (None, None) => None,
            };
            match (lo, hi) {
                (Some(l), Some(h)) if l > h => RangeVal::Bot,
                _ => RangeVal::Range { lo, hi },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppe_lang::Const;

    fn a(r: RangeVal) -> AbsVal {
        AbsVal::new(r)
    }

    #[test]
    fn interval_arithmetic() {
        let f = RangeFacet;
        let out = f.closed_op_on(
            Prim::Add,
            &[a(RangeVal::between(1, 3)), a(RangeVal::between(10, 20))],
        );
        assert_eq!(out.downcast_ref(), Some(&RangeVal::between(11, 23)));
        let out = f.closed_op_on(Prim::Neg, &[a(RangeVal::between(-2, 5))]);
        assert_eq!(out.downcast_ref(), Some(&RangeVal::between(-5, 2)));
        let out = f.closed_op_on(
            Prim::Mul,
            &[a(RangeVal::between(-2, 3)), a(RangeVal::between(4, 5))],
        );
        assert_eq!(out.downcast_ref(), Some(&RangeVal::between(-10, 15)));
    }

    #[test]
    fn subtraction_flips_the_other_interval() {
        let f = RangeFacet;
        let out = f.closed_op_on(
            Prim::Sub,
            &[a(RangeVal::between(5, 8)), a(RangeVal::between(1, 2))],
        );
        assert_eq!(out.downcast_ref(), Some(&RangeVal::between(3, 7)));
    }

    #[test]
    fn overflow_falls_back_to_infinity() {
        let f = RangeFacet;
        let out = f.closed_op_on(
            Prim::Add,
            &[a(RangeVal::exactly(i64::MAX)), a(RangeVal::exactly(1))],
        );
        assert_eq!(out.downcast_ref(), Some(&RangeVal::TOP));
    }

    #[test]
    fn disjoint_intervals_decide_comparisons() {
        let f = RangeFacet;
        let lo = a(RangeVal::between(0, 9));
        let hi = a(RangeVal::at_least(10));
        assert_eq!(
            f.open_op_on(Prim::Lt, &[lo.clone(), hi.clone()]),
            PeVal::constant(Const::Bool(true))
        );
        assert_eq!(
            f.open_op_on(Prim::Ge, &[lo.clone(), hi.clone()]),
            PeVal::constant(Const::Bool(false))
        );
        assert_eq!(
            f.open_op_on(Prim::Eq, &[lo.clone(), hi]),
            PeVal::constant(Const::Bool(false))
        );
        assert_eq!(f.open_op_on(Prim::Lt, &[lo.clone(), lo]), PeVal::Top);
    }

    #[test]
    fn singletons_decide_equality() {
        let f = RangeFacet;
        let five = a(RangeVal::exactly(5));
        assert_eq!(
            f.open_op_on(Prim::Eq, &[five.clone(), five]),
            PeVal::constant(Const::Bool(true))
        );
    }

    #[test]
    fn widening_stabilizes_growing_bounds() {
        let f = RangeFacet;
        let old = a(RangeVal::between(0, 10));
        let grown = a(RangeVal::between(0, 11));
        let widened = f.widen(&old, &grown);
        assert_eq!(widened.downcast_ref(), Some(&RangeVal::at_least(0)));
        // A stable interval stays put.
        let same = f.widen(&old, &a(RangeVal::between(2, 9)));
        assert_eq!(same.downcast_ref(), Some(&RangeVal::between(0, 10)));
    }

    #[test]
    fn lattice_order() {
        assert!(RangeVal::exactly(3).leq(RangeVal::between(0, 5)));
        assert!(!RangeVal::between(0, 5).leq(RangeVal::exactly(3)));
        assert!(RangeVal::between(0, 5).leq(RangeVal::TOP));
        assert_eq!(
            RangeVal::between(0, 2).join(RangeVal::between(5, 9)),
            RangeVal::between(0, 9)
        );
    }

    #[test]
    fn concretization() {
        let f = RangeFacet;
        assert!(f.concretizes(&a(RangeVal::between(1, 3)), &Value::Int(2)));
        assert!(!f.concretizes(&a(RangeVal::between(1, 3)), &Value::Int(4)));
        assert!(f.concretizes(&a(RangeVal::TOP), &Value::Bool(true)));
    }
}
