//! A k-bounded constant-set facet: abstract values are small sets of
//! possible constants.
//!
//! This generalizes constant propagation: `{1, 2}` says "one of these two
//! constants". Closed operators compute pointwise over the cartesian
//! product of argument sets; open operators answer a constant when every
//! combination agrees (e.g. `(< {1,2} {5,9})` is `true`). Sets that would
//! exceed the bound `k` collapse to `⊤`, keeping the domain of finite
//! height (`k + 2`).
//!
//! The facet also implements [`Facet::assume`]: a conditional test
//! *filters* the sets flowing into its branches (Redfun-style constraint
//! propagation, the paper's Section 4.4 future work).

use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

use ppe_lang::{Const, Prim, Value};

use crate::abs_val::{AbsVal, SharedElements};
use crate::abstract_facet::AbstractFacet;
use crate::facet::{Facet, FacetArg};
use crate::facets::mimic::mimic;
use crate::pe_val::PeVal;

/// Default bound on tracked set size.
pub const DEFAULT_SET_BOUND: usize = 8;

/// An element of the constant-set domain.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ConstSetVal {
    /// `⊥` — undefined.
    Bot,
    /// One of these constants (non-empty, at most the facet's bound).
    Set(BTreeSet<Const>),
    /// `⊤` — unbounded, or not a first-order constant at all.
    Top,
}

impl ConstSetVal {
    /// The singleton set `{c}`.
    pub fn just(c: Const) -> ConstSetVal {
        ConstSetVal::Set(BTreeSet::from([c]))
    }

    /// A set from constants.
    ///
    /// # Panics
    ///
    /// Panics if `cs` is empty (the empty set is `⊥`, use
    /// [`ConstSetVal::Bot`]).
    pub fn of(cs: impl IntoIterator<Item = Const>) -> ConstSetVal {
        let set: BTreeSet<Const> = cs.into_iter().collect();
        assert!(!set.is_empty(), "empty constant set is ⊥");
        ConstSetVal::Set(set)
    }
}

impl SharedElements for ConstSetVal {
    const SHARED: &'static [ConstSetVal] = &[ConstSetVal::Bot, ConstSetVal::Top];
}

impl fmt::Display for ConstSetVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstSetVal::Bot => f.write_str("⊥"),
            ConstSetVal::Top => f.write_str("⊤"),
            ConstSetVal::Set(cs) => {
                f.write_str("{")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{c}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The constant-set facet.
///
/// # Examples
///
/// ```
/// use ppe_core::facets::{ConstSetFacet, ConstSetVal};
/// use ppe_core::{AbsVal, Facet, PeVal};
/// use ppe_lang::{Const, Prim};
///
/// let f = ConstSetFacet::new(8);
/// let small = AbsVal::new(ConstSetVal::of([Const::Int(1), Const::Int(2)]));
/// let big = AbsVal::new(ConstSetVal::of([Const::Int(5), Const::Int(9)]));
/// // Every combination satisfies <, so the comparison is static.
/// assert_eq!(
///     f.open_op_on(Prim::Lt, &[small, big]),
///     PeVal::constant(Const::Bool(true))
/// );
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ConstSetFacet {
    bound: usize,
}

impl Default for ConstSetFacet {
    fn default() -> ConstSetFacet {
        ConstSetFacet::new(DEFAULT_SET_BOUND)
    }
}

impl ConstSetFacet {
    /// Creates the facet with a set-size bound (domain height `bound+2`).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn new(bound: usize) -> ConstSetFacet {
        assert!(bound > 0, "set bound must be positive");
        ConstSetFacet { bound }
    }

    fn get<'a>(&self, v: &'a AbsVal) -> &'a ConstSetVal {
        v.expect_ref::<ConstSetVal>("const-set")
    }

    fn cap(&self, set: BTreeSet<Const>) -> ConstSetVal {
        if set.is_empty() {
            ConstSetVal::Bot
        } else if set.len() > self.bound {
            ConstSetVal::Top
        } else {
            ConstSetVal::Set(set)
        }
    }

    /// Arguments as set values, folding the PE component in: a constant
    /// PE component is a (better) singleton.
    fn arg_sets(&self, args: &[FacetArg<'_>]) -> Vec<ConstSetVal> {
        args.iter()
            .map(|a| match a.pe {
                PeVal::Bottom => ConstSetVal::Bot,
                PeVal::Const(c) => ConstSetVal::just(*c),
                PeVal::Top => self.get(a.abs).clone(),
            })
            .collect()
    }

    /// All tuples drawn from the argument sets, or `None` if any argument
    /// is `⊤` (or the tuple count would blow up).
    fn tuples(&self, sets: &[ConstSetVal]) -> Option<Vec<Vec<Const>>> {
        let mut out: Vec<Vec<Const>> = vec![Vec::new()];
        for s in sets {
            let ConstSetVal::Set(cs) = s else { return None };
            let mut next = Vec::with_capacity(out.len() * cs.len());
            for prefix in &out {
                for c in cs {
                    let mut t = prefix.clone();
                    t.push(*c);
                    next.push(t);
                }
            }
            if next.len() > 256 {
                return None;
            }
            out = next;
        }
        Some(out)
    }
}

impl Facet for ConstSetFacet {
    fn name(&self) -> &'static str {
        "const-set"
    }

    fn bottom(&self) -> AbsVal {
        AbsVal::shared(ConstSetVal::Bot)
    }

    fn top(&self) -> AbsVal {
        AbsVal::shared(ConstSetVal::Top)
    }

    fn join(&self, a: &AbsVal, b: &AbsVal) -> AbsVal {
        AbsVal::shared(match (self.get(a), self.get(b)) {
            (ConstSetVal::Bot, x) | (x, ConstSetVal::Bot) => x.clone(),
            (ConstSetVal::Set(x), ConstSetVal::Set(y)) => self.cap(x.union(y).copied().collect()),
            _ => ConstSetVal::Top,
        })
    }

    fn leq(&self, a: &AbsVal, b: &AbsVal) -> bool {
        match (self.get(a), self.get(b)) {
            (ConstSetVal::Bot, _) | (_, ConstSetVal::Top) => true,
            (ConstSetVal::Set(x), ConstSetVal::Set(y)) => x.is_subset(y),
            _ => false,
        }
    }

    fn alpha(&self, v: &Value) -> AbsVal {
        AbsVal::shared(match v.to_const() {
            Some(c) => ConstSetVal::just(c),
            None => ConstSetVal::Top,
        })
    }

    fn closed_op(&self, p: Prim, args: &[FacetArg<'_>]) -> AbsVal {
        let sets = self.arg_sets(args);
        if sets.contains(&ConstSetVal::Bot) {
            return self.bottom();
        }
        let Some(tuples) = self.tuples(&sets) else {
            return self.top();
        };
        let mut out = BTreeSet::new();
        let mut any_defined = false;
        for t in tuples {
            let vals: Vec<Value> = t.iter().map(|c| Value::from_const(*c)).collect();
            if let Ok(v) = p.eval(&vals) {
                any_defined = true;
                match v.to_const() {
                    Some(c) => {
                        out.insert(c);
                    }
                    None => return self.top(), // non-constant results
                }
            }
        }
        if !any_defined {
            // Every combination errors: the application denotes ⊥.
            return self.bottom();
        }
        AbsVal::shared(self.cap(out))
    }

    fn open_op(&self, p: Prim, args: &[FacetArg<'_>]) -> PeVal {
        let sets = self.arg_sets(args);
        if sets.contains(&ConstSetVal::Bot) {
            return PeVal::Bottom;
        }
        let Some(tuples) = self.tuples(&sets) else {
            return PeVal::Top;
        };
        let mut agreed: Option<Const> = None;
        let mut any_defined = false;
        for t in tuples {
            let vals: Vec<Value> = t.iter().map(|c| Value::from_const(*c)).collect();
            let Ok(v) = p.eval(&vals) else { continue };
            let Some(c) = v.to_const() else {
                return PeVal::Top;
            };
            any_defined = true;
            match agreed {
                None => agreed = Some(c),
                Some(prev) if prev == c => {}
                Some(_) => return PeVal::Top, // combinations disagree
            }
        }
        if !any_defined {
            return PeVal::Bottom;
        }
        agreed.map(PeVal::constant).unwrap_or(PeVal::Top)
    }

    fn concretizes(&self, abs: &AbsVal, v: &Value) -> bool {
        match self.get(abs) {
            ConstSetVal::Bot => false,
            ConstSetVal::Top => true,
            ConstSetVal::Set(cs) => v.to_const().is_some_and(|c| cs.contains(&c)),
        }
    }

    fn abstract_facet(&self) -> Rc<dyn AbstractFacet> {
        mimic(*self)
    }

    /// Branch refinement: keep exactly the constants that can satisfy the
    /// test with the given outcome.
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
        let sets = self.arg_sets(args);
        let ConstSetVal::Set(current) = &sets[position] else {
            return None;
        };
        let ConstSetVal::Set(other) = &sets[1 - position] else {
            return None;
        };
        let keep: BTreeSet<Const> = current
            .iter()
            .filter(|c| {
                other.iter().any(|d| {
                    let (a, b) = if position == 0 { (**c, *d) } else { (*d, **c) };
                    matches!(
                        p.eval(&[Value::from_const(a), Value::from_const(b)]),
                        Ok(Value::Bool(x)) if x == outcome
                    )
                })
            })
            .copied()
            .collect();
        if keep == *current {
            None
        } else if keep.is_empty() {
            Some(self.bottom()) // branch unreachable
        } else {
            Some(AbsVal::shared(ConstSetVal::Set(keep)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f() -> ConstSetFacet {
        ConstSetFacet::default()
    }

    fn set(ns: &[i64]) -> AbsVal {
        AbsVal::new(ConstSetVal::of(ns.iter().map(|n| Const::Int(*n))))
    }

    #[test]
    fn alpha_is_singleton() {
        assert_eq!(
            f().alpha(&Value::Int(3)).downcast_ref::<ConstSetVal>(),
            Some(&ConstSetVal::just(Const::Int(3)))
        );
        assert_eq!(
            f().alpha(&Value::vector(vec![]))
                .downcast_ref::<ConstSetVal>(),
            Some(&ConstSetVal::Top)
        );
    }

    #[test]
    fn closed_ops_compute_pointwise() {
        let out = f().closed_op_on(Prim::Add, &[set(&[1, 2]), set(&[10, 20])]);
        assert_eq!(
            out.downcast_ref::<ConstSetVal>(),
            Some(&ConstSetVal::of([11, 12, 21, 22].map(Const::Int)))
        );
    }

    #[test]
    fn closed_ops_cap_to_top() {
        let small = ConstSetFacet::new(2);
        let out = small.closed_op_on(Prim::Add, &[set(&[1, 2]), set(&[10, 20])]);
        assert_eq!(out, small.top());
    }

    #[test]
    fn open_ops_decide_when_all_combinations_agree() {
        assert_eq!(
            f().open_op_on(Prim::Lt, &[set(&[1, 2]), set(&[5, 9])]),
            PeVal::constant(Const::Bool(true))
        );
        assert_eq!(
            f().open_op_on(Prim::Lt, &[set(&[1, 7]), set(&[5, 9])]),
            PeVal::Top
        );
        assert_eq!(
            f().open_op_on(Prim::Eq, &[set(&[1]), set(&[1])]),
            PeVal::constant(Const::Bool(true))
        );
    }

    #[test]
    fn all_erroring_combinations_are_bottom() {
        // Division by zero on every combination.
        let out = f().closed_op_on(Prim::Div, &[set(&[1, 2]), set(&[0])]);
        assert_eq!(out, f().bottom());
    }

    #[test]
    fn partially_erroring_combinations_keep_defined_results() {
        let out = f().closed_op_on(Prim::Div, &[set(&[4]), set(&[0, 2])]);
        assert_eq!(
            out.downcast_ref::<ConstSetVal>(),
            Some(&ConstSetVal::just(Const::Int(2)))
        );
    }

    #[test]
    fn join_unions_and_caps() {
        let fac = ConstSetFacet::new(3);
        let j = fac.join(&set(&[1, 2]), &set(&[3]));
        assert_eq!(
            j.downcast_ref::<ConstSetVal>(),
            Some(&ConstSetVal::of([1, 2, 3].map(Const::Int)))
        );
        let too_big = fac.join(&set(&[1, 2]), &set(&[3, 4]));
        assert_eq!(too_big, fac.top());
    }

    #[test]
    fn assume_filters_sets() {
        // x ∈ {1, 5, 9}, test (< x 6) true ⇒ x ∈ {1, 5}.
        let fac = f();
        let pe_top = PeVal::Top;
        let x = set(&[1, 5, 9]);
        let six = AbsVal::new(ConstSetVal::just(Const::Int(6)));
        let args = [
            FacetArg {
                pe: &pe_top,
                abs: &x,
            },
            FacetArg {
                pe: &pe_top,
                abs: &six,
            },
        ];
        let refined = fac.assume(Prim::Lt, &args, true, 0).unwrap();
        assert_eq!(
            refined.downcast_ref::<ConstSetVal>(),
            Some(&ConstSetVal::of([1, 5].map(Const::Int)))
        );
        // Contradiction is ⊥ (unreachable branch).
        let nine = set(&[9]);
        let args = [
            FacetArg {
                pe: &pe_top,
                abs: &nine,
            },
            FacetArg {
                pe: &pe_top,
                abs: &six,
            },
        ];
        assert_eq!(fac.assume(Prim::Lt, &args, true, 0), Some(fac.bottom()));
    }

    #[test]
    fn passes_the_safety_battery() {
        let candidates = crate::consistency::default_candidates();
        crate::safety::validate_facet(&f(), &candidates).unwrap();
    }

    #[test]
    fn works_in_a_product() {
        use crate::product::{FacetSet, PrimOutcome, ProductVal};
        let setf = FacetSet::with_facets(vec![Box::new(f())]);
        let x = ProductVal::dynamic(&setf).with_facet(0, set(&[2, 4]));
        let y = ProductVal::from_const(Const::Int(10), &setf);
        // Every element of {2,4} is < 10.
        assert_eq!(
            setf.prim_product(Prim::Lt, &[x.clone(), y]),
            PrimOutcome::Const(Const::Bool(true))
        );
        // {2,4} * {2,4} = {4,8,16}.
        match setf.prim_product(Prim::Mul, &[x.clone(), x]) {
            PrimOutcome::Closed(v) => {
                assert_eq!(
                    v.facet(0).downcast_ref::<ConstSetVal>(),
                    Some(&ConstSetVal::of([4, 8, 16].map(Const::Int)))
                );
            }
            other => panic!("expected Closed, got {other:?}"),
        }
    }
}
