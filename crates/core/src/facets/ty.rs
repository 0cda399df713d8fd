//! A Type facet: tracks which summand of the value sum an expression
//! inhabits — int, bool, float, or vector.
//!
//! Its open operators showcase a capability none of the other facets has:
//! answering `⊥`. A comparison between values of *incompatible* types
//! always errors in the standard semantics, so the facet maps it to
//! `⊥_Values` — statically detected definedness failure. Conversely, its
//! [`Facet::assume`] implementation learns types from observed outcomes: a
//! comparison that *did* produce a boolean implies its operands were
//! type-compatible, so inside the branches of `(< x y)` with `y : int`,
//! `x : int` too.

use std::fmt;
use std::rc::Rc;

use ppe_lang::{Prim, Value};

use crate::abs_val::{AbsVal, SharedElements};
use crate::abstract_facet::AbstractFacet;
use crate::facet::{Facet, FacetArg};
use crate::facets::mimic::mimic;
use crate::pe_val::PeVal;
use crate::short_list::ShortList;

/// An element of the Type domain (flat).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TypeVal {
    /// `⊥` — undefined.
    Bot,
    /// An integer.
    Int,
    /// A boolean.
    Bool,
    /// A float.
    Float,
    /// A vector.
    Vector,
    /// A function value (closure or reference).
    Fun,
    /// `⊤` — type unknown.
    Top,
}

impl TypeVal {
    /// All seven elements.
    pub const ALL: [TypeVal; 7] = [
        TypeVal::Bot,
        TypeVal::Int,
        TypeVal::Bool,
        TypeVal::Float,
        TypeVal::Vector,
        TypeVal::Fun,
        TypeVal::Top,
    ];

    /// The type of a concrete value.
    pub fn of(v: &Value) -> TypeVal {
        match v {
            Value::Int(_) => TypeVal::Int,
            Value::Bool(_) => TypeVal::Bool,
            Value::Float(_) => TypeVal::Float,
            Value::Vector(_) => TypeVal::Vector,
            Value::Closure(_) | Value::FnVal(_) => TypeVal::Fun,
        }
    }

    fn join(self, other: TypeVal) -> TypeVal {
        match (self, other) {
            (TypeVal::Bot, x) | (x, TypeVal::Bot) => x,
            (a, b) if a == b => a,
            _ => TypeVal::Top,
        }
    }

    fn leq(self, other: TypeVal) -> bool {
        self == TypeVal::Bot || other == TypeVal::Top || self == other
    }

    /// Whether values of these two (non-`⊥`, non-`⊤`) types can ever be
    /// compared by an ordering without a type error.
    fn orderable_with(self, other: TypeVal) -> bool {
        matches!(
            (self, other),
            (TypeVal::Int, TypeVal::Int) | (TypeVal::Float, TypeVal::Float)
        )
    }

    /// Whether `=`/`/=` is defined between these two types.
    fn equatable_with(self, other: TypeVal) -> bool {
        self.orderable_with(other) || matches!((self, other), (TypeVal::Bool, TypeVal::Bool))
    }
}

impl SharedElements for TypeVal {
    const SHARED: &'static [TypeVal] = &TypeVal::ALL;
}

impl fmt::Display for TypeVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TypeVal::Bot => "⊥",
            TypeVal::Int => "int",
            TypeVal::Bool => "bool",
            TypeVal::Float => "float",
            TypeVal::Vector => "vec",
            TypeVal::Fun => "fun",
            TypeVal::Top => "⊤",
        })
    }
}

/// The Type facet.
///
/// # Examples
///
/// ```
/// use ppe_core::facets::{TypeFacet, TypeVal};
/// use ppe_core::{AbsVal, Facet, PeVal};
/// use ppe_lang::Prim;
///
/// let f = TypeFacet;
/// let int = AbsVal::new(TypeVal::Int);
/// let boolean = AbsVal::new(TypeVal::Bool);
/// // Comparing an int with a bool always errors: statically ⊥.
/// assert_eq!(f.open_op_on(Prim::Lt, &[int, boolean]), PeVal::Bottom);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct TypeFacet;

impl TypeFacet {
    fn get(&self, v: &AbsVal) -> TypeVal {
        *v.expect_ref::<TypeVal>("type")
    }

    fn args(&self, args: &[FacetArg<'_>]) -> ShortList<TypeVal> {
        args.iter()
            .map(|a| {
                if *a.pe == PeVal::Bottom {
                    TypeVal::Bot
                } else {
                    self.get(a.abs)
                }
            })
            .collect()
    }
}

impl Facet for TypeFacet {
    fn name(&self) -> &'static str {
        "type"
    }

    fn bottom(&self) -> AbsVal {
        AbsVal::shared(TypeVal::Bot)
    }

    fn top(&self) -> AbsVal {
        AbsVal::shared(TypeVal::Top)
    }

    fn join(&self, a: &AbsVal, b: &AbsVal) -> AbsVal {
        AbsVal::shared(self.get(a).join(self.get(b)))
    }

    fn leq(&self, a: &AbsVal, b: &AbsVal) -> bool {
        self.get(a).leq(self.get(b))
    }

    fn alpha(&self, v: &Value) -> AbsVal {
        AbsVal::shared(TypeVal::of(v))
    }

    fn closed_op(&self, p: Prim, args: &[FacetArg<'_>]) -> AbsVal {
        use TypeVal::*;
        let s = self.args(args);
        if s.contains(&Bot) {
            return self.bottom();
        }
        let out = match (p, &*s) {
            (Prim::Add | Prim::Sub | Prim::Mul, [a, b]) => match (a, b) {
                (Int, Int) => Int,
                (Float, Float) => Float,
                (Top, _) | (_, Top) => Top,
                _ => Bot, // mixed numeric or non-numeric: always a type error
            },
            (Prim::Div, [a, b]) => match (a, b) {
                // May still divide by zero, but the *type* is known.
                (Int, Int) => Int,
                (Float, Float) => Float,
                (Top, _) | (_, Top) => Top,
                _ => Bot,
            },
            (Prim::Mod, [a, b]) => match (a, b) {
                (Int, Int) => Int,
                (Top, _) | (_, Top) => Top,
                _ => Bot,
            },
            (Prim::Neg, [a]) => match a {
                Int => Int,
                Float => Float,
                Top => Top,
                _ => Bot,
            },
            (Prim::And | Prim::Or, [a, b]) => match (a, b) {
                (Bool, Bool) => Bool,
                (Top, _) | (_, Top) => Top,
                _ => Bot,
            },
            (Prim::Not, [a]) => match a {
                Bool => Bool,
                Top => Top,
                _ => Bot,
            },
            (Prim::MkVec, [a]) => match a {
                Int => Vector,
                Top => Top,
                _ => Bot,
            },
            (Prim::UpdVec, [v, i, _]) => match (v, i) {
                (Vector, Int) => Vector,
                (Top, _) | (_, Top) => Top,
                _ => Bot,
            },
            _ => Top,
        };
        AbsVal::shared(out)
    }

    fn open_op(&self, p: Prim, args: &[FacetArg<'_>]) -> PeVal {
        use TypeVal::*;
        let s = self.args(args);
        if s.contains(&Bot) {
            return PeVal::Bottom;
        }
        match (p, &*s) {
            (Prim::Lt | Prim::Le | Prim::Gt | Prim::Ge, [a, b]) => {
                // Unknown or compatible types: value unknown. Otherwise a
                // definite type error.
                if *a == Top || *b == Top || a.orderable_with(*b) {
                    PeVal::Top
                } else {
                    PeVal::Bottom
                }
            }
            (Prim::Eq | Prim::Ne, [a, b]) => {
                if *a == Top || *b == Top || a.equatable_with(*b) {
                    PeVal::Top
                } else {
                    PeVal::Bottom
                }
            }
            (Prim::VSize, [a]) => match a {
                Vector | Top => PeVal::Top,
                _ => PeVal::Bottom,
            },
            (Prim::VRef, [v, i]) => match (v, i) {
                (Vector, Int) => PeVal::Top,
                (Top, _) | (_, Top) => PeVal::Top,
                _ => PeVal::Bottom,
            },
            _ => PeVal::Top,
        }
    }

    fn concretizes(&self, abs: &AbsVal, v: &Value) -> bool {
        match self.get(abs) {
            TypeVal::Bot => false,
            TypeVal::Top => true,
            t => TypeVal::of(v) == t,
        }
    }

    fn enumerate(&self) -> Option<Vec<AbsVal>> {
        Some(TypeVal::ALL.iter().map(|t| AbsVal::shared(*t)).collect())
    }

    fn abstract_facet(&self) -> Rc<dyn AbstractFacet> {
        mimic(TypeFacet)
    }

    /// Learning types from outcomes: a comparison that produced a boolean
    /// did not error, so its operands were type-compatible — the refined
    /// argument takes the other side's type when that type is specific.
    fn assume(
        &self,
        p: Prim,
        args: &[FacetArg<'_>],
        _outcome: bool,
        position: usize,
    ) -> Option<AbsVal> {
        use TypeVal::*;
        if args.len() != 2 || position > 1 {
            return None;
        }
        let s = self.args(args);
        let current = s[position];
        let other = s[1 - position];
        let implied = match p {
            Prim::Lt | Prim::Le | Prim::Gt | Prim::Ge => match other {
                Int => Int,
                Float => Float,
                _ => return None,
            },
            Prim::Eq | Prim::Ne => match other {
                Int => Int,
                Float => Float,
                Bool => Bool,
                _ => return None,
            },
            _ => return None,
        };
        // Flat meet with the current knowledge.
        let refined = match current {
            Top => implied,
            c if c == implied => return None, // nothing new
            Bot => return None,
            _ => Bot, // contradiction: the branch is unreachable
        };
        Some(AbsVal::shared(refined))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(t: TypeVal) -> AbsVal {
        AbsVal::new(t)
    }

    #[test]
    fn alpha_classifies_all_summands() {
        let f = TypeFacet;
        assert_eq!(f.alpha(&Value::Int(1)).downcast_ref(), Some(&TypeVal::Int));
        assert_eq!(
            f.alpha(&Value::Bool(true)).downcast_ref(),
            Some(&TypeVal::Bool)
        );
        assert_eq!(
            f.alpha(&Value::Float(1.0)).downcast_ref(),
            Some(&TypeVal::Float)
        );
        assert_eq!(
            f.alpha(&Value::vector(vec![])).downcast_ref(),
            Some(&TypeVal::Vector)
        );
        assert_eq!(
            f.alpha(&Value::FnVal(ppe_lang::Symbol::intern("f")))
                .downcast_ref(),
            Some(&TypeVal::Fun)
        );
    }

    #[test]
    fn arithmetic_types_propagate() {
        let f = TypeFacet;
        let out = f.closed_op_on(Prim::Add, &[a(TypeVal::Int), a(TypeVal::Int)]);
        assert_eq!(out.downcast_ref(), Some(&TypeVal::Int));
        let out = f.closed_op_on(Prim::Mul, &[a(TypeVal::Float), a(TypeVal::Float)]);
        assert_eq!(out.downcast_ref(), Some(&TypeVal::Float));
    }

    #[test]
    fn type_mismatches_are_statically_bottom() {
        let f = TypeFacet;
        // Closed: int + bool can never be defined.
        let out = f.closed_op_on(Prim::Add, &[a(TypeVal::Int), a(TypeVal::Bool)]);
        assert_eq!(out, f.bottom());
        // Open: int < vector can never be defined.
        assert_eq!(
            f.open_op_on(Prim::Lt, &[a(TypeVal::Int), a(TypeVal::Vector)]),
            PeVal::Bottom
        );
        // Mixed numerics error too (the language does not coerce).
        assert_eq!(
            f.open_op_on(Prim::Lt, &[a(TypeVal::Int), a(TypeVal::Float)]),
            PeVal::Bottom
        );
    }

    #[test]
    fn compatible_types_stay_unknown() {
        let f = TypeFacet;
        assert_eq!(
            f.open_op_on(Prim::Lt, &[a(TypeVal::Int), a(TypeVal::Int)]),
            PeVal::Top
        );
        assert_eq!(
            f.open_op_on(Prim::Eq, &[a(TypeVal::Bool), a(TypeVal::Bool)]),
            PeVal::Top
        );
    }

    #[test]
    fn vector_operations_are_typed() {
        let f = TypeFacet;
        let out = f.closed_op_on(Prim::MkVec, &[a(TypeVal::Int)]);
        assert_eq!(out.downcast_ref(), Some(&TypeVal::Vector));
        assert_eq!(f.open_op_on(Prim::VSize, &[a(TypeVal::Int)]), PeVal::Bottom);
    }

    #[test]
    fn assume_learns_types_from_outcomes() {
        let f = TypeFacet;
        let pe_top = PeVal::Top;
        let x = a(TypeVal::Top);
        let other = a(TypeVal::Int);
        let args = [
            FacetArg {
                pe: &pe_top,
                abs: &x,
            },
            FacetArg {
                pe: &pe_top,
                abs: &other,
            },
        ];
        // Either outcome of (< x 3) proves x : int.
        for outcome in [true, false] {
            let refined = f.assume(Prim::Lt, &args, outcome, 0).unwrap();
            assert_eq!(refined.downcast_ref(), Some(&TypeVal::Int));
        }
        // A contradicting prior type makes the branch unreachable.
        let y = a(TypeVal::Bool);
        let args = [
            FacetArg {
                pe: &pe_top,
                abs: &y,
            },
            FacetArg {
                pe: &pe_top,
                abs: &other,
            },
        ];
        assert_eq!(f.assume(Prim::Lt, &args, true, 0), Some(f.bottom()));
    }

    #[test]
    fn passes_the_safety_battery() {
        let mut candidates = crate::consistency::default_candidates();
        candidates.push(Value::FnVal(ppe_lang::Symbol::intern("g")));
        crate::safety::validate_facet(&TypeFacet, &candidates).unwrap();
    }
}
