//! Abstract syntax of the object language (Figure 1 of the paper, extended
//! with `let` sugar and the higher-order forms of Section 5.5).

use std::fmt;

use crate::prim::Prim;
use crate::symbol::Symbol;

/// A totally ordered, hashable wrapper around `f64`.
///
/// Constants appear as keys of the specialization cache `Sf`, so they must be
/// `Eq + Hash`. NaN is rejected at construction. Equality and hashing read
/// the bits, so `0.0` and `-0.0` are different constants, as they are
/// different values (`(neg 0.0)` is `-0.0`); the order is `f64::total_cmp`,
/// the usual order with `-0.0` just below `0.0`.
///
/// # Examples
///
/// ```
/// use ppe_lang::F64;
///
/// let x = F64::new(1.5).unwrap();
/// assert_eq!(x.get(), 1.5);
/// assert!(F64::new(f64::NAN).is_none());
/// assert_ne!(F64::new(0.0), F64::new(-0.0));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct F64(f64);

impl F64 {
    /// Wraps `v`, returning `None` if it is NaN.
    pub fn new(v: f64) -> Option<F64> {
        if v.is_nan() {
            None
        } else {
            Some(F64(v))
        }
    }

    /// Returns the underlying `f64`.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for F64 {
    fn eq(&self, other: &F64) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for F64 {}

impl std::hash::Hash for F64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl PartialOrd for F64 {
    fn partial_cmp(&self, other: &F64) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F64 {
    fn cmp(&self, other: &F64) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Prints a literal the lexer reads back as the same float: always with a
/// decimal point or an exponent, so it never reads back as an integer, and
/// ±∞ as `1e999`/`-1e999`, which overflow back to ±∞.
impl fmt::Display for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let x = self.0;
        if x.is_infinite() {
            f.write_str(if x > 0.0 { "1e999" } else { "-1e999" })
        } else if x.fract() != 0.0 {
            write!(f, "{x}")
        } else if x.abs() < 1e15 {
            write!(f, "{x:.1}")
        } else {
            write!(f, "{x:e}")
        }
    }
}

/// A literal constant of the language (domain `Const` of Figure 1).
///
/// The paper's basic semantic domains are integers and booleans; Section 6
/// additionally uses floating-point vector elements, so floats are included.
/// The `Ord` instance is an arbitrary total order (for use in ordered
/// collections), not the language's comparison semantics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Const {
    /// An integer literal.
    Int(i64),
    /// A boolean literal.
    Bool(bool),
    /// A floating-point literal (never NaN).
    Float(F64),
}

impl Const {
    /// True if this constant is a boolean `true`.
    pub fn is_true(&self) -> bool {
        matches!(self, Const::Bool(true))
    }

    /// Returns the integer payload, if this is an integer constant.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Const::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a boolean constant.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Const::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(n) => write!(f, "{n}"),
            Const::Bool(true) => f.write_str("#t"),
            Const::Bool(false) => f.write_str("#f"),
            Const::Float(x) => write!(f, "{x}"),
        }
    }
}

impl From<i64> for Const {
    fn from(n: i64) -> Const {
        Const::Int(n)
    }
}

impl From<bool> for Const {
    fn from(b: bool) -> Const {
        Const::Bool(b)
    }
}

/// An expression of the object language.
///
/// The grammar is that of Figure 1 —
/// `e ::= c | x | p(e₁,…,eₙ) | f(e₁,…,eₙ) | if e₁ e₂ e₃` —
/// extended with `let` (used by the paper's Section 6 example) and the
/// higher-order forms of Section 5.5 (`lambda`, general application, and
/// top-level function references).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A constant `c`.
    Const(Const),
    /// A variable reference `x`.
    Var(Symbol),
    /// A primitive application `p(e₁, …, eₙ)`.
    Prim(Prim, Vec<Expr>),
    /// A conditional `if e₁ e₂ e₃`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// A call of a named top-level function `f(e₁, …, eₙ)`.
    Call(Symbol, Vec<Expr>),
    /// `let x = e₁ in e₂` (sugar; Section 6 uses it).
    Let(Symbol, Box<Expr>, Box<Expr>),
    /// A lambda abstraction `λ(x₁,…,xₙ). e` (Section 5.5).
    Lambda(Vec<Symbol>, Box<Expr>),
    /// A general application `e(e₁, …, eₙ)` of a computed function
    /// (Section 5.5).
    App(Box<Expr>, Vec<Expr>),
    /// A reference to a top-level function used as a value (Section 5.5).
    FnRef(Symbol),
}

impl Expr {
    /// Shorthand for an integer constant expression.
    pub fn int(n: i64) -> Expr {
        Expr::Const(Const::Int(n))
    }

    /// Shorthand for a boolean constant expression.
    pub fn bool(b: bool) -> Expr {
        Expr::Const(Const::Bool(b))
    }

    /// Shorthand for a variable expression.
    pub fn var(name: &str) -> Expr {
        Expr::Var(Symbol::intern(name))
    }

    /// Shorthand for a call expression.
    pub fn call(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Call(Symbol::intern(name), args)
    }

    /// Shorthand for a primitive application.
    pub fn prim(p: Prim, args: Vec<Expr>) -> Expr {
        Expr::Prim(p, args)
    }

    /// If this expression is a constant, returns it.
    pub fn as_const(&self) -> Option<Const> {
        match self {
            Expr::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// True if the expression is a literal constant (`e' ∈ Const` in the
    /// paper's specializer, Figure 2).
    pub fn is_const(&self) -> bool {
        matches!(self, Expr::Const(_))
    }

    /// Number of nodes in the expression tree; used by size-bounded
    /// specialization policies and by benchmarks reporting residual size.
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => 1,
            Expr::Prim(_, args) | Expr::Call(_, args) => {
                1 + args.iter().map(Expr::size).sum::<usize>()
            }
            Expr::If(c, t, e) => 1 + c.size() + t.size() + e.size(),
            Expr::Let(_, b, body) => 1 + b.size() + body.size(),
            Expr::Lambda(_, body) => 1 + body.size(),
            Expr::App(f, args) => 1 + f.size() + args.iter().map(Expr::size).sum::<usize>(),
        }
    }

    /// Collects the free variables of the expression into `out`
    /// (top-level function names referenced by `Call`/`FnRef` excluded).
    pub fn free_vars(&self, out: &mut Vec<Symbol>) {
        fn go(e: &Expr, bound: &mut Vec<Symbol>, out: &mut Vec<Symbol>) {
            match e {
                Expr::Const(_) | Expr::FnRef(_) => {}
                Expr::Var(x) => {
                    if !bound.contains(x) && !out.contains(x) {
                        out.push(*x);
                    }
                }
                Expr::Prim(_, args) | Expr::Call(_, args) => {
                    for a in args {
                        go(a, bound, out);
                    }
                }
                Expr::If(c, t, f) => {
                    go(c, bound, out);
                    go(t, bound, out);
                    go(f, bound, out);
                }
                Expr::Let(x, b, body) => {
                    go(b, bound, out);
                    bound.push(*x);
                    go(body, bound, out);
                    bound.pop();
                }
                Expr::Lambda(params, body) => {
                    let n = bound.len();
                    bound.extend_from_slice(params);
                    go(body, bound, out);
                    bound.truncate(n);
                }
                Expr::App(f, args) => {
                    go(f, bound, out);
                    for a in args {
                        go(a, bound, out);
                    }
                }
            }
        }
        go(self, &mut Vec::new(), out);
    }
}

impl From<Const> for Expr {
    fn from(c: Const) -> Expr {
        Expr::Const(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_rejects_nan() {
        assert!(F64::new(f64::NAN).is_none());
        assert!(F64::new(2.0).is_some());
    }

    #[test]
    fn f64_orders_totally() {
        let a = F64::new(-1.0).unwrap();
        let b = F64::new(3.5).unwrap();
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn f64_negative_zero_hash_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let pz = F64::new(0.0).unwrap();
        let nz = F64::new(-0.0).unwrap();
        let h = |x: F64| {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        };
        // The zeros are different constants: `(neg 0.0)` is `-0.0`.
        assert_ne!(pz, nz);
        assert_ne!(h(pz), h(nz));
        assert!(nz < pz);
        // Eq and Hash still agree, and the order is total.
        assert_eq!(pz, F64::new(0.0).unwrap());
        assert_eq!(h(nz), h(F64::new(-0.0).unwrap()));
        assert!(F64::new(-1.0).unwrap() < nz && pz < F64::new(f64::MIN_POSITIVE).unwrap());
    }

    #[test]
    fn const_display() {
        assert_eq!(Const::Int(-3).to_string(), "-3");
        assert_eq!(Const::Bool(true).to_string(), "#t");
        assert_eq!(Const::Float(F64::new(2.0).unwrap()).to_string(), "2.0");
        // Integral floats from 1e15 up, and ±∞, still spell floats.
        for (x, text) in [
            (1e15, "1e15"),
            (-1.5e16, "-1.5e16"),
            (f64::INFINITY, "1e999"),
            (f64::NEG_INFINITY, "-1e999"),
        ] {
            assert_eq!(Const::Float(F64::new(x).unwrap()).to_string(), text);
        }
    }

    #[test]
    fn expr_size_counts_nodes() {
        let e = Expr::prim(Prim::Add, vec![Expr::int(1), Expr::var("x")]);
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn free_vars_respect_binders() {
        // let x = y in x + z  =>  frees are {y, z}
        let e = Expr::Let(
            Symbol::intern("x"),
            Box::new(Expr::var("y")),
            Box::new(Expr::prim(Prim::Add, vec![Expr::var("x"), Expr::var("z")])),
        );
        let mut fv = Vec::new();
        e.free_vars(&mut fv);
        assert_eq!(fv, vec![Symbol::intern("y"), Symbol::intern("z")]);
    }

    #[test]
    fn free_vars_of_lambda_exclude_params() {
        let e = Expr::Lambda(
            vec![Symbol::intern("a")],
            Box::new(Expr::prim(Prim::Add, vec![Expr::var("a"), Expr::var("b")])),
        );
        let mut fv = Vec::new();
        e.free_vars(&mut fv);
        assert_eq!(fv, vec![Symbol::intern("b")]);
    }
}
