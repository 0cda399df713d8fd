//! Programs: ordered collections of first-order function definitions
//! (`Prog` of Figure 1), with well-formedness validation.

use std::collections::HashMap;
use std::fmt;

use crate::ast::Expr;
use crate::symbol::Symbol;

/// A single top-level function definition `f(x₁, …, xₙ) = e`.
#[derive(Clone, Debug, PartialEq)]
pub struct FunDef {
    /// The function's name.
    pub name: Symbol,
    /// Formal parameters.
    pub params: Vec<Symbol>,
    /// The function body.
    pub body: Expr,
}

impl FunDef {
    /// Creates a function definition.
    pub fn new(name: Symbol, params: Vec<Symbol>, body: Expr) -> FunDef {
        FunDef { name, params, body }
    }

    /// The function's arity.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// A stable 64-bit structural fingerprint of this single definition:
    /// the same spelling-stable walk as [`Program::fingerprint`], scoped
    /// to one def. Depends only on the name, parameter spellings, and
    /// body structure — never on interner ids — so it is safe to embed
    /// in persistent cache keys. Not memoized; callers that need it
    /// repeatedly (e.g. `ppe-analyze`'s dependency graph) cache it in
    /// their own tables.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(self.name.as_str());
        h.write_usize(self.params.len());
        for p in &self.params {
            h.write_str(p.as_str());
        }
        hash_expr(&self.body, &mut h);
        h.finish()
    }
}

/// A program: a non-empty sequence of definitions whose first element is the
/// main function (`f₁` of Figure 1).
///
/// # Examples
///
/// ```
/// use ppe_lang::parse_program;
///
/// let p = parse_program("(define (id x) x)")?;
/// assert_eq!(p.main().name.as_str(), "id");
/// assert!(p.lookup(p.main().name).is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Program {
    defs: Vec<FunDef>,
    index: HashMap<Symbol, usize>,
    /// Memoized [`Program::fingerprint`]. Definitions are immutable after
    /// construction, so the hash is computed at most once per program
    /// (clones inherit an already-computed value for free).
    fingerprint: std::sync::OnceLock<u64>,
    /// Memoized [`Program::term_fingerprint`], on the same terms.
    term_fingerprint: std::sync::OnceLock<u64>,
}

impl Program {
    /// Builds a program from its definitions.
    ///
    /// # Errors
    ///
    /// Returns a message if `defs` is empty or contains duplicate function
    /// names.
    pub fn new(defs: Vec<FunDef>) -> Result<Program, String> {
        if defs.is_empty() {
            return Err("a program needs at least one definition".to_owned());
        }
        let mut index = HashMap::with_capacity(defs.len());
        for (i, d) in defs.iter().enumerate() {
            if index.insert(d.name, i).is_some() {
                return Err(format!("duplicate definition of `{}`", d.name));
            }
        }
        Ok(Program {
            defs,
            index,
            fingerprint: std::sync::OnceLock::new(),
            term_fingerprint: std::sync::OnceLock::new(),
        })
    }

    /// The definitions, in source order.
    pub fn defs(&self) -> &[FunDef] {
        &self.defs
    }

    /// Gives up the program for its definitions, in source order.
    pub(crate) fn into_defs(self) -> Vec<FunDef> {
        self.defs
    }

    /// The main function (first definition).
    pub fn main(&self) -> &FunDef {
        &self.defs[0]
    }

    /// Looks up a definition by name.
    pub fn lookup(&self, name: Symbol) -> Option<&FunDef> {
        self.index.get(&name).map(|&i| &self.defs[i])
    }

    /// Total AST size over all definitions (for benchmarks and reports).
    pub fn size(&self) -> usize {
        self.defs.iter().map(|d| d.body.size() + 1).sum()
    }

    /// Checks well-formedness: every called function exists with matching
    /// arity, every variable is bound, and parameter lists have no
    /// duplicates. Function references (`FnRef`) must name defined
    /// functions.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        for def in &self.defs {
            let mut seen = Vec::new();
            for p in &def.params {
                if seen.contains(p) {
                    return Err(format!(
                        "duplicate parameter `{p}` in definition of `{}`",
                        def.name
                    ));
                }
                seen.push(*p);
            }
            self.validate_expr(&def.body, &mut seen, def.name)?;
        }
        Ok(())
    }

    fn validate_expr(
        &self,
        e: &Expr,
        bound: &mut Vec<Symbol>,
        context: Symbol,
    ) -> Result<(), String> {
        match e {
            Expr::Const(_) => Ok(()),
            Expr::Var(x) => {
                if bound.contains(x) {
                    Ok(())
                } else {
                    Err(format!("unbound variable `{x}` in `{context}`"))
                }
            }
            Expr::FnRef(f) => {
                if self.lookup(*f).is_some() {
                    Ok(())
                } else {
                    Err(format!(
                        "reference to unknown function `{f}` in `{context}`"
                    ))
                }
            }
            Expr::Prim(_, args) => {
                for a in args {
                    self.validate_expr(a, bound, context)?;
                }
                Ok(())
            }
            Expr::Call(f, args) => {
                let def = self
                    .lookup(*f)
                    .ok_or_else(|| format!("call to unknown function `{f}` in `{context}`"))?;
                if def.arity() != args.len() {
                    return Err(format!(
                        "`{f}` expects {} arguments but is called with {} in `{context}`",
                        def.arity(),
                        args.len()
                    ));
                }
                for a in args {
                    self.validate_expr(a, bound, context)?;
                }
                Ok(())
            }
            Expr::If(c, t, f) => {
                self.validate_expr(c, bound, context)?;
                self.validate_expr(t, bound, context)?;
                self.validate_expr(f, bound, context)
            }
            Expr::Let(x, b, body) => {
                self.validate_expr(b, bound, context)?;
                bound.push(*x);
                let r = self.validate_expr(body, bound, context);
                bound.pop();
                r
            }
            Expr::Lambda(params, body) => {
                let n = bound.len();
                bound.extend_from_slice(params);
                let r = self.validate_expr(body, bound, context);
                bound.truncate(n);
                r
            }
            Expr::App(f, args) => {
                self.validate_expr(f, bound, context)?;
                for a in args {
                    self.validate_expr(a, bound, context)?;
                }
                Ok(())
            }
        }
    }

    /// A stable 64-bit structural fingerprint of the program.
    ///
    /// Two programs fingerprint equal iff (modulo hash collisions) they
    /// have the same definitions in the same order: the same function
    /// names, parameter spellings, and bodies. The hash depends only on
    /// symbol *spellings* — never on interner ids — so it is stable
    /// across processes and independent of what else was interned first,
    /// which makes it usable as a persistent cache-key component (the
    /// `ppe-server` residual cache keys on it).
    ///
    /// The walk runs once per program and is memoized; repeated calls
    /// (e.g. per-request cache-key construction in `ppe-server`) return
    /// the stored value without touching the AST.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = Fnv64::new();
            h.write_usize(self.defs.len());
            for d in &self.defs {
                h.write_str(d.name.as_str());
                h.write_usize(d.params.len());
                for p in &d.params {
                    h.write_str(p.as_str());
                }
                hash_expr(&d.body, &mut h);
            }
            h.finish()
        })
    }

    /// A second 64-bit structural fingerprint, independent of
    /// [`Program::fingerprint`]: FNV-1a over every definition's body
    /// fingerprint ([`crate::term::fingerprint_of`]) and arity, in order.
    /// It mixes [`Symbol`] indices, so it is stable only within one
    /// process. The VM chunk cache keys on the pair of the two.
    ///
    /// The walk runs once per program and is memoized like
    /// [`Program::fingerprint`].
    pub fn term_fingerprint(&self) -> u64 {
        *self.term_fingerprint.get_or_init(|| {
            let mut h = Fnv64::new();
            for d in &self.defs {
                h.write_u64(crate::term::fingerprint_of(&d.body));
                h.write_usize(d.params.len());
            }
            h.finish()
        })
    }

    /// True if any definition uses the higher-order forms of Section 5.5.
    pub fn is_higher_order(&self) -> bool {
        fn ho(e: &Expr) -> bool {
            match e {
                Expr::Lambda(..) | Expr::App(..) | Expr::FnRef(_) => true,
                Expr::Const(_) | Expr::Var(_) => false,
                Expr::Prim(_, args) | Expr::Call(_, args) => args.iter().any(ho),
                Expr::If(a, b, c) => ho(a) || ho(b) || ho(c),
                Expr::Let(_, a, b) => ho(a) || ho(b),
            }
        }
        self.defs.iter().any(|d| ho(&d.body))
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms.
/// Not collision-resistant against adversaries — callers that need that
/// must layer something stronger; cache keys over trusted programs don't.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.write_bytes(&[b]);
    }

    fn write_u64(&mut self, n: u64) {
        self.write_bytes(&n.to_le_bytes());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// Length-prefixed so that `("ab","c")` and `("a","bc")` differ.
    fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_const(c: &crate::ast::Const, h: &mut Fnv64) {
    use crate::ast::Const;
    match c {
        Const::Int(n) => {
            h.write_u8(1);
            h.write_u64(*n as u64);
        }
        Const::Bool(b) => {
            h.write_u8(2);
            h.write_u8(u8::from(*b));
        }
        Const::Float(x) => {
            h.write_u8(3);
            // The bits as written: `0.0` and `-0.0` are equal `F64`s but
            // not interchangeable constants (`(* 2.0 -0.0)` is `-0.0`), so
            // programs holding them must not share a cache key.
            h.write_u64(x.get().to_bits());
        }
    }
}

fn hash_expr(e: &Expr, h: &mut Fnv64) {
    match e {
        Expr::Const(c) => {
            h.write_u8(10);
            hash_const(c, h);
        }
        Expr::Var(x) => {
            h.write_u8(11);
            h.write_str(x.as_str());
        }
        Expr::Prim(p, args) => {
            h.write_u8(12);
            h.write_str(p.name());
            h.write_usize(args.len());
            for a in args {
                hash_expr(a, h);
            }
        }
        Expr::If(c, t, f) => {
            h.write_u8(13);
            hash_expr(c, h);
            hash_expr(t, h);
            hash_expr(f, h);
        }
        Expr::Call(f, args) => {
            h.write_u8(14);
            h.write_str(f.as_str());
            h.write_usize(args.len());
            for a in args {
                hash_expr(a, h);
            }
        }
        Expr::Let(x, b, body) => {
            h.write_u8(15);
            h.write_str(x.as_str());
            hash_expr(b, h);
            hash_expr(body, h);
        }
        Expr::Lambda(params, body) => {
            h.write_u8(16);
            h.write_usize(params.len());
            for p in params {
                h.write_str(p.as_str());
            }
            hash_expr(body, h);
        }
        Expr::App(f, args) => {
            h.write_u8(17);
            hash_expr(f, h);
            h.write_usize(args.len());
            for a in args {
                hash_expr(a, h);
            }
        }
        Expr::FnRef(f) => {
            h.write_u8(18);
            h.write_str(f.as_str());
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::pretty::pretty_program(self))
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse_program;

    #[test]
    fn rejects_duplicate_definitions() {
        assert!(parse_program("(define (f x) x) (define (f y) y)").is_err());
    }

    #[test]
    fn rejects_duplicate_params() {
        assert!(parse_program("(define (f x x) x)").is_err());
    }

    #[test]
    fn rejects_arity_mismatch() {
        assert!(parse_program("(define (f x) (g x x)) (define (g y) y)").is_err());
    }

    #[test]
    fn rejects_unbound_variable() {
        assert!(parse_program("(define (f x) y)").is_err());
    }

    #[test]
    fn size_counts_all_definitions() {
        let p = parse_program("(define (f x) (+ x 1)) (define (g y) y)").unwrap();
        // f: body 3 nodes + 1; g: body 1 node + 1.
        assert_eq!(p.size(), 6);
    }

    #[test]
    fn fingerprint_is_stable_and_structural() {
        let a = parse_program("(define (f x) (+ x 1)) (define (g y) y)").unwrap();
        let b = parse_program("(define (f x)   (+ x 1))\n(define (g y) y)").unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "whitespace is immaterial");
        let c = parse_program("(define (f x) (+ x 2)) (define (g y) y)").unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint(), "constants matter");
        let d = parse_program("(define (f z) (+ z 1)) (define (g y) y)").unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint(), "spellings matter");
        let e = parse_program("(define (g y) y) (define (f x) (+ x 1))").unwrap();
        assert_ne!(a.fingerprint(), e.fingerprint(), "definition order matters");
    }

    #[test]
    fn fingerprint_distinguishes_float_and_int() {
        let i = parse_program("(define (f) 1)").unwrap();
        let f = parse_program("(define (f) 1.0)").unwrap();
        assert_ne!(i.fingerprint(), f.fingerprint());
    }

    #[test]
    fn fingerprints_distinguish_the_sign_of_zero() {
        let p = parse_program("(define (f x) (* x 0.0))").unwrap();
        let n = parse_program("(define (f x) (* x -0.0))").unwrap();
        assert_ne!(p.fingerprint(), n.fingerprint());
        assert_ne!(p.defs()[0].fingerprint(), n.defs()[0].fingerprint());
        assert_ne!(p.term_fingerprint(), n.term_fingerprint());
    }

    #[test]
    fn higher_order_detection() {
        let fo = parse_program("(define (f x) (+ x 1))").unwrap();
        assert!(!fo.is_higher_order());
        let ho = parse_program("(define (f g x) (g x))").unwrap();
        assert!(ho.is_higher_order());
    }
}
