//! Recursive-descent parser for the s-expression surface syntax.
//!
//! Grammar:
//!
//! ```text
//! program ::= define+
//! define  ::= (define (f x …) expr)
//! expr    ::= const | ident
//!           | (if e e e)
//!           | (let ((x e) …) body)
//!           | (lambda (x …) e)
//!           | (p e …)            ; primitive application
//!           | (f e …)            ; call of a top-level function
//!           | (e₀ e …)           ; general application (Section 5.5)
//! ```
//!
//! Identifier resolution is lexical: a locally bound name is a variable (and
//! in operator position produces a general application); otherwise an
//! operator-position name resolves first to a primitive, then to a top-level
//! function call, and a value-position name referring to a top-level
//! function becomes a function reference ([`Expr::FnRef`]).
//!
//! Cost: the lexer makes one pass over the source's bytes and yields
//! `Copy` tokens whose identifiers are slices of the source, so the only
//! allocations are the token vector and the tree itself. The parser reads
//! tokens by copy; an identifier costs its one `Symbol::intern` and
//! nothing more.

use std::collections::HashSet;

use crate::ast::{Const, Expr, F64};
use crate::error::ParseError;
use crate::lexer::lex;
use crate::prim::Prim;
use crate::program::{FunDef, Program};
use crate::symbol::Symbol;
use crate::token::{Token, TokenKind};

/// Parses a whole program: a sequence of `(define (f x …) body)` forms.
/// The first definition is the program's main function (`f₁` of Figure 1).
///
/// # Errors
///
/// Returns a [`ParseError`] on lexical or syntactic errors; semantic
/// problems (unknown functions, arity mismatches, unbound variables) are
/// reported by [`Program::validate`], which this function also runs.
///
/// # Examples
///
/// ```
/// use ppe_lang::parse_program;
///
/// let p = parse_program(
///     "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))",
/// )?;
/// assert_eq!(p.defs().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let defs = parse_defs(src)?;
    if defs.is_empty() {
        return Err(ParseError::new("program has no definitions", 1, 1));
    }
    let program = Program::new(defs).map_err(|e| ParseError::new(e, 1, 1))?;
    program.validate().map_err(|e| ParseError::new(e, 1, 1))?;
    Ok(program)
}

/// Parses a sequence of `(define …)` forms *without* semantic validation.
///
/// Where [`parse_program`] rejects duplicate definitions, unbound
/// variables, unknown functions and arity mismatches up front, this
/// lenient entry point stops at syntax: it returns the raw definitions so
/// that a client — the `ppe-analyze` crate's `ppe check` pass — can
/// diagnose *all* semantic problems itself with structured codes and
/// locations instead of the first one as a parse error. An empty input
/// yields an empty vector (the analyzer reports it).
///
/// # Errors
///
/// Returns a [`ParseError`] only for lexical/syntactic problems (including
/// unknown primitives and primitive-arity mistakes, which this parser
/// resolves while text positions are still in hand).
///
/// # Examples
///
/// ```
/// use ppe_lang::parse_defs;
///
/// // Duplicate definition: rejected by `parse_program`, returned here.
/// let defs = parse_defs("(define (f x) x) (define (f y) y)")?;
/// assert_eq!(defs.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse_defs(src: &str) -> Result<Vec<FunDef>, ParseError> {
    let mut p = Parser::new(src)?;
    // Pass 1: collect the names of all defined functions so that forward
    // references parse as calls.
    let fn_names = p.scan_define_names();
    let mut defs = Vec::new();
    while !p.at_end() {
        defs.push(p.parse_define(&fn_names)?);
    }
    Ok(defs)
}

/// Parses a single expression with no top-level functions in scope.
///
/// Handy in tests and examples for building expressions succinctly.
///
/// # Errors
///
/// Returns a [`ParseError`] on lexical/syntactic problems or trailing input.
///
/// # Examples
///
/// ```
/// use ppe_lang::{parse_expr, Expr, Prim};
///
/// let e = parse_expr("(+ 1 2)")?;
/// assert_eq!(e, Expr::prim(Prim::Add, vec![Expr::int(1), Expr::int(2)]));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src)?;
    let no_functions = HashSet::new();
    let mut scope = Scope::new(&no_functions);
    let e = p.parse_expr(&mut scope)?;
    if let Some(t) = p.peek() {
        return Err(ParseError::new(
            "trailing input after expression",
            t.line,
            t.col,
        ));
    }
    Ok(e)
}

/// The token stream of one source and a cursor into it. The whole source
/// is lexed first, so a lexical error anywhere wins over a syntax error
/// before it, and [`Parser::scan_define_names`] can look ahead.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

/// Lexical scope: the set of known top-level functions plus a stack of
/// locally bound variables.
struct Scope<'a> {
    functions: &'a HashSet<Symbol>,
    locals: Vec<Symbol>,
}

impl<'a> Scope<'a> {
    fn new(functions: &'a HashSet<Symbol>) -> Scope<'a> {
        Scope {
            functions,
            locals: Vec::new(),
        }
    }

    fn is_local(&self, s: Symbol) -> bool {
        self.locals.contains(&s)
    }

    fn is_function(&self, s: Symbol) -> bool {
        self.functions.contains(&s)
    }
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Parser<'a>, ParseError> {
        Ok(Parser {
            tokens: lex(src)?,
            pos: 0,
        })
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn last_pos(&self) -> (u32, u32) {
        self.tokens
            .last()
            .map(|t| (t.line, t.col))
            .unwrap_or((1, 1))
    }

    fn expect_lparen(&mut self, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::LParen,
                ..
            }) => Ok(()),
            Some(t) => Err(ParseError::new(
                format!("expected `(` to start {what}, found `{}`", t.kind),
                t.line,
                t.col,
            )),
            None => {
                let (l, c) = self.last_pos();
                Err(ParseError::new(
                    format!("expected `(` to start {what}, found end of input"),
                    l,
                    c,
                ))
            }
        }
    }

    fn expect_rparen(&mut self, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::RParen,
                ..
            }) => Ok(()),
            Some(t) => Err(ParseError::new(
                format!("expected `)` to close {what}, found `{}`", t.kind),
                t.line,
                t.col,
            )),
            None => {
                let (l, c) = self.last_pos();
                Err(ParseError::new(format!("unclosed {what}"), l, c))
            }
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<Symbol, ParseError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) => Ok(Symbol::intern(s)),
            Some(t) => Err(ParseError::new(
                format!("expected {what}, found `{}`", t.kind),
                t.line,
                t.col,
            )),
            None => {
                let (l, c) = self.last_pos();
                Err(ParseError::new(
                    format!("expected {what}, found end of input"),
                    l,
                    c,
                ))
            }
        }
    }

    /// Pre-scan: find `(define (name …` shapes and collect the names,
    /// without consuming input.
    fn scan_define_names(&self) -> HashSet<Symbol> {
        let mut names = HashSet::new();
        for w in self.tokens.windows(4) {
            if let [TokenKind::LParen, TokenKind::Ident("define"), TokenKind::LParen, TokenKind::Ident(f)] =
                [w[0].kind, w[1].kind, w[2].kind, w[3].kind]
            {
                names.insert(Symbol::intern(f));
            }
        }
        names
    }

    fn parse_define(&mut self, fn_names: &HashSet<Symbol>) -> Result<FunDef, ParseError> {
        self.expect_lparen("a definition")?;
        let kw = self.expect_ident("`define`")?;
        if kw.as_str() != "define" {
            let (l, c) = self
                .peek()
                .map(|t| (t.line, t.col))
                .unwrap_or(self.last_pos());
            return Err(ParseError::new(
                format!("expected `define`, found `{kw}`"),
                l,
                c,
            ));
        }
        self.expect_lparen("the function header")?;
        let name = self.expect_ident("a function name")?;
        let params = self.parse_params("unclosed function header")?;
        let mut scope = Scope::new(fn_names);
        scope.locals.extend_from_slice(&params);
        let body = self.parse_expr(&mut scope)?;
        self.expect_rparen("the definition")?;
        Ok(FunDef::new(name, params, body))
    }

    /// Parameter names up to and including the `)` that closes their
    /// list; `unclosed` is the message when the input ends first.
    fn parse_params(&mut self, unclosed: &str) -> Result<Vec<Symbol>, ParseError> {
        let mut params = Vec::new();
        loop {
            match self.next() {
                Some(Token {
                    kind: TokenKind::RParen,
                    ..
                }) => return Ok(params),
                Some(Token {
                    kind: TokenKind::Ident(s),
                    ..
                }) => params.push(Symbol::intern(s)),
                Some(t) => {
                    return Err(ParseError::new(
                        format!("expected a parameter or `)`, found `{}`", t.kind),
                        t.line,
                        t.col,
                    ))
                }
                None => {
                    let (l, c) = self.last_pos();
                    return Err(ParseError::new(unclosed, l, c));
                }
            }
        }
    }

    fn parse_expr(&mut self, scope: &mut Scope<'_>) -> Result<Expr, ParseError> {
        let Some(tok) = self.next() else {
            let (l, c) = self.last_pos();
            return Err(ParseError::new(
                "expected an expression, found end of input",
                l,
                c,
            ));
        };
        match tok.kind {
            TokenKind::Int(n) => Ok(Expr::Const(Const::Int(n))),
            TokenKind::Bool(b) => Ok(Expr::Const(Const::Bool(b))),
            TokenKind::Float(x) => Ok(Expr::Const(Const::Float(
                F64::new(x).expect("lexer rejects NaN"),
            ))),
            TokenKind::Ident(name) => {
                let s = Symbol::intern(name);
                if !scope.is_local(s) && scope.is_function(s) {
                    Ok(Expr::FnRef(s))
                } else {
                    Ok(Expr::Var(s))
                }
            }
            TokenKind::RParen => Err(ParseError::new("unexpected `)`", tok.line, tok.col)),
            TokenKind::LParen => self.parse_form(scope, tok.line, tok.col),
        }
    }

    /// Parses the contents of a parenthesized form; the `(` is consumed.
    fn parse_form(
        &mut self,
        scope: &mut Scope<'_>,
        line: u32,
        col: u32,
    ) -> Result<Expr, ParseError> {
        let Some(head) = self.peek() else {
            return Err(ParseError::new("unclosed `(`", line, col));
        };
        if let TokenKind::Ident(name) = head.kind {
            match name {
                "if" => {
                    self.next();
                    let c = self.parse_expr(scope)?;
                    let t = self.parse_expr(scope)?;
                    let e = self.parse_expr(scope)?;
                    self.expect_rparen("the `if` form")?;
                    return Ok(Expr::If(Box::new(c), Box::new(t), Box::new(e)));
                }
                "let" => {
                    self.next();
                    return self.parse_let(scope);
                }
                "lambda" => {
                    self.next();
                    return self.parse_lambda(scope);
                }
                "define" => {
                    return Err(ParseError::new(
                        "`define` is only allowed at the top level",
                        head.line,
                        head.col,
                    ));
                }
                _ => {
                    let s = Symbol::intern(name);
                    if !scope.is_local(s) {
                        if let Some(p) = Prim::from_name(name) {
                            self.next();
                            let args = self.parse_args(scope, "the primitive application")?;
                            if args.len() != p.arity() {
                                return Err(ParseError::new(
                                    format!(
                                        "primitive `{p}` expects {} arguments, got {}",
                                        p.arity(),
                                        args.len()
                                    ),
                                    head.line,
                                    head.col,
                                ));
                            }
                            return Ok(Expr::Prim(p, args));
                        }
                        if scope.is_function(s) {
                            self.next();
                            let args = self.parse_args(scope, "the call")?;
                            return Ok(Expr::Call(s, args));
                        }
                        return Err(ParseError::new(
                            format!("unknown operator `{name}`"),
                            head.line,
                            head.col,
                        ));
                    }
                    // Falls through to general application of a local.
                }
            }
        }
        // General application (e₀ e₁ …) — higher order (Section 5.5).
        let f = self.parse_expr(scope)?;
        let args = self.parse_args(scope, "the application")?;
        Ok(Expr::App(Box::new(f), args))
    }

    fn parse_args(&mut self, scope: &mut Scope<'_>, what: &str) -> Result<Vec<Expr>, ParseError> {
        let mut args = Vec::new();
        loop {
            match self.peek() {
                Some(Token {
                    kind: TokenKind::RParen,
                    ..
                }) => {
                    self.next();
                    return Ok(args);
                }
                Some(_) => args.push(self.parse_expr(scope)?),
                None => {
                    let (l, c) = self.last_pos();
                    return Err(ParseError::new(format!("unclosed {what}"), l, c));
                }
            }
        }
    }

    /// `(let ((x e) …) body)` desugars into nested [`Expr::Let`]s.
    fn parse_let(&mut self, scope: &mut Scope<'_>) -> Result<Expr, ParseError> {
        self.expect_lparen("the `let` binding list")?;
        let mut bindings = Vec::new();
        loop {
            match self.peek() {
                Some(Token {
                    kind: TokenKind::RParen,
                    ..
                }) => {
                    self.next();
                    break;
                }
                Some(_) => {
                    self.expect_lparen("a `let` binding")?;
                    let name = self.expect_ident("a `let`-bound variable")?;
                    let value = self.parse_expr(scope)?;
                    self.expect_rparen("the `let` binding")?;
                    bindings.push((name, value));
                }
                None => {
                    let (l, c) = self.last_pos();
                    return Err(ParseError::new("unclosed `let` binding list", l, c));
                }
            }
        }
        // Bindings are sequential (let*-style): each is in scope for the
        // next and the body.
        let depth = scope.locals.len();
        for (name, _) in &bindings {
            scope.locals.push(*name);
        }
        let body = self.parse_expr(scope)?;
        scope.locals.truncate(depth);
        self.expect_rparen("the `let` form")?;
        let mut expr = body;
        for (name, value) in bindings.into_iter().rev() {
            expr = Expr::Let(name, Box::new(value), Box::new(expr));
        }
        Ok(expr)
    }

    fn parse_lambda(&mut self, scope: &mut Scope<'_>) -> Result<Expr, ParseError> {
        self.expect_lparen("the `lambda` parameter list")?;
        let params = self.parse_params("unclosed `lambda` parameter list")?;
        let depth = scope.locals.len();
        scope.locals.extend_from_slice(&params);
        let body = self.parse_expr(scope)?;
        scope.locals.truncate(depth);
        self.expect_rparen("the `lambda` form")?;
        Ok(Expr::Lambda(params, Box::new(body)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_constants_and_vars() {
        assert_eq!(parse_expr("42").unwrap(), Expr::int(42));
        assert_eq!(parse_expr("#t").unwrap(), Expr::bool(true));
        assert_eq!(parse_expr("x").unwrap(), Expr::var("x"));
        assert_eq!(
            parse_expr("2.5").unwrap(),
            Expr::Const(Const::Float(F64::new(2.5).unwrap()))
        );
    }

    #[test]
    fn parses_if_and_prims() {
        let e = parse_expr("(if (< x 0) (neg x) x)").unwrap();
        assert_eq!(
            e,
            Expr::If(
                Box::new(Expr::prim(Prim::Lt, vec![Expr::var("x"), Expr::int(0)])),
                Box::new(Expr::prim(Prim::Neg, vec![Expr::var("x")])),
                Box::new(Expr::var("x")),
            )
        );
    }

    #[test]
    fn parses_let_star_semantics() {
        let e = parse_expr("(let ((a 1) (b a)) (+ a b))").unwrap();
        match e {
            Expr::Let(a, v, rest) => {
                assert_eq!(a.as_str(), "a");
                assert_eq!(*v, Expr::int(1));
                match *rest {
                    Expr::Let(b, bv, _) => {
                        assert_eq!(b.as_str(), "b");
                        assert_eq!(*bv, Expr::var("a"));
                    }
                    other => panic!("expected inner let, got {other:?}"),
                }
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn prim_arity_is_checked_at_parse_time() {
        assert!(parse_expr("(+ 1)").is_err());
        assert!(parse_expr("(not #t #f)").is_err());
    }

    #[test]
    fn parses_program_with_forward_references() {
        let p = parse_program(
            "(define (even n) (if (= n 0) #t (odd (- n 1))))
             (define (odd n) (if (= n 0) #f (even (- n 1))))",
        )
        .unwrap();
        assert_eq!(p.defs().len(), 2);
        assert_eq!(p.main().name.as_str(), "even");
    }

    #[test]
    fn locals_shadow_functions_and_prims() {
        // Parameter `f` shadows nothing special; applying it is a general
        // application, not a call.
        let p = parse_program("(define (apply1 f x) (f x))").unwrap();
        match &p.main().body {
            Expr::App(f, args) => {
                assert_eq!(**f, Expr::var("f"));
                assert_eq!(args.len(), 1);
            }
            other => panic!("expected App, got {other:?}"),
        }
    }

    #[test]
    fn function_in_value_position_is_a_fnref() {
        let p = parse_program(
            "(define (main x) (twice inc x))
             (define (twice f x) (f (f x)))
             (define (inc x) (+ x 1))",
        )
        .unwrap();
        match &p.main().body {
            Expr::Call(name, args) => {
                assert_eq!(name.as_str(), "twice");
                assert_eq!(args[0], Expr::FnRef(Symbol::intern("inc")));
            }
            other => panic!("expected Call, got {other:?}"),
        }
    }

    #[test]
    fn parses_lambda() {
        let e = parse_expr("(lambda (x) (+ x 1))").unwrap();
        match e {
            Expr::Lambda(params, _) => assert_eq!(params.len(), 1),
            other => panic!("expected lambda, got {other:?}"),
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_expr("(if #t 1\n  )").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_nested_define_and_unknown_operator() {
        assert!(parse_program("(define (f x) (define (g y) y))").is_err());
        assert!(parse_expr("(frobnicate 1)").is_err());
    }

    #[test]
    fn rejects_empty_program_and_trailing_tokens() {
        assert!(parse_program("   ; nothing\n").is_err());
        assert!(parse_expr("1 2").is_err());
    }
}
