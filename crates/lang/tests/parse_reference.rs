//! Differential oracle for the lexer and parser: the library's
//! borrowed-token front end must give exactly what the front end it
//! replaced gave, which copied every identifier into two `String`s and
//! cloned every token it consumed. That front end is kept verbatim below
//! as the reference; the only edits are the `use` lines and `perr` in
//! place of the crate-private `ParseError::new`.
//!
//! "Exactly" covers every `Program`, `Vec<FunDef>` and `Expr`, every
//! error message, line and column, and the order in which symbols are
//! first interned.

use std::sync::atomic::{AtomicUsize, Ordering};

use ppe_lang::{
    parse_defs, parse_expr, parse_program, pretty_expr, pretty_program, Const, Expr, FunDef,
    ParseError, Program, Symbol, ALL_PRIMS, F64,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// The lexer and parser as they were before tokens borrowed the source.
mod reference {
    use ppe_lang::ParseError;

    /// `ParseError::new`, which is private to `ppe-lang`.
    pub fn perr(message: impl Into<String>, line: u32, col: u32) -> ParseError {
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }

    mod symbol {
        pub use ppe_lang::Symbol;
    }

    pub mod token {
        use std::fmt;

        /// A lexical token with its 1-based source position.
        #[derive(Clone, Debug, PartialEq)]
        pub struct Token {
            /// The token's payload.
            pub kind: TokenKind,
            /// 1-based source line.
            pub line: u32,
            /// 1-based source column.
            pub col: u32,
        }

        /// The payload of a [`Token`].
        #[derive(Clone, Debug, PartialEq)]
        pub enum TokenKind {
            /// `(`
            LParen,
            /// `)`
            RParen,
            /// An integer literal.
            Int(i64),
            /// A float literal (contains `.` or exponent).
            Float(f64),
            /// `#t` or `#f`.
            Bool(bool),
            /// An identifier or operator name.
            Ident(String),
        }

        impl fmt::Display for TokenKind {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    TokenKind::LParen => f.write_str("("),
                    TokenKind::RParen => f.write_str(")"),
                    TokenKind::Int(n) => write!(f, "{n}"),
                    TokenKind::Float(x) => write!(f, "{x}"),
                    TokenKind::Bool(true) => f.write_str("#t"),
                    TokenKind::Bool(false) => f.write_str("#f"),
                    TokenKind::Ident(s) => f.write_str(s),
                }
            }
        }
    }

    pub mod lexer {
        use super::perr;
        use super::token::{Token, TokenKind};
        use ppe_lang::ParseError;

        /// Tokenizes `src` into a token stream.
        ///
        /// # Errors
        ///
        /// Returns a [`ParseError`] on malformed numeric literals or unknown `#`
        /// syntax, with the position of the offending lexeme.
        pub fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
            let mut tokens = Vec::new();
            let mut line: u32 = 1;
            let mut col: u32 = 1;
            let mut chars = src.chars().peekable();

            while let Some(&c) = chars.peek() {
                match c {
                    '\n' => {
                        chars.next();
                        line += 1;
                        col = 1;
                    }
                    c if c.is_whitespace() => {
                        chars.next();
                        col += 1;
                    }
                    ';' => {
                        // Line comment: skip to end of line.
                        while let Some(&c) = chars.peek() {
                            if c == '\n' {
                                break;
                            }
                            chars.next();
                            col += 1;
                        }
                    }
                    '(' => {
                        tokens.push(Token {
                            kind: TokenKind::LParen,
                            line,
                            col,
                        });
                        chars.next();
                        col += 1;
                    }
                    ')' => {
                        tokens.push(Token {
                            kind: TokenKind::RParen,
                            line,
                            col,
                        });
                        chars.next();
                        col += 1;
                    }
                    '#' => {
                        let start_col = col;
                        chars.next();
                        col += 1;
                        match chars.next() {
                            Some('t') => {
                                col += 1;
                                tokens.push(Token {
                                    kind: TokenKind::Bool(true),
                                    line,
                                    col: start_col,
                                });
                            }
                            Some('f') => {
                                col += 1;
                                tokens.push(Token {
                                    kind: TokenKind::Bool(false),
                                    line,
                                    col: start_col,
                                });
                            }
                            other => {
                                return Err(perr(
                                    format!(
                                        "unknown `#` syntax: #{}",
                                        other.map(String::from).unwrap_or_default()
                                    ),
                                    line,
                                    start_col,
                                ));
                            }
                        }
                    }
                    _ => {
                        // An atom: everything up to whitespace, parens, or comment.
                        let start_col = col;
                        let mut atom = String::new();
                        while let Some(&c) = chars.peek() {
                            if c.is_whitespace() || c == '(' || c == ')' || c == ';' {
                                break;
                            }
                            atom.push(c);
                            chars.next();
                            col += 1;
                        }
                        tokens.push(classify_atom(&atom, line, start_col)?);
                    }
                }
            }
            Ok(tokens)
        }

        /// Decides whether an atom is a number or an identifier.
        ///
        /// A leading `-` or `+` followed by a digit makes it numeric, so `-`
        /// and `-x` stay identifiers while `-3` and `+4.5` are literals.
        fn classify_atom(atom: &str, line: u32, col: u32) -> Result<Token, ParseError> {
            let bytes = atom.as_bytes();
            let numericish = bytes[0].is_ascii_digit()
                || ((bytes[0] == b'-' || bytes[0] == b'+')
                    && bytes.len() > 1
                    && bytes[1].is_ascii_digit());
            let kind = if numericish {
                if atom.contains('.') || atom.contains('e') || atom.contains('E') {
                    let x: f64 = atom.parse().map_err(|_| {
                        perr(format!("malformed float literal `{atom}`"), line, col)
                    })?;
                    if x.is_nan() {
                        return Err(perr("float literal is NaN", line, col));
                    }
                    TokenKind::Float(x)
                } else {
                    let n: i64 = atom.parse().map_err(|_| {
                        perr(format!("malformed integer literal `{atom}`"), line, col)
                    })?;
                    TokenKind::Int(n)
                }
            } else {
                TokenKind::Ident(atom.to_owned())
            };
            Ok(Token { kind, line, col })
        }
    }

    pub mod parser {
        use std::collections::HashSet;

        use ppe_lang::{Const, Expr, FunDef, ParseError, Prim, Program, F64};

        use super::lexer::lex;
        use super::perr;
        use super::symbol::Symbol;
        use super::token::{Token, TokenKind};

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
            let tokens = lex(src)?;
            let mut p = Parser::new(tokens);

            // Pass 1: collect the names of all defined functions so that forward
            // references parse as calls.
            let fn_names = p.scan_define_names()?;

            let mut defs = Vec::new();
            while !p.at_end() {
                defs.push(p.parse_define(&fn_names)?);
            }
            if defs.is_empty() {
                return Err(perr("program has no definitions", 1, 1));
            }
            let program = Program::new(defs).map_err(|e| perr(e, 1, 1))?;
            program.validate().map_err(|e| perr(e, 1, 1))?;
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
            let tokens = lex(src)?;
            let mut p = Parser::new(tokens);
            let fn_names = p.scan_define_names()?;
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
            let tokens = lex(src)?;
            let mut p = Parser::new(tokens);
            let no_functions = HashSet::new();
            let mut scope = Scope::new(&no_functions);
            let e = p.parse_expr(&mut scope)?;
            if !p.at_end() {
                let (line, col) = p.peek().map_or((0, 0), |t| (t.line, t.col));
                return Err(perr("trailing input after expression", line, col));
            }
            Ok(e)
        }

        struct Parser {
            tokens: Vec<Token>,
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

        impl Parser {
            fn new(tokens: Vec<Token>) -> Parser {
                Parser { tokens, pos: 0 }
            }

            fn at_end(&self) -> bool {
                self.pos >= self.tokens.len()
            }

            fn peek(&self) -> Option<&Token> {
                self.tokens.get(self.pos)
            }

            fn next(&mut self) -> Option<Token> {
                let t = self.tokens.get(self.pos).cloned();
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
                    Some(t) => Err(perr(
                        format!("expected `(` to start {what}, found `{}`", t.kind),
                        t.line,
                        t.col,
                    )),
                    None => {
                        let (l, c) = self.last_pos();
                        Err(perr(
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
                    Some(t) => Err(perr(
                        format!("expected `)` to close {what}, found `{}`", t.kind),
                        t.line,
                        t.col,
                    )),
                    None => {
                        let (l, c) = self.last_pos();
                        Err(perr(format!("unclosed {what}"), l, c))
                    }
                }
            }

            fn expect_ident(&mut self, what: &str) -> Result<Symbol, ParseError> {
                match self.next() {
                    Some(Token {
                        kind: TokenKind::Ident(s),
                        ..
                    }) => Ok(Symbol::intern(&s)),
                    Some(t) => Err(perr(
                        format!("expected {what}, found `{}`", t.kind),
                        t.line,
                        t.col,
                    )),
                    None => {
                        let (l, c) = self.last_pos();
                        Err(perr(format!("expected {what}, found end of input"), l, c))
                    }
                }
            }

            /// Pre-scan: find `(define (name …` shapes and collect the names,
            /// without consuming input.
            fn scan_define_names(&mut self) -> Result<HashSet<Symbol>, ParseError> {
                let mut names = HashSet::new();
                let toks = &self.tokens;
                let mut i = 0;
                while i + 3 < toks.len() {
                    if toks[i].kind == TokenKind::LParen {
                        if let TokenKind::Ident(ref s) = toks[i + 1].kind {
                            if s == "define" && toks[i + 2].kind == TokenKind::LParen {
                                if let TokenKind::Ident(ref f) = toks[i + 3].kind {
                                    names.insert(Symbol::intern(f));
                                }
                            }
                        }
                    }
                    i += 1;
                }
                Ok(names)
            }

            fn parse_define(&mut self, fn_names: &HashSet<Symbol>) -> Result<FunDef, ParseError> {
                self.expect_lparen("a definition")?;
                let kw = self.expect_ident("`define`")?;
                if kw.as_str() != "define" {
                    let (l, c) = self
                        .peek()
                        .map(|t| (t.line, t.col))
                        .unwrap_or(self.last_pos());
                    return Err(perr(format!("expected `define`, found `{kw}`"), l, c));
                }
                self.expect_lparen("the function header")?;
                let name = self.expect_ident("a function name")?;
                let mut params = Vec::new();
                loop {
                    match self.peek() {
                        Some(Token {
                            kind: TokenKind::RParen,
                            ..
                        }) => {
                            self.next();
                            break;
                        }
                        Some(Token {
                            kind: TokenKind::Ident(_),
                            ..
                        }) => params.push(self.expect_ident("a parameter")?),
                        Some(t) => {
                            return Err(perr(
                                format!("expected a parameter or `)`, found `{}`", t.kind),
                                t.line,
                                t.col,
                            ))
                        }
                        None => {
                            let (l, c) = self.last_pos();
                            return Err(perr("unclosed function header", l, c));
                        }
                    }
                }
                let mut scope = Scope::new(fn_names);
                scope.locals.extend_from_slice(&params);
                let body = self.parse_expr(&mut scope)?;
                self.expect_rparen("the definition")?;
                Ok(FunDef::new(name, params, body))
            }

            fn parse_expr(&mut self, scope: &mut Scope<'_>) -> Result<Expr, ParseError> {
                let tok = match self.next() {
                    Some(t) => t,
                    None => {
                        let (l, c) = self.last_pos();
                        return Err(perr("expected an expression, found end of input", l, c));
                    }
                };
                match tok.kind {
                    TokenKind::Int(n) => Ok(Expr::Const(Const::Int(n))),
                    TokenKind::Bool(b) => Ok(Expr::Const(Const::Bool(b))),
                    TokenKind::Float(x) => Ok(Expr::Const(Const::Float(
                        F64::new(x).expect("lexer rejects NaN"),
                    ))),
                    TokenKind::Ident(name) => {
                        let s = Symbol::intern(&name);
                        if !scope.is_local(s) && scope.is_function(s) {
                            Ok(Expr::FnRef(s))
                        } else {
                            Ok(Expr::Var(s))
                        }
                    }
                    TokenKind::RParen => Err(perr("unexpected `)`", tok.line, tok.col)),
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
                let head = match self.peek() {
                    Some(t) => t.clone(),
                    None => return Err(perr("unclosed `(`", line, col)),
                };
                if let TokenKind::Ident(ref name) = head.kind {
                    match name.as_str() {
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
                            return Err(perr(
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
                                    let args =
                                        self.parse_args(scope, "the primitive application")?;
                                    if args.len() != p.arity() {
                                        return Err(perr(
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
                                return Err(perr(
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

            fn parse_args(
                &mut self,
                scope: &mut Scope<'_>,
                what: &str,
            ) -> Result<Vec<Expr>, ParseError> {
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
                            return Err(perr(format!("unclosed {what}"), l, c));
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
                            return Err(perr("unclosed `let` binding list", l, c));
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
                let mut params = Vec::new();
                loop {
                    match self.peek() {
                        Some(Token {
                            kind: TokenKind::RParen,
                            ..
                        }) => {
                            self.next();
                            break;
                        }
                        Some(Token {
                            kind: TokenKind::Ident(_),
                            ..
                        }) => params.push(self.expect_ident("a parameter")?),
                        Some(t) => {
                            return Err(perr(
                                format!("expected a parameter or `)`, found `{}`", t.kind),
                                t.line,
                                t.col,
                            ))
                        }
                        None => {
                            let (l, c) = self.last_pos();
                            return Err(perr("unclosed `lambda` parameter list", l, c));
                        }
                    }
                }
                let depth = scope.locals.len();
                scope.locals.extend_from_slice(&params);
                let body = self.parse_expr(scope)?;
                scope.locals.truncate(depth);
                self.expect_rparen("the `lambda` form")?;
                Ok(Expr::Lambda(params, Box::new(body)))
            }
        }
    }
}

use reference::parser as old;

/// Every result the three entry points give on `src`, rendered with
/// `{:?}` so that `-0.0` and `0.0` stay apart. A `Program`'s index map
/// prints in hash order, so programs compare by their definitions.
fn outcomes(
    program: Result<Program, ParseError>,
    defs: Result<Vec<FunDef>, ParseError>,
    expr: Result<Expr, ParseError>,
) -> [String; 3] {
    [
        format!("{:?}", program.map(|p| p.defs().to_vec())),
        format!("{defs:?}"),
        format!("{expr:?}"),
    ]
}

/// Both front ends on `src`, through all three entry points.
fn agree(src: &str) -> Result<(), TestCaseError> {
    let new = outcomes(parse_program(src), parse_defs(src), parse_expr(src));
    let old = outcomes(
        old::parse_program(src),
        old::parse_defs(src),
        old::parse_expr(src),
    );
    for (new, old) in new.iter().zip(&old) {
        prop_assert_eq!(new, old, "source {:?}\n new: {}\n old: {}", src, new, old);
    }
    Ok(())
}

/// `agree` on `src` and on every prefix of it that ends on a character
/// boundary: truncated text exercises each "end of input" error.
fn agree_with_prefixes(src: &str) -> Result<(), TestCaseError> {
    for (i, _) in src.char_indices() {
        agree(&src[..i])?;
    }
    agree(src)
}

/// Short names that no keyword or primitive spells, some of them
/// multi-byte.
fn arb_name() -> impl Strategy<Value = Symbol> {
    prop_oneof![
        "[a-z]{0,3}".prop_map(|s| format!("q{s}")),
        "[λδ中文é😀]{1,3}".prop_map(|s| s),
        "[a-z]{1,2}".prop_map(|s| format!("{s}-é")),
    ]
    .prop_map(|s| Symbol::intern(&s))
}

const DEFS: usize = 3;

/// Floats of every magnitude, both zeros and ±∞.
fn arb_float() -> impl Strategy<Value = F64> {
    let bits = any::<i64>().prop_map(|b| f64::from_bits(b as u64));
    prop_oneof![
        bits,
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        (-1.0e6..1.0e6).prop_map(|x| x)
    ]
    .prop_map(|x| F64::new(if x.is_nan() { f64::INFINITY } else { x }).expect("not NaN"))
}

/// All nine forms: constants of each type, variables, function
/// references, primitives at their arity, calls, conditionals, `let`, λ
/// with zero to three binders, and general application.
fn arb_expr() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Expr::int),
        any::<bool>().prop_map(Expr::bool),
        arb_float().prop_map(|x| Expr::Const(Const::Float(x))),
        arb_name().prop_map(Expr::Var),
        (0..DEFS).prop_map(|i| Expr::FnRef(Symbol::intern(&format!("def{i}")))),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        let prim = (0..ALL_PRIMS.len(), vec(inner.clone(), 3..4)).prop_map(|(i, mut args)| {
            args.truncate(ALL_PRIMS[i].arity());
            Expr::Prim(ALL_PRIMS[i], args)
        });
        let lambda = (vec(arb_name(), 0..4), inner.clone())
            .prop_map(|(ps, body)| Expr::Lambda(ps, Box::new(body)))
            .boxed();
        prop_oneof![
            prim,
            (0..DEFS, vec(inner.clone(), 1..4))
                .prop_map(|(i, args)| Expr::Call(Symbol::intern(&format!("def{i}")), args)),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Expr::If(
                Box::new(c),
                Box::new(t),
                Box::new(f)
            )),
            (arb_name(), inner.clone(), inner.clone()).prop_map(|(x, b, body)| Expr::Let(
                x,
                Box::new(b),
                Box::new(body)
            )),
            lambda.clone(),
            (lambda, vec(inner, 1..3)).prop_map(|(f, args)| Expr::App(Box::new(f), args)),
        ]
    })
}

/// Programs of three definitions `def0` … `def2` over [`arb_expr`].
fn arb_program() -> impl Strategy<Value = Program> {
    vec((vec(arb_name(), 0..3), arb_expr()), DEFS..DEFS + 1).prop_map(|defs| {
        let defs = defs
            .into_iter()
            .enumerate()
            .map(|(i, (params, body))| {
                FunDef::new(Symbol::intern(&format!("def{i}")), params, body)
            })
            .collect();
        Program::new(defs).expect("names are distinct")
    })
}

/// A float spelled the ways a client or the printer spells one.
fn arb_float_text() -> impl Strategy<Value = String> {
    let spelled = (arb_float(), 0..4usize).prop_map(|(x, how)| {
        let x = x.get();
        match how {
            0 => format!("{x}"),
            1 => format!("{x:e}"),
            2 => format!("{x:?}"),
            _ => format!("{x:E}"),
        }
    });
    prop_oneof![
        spelled,
        Just("1e999".to_owned()),
        Just("-1e999".to_owned()),
        Just("1e-999".to_owned()),
        Just("+4.5".to_owned()),
        Just("-0.0".to_owned()),
        Just("1.".to_owned()),
        Just("1.e5".to_owned()),
        Just("2.5e+3".to_owned()),
        Just("9007199254740993".to_owned()),
        Just("9223372036854775808".to_owned()),
        Just("-9223372036854775808".to_owned()),
        Just("1e".to_owned()),
        Just("1e+".to_owned()),
        Just("0x10".to_owned()),
        Just("1_000".to_owned()),
        Just("12ab".to_owned()),
        Just("1.2.3".to_owned()),
        Just("1inf".to_owned()),
        Just("+nan".to_owned()),
        Just("-infinity".to_owned()),
    ]
}

/// Whitespace of every kind the lexer skips, ASCII or not, plus a few
/// characters that look like it but are not.
fn arb_space() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just(" "),
        Just("\t"),
        Just("\n"),
        Just("\r\n"),
        Just("\r"),
        Just("\u{b}"),
        Just("\u{c}"),
        Just("\u{85}"),
        Just("\u{a0}"),
        Just("\u{2028}"),
        Just("\u{3000}"),
        Just("\u{200b}"),
        Just(""),
    ]
}

/// Lexemes of every class, well formed and not.
fn arb_lexeme() -> impl Strategy<Value = String> {
    let fixed = prop_oneof![
        Just("("),
        Just(")"),
        Just("define"),
        Just("if"),
        Just("let"),
        Just("lambda"),
        Just("+"),
        Just("-"),
        Just("-x"),
        Just("-3"),
        Just("+4.5"),
        Just("not"),
        Just("vref"),
        Just("mkvec"),
        Just("#t"),
        Just("#f"),
        Just("#tx"),
        Just("#q"),
        Just("#"),
        Just("#λ"),
        Just("; note"),
        Just(";é 中"),
        Just("x"),
        Just("f"),
        Just("λ"),
        Just("中文"),
        Just("x\u{a0}y"),
        Just("😀"),
        Just("a#b"),
    ]
    .prop_map(str::to_owned);
    prop_oneof![
        fixed,
        arb_float_text(),
        (-99i64..99).prop_map(|n| n.to_string())
    ]
}

/// Text made of lexemes joined by arbitrary whitespace.
fn arb_soup() -> impl Strategy<Value = String> {
    vec((arb_lexeme(), arb_space()), 0..24).prop_map(|parts| {
        let mut out = String::new();
        for (lexeme, space) in parts {
            out.push_str(&lexeme);
            out.push_str(space);
        }
        out
    })
}

/// Text the front end should mostly reject: short, with every character
/// that means something to it over-represented.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "\\PC{0,40}",
        "[()#;tf0-9e.+ \\n\\rxλ中-]{0,40}",
        "[(define )x0-9]{0,60}",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn printed_programs_parse_alike(p in arb_program()) {
        agree(&pretty_program(&p))?;
    }

    #[test]
    fn printed_expressions_parse_alike(e in arb_expr()) {
        agree(&pretty_expr(&e))?;
    }

    #[test]
    fn truncated_programs_parse_alike(p in arb_program(), cuts in vec(0..1001usize, 8..9)) {
        let src = pretty_program(&p);
        for cut in cuts {
            let mut end = src.len() * cut / 1000;
            while !src.is_char_boundary(end) {
                end -= 1;
            }
            agree(&src[..end])?;
        }
    }

    #[test]
    fn floats_parse_alike(x in arb_float_text(), sep in arb_space()) {
        agree(&x)?;
        agree(&format!("(define (f y) (+ y {x})){sep}"))?;
        agree(&format!("(* {x} {x})"))?;
    }

    #[test]
    fn lexeme_soup_parses_alike(s in arb_soup()) {
        agree_with_prefixes(&s)?;
    }

    #[test]
    fn soup_inside_a_definition_parses_alike(s in arb_soup(), sep in arb_space()) {
        agree_with_prefixes(&format!("(define (f x){sep}{s}"))?;
    }

    #[test]
    fn arbitrary_text_parses_alike(s in arb_text()) {
        agree_with_prefixes(&s)?;
    }
}

/// The cases named in the front end's contract, each at least once.
#[test]
fn named_cases_parse_alike() {
    let cases = [
        "-3",
        "+4.5",
        "-",
        "-x",
        "(- 3)",
        "(-x)",
        "#tx",
        "(if #tx 1 2)",
        "#",
        "(#",
        "#é",
        "#\n",
        "1e999",
        "-1e999",
        "(define (f x) x) ; the end",
        "(define (f x) x) ;",
        "; only a comment",
        "(define (f x)\r\n  (+ x 1))\r\n",
        "(define (f x)\r\n  (+ x ))\r\n",
        "(+\u{85}1\u{a0}x)",
        "(+\u{2028}1\u{3000}x)",
        "(define\u{a0}(f x) (+ x 1)) )",
        "(define (λ x) (+ x 1))",
        "(define (f 中文) (+ 中文 1)) (define (g) (f 2)) )",
        "(λ 1)",
        "(define (f x) (+ x 1) 中文)",
        "x\u{a0}y",
        "(let ((é 1)) é) )",
        "",
        "   ",
        ")",
        "(define",
        "(define (f x) (define (g y) y))",
        "(frobnicate 1)",
    ];
    for src in cases {
        agree(src).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Every case gets names that no other case or test has interned.
static FRESH: AtomicUsize = AtomicUsize::new(0);

/// The names `names` take in `src` under `prefix`, ordered by when they
/// were first interned. Names the parse did not intern are interned
/// afterwards, in the order given, so they sort last and alike.
fn interning_order(
    parse: fn(&str) -> Result<Vec<FunDef>, ParseError>,
    src: &str,
    names: &[&str],
    prefix: &str,
) -> Vec<String> {
    let _ = parse(&src.replace('@', prefix));
    let mut by_id: Vec<(Symbol, &str)> = names
        .iter()
        .map(|n| (Symbol::intern(&format!("{prefix}{n}")), *n))
        .collect();
    by_id.sort();
    by_id.into_iter().map(|(_, n)| n.to_owned()).collect()
}

fn parse_program_defs(src: &str) -> Result<Vec<FunDef>, ParseError> {
    parse_program(src).map(|p| p.defs().to_vec())
}

fn old_parse_program_defs(src: &str) -> Result<Vec<FunDef>, ParseError> {
    old::parse_program(src).map(|p| p.defs().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Symbols are numbered in interning order, and `Symbol`'s `Ord`
    /// compares those numbers, so the order is observable (a `BTreeMap`
    /// keyed by symbols iterates in it). Both front ends must intern a
    /// source's names in the same order, errors included.
    #[test]
    fn names_are_interned_in_the_same_order(
        parts in vec((0..6usize, arb_space()), 1..40),
        cut in 0..100usize,
    ) {
        const WORDS: [&str; 6] = ["@f", "@g", "@x", "@y", "(", ")"];
        const NAMES: [&str; 4] = ["f", "g", "x", "y"];
        let mut src = String::from("(define (@f @x) ");
        for (w, space) in parts {
            src.push_str(WORDS[w]);
            src.push_str(space);
        }
        src.push_str(") (define (@g @y) (@f @y))");
        let end = src.char_indices().map(|(i, _)| i).nth(cut).unwrap_or(src.len());
        let src = &src[..end];
        for (new, old) in [
            (parse_defs as fn(&str) -> _, old::parse_defs as fn(&str) -> _),
            (parse_program_defs, old_parse_program_defs),
        ] {
            let n = FRESH.fetch_add(1, Ordering::Relaxed);
            let by_new = interning_order(new, src, &NAMES, &format!("n{n}_"));
            let by_old = interning_order(old, src, &NAMES, &format!("o{n}_"));
            prop_assert_eq!(by_new, by_old, "source {:?}", src);
        }
    }
}
