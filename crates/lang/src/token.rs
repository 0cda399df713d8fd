//! Tokens of the s-expression surface syntax.
//!
//! A token borrows its identifier text from the source it was lexed from,
//! so it is `Copy` and lexing allocates nothing per token.

use std::fmt;

/// A lexical token with its 1-based source position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Token<'a> {
    /// The token's payload.
    pub kind: TokenKind<'a>,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column, counted in `char`s.
    pub col: u32,
}

/// The payload of a [`Token`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum TokenKind<'a> {
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
    /// An identifier or operator name: a slice of the source.
    Ident(&'a str),
}

impl fmt::Display for TokenKind<'_> {
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
