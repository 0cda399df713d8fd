//! Lexer for the s-expression surface syntax.
//!
//! The syntax is Scheme-flavoured: parentheses, integers, floats, `#t`/`#f`,
//! identifiers (which include operator spellings like `+` and `<=`), and
//! `;` line comments.
//!
//! The lexer makes one pass over the source's bytes. Every byte that
//! delimits or starts a token is ASCII, so it decides on the byte; it
//! decodes a `char` only at a non-ASCII byte, to ask
//! [`char::is_whitespace`] and to step over the whole character. Columns
//! count `char`s, as an editor does, so a multi-byte identifier advances
//! them by its character count. An identifier token is a slice of the
//! source: nothing is allocated per token.

use crate::error::ParseError;
use crate::token::{Token, TokenKind};

/// Tokenizes `src` into a token stream.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed numeric literals or unknown `#`
/// syntax, with the position of the offending lexeme.
pub(crate) fn lex(src: &str) -> Result<Vec<Token<'_>>, ParseError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    let mut i = 0;

    while let Some(&b) = bytes.get(i) {
        match b {
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            b'(' | b')' => {
                let kind = if b == b'(' {
                    TokenKind::LParen
                } else {
                    TokenKind::RParen
                };
                tokens.push(Token { kind, line, col });
                i += 1;
                col += 1;
            }
            b';' => {
                // Line comment: skip to the `\n`, which resets the column,
                // so the characters skipped need not be counted.
                i = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |n| i + n);
            }
            b'#' => {
                let value = match src[i + 1..].chars().next() {
                    Some('t') => true,
                    Some('f') => false,
                    other => {
                        return Err(ParseError::new(
                            format!(
                                "unknown `#` syntax: #{}",
                                other.map(String::from).unwrap_or_default()
                            ),
                            line,
                            col,
                        ));
                    }
                };
                tokens.push(Token {
                    kind: TokenKind::Bool(value),
                    line,
                    col,
                });
                i += 2;
                col += 2;
            }
            _ if is_ascii_space(b) => {
                // Indentation comes in runs: skip a whole run here rather
                // than once per byte through the dispatch above.
                let run = bytes[i..]
                    .iter()
                    .take_while(|&&b| b != b'\n' && is_ascii_space(b))
                    .count();
                i += run;
                col += u32::try_from(run).unwrap_or(u32::MAX);
            }
            _ => {
                if !b.is_ascii() {
                    let c = next_char(src, i);
                    if c.is_whitespace() {
                        i += c.len_utf8();
                        col += 1;
                        continue;
                    }
                }
                // An atom: everything up to whitespace, parens, or comment.
                let (end, chars) = scan_atom(src, i);
                tokens.push(classify_atom(&src[i..end], line, col)?);
                i = end;
                col += chars;
            }
        }
    }
    Ok(tokens)
}

/// `char::is_whitespace` on an ASCII byte.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ')
}

/// The `char` that starts at byte `i` of `src`, a character boundary.
fn next_char(src: &str, i: usize) -> char {
    src[i..].chars().next().expect("`i` is inside `src`")
}

/// The atom starting at byte `start`: its end offset and its length in
/// `char`s. It runs up to whitespace, a parenthesis or a `;`.
fn scan_atom(src: &str, start: usize) -> (usize, u32) {
    let bytes = src.as_bytes();
    let mut i = start;
    let mut chars = 0;
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii() {
            if is_ascii_space(b) || matches!(b, b'(' | b')' | b';') {
                break;
            }
            i += 1;
        } else {
            let c = next_char(src, i);
            if c.is_whitespace() {
                break;
            }
            i += c.len_utf8();
        }
        chars += 1;
    }
    (i, chars)
}

/// Decides whether an atom is a number or an identifier.
///
/// A leading `-` or `+` followed by a digit makes it numeric, so `-`
/// and `-x` stay identifiers while `-3` and `+4.5` are literals.
fn classify_atom(atom: &str, line: u32, col: u32) -> Result<Token<'_>, ParseError> {
    let bytes = atom.as_bytes();
    let numericish = bytes[0].is_ascii_digit()
        || ((bytes[0] == b'-' || bytes[0] == b'+') && bytes.len() > 1 && bytes[1].is_ascii_digit());
    let kind = if numericish {
        if atom.contains(['.', 'e', 'E']) {
            let x: f64 = atom.parse().map_err(|_| {
                ParseError::new(format!("malformed float literal `{atom}`"), line, col)
            })?;
            if x.is_nan() {
                return Err(ParseError::new("float literal is NaN", line, col));
            }
            TokenKind::Float(x)
        } else {
            let n: i64 = atom.parse().map_err(|_| {
                ParseError::new(format!("malformed integer literal `{atom}`"), line, col)
            })?;
            TokenKind::Int(n)
        }
    } else {
        TokenKind::Ident(atom)
    };
    Ok(Token { kind, line, col })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_parens_and_atoms() {
        assert_eq!(
            kinds("(+ 1 x)"),
            vec![
                TokenKind::LParen,
                TokenKind::Ident("+"),
                TokenKind::Int(1),
                TokenKind::Ident("x"),
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn lexes_negative_numbers_vs_minus_ident() {
        assert_eq!(kinds("-3"), vec![TokenKind::Int(-3)]);
        assert_eq!(kinds("-"), vec![TokenKind::Ident("-")]);
        assert_eq!(kinds("-x"), vec![TokenKind::Ident("-x")]);
    }

    #[test]
    fn lexes_floats() {
        assert_eq!(kinds("2.5"), vec![TokenKind::Float(2.5)]);
        assert_eq!(kinds("1e3"), vec![TokenKind::Float(1000.0)]);
    }

    #[test]
    fn lexes_booleans() {
        assert_eq!(
            kinds("#t #f"),
            vec![TokenKind::Bool(true), TokenKind::Bool(false)]
        );
        assert!(lex("#q").is_err());
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("1 ; two three\n4"),
            vec![TokenKind::Int(1), TokenKind::Int(4)]
        );
    }

    #[test]
    fn tracks_positions() {
        let toks = lex("(\n  foo)").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
        assert_eq!((toks[2].line, toks[2].col), (2, 6));
    }

    #[test]
    fn rejects_malformed_numbers() {
        assert!(lex("12ab").is_err());
        assert!(lex("1.2.3").is_err());
    }

    #[test]
    fn ascii_space_is_char_whitespace() {
        for b in 0..=0x7Fu8 {
            assert_eq!(is_ascii_space(b), char::from(b).is_whitespace(), "{b:#04x}");
        }
    }

    #[test]
    fn columns_count_chars_and_unicode_space_separates() {
        let toks = lex("(λ\u{a0}中文 x)").unwrap();
        let cols: Vec<u32> = toks.iter().map(|t| t.col).collect();
        assert_eq!(cols, vec![1, 2, 4, 7, 8]);
        assert_eq!(toks[2].kind, TokenKind::Ident("中文"));
    }
}
