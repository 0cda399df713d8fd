//! A minimal JSON value type, parser, and writer.
//!
//! The workspace builds with no registry access, so the serve loop's
//! JSON-lines protocol is implemented here rather than on serde: an
//! RFC 8259 subset sufficient for the request/response schema — objects,
//! arrays, strings (with `\uXXXX` escapes), numbers, booleans, null.
//! Numbers are kept as `f64`, which is exact for every integer the
//! protocol carries (budgets fit comfortably in 53 bits).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
///
/// Objects use a [`BTreeMap`] so that rendering is deterministic (keys in
/// sorted order) — responses are byte-stable for a given content, which
/// the determinism tests and scripted consumers rely on.
///
/// # Examples
///
/// ```
/// use ppe_server::json::Json;
///
/// let v = Json::parse(r#"{"a": [1, true, "x\n"]}"#).unwrap();
/// assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
/// assert_eq!(v.render(), "{\"a\":[1,true,\"x\\n\"]}");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys sorted.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// A human-readable message with a byte offset on malformed input.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Renders compactly (no spaces, object keys sorted).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                use fmt::Write as _;
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field access; `None` for absent fields or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// Builds an object from key/value pairs (later duplicates win).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A numeric value from an integer counter.
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

fn write_json_string(s: &str, out: &mut String) {
    use fmt::Write as _;
    out.reserve(s.len() + 2);
    out.push('"');
    // Copy maximal clean runs with one `push_str` instead of pushing
    // char-by-char: every byte needing an escape is ASCII, so the run
    // boundaries always fall on char boundaries, and multi-byte UTF-8
    // rides along inside the runs untouched. On the serve hot path
    // (multi-KB residual texts in every response) this is the difference
    // between ~0.3 GB/s and memcpy-speed rendering.
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{:04x}", b);
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

struct Parser<'a> {
    src: &'a str,
    /// `src` as bytes: the scanner decides on single bytes.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, text: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number `{text}` at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number at byte {start}"));
        }
        Ok(Json::Num(n))
    }

    /// Reads a string literal. Every byte that ends a run of plain text
    /// (a quote, a backslash, a control byte) is ASCII, so runs start and
    /// end on UTF-8 boundaries of `src` and are copied as `&str` slices
    /// without re-validation. A string with no escape is copied once at
    /// its exact size; one with escapes gets one buffer the size of its
    /// encoded text, which no escape decodes to more bytes than it
    /// spells.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut start = self.pos;
        self.scan_run()?;
        if self.bytes[self.pos] == b'"' {
            self.pos += 1;
            return Ok(self.src[start..self.pos - 1].to_owned());
        }
        let mut out = String::with_capacity(self.encoded_len(start));
        loop {
            out.push_str(&self.src[start..self.pos]);
            let b = self.bytes[self.pos];
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_owned());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".to_owned());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code).ok_or_else(|| "bad \\u escape".to_owned())?,
                            );
                        }
                        other => {
                            return Err(format!("bad escape `\\{}`", char::from(other)));
                        }
                    }
                }
                // The run scan stops only on `"`, `\`, or a control byte,
                // and control bytes error out inside it.
                _ => unreachable!("run scan stops on quote or backslash"),
            }
            start = self.pos;
            self.scan_run()?;
        }
    }

    /// Advances over plain string text, to the next `"` or `\`.
    fn scan_run(&mut self) -> Result<(), String> {
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_owned()),
                Some(&b'"') | Some(&b'\\') => return Ok(()),
                Some(&b) if b < 0x20 => return Err("raw control character in string".to_owned()),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Encoded bytes from `from` to the closing quote of the string being
    /// read, or to the end of input: a bound on its decoded length.
    fn encoded_len(&self, from: usize) -> usize {
        let mut i = from;
        while let Some(&b) = self.bytes.get(i) {
            match b {
                b'"' => break,
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
        i.min(self.bytes.len()) - from
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_owned())?;
        let s = std::str::from_utf8(chunk).map_err(|_| "bad \\u escape".to_owned())?;
        let n = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_owned())?;
        self.pos += 4;
        Ok(n)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(xs));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(Json::parse(r#""a\nb""#).unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"xs": [1, {"y": null}], "z": "ok"}"#).unwrap();
        assert_eq!(v.get("z").unwrap().as_str(), Some("ok"));
        let xs = v.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs[0].as_u64(), Some(1));
        assert_eq!(xs[1].get("y"), Some(&Json::Null));
    }

    #[test]
    fn render_roundtrips() {
        let src = r#"{"a":[1,true,"x\n"],"b":{"c":-2}}"#;
        let v = Json::parse(src).unwrap();
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::Str("é".into()));
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "tru", "\"abc", "{\"a\" 1}", "1 2", "nan"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn object_rendering_is_key_sorted() {
        let v = Json::obj(vec![("b", Json::num(2)), ("a", Json::num(1))]);
        assert_eq!(v.render(), r#"{"a":1,"b":2}"#);
    }
}
