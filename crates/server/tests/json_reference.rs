//! Differential oracle for the JSON decoder: `Json::parse` must give
//! exactly what the scanner it replaced gave, which re-checked every run
//! of string text as UTF-8 and grew each string as it went. That parser is
//! kept verbatim below as the reference; only its entry point is a free
//! function here. "Exactly" covers every value and every error message,
//! byte offsets included.

use ppe_server::Json;
use proptest::collection::vec;
use proptest::prelude::*;

mod reference {
    use std::collections::BTreeMap;

    use ppe_server::Json;

    /// `Json::parse` as it was, on the parser below.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
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

    struct Parser<'a> {
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
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are utf-8");
            let n: f64 = text
                .parse()
                .map_err(|_| format!("bad number `{text}` at byte {start}"))?;
            if !n.is_finite() {
                return Err(format!("non-finite number at byte {start}"));
            }
            Ok(Json::Num(n))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                // Copy the maximal run free of quotes, escapes, and control
                // bytes in one shot rather than char-by-char. The input came
                // from a `&str` and every byte that ends a run is ASCII, so
                // runs begin and end on UTF-8 boundaries; the `from_utf8` is
                // a (cheap, vectorized) re-check, not a decode.
                let start = self.pos;
                loop {
                    match self.bytes.get(self.pos) {
                        None => return Err("unterminated string".to_owned()),
                        Some(&b'"') | Some(&b'\\') => break,
                        Some(&b) if b < 0x20 => {
                            return Err("raw control character in string".to_owned())
                        }
                        Some(_) => self.pos += 1,
                    }
                }
                if self.pos > start {
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8".to_owned())?;
                    out.push_str(run);
                }
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
                                    char::from_u32(code)
                                        .ok_or_else(|| "bad \\u escape".to_owned())?,
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
            }
        }

        fn hex4(&mut self) -> Result<u32, String> {
            let chunk = self
                .bytes
                .get(self.pos..self.pos + 4)
                .ok_or_else(|| "truncated \\u escape".to_owned())?;
            if !chunk.iter().all(u8::is_ascii_hexdigit) {
                return Err("bad \\u escape".to_owned());
            }
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
}

/// Both decoders on `src`, compared through `{:?}`, which keeps `-0`
/// and `0` apart.
fn agree(src: &str) -> Result<(), TestCaseError> {
    let new = format!("{:?}", Json::parse(src));
    let old = format!("{:?}", reference::parse(src));
    prop_assert_eq!(&new, &old, "source {:?}\n new: {}\n old: {}", src, new, old);
    Ok(())
}

/// `agree` on `src` and on every prefix of it that ends on a character
/// boundary.
fn agree_with_prefixes(src: &str) -> Result<(), TestCaseError> {
    for (i, _) in src.char_indices() {
        agree(&src[..i])?;
    }
    agree(src)
}

/// String bodies as they appear between the quotes: plain text (some of
/// it multi-byte), every escape, surrogate pairs, and the malformed
/// escapes and raw bytes the decoder must reject.
fn arb_string_piece() -> impl Strategy<Value = String> {
    let fixed = prop_oneof![
        Just("\\\""),
        Just("\\\\"),
        Just("\\/"),
        Just("\\b"),
        Just("\\f"),
        Just("\\n"),
        Just("\\r"),
        Just("\\t"),
        Just("\\u0041"),
        Just("\\u00e9"),
        Just("\\u4e2d"),
        Just("\\uFFFF"),
        Just("\\u0000"),
        Just("\\ud83d\\ude00"),
        Just("\\uD834\\uDD1E"),
        Just("\\ud83d"),
        Just("\\ud83dx"),
        Just("\\ud83d\\u0041"),
        Just("\\ude00"),
        Just("\\u12"),
        Just("\\u+123"),
        Just("\\uzzzz"),
        Just("\\u中文文文"),
        Just("\\x"),
        Just("\\é"),
        Just("\\"),
        Just("\u{1}"),
        Just("\n"),
        Just("\t"),
        Just("\u{7f}"),
        Just("é"),
        Just("中文"),
        Just("😀"),
        Just("(define (f x) (+ x 1))"),
    ]
    .prop_map(str::to_owned);
    prop_oneof![fixed, "[ -~]{0,12}", "\\PC{0,6}"]
}

/// A string literal built from [`arb_string_piece`]s.
fn arb_string_literal() -> impl Strategy<Value = String> {
    vec(arb_string_piece(), 0..6).prop_map(|pieces| format!("\"{}\"", pieces.concat()))
}

/// Number spellings, well formed and not.
fn arb_number() -> impl Strategy<Value = String> {
    let spelled = prop_oneof![
        any::<i64>().prop_map(|n| n.to_string()),
        (-1.0e9..1.0e9).prop_map(|x| x.to_string()),
        any::<i64>().prop_map(|b| format!("{:e}", f64::from_bits(b as u64))),
    ];
    let fixed = prop_oneof![
        Just("-0"),
        Just("1e999"),
        Just("-1e999"),
        Just("1e-999"),
        Just("1.5E+3"),
        Just("01"),
        Just("1."),
        Just("-"),
        Just("--1"),
        Just("1e"),
        Just("1-2"),
        Just("9007199254740993"),
    ]
    .prop_map(str::to_owned);
    prop_oneof![spelled, fixed]
}

/// JSON-ish documents: well-formed values with duplicate keys, random
/// whitespace, and the string and number spellings above, nested a few
/// levels.
fn arb_doc() -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        arb_string_literal(),
        arb_number(),
        Just("true".to_owned()),
        Just("false".to_owned()),
        Just("null".to_owned()),
        Just("tru".to_owned()),
        Just("nul".to_owned()),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        let ws = prop_oneof![Just(""), Just(" "), Just("\n\t "), Just("\r\n")];
        prop_oneof![
            (vec(inner.clone(), 0..4), ws.clone())
                .prop_map(|(xs, ws)| format!("[{ws}{}{ws}]", xs.join(&format!("{ws},")))),
            (
                vec((prop_oneof![Just(0usize), Just(1), Just(2)], inner), 0..5),
                ws
            )
                .prop_map(|(fields, ws)| {
                    // Few distinct keys, so that duplicates are common.
                    const KEYS: [&str; 3] = ["\"program\"", "\"a\\u0062\"", "\"ab\""];
                    let fields: Vec<String> = fields
                        .into_iter()
                        .map(|(k, v)| format!("{ws}{}{ws}:{ws}{v}", KEYS[k]))
                        .collect();
                    format!("{{{}{ws}}}", fields.join(","))
                }),
        ]
    })
}

/// Text made of JSON punctuation and fragments, mostly malformed.
fn arb_soup() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        Just("{"),
        Just("}"),
        Just("["),
        Just("]"),
        Just(","),
        Just(":"),
        Just("\""),
        Just("\\"),
        Just(" "),
        Just("\n"),
        Just("1"),
        Just("-"),
        Just("e"),
        Just("true"),
        Just("nul"),
        Just("é"),
        Just("\u{0}"),
        Just("\"k\""),
    ];
    vec(piece, 0..24).prop_map(|ps| ps.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn documents_decode_alike(doc in arb_doc()) {
        agree(&doc)?;
        agree(&format!(" {doc} "))?;
        agree(&format!("{doc} x"))?;
    }

    #[test]
    fn truncated_documents_decode_alike(doc in arb_doc()) {
        agree_with_prefixes(&doc)?;
    }

    #[test]
    fn strings_decode_alike(s in arb_string_literal()) {
        agree_with_prefixes(&s)?;
        agree(&format!("{{{s}: {s}}}"))?;
    }

    #[test]
    fn soup_decodes_alike(s in arb_soup()) {
        agree_with_prefixes(&s)?;
    }

    #[test]
    fn arbitrary_text_decodes_alike(s in "\\PC{0,40}") {
        agree(&s)?;
    }
}

/// `\u` takes exactly four hex digits: a leading `+`, which
/// `u32::from_str_radix` accepts, is an error, not U+0123 or U+0004.
#[test]
fn signed_unicode_escapes_are_errors() {
    for src in [
        r#""\u+123""#,
        r#""\u+0041""#,
        r#"{"program": "\u+123"}"#,
        r#"["ok", "\u0041\u+0041"]"#,
    ] {
        agree(src).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(Json::parse(src), Err("bad \\u escape".to_owned()), "{src}");
    }
}

/// A request line as a client sends it, residual text and all.
#[test]
fn request_lines_decode_alike() {
    let program = "(define (main x)\n  (let ((y (* x 2)))\n    (if (< y 10) \"no\" y)))\n";
    let line = Json::obj(vec![
        ("program", Json::str(program)),
        ("inputs", Json::Arr(vec![Json::str("_"), Json::str("5")])),
        (
            "facets",
            Json::Arr(vec![Json::str("sign"), Json::str("parity")]),
        ),
        ("execute", Json::Arr(vec![Json::str("7")])),
        ("note", Json::str("tab\t quote\" backslash\\ nul\u{0} é 😀")),
    ])
    .render();
    agree(&line).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        Json::parse(&line).unwrap().get("program").unwrap().as_str(),
        Some(program)
    );
}
