//! Differential oracles for the request-line decoder and the value
//! parser, against the code they replaced.
//!
//! A request line is read in one pass ([`RequestLine`]). It must give what
//! [`Json::parse`] followed by `from_json` gave: the same request or the
//! same error string, the same `id`, `cmd` and `format`, and for a
//! malformed line the same JSON error at the same byte. `from_json` as it
//! was, before it filled the decoder's slots, is kept verbatim below as
//! the reference, and so is `spec::parse_value` before its integer fast
//! path.

use ppe_server::spec::parse_value;
use ppe_server::{Json, RequestLine, SpecializeRequest};
use proptest::collection::vec;
use proptest::prelude::*;

mod reference {
    use std::time::Duration;

    use ppe_lang::Value;
    use ppe_online::ExhaustionPolicy;
    use ppe_server::request::{Engine, ExecEngine, ExecuteRequest, SpecEngine};
    use ppe_server::spec::ALL_FACETS;
    use ppe_server::{Json, SpecializeRequest, MAX_WIRE_RECURSION_DEPTH};

    /// `spec::parse_value` as it was.
    pub fn parse_value(s: &str) -> Result<Value, String> {
        if let Some(rest) = s.strip_prefix("vec:") {
            let elems: Result<Vec<Value>, String> =
                rest.split(',').map(|e| parse_value(e.trim())).collect();
            return Ok(Value::vector(elems?));
        }
        match s {
            "#t" => return Ok(Value::Bool(true)),
            "#f" => return Ok(Value::Bool(false)),
            _ => {}
        }
        if let Ok(n) = s.parse::<i64>() {
            return Ok(Value::Int(n));
        }
        if let Ok(x) = s.parse::<f64>() {
            if x.is_nan() {
                return Err("NaN is not a value".to_owned());
            }
            return Ok(Value::Float(x));
        }
        Err(format!("cannot parse value `{s}`"))
    }

    fn all_facet_names() -> Vec<String> {
        ALL_FACETS.iter().map(|s| s.to_string()).collect()
    }

    /// `SpecializeRequest::from_json` as it was; only the constructor of
    /// the empty request differs, as the private one is out of reach.
    pub fn from_json(v: &Json) -> Result<SpecializeRequest, String> {
        let program = v
            .get("program")
            .and_then(Json::as_str)
            .ok_or("request needs a `program` string")?;
        let mut req = SpecializeRequest::new(program, Vec::new());
        req.facets = Vec::new();
        req.inputs = match v.get("inputs") {
            None => Vec::new(),
            Some(Json::Str(s)) => s.split_whitespace().map(str::to_owned).collect(),
            Some(Json::Arr(xs)) => xs
                .iter()
                .map(|x| {
                    x.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "`inputs` elements must be strings".to_owned())
                })
                .collect::<Result<_, _>>()?,
            Some(_) => return Err("`inputs` must be an array of strings".to_owned()),
        };
        if let Some(f) = v.get("function") {
            req.function = Some(f.as_str().ok_or("`function` must be a string")?.to_owned());
        }
        if let Some(e) = v.get("engine") {
            req.engine = Engine::parse(e.as_str().ok_or("`engine` must be a string")?)?;
        }
        req.facets = match v.get("facets") {
            None => all_facet_names(),
            Some(fs) => fs
                .as_array()
                .ok_or("`facets` must be an array")?
                .iter()
                .map(|x| {
                    x.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "`facets` elements must be strings".to_owned())
                })
                .collect::<Result<_, _>>()?,
        };
        if let Some(o) = v.get("optimize") {
            req.optimize = o.as_bool().ok_or("`optimize` must be a boolean")?;
        }
        let num = |field: &str| -> Result<Option<u64>, String> {
            match v.get(field) {
                None => Ok(None),
                Some(x) => x
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("`{field}` must be a non-negative integer")),
            }
        };
        if let Some(fuel) = num("fuel")? {
            req.config.fuel = fuel;
        }
        if let Some(ms) = num("deadline_ms")? {
            req.config.deadline = Some(Duration::from_millis(ms));
        }
        if let Some(d) = num("max_unfold_depth")? {
            req.config.max_unfold_depth =
                u32::try_from(d).map_err(|_| "`max_unfold_depth` too large".to_owned())?;
        }
        if let Some(n) = num("max_specializations")? {
            req.config.max_specializations = n as usize;
        }
        if let Some(n) = num("max_residual_size")? {
            req.config.max_residual_size = n as usize;
        }
        if let Some(d) = num("max_recursion_depth")? {
            req.config.max_recursion_depth =
                u32::try_from(d.min(MAX_WIRE_RECURSION_DEPTH)).expect("clamped to u32 range");
        }
        if let Some(p) = v.get("on_exhaustion") {
            req.config.on_exhaustion = match p.as_str().ok_or("`on_exhaustion` must be a string")? {
                "fail" => ExhaustionPolicy::Fail,
                "degrade" => ExhaustionPolicy::Degrade,
                other => {
                    return Err(format!(
                        "`on_exhaustion` must be fail or degrade, got `{other}`"
                    ))
                }
            };
        }
        if let Some(c) = v.get("constraints") {
            req.config.propagate_constraints =
                c.as_bool().ok_or("`constraints` must be a boolean")?;
        }
        if let Some(e) = v.get("spec_engine") {
            req.spec_engine =
                SpecEngine::parse(e.as_str().ok_or("`spec_engine` must be a string")?)?;
        }
        let exec_inputs = match v.get("execute") {
            None => None,
            Some(Json::Str(s)) => Some(s.split_whitespace().map(str::to_owned).collect()),
            Some(Json::Arr(xs)) => Some(
                xs.iter()
                    .map(|x| {
                        x.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| "`execute` elements must be strings".to_owned())
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            Some(_) => return Err("`execute` must be an array of strings".to_owned()),
        };
        if let Some(inputs) = exec_inputs {
            let engine = match v.get("exec_engine") {
                None => ExecEngine::default(),
                Some(e) => ExecEngine::parse(e.as_str().ok_or("`exec_engine` must be a string")?)?,
            };
            req.execute = Some(ExecuteRequest { inputs, engine });
        } else if v.get("exec_engine").is_some() {
            return Err("`exec_engine` needs an `execute` inputs field".to_owned());
        }
        Ok(req)
    }
}

/// What a line decodes to, in a form both paths can produce: the JSON
/// error, or the `id`, `cmd`, `format` and request (or field error).
fn old_decode(line: &str) -> String {
    match Json::parse(line) {
        Err(e) => format!("json error: {e}"),
        Ok(v) => {
            let reference = reference::from_json(&v);
            let request = SpecializeRequest::from_json(&v);
            assert_eq!(
                format!("{reference:?}"),
                format!("{request:?}"),
                "from_json on the tree of {line:?}"
            );
            format!(
                "id {:?}\ncmd {:?}\nformat {:?}\n{:?}",
                v.get("id"),
                v.get("cmd").and_then(Json::as_str),
                v.get("format").and_then(Json::as_str),
                reference
            )
        }
    }
}

fn new_decode(line: &str) -> String {
    match RequestLine::parse(line) {
        Err(e) => format!("json error: {e}"),
        Ok(mut decoded) => {
            let id = decoded.take_id();
            let head = format!(
                "id {:?}\ncmd {:?}\nformat {:?}\n",
                id.as_ref().map(|id| id.value()),
                decoded.cmd(),
                decoded.format(),
            );
            format!("{head}{:?}", decoded.request(None))
        }
    }
}

fn agree(line: &str) -> Result<(), TestCaseError> {
    let (old, new) = (old_decode(line), new_decode(line));
    prop_assert_eq!(&new, &old, "line {:?}\n new: {}\n old: {}", line, new, old);
    Ok(())
}

/// A JSON string literal: the body pieces concatenated, escapes and all.
fn jstr(pieces: Vec<&'static str>) -> String {
    format!("\"{}\"", pieces.concat())
}

/// String bodies: text the fields take, and escapes.
fn arb_piece() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("(define (f x) (* x 2))"),
        Just("(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))"),
        Just("\\n"),
        Just("\\\""),
        Just("\\u0041"),
        Just("\\u00e9"),
        Just("\\ud83d\\ude00"),
        Just("é"),
        Just(" "),
        Just("\\t"),
        Just("_"),
        Just("5"),
        Just("-0.0"),
        Just("vec:1, 2,3"),
        Just("_:sign=pos"),
        Just("sign"),
        Just("size"),
        Just("online"),
        Just("offline"),
        Just("simple"),
        Just("vm"),
        Just("ast"),
        Just("fail"),
        Just("degrade"),
        Just("metrics"),
        Just("prometheus"),
    ]
}

fn arb_string() -> impl Strategy<Value = String> {
    vec(arb_piece(), 0..3).prop_map(jstr)
}

fn arb_number() -> impl Strategy<Value = String> {
    let fixed = prop_oneof![
        Just("0"),
        Just("-0"),
        Just("5"),
        Just("-1"),
        Just("1.5"),
        Just("1.0"),
        Just("1e3"),
        Just("30000"),
        Just("4000000000"),
        Just("9000000000000000"),
        Just("9000000000000001"),
        Just("9007199254740993"),
        Just("12345678901234567890"),
        Just("-12345678901234567890"),
        Just("1e999"),
        Just("01"),
    ]
    .prop_map(str::to_owned);
    prop_oneof![fixed, any::<i64>().prop_map(|n| n.to_string())]
}

/// Whitespace between tokens.
fn arb_ws() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just(""), Just(""), Just(" "), Just("\n\t "), Just("\r\n")]
}

/// A field value: every JSON kind, and arrays of strings with now and
/// then an element of another kind.
fn arb_value() -> BoxedStrategy<String> {
    let scalar = prop_oneof![
        arb_string(),
        arb_string(),
        arb_number(),
        Just("true".to_owned()),
        Just("false".to_owned()),
        Just("null".to_owned()),
    ];
    let strings = || {
        (vec(arb_string(), 0..4), arb_ws())
            .prop_map(|(xs, ws)| format!("[{ws}{}{ws}]", xs.join(&format!("{ws},{ws}"))))
    };
    let mixed = (vec(scalar.clone(), 1..4), arb_ws())
        .prop_map(|(xs, ws)| format!("[{ws}{}]", xs.join(",")));
    let object = (arb_string(), scalar.clone()).prop_map(|(k, v)| format!("{{{k}: [{v}]}}"));
    prop_oneof![scalar, strings(), strings(), mixed, object].boxed()
}

/// Field names: every known one, some spelled with escapes, unknown ones,
/// and `id`, `cmd` and `format`.
fn arb_key() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("\"program\""),
        Just("\"pro\\u0067ram\""),
        Just("\"inputs\""),
        Just("\"function\""),
        Just("\"engine\""),
        Just("\"facets\""),
        Just("\"optimize\""),
        Just("\"fuel\""),
        Just("\"deadline_ms\""),
        Just("\"max_unfold_depth\""),
        Just("\"max_specializations\""),
        Just("\"max_residual_size\""),
        Just("\"max_recursion_depth\""),
        Just("\"on_exhaustion\""),
        Just("\"constraints\""),
        Just("\"spec_engine\""),
        Just("\"execute\""),
        Just("\"exec_engine\""),
        Just("\"id\""),
        Just("\"i\\u0064\""),
        Just("\"cmd\""),
        Just("\"format\""),
        Just("\"note\""),
        Just("\"Program\""),
        Just("\"\""),
    ]
}

/// Well-typed fields, so that many lines make a request.
fn arb_typed_field() -> impl Strategy<Value = String> {
    let program = Just(
        "\"program\": \"(define (power x n)\\n  (if (= n 0) 1 (* x (power x (- n 1)))))\""
            .to_owned(),
    );
    let inputs = prop_oneof![
        Just("\"inputs\": \"_ 3\""),
        Just("\"inputs\": [\"_\", \"3\"]"),
        Just("\"inputs\": \"_\\t\\u0033\""),
    ]
    .prop_map(str::to_owned);
    let execute = prop_oneof![
        Just("\"execute\": [\"vec:1, 2,\\u0033\", \"-0\"]"),
        Just("\"execute\": \"2 vec:1,2\""),
        Just("\"execute\": []"),
    ]
    .prop_map(str::to_owned);
    let other = prop_oneof![
        Just("\"engine\": \"offline\""),
        Just("\"facets\": [\"sign\", \"size\"]"),
        Just("\"optimize\": true"),
        Just("\"fuel\": 40"),
        Just("\"on_exhaustion\": \"degrade\""),
        Just("\"exec_engine\": \"ast\""),
        Just("\"spec_engine\": \"ast\""),
        Just("\"max_recursion_depth\": 4000000000"),
        Just("\"id\": 9007199254740993"),
        Just("\"id\": \"a\\\"b\""),
        Just("\"id\": [1, {\"x\": null}]"),
    ]
    .prop_map(str::to_owned);
    prop_oneof![program, inputs, execute, other]
}

fn arb_field() -> impl Strategy<Value = String> {
    prop_oneof![
        (arb_key(), arb_ws(), arb_value()).prop_map(|(k, ws, v)| format!("{k}{ws}:{ws}{v}")),
        arb_typed_field(),
        arb_typed_field(),
    ]
}

/// A request line: fields in any order, with duplicates, unknown keys
/// and whitespace around every token.
fn arb_line() -> impl Strategy<Value = String> {
    (vec(arb_field(), 0..9), arb_ws())
        .prop_map(|(fields, ws)| format!("{ws}{{{ws}{}{ws}}}{ws}", fields.join(&format!("{ws},"))))
}

/// Bytes a mutation inserts or writes over another.
const MUTANTS: [&str; 14] = [
    "\"", "\\", "{", "}", "[", "]", ",", ":", " ", "1", "x", "é", "\u{0}", "-",
];

/// `line` with byte-level edits: each `(at, byte, op)` deletes, inserts
/// or overwrites at `at` (taken modulo the length). A cut through a
/// multi-byte character leaves replacement characters, so the result is
/// still a `&str`.
fn mutate(line: &str, edits: &[(usize, usize, usize)]) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for &(at, byte, op) in edits {
        let at = at % (bytes.len() + 1);
        let mutant = MUTANTS[byte % MUTANTS.len()].as_bytes();
        match op {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 => {
                bytes.splice(at..at, mutant.iter().copied());
            }
            _ => {
                let end = (at + mutant.len()).min(bytes.len());
                bytes.splice(at..end, mutant.iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Literals for `parse_value`: the elements the fast path takes and every
/// spelling it must hand to the general rules.
fn arb_element() -> impl Strategy<Value = String> {
    let fixed = prop_oneof![
        Just("+5"),
        Just("-0"),
        Just("-"),
        Just(""),
        Just(" 7"),
        Just("7 "),
        Just("\u{a0}8\u{2003}"),
        Just("\t9\n"),
        Just("1.5"),
        Just("-2.5e3"),
        Just("1e5"),
        Just(".5"),
        Just("5."),
        Just("inf"),
        Just("-infinity"),
        Just("NaN"),
        Just("#t"),
        Just("#f"),
        Just("9223372036854775807"),
        Just("9223372036854775808"),
        Just("-9223372036854775808"),
        Just("-9223372036854775809"),
        Just("99999999999999999999"),
        Just("007"),
        Just("0x10"),
        Just("1_000"),
        Just("vec:1"),
        Just("vec:"),
        Just("vec:vec:2"),
        Just("wat"),
    ]
    .prop_map(str::to_owned);
    prop_oneof![
        fixed,
        any::<i64>().prop_map(|n| n.to_string()),
        any::<i64>().prop_map(|n| n.to_string()),
        (-1.0e6..1.0e6).prop_map(|x: f64| x.to_string()),
    ]
}

fn arb_literal() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_element(),
        (vec(arb_element(), 1..8), any::<bool>()).prop_map(|(xs, spaced)| {
            format!("vec:{}", xs.join(if spaced { ", " } else { "," }))
        }),
        (vec(arb_element(), 1..4), vec(arb_element(), 0..3)).prop_map(|(xs, ys)| {
            // A nested literal takes in the rest of its element only.
            format!("vec:{},vec:{}", ys.join(","), xs.join(","))
        }),
    ]
}

fn values_agree(s: &str) -> Result<(), TestCaseError> {
    let new = format!("{:?}", parse_value(s));
    let old = format!("{:?}", reference::parse_value(s));
    prop_assert_eq!(&new, &old, "literal {:?}\n new: {}\n old: {}", s, new, old);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn request_lines_decode_as_the_tree_did(line in arb_line()) {
        agree(&line)?;
    }

    #[test]
    fn mutated_request_lines_decode_as_the_tree_did(
        line in arb_line(),
        edits in vec((0usize..4096, 0usize..64, 0usize..3), 1..4),
    ) {
        agree(&mutate(&line, &edits))?;
    }

    #[test]
    fn truncated_request_lines_decode_as_the_tree_did(line in arb_line()) {
        for (i, _) in line.char_indices() {
            agree(&line[..i])?;
        }
    }

    #[test]
    fn literals_parse_as_they_did(s in arb_literal()) {
        values_agree(&s)?;
    }
}

/// The kinds of line the generators reach only by chance: not an object,
/// an empty object, keys that decode equal, and the last of duplicates.
#[test]
fn edge_lines_decode_as_the_tree_did() {
    for line in [
        "",
        "5",
        "[\"program\"]",
        "\"program\"",
        "{}",
        " { } ",
        "{\"program\": \"p\"} x",
        "{\"program\": \"p\", \"pro\\u0067ram\": \"q\"}",
        "{\"program\": 5, \"program\": \"p\"}",
        "{\"program\": \"p\", \"program\": 5}",
        "{\"program\": \"p\", \"inputs\": [\"_\", 5, \"x\"], \"fuel\": -1}",
        "{\"program\": \"p\", \"fuel\": -1, \"inputs\": [5]}",
        "{\"program\": \"p\", \"exec_engine\": \"vm\"}",
        "{\"cmd\": 5, \"program\": \"p\"}",
        "{\"cmd\": \"metrics\", \"format\": 5, \"id\": -0}",
        "{\"id\": 1, \"id\": 12345678901234567890, \"program\": \"p\"}",
    ] {
        agree(line).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn edge_literals_parse_as_they_did() {
    for s in [
        "",
        "vec:",
        "vec:,",
        "vec:1,",
        "vec:,1",
        "vec:1,,2",
        "vec: 1 , 2 ",
        "vec:+5,-0",
        "vec:1.5,#t,#f",
        "vec:NaN",
        "vec:inf,-inf",
        "vec:vec:1,2",
        "vec:1,vec:2,3",
        "vec:9223372036854775808,-9223372036854775809",
        "5,3",
        "-",
        "+",
        "- 5",
    ] {
        values_agree(s).unwrap_or_else(|e| panic!("{e}"));
    }
}
