//! Textual specification of specialization inputs and facet sets.
//!
//! One grammar shared by every front door — the `ppe` CLI commands, the
//! `ppe batch` request vectors, and the `ppe serve` JSON protocol — so a
//! request means the same thing wherever it arrives:
//!
//! ```text
//! VALUE ::= 5 | -3 | 2.5 | #t | #f | vec:1.0,2.0,3.0
//! INPUT ::= VALUE                       a known input
//!         | _                           a dynamic input
//!         | _:FACET=SPEC[:FACET=SPEC]…  dynamic with facet refinements
//! SPEC  ::= sign=pos|neg|zero | parity=even|odd | size=N
//!         | range=LO..HI (either bound may be empty)
//!         | const-set=V|V|…
//! ```

use ppe_core::facets::{
    ConstSetFacet, ConstSetVal, ContentsFacet, ParityFacet, ParityVal, RangeFacet, RangeVal,
    SignFacet, SignVal, SizeFacet, SizeVal, TypeFacet,
};
use ppe_core::{AbsVal, FacetSet};
use ppe_lang::Value;
use ppe_online::PeInput;

/// Every built-in facet name, in canonical order — the default facet set.
pub const ALL_FACETS: &[&str] = &[
    "sign",
    "parity",
    "range",
    "size",
    "contents",
    "const-set",
    "type",
];

/// Builds a [`FacetSet`] from facet names (see [`ALL_FACETS`]).
///
/// # Errors
///
/// Names an unknown facet.
pub fn build_facets(names: &[String]) -> Result<FacetSet, String> {
    let mut set = FacetSet::new();
    for n in names {
        match n.as_str() {
            "sign" => {
                set.push(Box::new(SignFacet));
            }
            "parity" => {
                set.push(Box::new(ParityFacet));
            }
            "range" => {
                set.push(Box::new(RangeFacet));
            }
            "size" => {
                set.push(Box::new(SizeFacet));
            }
            "contents" => {
                set.push(Box::new(ContentsFacet));
            }
            "const-set" => {
                set.push(Box::new(ConstSetFacet::default()));
            }
            "type" => {
                set.push(Box::new(TypeFacet));
            }
            other => return Err(format!("unknown facet `{other}`")),
        }
    }
    Ok(set)
}

/// Parses a concrete value: `5`, `-3`, `2.5`, `#t`, `#f`, `vec:1.0,2.0`.
///
/// A `vec:` literal is read in one scan into a vector sized by its comma
/// count. Its elements, split on `,`, are values once trimmed of
/// whitespace, so an element may itself be a `vec:` literal, which ends
/// at the next comma. A plain decimal integer takes a fast path; every
/// other spelling goes through the general rules.
///
/// # Errors
///
/// Describes the first token that fails to parse.
pub fn parse_value(s: &str) -> Result<Value, String> {
    if let Some(rest) = s.strip_prefix("vec:") {
        let bytes = rest.as_bytes();
        let mut elems = Vec::with_capacity(1 + bytes.iter().filter(|&&b| b == b',').count());
        let mut at = 0;
        loop {
            let (value, len) = match plain_int(&bytes[at..]) {
                Some((n, len)) => (Value::Int(n), len),
                None => {
                    let len = bytes[at..]
                        .iter()
                        .position(|&b| b == b',')
                        .unwrap_or(bytes.len() - at);
                    (parse_value(rest[at..at + len].trim())?, len)
                }
            };
            elems.push(value);
            at += len;
            if at == bytes.len() {
                return Ok(Value::vector(elems));
            }
            at += 1;
        }
    }
    match plain_int(s.as_bytes()) {
        Some((n, len)) if len == s.len() => return Ok(Value::Int(n)),
        _ => {}
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

/// A plain decimal integer (`-?[0-9]+` that fits an `i64`) at the start
/// of `bytes`, ending at a `,` or at the end: its value and length in
/// bytes. `None` for anything else, which the general rules then read.
fn plain_int(bytes: &[u8]) -> Option<(i64, usize)> {
    let negative = bytes.first() == Some(&b'-');
    let digits = usize::from(negative);
    let mut n: i64 = 0;
    let mut len = digits;
    while let Some(&b) = bytes.get(len) {
        match b {
            b'0'..=b'9' => {
                let d = i64::from(b - b'0');
                n = n.checked_mul(10)?;
                n = if negative {
                    n.checked_sub(d)?
                } else {
                    n.checked_add(d)?
                };
            }
            b',' => break,
            _ => return None,
        }
        len += 1;
    }
    (len > digits).then_some((n, len))
}

/// Parses one facet refinement `facet=spec` into `(facet name, value)`.
///
/// # Errors
///
/// Describes the malformed refinement.
pub fn parse_refinement(s: &str) -> Result<(String, AbsVal), String> {
    let (facet, spec) = s
        .split_once('=')
        .ok_or_else(|| format!("refinement `{s}` must look like facet=value"))?;
    let abs = match facet {
        "sign" => AbsVal::new(match spec {
            "pos" => SignVal::Pos,
            "neg" => SignVal::Neg,
            "zero" => SignVal::Zero,
            _ => return Err(format!("sign must be pos|neg|zero, got `{spec}`")),
        }),
        "parity" => AbsVal::new(match spec {
            "even" => ParityVal::Even,
            "odd" => ParityVal::Odd,
            _ => return Err(format!("parity must be even|odd, got `{spec}`")),
        }),
        "size" => AbsVal::new(SizeVal::Known(
            spec.parse::<i64>()
                .map_err(|_| format!("size must be an integer, got `{spec}`"))?,
        )),
        "range" => {
            let (lo, hi) = spec
                .split_once("..")
                .ok_or_else(|| format!("range must be LO..HI, got `{spec}`"))?;
            let parse_bound = |b: &str| -> Result<Option<i64>, String> {
                if b.is_empty() {
                    Ok(None)
                } else {
                    b.parse::<i64>()
                        .map(Some)
                        .map_err(|_| format!("bad range bound `{b}`"))
                }
            };
            AbsVal::new(RangeVal::Range {
                lo: parse_bound(lo)?,
                hi: parse_bound(hi)?,
            })
        }
        "const-set" => {
            let consts: Result<Vec<_>, String> = spec
                .split('|')
                .map(|c| {
                    parse_value(c)?
                        .to_const()
                        .ok_or_else(|| format!("`{c}` is not a constant"))
                })
                .collect();
            AbsVal::new(ConstSetVal::of(consts?))
        }
        other => return Err(format!("no refinement syntax for facet `{other}`")),
    };
    Ok((facet.to_owned(), abs))
}

/// Parses one specialization input (see the module grammar).
///
/// # Errors
///
/// As for [`parse_value`] and [`parse_refinement`].
pub fn parse_input(s: &str) -> Result<PeInput, String> {
    if s == "_" {
        return Ok(PeInput::dynamic());
    }
    if let Some(rest) = s.strip_prefix("_:") {
        let mut input = PeInput::dynamic();
        for part in rest.split(':') {
            let (facet, abs) = parse_refinement(part)?;
            input = input.with_facet(&facet, abs);
        }
        return Ok(input);
    }
    Ok(PeInput::known(parse_value(s)?))
}

/// Parses a whitespace-separated vector of inputs, e.g. `"_:size=3 5"`.
///
/// # Errors
///
/// As for [`parse_input`].
pub fn parse_input_vector(s: &str) -> Result<Vec<PeInput>, String> {
    s.split_whitespace().map(parse_input).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_values() {
        assert_eq!(parse_value("5").unwrap(), Value::Int(5));
        assert_eq!(parse_value("-3").unwrap(), Value::Int(-3));
        assert_eq!(parse_value("#t").unwrap(), Value::Bool(true));
        assert_eq!(parse_value("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(
            parse_value("vec:1.0,2.0").unwrap(),
            Value::vector(vec![Value::Float(1.0), Value::Float(2.0)])
        );
        assert!(parse_value("wat").is_err());
    }

    #[test]
    fn parses_inputs() {
        assert!(matches!(parse_input("_").unwrap(), PeInput::Dynamic { .. }));
        assert!(matches!(parse_input("7").unwrap(), PeInput::Known(_)));
        let refined = parse_input("_:size=3:sign=pos").unwrap();
        match refined {
            PeInput::Dynamic { refinements } => {
                assert_eq!(refinements.len(), 2);
                assert_eq!(refinements[0].0, "size");
                assert_eq!(refinements[1].0, "sign");
            }
            other => panic!("expected refined dynamic, got {other:?}"),
        }
    }

    #[test]
    fn parses_refinements() {
        assert!(parse_refinement("sign=pos").is_ok());
        assert!(parse_refinement("parity=odd").is_ok());
        assert!(parse_refinement("range=0..10").is_ok());
        assert!(parse_refinement("range=..10").is_ok());
        assert!(parse_refinement("const-set=1|2|3").is_ok());
        assert!(parse_refinement("sign=sideways").is_err());
        assert!(parse_refinement("nonsense").is_err());
    }

    #[test]
    fn parses_input_vectors() {
        let v = parse_input_vector("  _:size=3   5 _ ").unwrap();
        assert_eq!(v.len(), 3);
        assert!(parse_input_vector("_ wat").is_err());
    }

    #[test]
    fn builds_facet_sets() {
        let set = build_facets(&["sign".into(), "size".into()]).unwrap();
        assert_eq!(set.len(), 2);
        assert!(build_facets(&["bogus".into()]).is_err());
        let all: Vec<String> = ALL_FACETS.iter().map(|s| s.to_string()).collect();
        assert_eq!(build_facets(&all).unwrap().len(), ALL_FACETS.len());
    }
}
