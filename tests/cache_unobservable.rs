//! Caching must be unobservable on the answer path.
//!
//! A seeded stream of request lines, with repeated keys, goes two ways:
//! through two `handle_session`s on one `SpecializeService` whose residual
//! cache is small enough to evict and recompute entries, and line by line
//! through a fresh `ppe serve` process each, whose every cache is cold.
//! The answers must be byte-identical apart from the cache dispositions:
//! the residual cache's `cache` and the VM chunk cache's `chunk_cache` and
//! `chunks_compiled` (the chunk cache is process-wide, so a repeat execute
//! in one process compiles nothing) — and apart from `wall_us`.
//!
//! The stream covers what a cache has gotten wrong before: two programs
//! that share `f`'s key where only one warns about `g`, `0.0` against
//! `-0.0`, budgets that trip under `degrade`, all three engines, both
//! spec engines (not part of the key), `optimize`, and `execute` on both
//! exec engines. It also spells one request many ways: keys in another
//! order, a duplicate key (the last value counts), an unknown key, the
//! program's parentheses as `\u0028` escapes, the program's text laid out
//! differently, and the facet list in another order. More than 128
//! distinct sources pass through, so the parse cache overflows.

use std::io::Write as _;
use std::process::{Command, Stdio};

use ppe::server::{handle_session, Json, ServiceConfig, SessionOptions, SpecializeService};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POWER: &str = "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))";
const WITH_G: &str = "(define (f x) (+ x 1)) (define (g y) (g y))";
const WITHOUT_G: &str = "(define (f x) (+ x 1))";
const ZERO: &str = "(define (z x k) (if (= k 0.0) (* x k) (+ x k)))";
/// `POWER` laid out differently: another source text, the same program.
const POWER_SPACED: &str =
    "(define (power x n)\n  (if (= n 0)\n      1\n      (* x (power x (- n 1)))))\n";
/// Distinct one-line sources, more than the parse cache's 128.
const DISTINCT_SOURCES: usize = 140;

/// The distinct requests the stream draws from, without `id`.
fn shapes() -> Vec<Vec<(&'static str, Json)>> {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|x| Json::str(*x)).collect());
    let base = |program: &str, inputs: &str| {
        vec![
            ("program", Json::str(program)),
            ("inputs", Json::str(inputs)),
        ]
    };
    let with = |mut fields: Vec<(&'static str, Json)>, extra: Vec<(&'static str, Json)>| {
        fields.extend(extra);
        fields
    };
    let tripping = || {
        vec![
            ("fuel", Json::num(40)),
            ("on_exhaustion", Json::str("degrade")),
        ]
    };
    let mut shapes = vec![
        base(WITH_G, "_"),
        base(WITHOUT_G, "_"),
        with(base(WITH_G, "_"), vec![("execute", strs(&["4"]))]),
        with(
            base(WITHOUT_G, "_"),
            vec![("execute", strs(&["4"])), ("exec_engine", Json::str("ast"))],
        ),
        with(base(POWER, "_ 30"), tripping()),
        with(
            base(POWER, "_ 30"),
            with(tripping(), vec![("execute", strs(&["1"]))]),
        ),
    ];
    for zero in ["0.0", "-0.0"] {
        let inputs = format!("_ {zero}");
        shapes.push(with(base(ZERO, &inputs), vec![("execute", strs(&["2.0"]))]));
        shapes.push(with(
            base(ZERO, &inputs),
            vec![
                ("execute", strs(&["2.0"])),
                ("exec_engine", Json::str("ast")),
            ],
        ));
        shapes.push(with(
            base(ZERO, &inputs),
            vec![
                ("engine", Json::str("offline")),
                ("optimize", Json::Bool(true)),
            ],
        ));
    }
    for n in 2..5 {
        let inputs = format!("_ {n}");
        for engine in ["online", "simple", "offline"] {
            for spec_engine in ["vm", "ast"] {
                shapes.push(with(
                    base(POWER, &inputs),
                    vec![
                        ("engine", Json::str(engine)),
                        ("spec_engine", Json::str(spec_engine)),
                        ("optimize", Json::Bool(n % 2 == 0)),
                    ],
                ));
            }
        }
        shapes.push(with(
            base(POWER, &inputs),
            vec![
                ("execute", strs(&["3"])),
                (
                    "exec_engine",
                    Json::str(if n % 2 == 0 { "vm" } else { "ast" }),
                ),
            ],
        ));
    }
    for facets in [["sign", "parity"], ["parity", "sign"]] {
        shapes.push(with(
            base(POWER, "_:sign=pos 3"),
            vec![("engine", Json::str("offline")), ("facets", strs(&facets))],
        ));
    }
    shapes.push(base(POWER_SPACED, "_ 3"));
    shapes.push(with(
        base(POWER_SPACED, "_ 3"),
        vec![("execute", strs(&["3"]))],
    ));
    shapes
}

/// How a line spells its fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Spelling {
    /// Keys in sorted order, as [`Json::render`] writes them.
    Sorted,
    /// Keys in reverse order.
    Reversed,
    /// A first `program` and `inputs` that the later ones replace.
    Duplicate,
    /// With keys the protocol does not know.
    Unknown,
    /// The program's parentheses written as `\u0028` and `\u0029`.
    Escaped,
}

const SPELLINGS: [Spelling; 5] = [
    Spelling::Sorted,
    Spelling::Reversed,
    Spelling::Duplicate,
    Spelling::Unknown,
    Spelling::Escaped,
];

/// `fields` as one request line, spelled as `spelling` says.
fn render(fields: &[(&str, Json)], spelling: Spelling) -> String {
    let mut sorted = fields.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(b.0));
    let mut fields: Vec<String> = sorted
        .iter()
        .map(|(k, v)| format!("{}:{}", Json::str(*k).render(), v.render()))
        .collect();
    match spelling {
        Spelling::Sorted => {}
        Spelling::Reversed => fields.reverse(),
        Spelling::Duplicate => {
            fields.insert(0, "\"inputs\":[5]".to_owned());
            fields.insert(0, "\"program\":\"(define\"".to_owned());
        }
        Spelling::Unknown => {
            fields.insert(1, "\"note\":{\"program\":5,\"inputs\":[null]}".to_owned());
            fields.push("\"trace\":[true,\"x\"]".to_owned());
        }
        Spelling::Escaped => {
            for field in &mut fields {
                if let Some(program) = field.strip_prefix("\"program\":") {
                    let escaped = program.replace('(', "\\u0028").replace(')', "\\u0029");
                    *field = format!("\"program\":{escaped}");
                }
            }
        }
    }
    format!("{{{}}}", fields.join(","))
}

/// Every shape once, then seeded picks skewed toward the first shapes,
/// each in a seeded spelling; then one request on each of
/// [`DISTINCT_SOURCES`] programs, and the first shapes again.
fn stream(len: usize) -> Vec<(Spelling, String)> {
    let shapes = shapes();
    let mut rng = StdRng::seed_from_u64(26);
    let mut picks: Vec<usize> = (0..shapes.len()).collect();
    while picks.len() < len {
        let a = rng.gen_range(0..shapes.len());
        picks.push(rng.gen_range(0..a + 1));
    }
    let mut lines: Vec<(Vec<(&str, Json)>, Spelling)> = picks
        .into_iter()
        .map(|shape| {
            let spelling = SPELLINGS[rng.gen_range(0..SPELLINGS.len())];
            (shapes[shape].clone(), spelling)
        })
        .collect();
    for k in 0..DISTINCT_SOURCES {
        let program = format!("(define (f{k} x) (+ x {k}))");
        lines.push((
            vec![("program", Json::str(program)), ("inputs", Json::str("_"))],
            Spelling::Sorted,
        ));
    }
    for (shape, spelling) in shapes.iter().take(8).zip(SPELLINGS.iter().cycle()) {
        lines.push((shape.clone(), *spelling));
    }
    lines
        .into_iter()
        .enumerate()
        .map(|(id, (mut fields, spelling))| {
            fields.push(("id", Json::num(id as u64)));
            (spelling, render(&fields, spelling))
        })
        .collect()
}

/// `line` with the values of the cache dispositions and `wall_us` blanked.
fn blank(line: &str) -> String {
    let mut out = line.to_owned();
    for field in [
        "\"cache\":",
        "\"chunk_cache\":",
        "\"chunks_compiled\":",
        "\"wall_us\":",
    ] {
        // Inside a JSON string every `"` is escaped, so a field name
        // followed by `:` only matches as a key.
        if let Some(at) = out.find(field) {
            let start = at + field.len();
            let rest = &out[start..];
            let len = match rest.strip_prefix('"') {
                Some(s) => s.find('"').expect("closed string") + 2,
                None => rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len()),
            };
            out.replace_range(start..start + len, "_");
        }
    }
    out
}

/// `line`'s answer from a fresh `ppe serve` process.
fn fresh_answer(line: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ppe"))
        .args(["serve", "--jobs", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ppe binary runs");
    writeln!(child.stdin.take().expect("piped stdin"), "{line}").expect("write request");
    let out = child.wait_with_output().expect("ppe binary exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 answer");
    let mut lines = stdout.lines();
    let answer = lines.next().expect("one answer").to_owned();
    assert_eq!(lines.next(), None, "one line in, one line out");
    answer
}

fn session(service: &SpecializeService, lines: &[String]) -> Vec<String> {
    let mut input = lines.join("\n");
    input.push('\n');
    let mut output = Vec::new();
    handle_session(
        service,
        input.as_bytes(),
        &mut output,
        &SessionOptions::default(),
    )
    .expect("in-memory session");
    let answers: Vec<String> = String::from_utf8(output)
        .expect("UTF-8 answers")
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(answers.len(), lines.len());
    answers
}

#[test]
fn cached_answers_match_a_fresh_process_byte_for_byte() {
    let (spellings, lines): (Vec<Spelling>, Vec<String>) = stream(100).into_iter().unzip();
    let fresh: Vec<String> = lines.iter().map(|l| blank(&fresh_answer(l))).collect();
    // One shard of 4 KiB holds a handful of these entries (and the answer
    // fragments their first hits render), not all of them.
    let service = SpecializeService::new(ServiceConfig {
        cache_bytes: 4 << 10,
        shards: 1,
        persist: None,
    });
    let first = session(&service, &lines);
    let second = session(&service, &lines);
    let mut hits_with = (0, 0, 0);
    let mut hit_spellings = std::collections::HashSet::new();
    for answers in [&first, &second] {
        for (((line, answer), expected), spelling) in
            lines.iter().zip(answers.iter()).zip(&fresh).zip(&spellings)
        {
            assert_eq!(&blank(answer), expected, "request {line}");
            if answer.contains("\"cache\":\"hit\"") {
                hit_spellings.insert(*spelling);
                hits_with.0 += usize::from(answer.contains("\"diagnostics\""));
                hits_with.1 += usize::from(answer.contains("\"exec\""));
                hits_with.2 += usize::from(answer.contains("\"budget\":\"fuel\""));
            }
        }
    }
    for answer in &fresh {
        assert!(answer.contains("\"ok\":true"), "{answer}");
    }
    // Respelled lines reached the keys of lines spelled otherwise, and
    // were answered from their entries.
    assert_eq!(hit_spellings.len(), SPELLINGS.len(), "{hit_spellings:?}");
    let sources: std::collections::HashSet<String> = lines
        .iter()
        .filter_map(|l| {
            let v = Json::parse(l).expect("request JSON");
            v.get("program").and_then(Json::as_str).map(str::to_owned)
        })
        .collect();
    assert!(sources.len() > 128, "{} sources", sources.len());
    // The stream exercised what it is for: hits that carry diagnostics,
    // execute outcomes and degradations, and keys computed again after
    // their entries were evicted.
    assert!(
        hits_with.0 > 0 && hits_with.1 > 0 && hits_with.2 > 0,
        "{hits_with:?}"
    );
    let keys: std::collections::HashSet<&str> = first
        .iter()
        .filter_map(|a| a.split("\"key\":\"").nth(1)?.split('"').next())
        .collect();
    let metrics = service.metrics().snapshot();
    assert!(metrics.cache_evictions > 0, "{metrics:?}");
    assert!(
        metrics.cache_misses > keys.len() as u64,
        "recomputed after eviction: {} misses over {} keys",
        metrics.cache_misses,
        keys.len()
    );
    assert_eq!(metrics.cache_rejected, 0, "every entry fits the budget");
}
