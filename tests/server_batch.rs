//! End-to-end tests of the service subcommands, driving the real binary:
//! `ppe batch` must print byte-identical stdout at any `--jobs`, and
//! `ppe serve` must answer JSON-lines requests in order.

mod common;

use std::io::Write as _;
use std::process::{Command, Stdio};

use common::CORPUS;
use ppe::server::Json;

fn ppe_with_stdin(args: &[&str], stdin_text: &str) -> (bool, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ppe"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ppe binary runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin_text.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("ppe binary exits");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn request_line(src: &str, inputs: &str, extra: &[(&str, Json)]) -> String {
    let mut fields = vec![("program", Json::str(src)), ("inputs", Json::str(inputs))];
    fields.extend(extra.iter().cloned());
    Json::obj(fields).render()
}

/// A batch over the whole corpus with repeats (so the parallel run sees
/// cache hits and coalescing) and mixed engines.
fn corpus_batch() -> String {
    let mut lines = Vec::new();
    for (_, src, arity) in CORPUS {
        let inputs = match arity {
            1 => "_".to_owned(),
            n => {
                let mut parts = vec!["_".to_owned()];
                parts.extend((1..*n).map(|k| format!("{}", k + 2)));
                parts.join(" ")
            }
        };
        lines.push(request_line(src, &inputs, &[]));
        lines.push(request_line(
            src,
            &inputs,
            &[("engine", Json::str("simple"))],
        ));
        lines.push(request_line(
            src,
            &inputs,
            &[("engine", Json::str("offline"))],
        ));
        // Exact repeat: answered from the cache (or coalesced) under
        // --jobs 8, recomputed never.
        lines.push(request_line(src, &inputs, &[]));
    }
    lines.join("\n") + "\n"
}

#[test]
fn batch_stdout_is_byte_identical_across_job_counts() {
    let batch = corpus_batch();
    let (ok1, serial, err1) = ppe_with_stdin(&["batch", "-", "--jobs", "1"], &batch);
    assert!(ok1, "{err1}");
    let (ok8, parallel, err8) = ppe_with_stdin(&["batch", "-", "--jobs", "8"], &batch);
    assert!(ok8, "{err8}");
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "batch stdout must not depend on worker count"
    );
    // The run-dependent channel (metrics) is stderr, and the parallel run
    // really did share work: fewer misses than requests.
    let metrics = Json::parse(err8.lines().last().unwrap()).expect("metrics JSON on stderr");
    let requests = metrics.get("requests").and_then(Json::as_u64).unwrap();
    let misses = metrics.get("cache_misses").and_then(Json::as_u64).unwrap();
    assert_eq!(requests as usize, 4 * CORPUS.len());
    assert!(misses < requests, "repeats must not recompute: {metrics:?}");
}

#[test]
fn batch_reports_bad_lines_in_place() {
    let batch = format!(
        "{}\nnot json at all\n{}\n",
        request_line(CORPUS[0].1, "_ 3", &[]),
        request_line(CORPUS[0].1, "_ 4", &[])
    );
    let (ok, stdout, stderr) = ppe_with_stdin(&["batch", "-"], &batch);
    assert!(ok, "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with(";; request 0"), "{stdout}");
    assert!(
        lines.iter().any(|l| l.starts_with(";; request 1 error:")),
        "bad line keeps its slot: {stdout}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with(";; request 2")),
        "{stdout}"
    );
}

/// `--program` stands in for every line that omits `program`; a line
/// that names its own keeps it, and stdout does not depend on `--jobs`.
#[test]
fn batch_program_fills_lines_without_one() {
    let (_, power, _) = CORPUS[0];
    let dir = std::env::temp_dir().join(format!("ppe-batch-program-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("power.sexp");
    std::fs::write(&file, power).expect("write program");
    let batch = format!(
        "{}
{}
{}
[5]
{}
",
        r#"{"inputs": "_ 3"}"#,
        r#"{"inputs": ["_", "4"], "engine": "offline"}"#,
        request_line("(define (inc x) (+ x 1))", "_", &[]),
        r#"{"program": 5, "inputs": "_"}"#,
    );
    let file = file.to_str().expect("UTF-8 path");
    let (ok1, serial, err1) = ppe_with_stdin(&["batch", "-", "--program", file], &batch);
    assert!(ok1, "{err1}");
    let (ok4, parallel, err4) =
        ppe_with_stdin(&["batch", "-", "--program", file, "--jobs", "4"], &batch);
    assert!(ok4, "{err4}");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert_eq!(serial, parallel);
    let heads: Vec<&str> = serial
        .lines()
        .filter(|l| l.starts_with(";; request"))
        .collect();
    assert_eq!(
        heads,
        [
            ";; request 0",
            ";; request 1",
            ";; request 2",
            ";; request 3 error: request needs a `program` string",
            ";; request 4 error: request needs a `program` string",
        ],
        "{serial}"
    );
    assert_eq!(serial.matches("(define (power").count(), 2, "{serial}");
    assert!(serial.contains("(define (inc"), "{serial}");
}

/// An integer `id` comes back with the digits it was sent with, past the
/// 2⁵³ an `f64` holds exactly, on answers, errors and control messages
/// alike; every other `id` echoes as before.
#[test]
fn serve_echoes_integer_ids_digit_for_digit() {
    let (_, power, _) = CORPUS[0];
    let ids = [
        ("9007199254740993", "9007199254740993"),
        ("12345678901234567890", "12345678901234567890"),
        ("-12345678901234567890", "-12345678901234567890"),
        ("18446744073709551617", "18446744073709551617"),
        ("7", "7"),
        ("-0", "0"),
        ("1.0", "1"),
        ("1e2", "100"),
        ("9007199254740993.0", "9007199254740992"),
        ("\"x\"", "\"x\""),
        ("{\"b\": 1, \"a\": [null]}", "{\"a\":[null],\"b\":1}"),
    ];
    let mut input = String::new();
    for (sent, _) in ids {
        input.push_str(&format!(
            "{{\"id\": {sent}, \"program\": {}, \"inputs\": \"_ 2\"}}\n",
            Json::str(power).render()
        ));
    }
    input.push_str("{\"id\": 9007199254740993, \"program\": 5}\n");
    input.push_str("{\"id\": 9007199254740995, \"cmd\": \"health\"}\n");
    input.push_str("{\"cmd\": \"ready\", \"id\": 9007199254740997}\n");
    for jobs in ["1", "2"] {
        let (ok, stdout, stderr) = ppe_with_stdin(&["serve", "--jobs", jobs], &input);
        assert!(ok, "{stderr}");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), ids.len() + 3, "{stdout}");
        for ((sent, echoed), line) in ids.iter().zip(&lines) {
            assert!(
                line.contains(&format!(",\"id\":{echoed},\"key\":")),
                "id {sent} must echo as {echoed}: {line}"
            );
            assert!(line.contains("\"ok\":true"), "{line}");
        }
        let tail = &lines[ids.len()..];
        assert!(
            tail[0].contains("\"id\":9007199254740993,\"ok\":false"),
            "{}",
            tail[0]
        );
        assert_eq!(
            tail[1],
            r#"{"health":"ok","id":9007199254740995,"ok":true}"#
        );
        assert_eq!(tail[2], r#"{"id":9007199254740997,"ok":true,"ready":true}"#);
    }
}

#[test]
fn serve_answers_three_requests_in_order_and_shuts_down() {
    let (_, power, _) = CORPUS[0];
    let input = format!(
        "{}\n{}\n{}\n{}\n{}\n",
        request_line(power, "_ 2", &[("id", Json::num(0))]),
        request_line(power, "_ 3", &[("id", Json::num(1))]),
        request_line(power, "_ 2", &[("id", Json::num(2))]),
        r#"{"cmd": "metrics"}"#,
        r#"{"cmd": "shutdown"}"#
    );
    let (ok, stdout, stderr) = ppe_with_stdin(&["serve", "--jobs", "2"], &input);
    assert!(ok, "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "{stdout}");
    for (i, line) in lines[..3].iter().enumerate() {
        let v = Json::parse(line).expect("response is JSON");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(i as u64), "{line}");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{line}");
        assert!(
            v.get("residual")
                .and_then(Json::as_str)
                .unwrap()
                .contains("power"),
            "{line}"
        );
    }
    // Requests 0 and 2 are identical: same key, and the repeat is a hit
    // (or coalesced), never a second miss.
    let key = |line: &str| {
        Json::parse(line)
            .unwrap()
            .get("key")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned()
    };
    assert_eq!(key(lines[0]), key(lines[2]));
    assert_ne!(key(lines[0]), key(lines[1]));
    let metrics = Json::parse(lines[3]).unwrap();
    assert_eq!(metrics.get("ok"), Some(&Json::Bool(true)), "{stdout}");
    let shutdown = Json::parse(lines[4]).unwrap();
    assert_eq!(
        shutdown.get("shutdown"),
        Some(&Json::Bool(true)),
        "{stdout}"
    );
}

#[test]
fn serve_survives_malformed_input() {
    let input = "garbage\n{\"program\": \"(define (f x)\", \"inputs\": \"_\"}\n";
    let (ok, stdout, stderr) = ppe_with_stdin(&["serve"], input);
    assert!(ok, "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    for line in &lines {
        let v = Json::parse(line).expect("error responses are still JSON");
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line}");
    }
}

/// Theorem 1 at the service boundary for the two binder-capture programs
/// (`tests/residual_correctness.rs` has them at the library level): on
/// every engine, `"execute"` on the residual returns the source's value.
#[test]
fn serve_execute_agrees_with_the_source_when_unfolding_rebinds_names() {
    let programs = [
        "(define (f x) (let ((y (+ x 1))) (g y 5))) (define (g a n) (let ((y (* a n))) (+ y a)))",
        "(define (f x) (g (+ x 1) 5)) (define (g a n) (let ((tmp_1 (* a n))) (+ tmp_1 a)))",
    ];
    let engines = ["online", "simple", "offline"];
    let mut input = String::new();
    for src in programs {
        for engine in engines {
            let execute = Json::Arr(vec![Json::str("2")]);
            input += &request_line(
                src,
                "_",
                &[("engine", Json::str(engine)), ("execute", execute)],
            );
            input.push('\n');
        }
    }
    input += "{\"cmd\": \"shutdown\"}\n";
    let (ok, stdout, stderr) = ppe_with_stdin(&["serve", "--jobs", "1"], &input);
    assert!(ok, "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), programs.len() * engines.len() + 1, "{stdout}");
    for line in &lines[..programs.len() * engines.len()] {
        let v = Json::parse(line).expect("response is JSON");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{line}");
        let exec = v.get("exec").expect("execute outcome");
        assert_eq!(
            exec.get("value").and_then(Json::as_str),
            Some("18"),
            "{line}"
        );
    }
}

/// Theorem 1 at the service boundary for float constants whose residual
/// text used to read back wrong: integral floats from 1e15 up printed as
/// integers, and a folded ∞ printed as the identifier `inf`. `"execute"` on
/// the residual must print what `ppe run` prints for the source.
#[test]
fn serve_execute_agrees_with_run_on_large_and_infinite_floats() {
    let cases = [
        ("(define (f x) (+ x 1e15))", "1.000000000000002e15"),
        ("(define (f x) (+ x 1e20))", "1e20"),
        ("(define (f x) (+ x (* 1e308 10.0)))", "1e999"),
    ];
    let mut input = String::new();
    for (src, _) in cases {
        let execute = Json::Arr(vec![Json::str("2.0")]);
        input += &request_line(src, "_", &[("execute", execute)]);
        input.push('\n');
    }
    input += "{\"cmd\": \"shutdown\"}\n";
    let (ok, stdout, stderr) = ppe_with_stdin(&["serve", "--jobs", "1"], &input);
    assert!(ok, "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), cases.len() + 1, "{stdout}");
    let dir = std::env::temp_dir().join(format!("ppe-server-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (i, ((src, expected), line)) in cases.iter().zip(&lines).enumerate() {
        let path = dir.join(format!("float-{i}.sexp"));
        std::fs::write(&path, src).expect("write program");
        let run = Command::new(env!("CARGO_BIN_EXE_ppe"))
            .arg("run")
            .arg(&path)
            .arg("2.0")
            .output()
            .expect("ppe binary runs");
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let source_value = String::from_utf8_lossy(&run.stdout).trim().to_owned();
        assert_eq!(source_value, *expected, "ppe run on {src}");
        let v = Json::parse(line).expect("response is JSON");
        let exec = v.get("exec").expect("execute outcome");
        assert_eq!(
            exec.get("value").and_then(Json::as_str),
            Some(source_value.as_str()),
            "{line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(* x 0.0)` and `(* x -0.0)` are different programs. Sent one after the
/// other on one session, the second must get its own residual and value, as
/// it does when sent alone, not the first one's from the cache.
#[test]
fn serve_keeps_the_sign_of_a_zero_apart() {
    let cases = [
        ("(define (f x) (* x 0.0))", "0.0"),
        ("(define (f x) (* x -0.0))", "-0.0"),
    ];
    let mut input = String::new();
    for (src, _) in cases {
        let execute = Json::Arr(vec![Json::str("2.0")]);
        input += &request_line(src, "_", &[("execute", execute)]);
        input.push('\n');
    }
    input += "{\"cmd\": \"shutdown\"}\n";
    let (ok, stdout, stderr) = ppe_with_stdin(&["serve", "--jobs", "1"], &input);
    assert!(ok, "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), cases.len() + 1, "{stdout}");
    for ((src, value), line) in cases.iter().zip(&lines) {
        let v = Json::parse(line).expect("response is JSON");
        assert_eq!(
            v.get("cache").and_then(Json::as_str),
            Some("miss"),
            "{line}"
        );
        assert_eq!(
            v.get("residual").and_then(Json::as_str),
            Some(format!("{src}\n").as_str()),
            "{line}"
        );
        let exec = v.get("exec").expect("execute outcome");
        assert_eq!(
            exec.get("value").and_then(Json::as_str),
            Some(*value),
            "{line}"
        );
    }
}

/// `ppe run` on `src` at `inputs`: what the source answers. The program
/// goes to its own file under the system temp directory, named by `tag`
/// and the process id, and is removed afterwards.
fn run_source(src: &str, inputs: &[&str], tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("ppe-{tag}-{}.sexp", std::process::id()));
    std::fs::write(&path, src).expect("write program");
    let run = Command::new(env!("CARGO_BIN_EXE_ppe"))
        .arg("run")
        .arg(&path)
        .args(inputs)
        .output()
        .expect("ppe binary runs");
    let _ = std::fs::remove_file(&path);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    String::from_utf8_lossy(&run.stdout).trim().to_owned()
}

/// Theorem 1 for two programs whose static results differ only in the sign
/// of a zero. The specializers used to merge the zeros: the memo of
/// constant products handed `(g (* -1.0 0.0))` the product of
/// `(g (* 1.0 0.0))`, so `neg` folded the wrong sign, and the join of the
/// branch values `0.0` and `-0.0` was the constant `0.0`. Each spec engine
/// gets its own session (the residual key leaves the spec engine out), and
/// on every engine the residual must execute to what `ppe run` answers
/// for the source, at every input.
#[test]
fn serve_folds_signed_zeros_as_the_source_computes_them() {
    // Per program: the inputs it is specialized at, and per run the inputs
    // `ppe run` gets on the source with the value it answers.
    type Run = (&'static [&'static str], &'static str);
    let cases: [(&str, &str, &[Run]); 2] = [
        (
            "(define (f x) (+ (g (* 1.0 0.0)) (g (* -1.0 0.0)))) (define (g y) (neg y))",
            "5",
            &[(&["5"], "0.0")],
        ),
        (
            "(define (f c) (neg (if c 0.0 -0.0)))",
            "_",
            &[(&["#t"], "-0.0"), (&["#f"], "0.0")],
        ),
    ];
    for (i, (src, _, runs)) in cases.iter().enumerate() {
        for (inputs, value) in runs.iter() {
            assert_eq!(run_source(src, inputs, &format!("zero-{i}")), *value);
        }
    }
    for spec_engine in ["vm", "ast"] {
        let mut input = String::new();
        let mut expected = Vec::new();
        for (src, spec_inputs, runs) in cases {
            for engine in ["online", "simple", "offline"] {
                for (inputs, value) in runs {
                    // The residual takes only the inputs left dynamic.
                    let dynamic: Vec<Json> = if spec_inputs == "_" {
                        inputs.iter().map(|x| Json::str(*x)).collect()
                    } else {
                        Vec::new()
                    };
                    input += &request_line(
                        src,
                        spec_inputs,
                        &[
                            ("engine", Json::str(engine)),
                            ("spec_engine", Json::str(spec_engine)),
                            ("execute", Json::Arr(dynamic)),
                        ],
                    );
                    input.push('\n');
                    expected.push((src, engine, *value));
                }
            }
        }
        input += "{\"cmd\": \"shutdown\"}\n";
        let (ok, stdout, stderr) = ppe_with_stdin(&["serve", "--jobs", "1"], &input);
        assert!(ok, "{stderr}");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), expected.len() + 1, "{stdout}");
        for ((src, engine, value), line) in expected.iter().zip(&lines) {
            let v = Json::parse(line).expect("response is JSON");
            let exec = v.get("exec").expect("execute outcome");
            assert_eq!(
                exec.get("value").and_then(Json::as_str),
                Some(*value),
                "{spec_engine}/{engine} on {src}: {line}"
            );
        }
    }
}
