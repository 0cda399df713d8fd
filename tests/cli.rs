//! End-to-end tests of the `ppe` command-line tool, driving the real
//! binary (`CARGO_BIN_EXE_ppe`).

use std::io::Write as _;
use std::process::Command;

fn ppe(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ppe"))
        .args(args)
        .output()
        .expect("ppe binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn write_program(name: &str, src: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ppe-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(src.as_bytes()).unwrap();
    path
}

const IPROD: &str = "(define (iprod a b) (let ((n (vsize a))) (dotprod a b n)))
(define (dotprod a b n)
  (if (= n 0) 0.0
      (+ (* (vref a n) (vref b n)) (dotprod a b (- n 1)))))";

#[test]
fn run_evaluates_programs() {
    let path = write_program("iprod-run.sexp", IPROD);
    let (ok, stdout, stderr) = ppe(&[
        "run",
        path.to_str().unwrap(),
        "vec:1.0,2.0,3.0",
        "vec:4.0,5.0,6.0",
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout.trim(), "32.0");
}

#[test]
fn specialize_produces_figure_8() {
    let path = write_program("iprod-spec.sexp", IPROD);
    let (ok, stdout, stderr) = ppe(&[
        "specialize",
        path.to_str().unwrap(),
        "_:size=3",
        "_:size=3",
        "--facets",
        "size",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("(vref a 3)"), "{stdout}");
    assert!(!stdout.contains("dotprod"), "{stdout}");
    // Stats go to stderr, keeping stdout pipeable.
    assert!(stderr.contains("reductions"), "{stderr}");
}

#[test]
fn specialize_offline_matches_online() {
    let path = write_program("iprod-off.sexp", IPROD);
    let (ok1, online, _) = ppe(&[
        "specialize",
        path.to_str().unwrap(),
        "_:size=2",
        "_:size=2",
        "--facets",
        "size",
    ]);
    let (ok2, offline, _) = ppe(&[
        "specialize",
        path.to_str().unwrap(),
        "_:size=2",
        "_:size=2",
        "--facets",
        "size",
        "--offline",
    ]);
    assert!(ok1 && ok2);
    assert_eq!(online, offline);
}

#[test]
fn analyze_prints_figure_9_rows() {
    let path = write_program("iprod-an.sexp", IPROD);
    let (ok, stdout, stderr) = ppe(&[
        "analyze",
        path.to_str().unwrap(),
        "_:size=3",
        "_:size=3",
        "--facets",
        "size",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("⟨Dyn, s⟩"), "{stdout}");
    assert!(stdout.contains("if-test [static]"), "{stdout}");
    assert!(stdout.contains("signatures:"), "{stdout}");
}

#[test]
fn constraints_and_optimize_flags_work() {
    let src = "(define (f x) (if (< x 0) (if (< x 0) (let ((dead 1)) 10) 20) 30))";
    let path = write_program("flags.sexp", src);
    let (ok, stdout, stderr) = ppe(&[
        "specialize",
        path.to_str().unwrap(),
        "_",
        "--facets",
        "range",
        "--constraints",
        "--optimize",
    ]);
    assert!(ok, "{stderr}");
    // The nested identical test and the dead let are gone.
    assert_eq!(stdout.matches("(if").count(), 1, "{stdout}");
    assert!(!stdout.contains("dead"), "{stdout}");
}

#[test]
fn bad_inputs_produce_helpful_errors() {
    let path = write_program("err.sexp", "(define (f x) x)");
    let (ok, _, stderr) = ppe(&["specialize", path.to_str().unwrap(), "_:sign=sideways"]);
    assert!(!ok);
    assert!(stderr.contains("sign must be pos|neg|zero"), "{stderr}");

    let (ok, _, stderr) = ppe(&["specialize", path.to_str().unwrap(), "_", "_"]);
    assert!(!ok);
    assert!(stderr.contains("expects 1 inputs"), "{stderr}");

    let (ok, _, stderr) = ppe(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");

    let (ok, _, stderr) = ppe(&["run", "/nonexistent/file.sexp"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn parse_errors_carry_positions() {
    let path = write_program("parse-err.sexp", "(define (f x)\n  (+ x)\n)");
    let (ok, _, stderr) = ppe(&["run", path.to_str().unwrap(), "1"]);
    assert!(!ok);
    assert!(stderr.contains("2:"), "position missing: {stderr}");
}

#[test]
fn analyze_polyvariant_prints_variants() {
    let path = write_program(
        "poly.sexp",
        "(define (main a b) (+ (scale a) (scale b)))
         (define (scale x) (* x x))",
    );
    let (ok, stdout, stderr) = ppe(&[
        "analyze",
        path.to_str().unwrap(),
        "_:sign=neg",
        "_:sign=pos",
        "--facets",
        "sign",
        "--polyvariant",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("polyvariant variants:"), "{stdout}");
    assert!(stdout.contains("⟨Dyn, neg⟩"), "{stdout}");
    assert!(stdout.contains("⟨Dyn, pos⟩"), "{stdout}");
}

#[test]
fn type_facet_is_available_from_the_cli() {
    let path = write_program("typed.sexp", "(define (f x) (* (+ x 1) 2))");
    let (ok, stdout, stderr) = ppe(&["analyze", path.to_str().unwrap(), "_", "--facets", "type"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("f:"), "{stdout}");
}

/// A misspelled flag is an error, not a file name, and `batch` reads one
/// requests file.
#[test]
fn batch_rejects_unknown_flags_and_a_second_file() {
    let line = r#"{"program": "(define (f x) x)", "inputs": ["_"]}"#;
    let reqs = write_program("reqs.jsonl", line);
    let extra = write_program("extra.jsonl", line);
    let (reqs, extra) = (reqs.to_str().unwrap(), extra.to_str().unwrap());
    let (ok, _, stderr) = ppe(&["batch", reqs, "--jbos", "4", extra]);
    assert!(!ok, "{stderr}");
    assert!(stderr.contains("unknown option `--jbos`"), "{stderr}");

    let (ok, _, stderr) = ppe(&["batch", reqs, extra]);
    assert!(!ok, "{stderr}");
    assert!(stderr.contains("got a second"), "{stderr}");

    let (ok, stdout, stderr) = ppe(&["batch", reqs, "--jobs=2"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains(";; request 0\n"), "{stdout}");
}
