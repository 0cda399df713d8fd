//! Golden-diagnostic tests for `ppe check` and `ppe verify-facets`:
//! drive the real binary over the shipped example corpora and pin the
//! exact diagnostic codes, messages, exit statuses, and the JSON shape.

use std::path::{Path, PathBuf};
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

fn corpus(dir: &str) -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(dir);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", root.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sexp"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "empty corpus at {}", root.display());
    files
}

/// The `; expect: CODE` header every ill-formed example carries.
fn expected_code(path: &Path) -> String {
    let src = std::fs::read_to_string(path).unwrap();
    let first = src.lines().next().unwrap_or_default();
    first
        .strip_prefix("; expect: ")
        .unwrap_or_else(|| panic!("{}: missing `; expect: CODE` header", path.display()))
        .trim()
        .to_owned()
}

#[test]
fn clean_corpus_is_diagnostic_free() {
    for path in corpus("programs") {
        let (ok, stdout, stderr) = ppe(&["check", path.to_str().unwrap()]);
        assert!(ok, "{}: {stderr}", path.display());
        assert!(
            stdout.contains("0 error(s), 0 warning(s)"),
            "{}: {stdout}",
            path.display()
        );
    }
}

#[test]
fn ill_formed_corpus_produces_its_expected_codes() {
    for path in corpus("ill-formed") {
        let code = expected_code(&path);
        let (ok, stdout, stderr) = ppe(&["check", path.to_str().unwrap()]);
        let is_error = code.starts_with('E');
        // incongruent-annotation.sexp is well-formed source; its E0101
        // only appears once an annotation is corrupted (covered below).
        if path
            .file_stem()
            .is_some_and(|s| s == "incongruent-annotation")
        {
            assert!(ok, "{}: {stderr}", path.display());
            continue;
        }
        assert_eq!(!ok, is_error, "{}: {stdout}{stderr}", path.display());
        assert!(
            stdout.contains(&format!("[{code}]")),
            "{}: expected {code} in:\n{stdout}",
            path.display()
        );
    }
}

#[test]
fn unbound_var_message_is_exact() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/ill-formed/unbound-var.sexp");
    let (ok, stdout, _) = ppe(&["check", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(
        stdout.contains("error[E0004] scale:body.arg1: unbound variable `y`"),
        "{stdout}"
    );
}

/// Each pass threads one path buffer through a body, so checking stays
/// linear in nesting depth: a 60 000-deep body (a ~300 KB line, well under
/// the server's 1 MiB cap) checks in megabytes, and its one finding still
/// carries its full path.
#[test]
fn deeply_nested_body_checks_with_its_full_path() {
    const DEPTH: usize = 60_000;
    let src = format!(
        "(define (f x) {}y{})",
        "(+ x ".repeat(DEPTH),
        ")".repeat(DEPTH)
    );
    let report = std::thread::Builder::new()
        .stack_size(ppe::server::WORKER_STACK_BYTES)
        .spawn(move || ppe::analyze::check_source(&src))
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(report.diagnostics.len(), 1, "one unbound `y`, nothing else");
    let d = &report.diagnostics[0];
    assert_eq!(d.code, "E0004");
    assert_eq!(d.path, format!("body{}", ".arg1".repeat(DEPTH)));
}

#[test]
fn bad_arity_message_is_exact() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/ill-formed/bad-arity.sexp");
    let (ok, stdout, _) = ppe(&["check", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(
        stdout.contains("`twice` expects 1 arguments but is called with 2"),
        "{stdout}"
    );
}

#[test]
fn json_output_is_deterministic_and_machine_readable() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/ill-formed/unbound-var.sexp");
    let (ok1, run1, _) = ppe(&["check", path.to_str().unwrap(), "--format", "json"]);
    let (ok2, run2, _) = ppe(&["check", path.to_str().unwrap(), "--format", "json"]);
    assert!(!ok1 && !ok2);
    assert_eq!(run1, run2, "two runs must be byte-identical");
    let v = ppe::server::Json::parse(run1.trim()).expect("output parses as JSON");
    assert_eq!(v.get("errors").and_then(ppe::server::Json::as_u64), Some(1));
    assert_eq!(
        v.get("warnings").and_then(ppe::server::Json::as_u64),
        Some(0)
    );
    let diags = match v.get("diagnostics") {
        Some(ppe::server::Json::Arr(items)) => items,
        other => panic!("diagnostics should be an array, got {other:?}"),
    };
    assert_eq!(
        diags[0].get("code").and_then(ppe::server::Json::as_str),
        Some("E0004")
    );
}

#[test]
fn static_recursion_with_inputs_warns_w0002_but_passes() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs/power.sexp");
    // Without inputs: clean. With a static exponent: the BTA-aware
    // unfold-safety pass warns, but warnings don't fail the check.
    let (ok, stdout, _) = ppe(&["check", path.to_str().unwrap()]);
    assert!(ok);
    assert!(!stdout.contains("W0002"), "{stdout}");
    let (ok, stdout, stderr) = ppe(&["check", path.to_str().unwrap(), "_", "5"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("warning[W0002]"), "{stdout}");
    assert!(stdout.contains("purely static"), "{stdout}");
}

#[test]
fn rejected_input_specs_are_e0008() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs/power.sexp");
    // Wrong input count.
    let (ok, stdout, _) = ppe(&["check", path.to_str().unwrap(), "_"]);
    assert!(!ok);
    assert!(stdout.contains("[E0008]"), "{stdout}");
    assert!(
        stdout.contains("takes 2 inputs but 1 were given"),
        "{stdout}"
    );
    // Malformed refinement syntax.
    let (ok, stdout, _) = ppe(&["check", path.to_str().unwrap(), "_:sign=sideways", "5"]);
    assert!(!ok);
    assert!(stdout.contains("[E0008]"), "{stdout}");
}

#[test]
fn certificate_of_shipped_program_round_trips_and_rejects_corruption() {
    use ppe::analyze::check_certificate;
    use ppe::core::FacetSet;
    use ppe::offline::{analyze, AbstractInput, AnnKind, PrimAction};

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/ill-formed/incongruent-annotation.sexp");
    let src = std::fs::read_to_string(path).unwrap();
    let program = ppe::lang::parse_program(&src).unwrap();
    let mut analysis = analyze(
        &program,
        &FacetSet::new(),
        &[AbstractInput::dynamic(), AbstractInput::static_()],
    )
    .unwrap();
    // Honest analysis: zero certificate diagnostics.
    assert!(check_certificate(&analysis).is_empty());
    // Corrupt one annotation: claim the dynamic `(* x ...)` reduces.
    let def = analysis
        .annotated
        .get_mut(&ppe::lang::Symbol::intern("power"))
        .unwrap();
    let AnnKind::If { else_branch, .. } = &mut def.body.kind else {
        panic!("power's body should be an if");
    };
    let AnnKind::Prim { action, .. } = &mut else_branch.kind else {
        panic!("else branch should be the `*` primitive");
    };
    *action = PrimAction::Reduce { source: 0 };
    let diags = check_certificate(&analysis);
    assert!(
        diags.iter().any(|d| d.code == "E0101"),
        "corrupted annotation must be rejected: {diags:?}"
    );
}

#[test]
fn verify_facets_passes_over_all_shipped_facets() {
    let (ok, stdout, stderr) = ppe(&["verify-facets"]);
    assert!(ok, "{stderr}");
    for facet in [
        "sign",
        "parity",
        "range",
        "size",
        "contents",
        "const-set",
        "type",
    ] {
        assert!(stdout.contains(&format!("facet `{facet}`: ok")), "{stdout}");
    }
    assert!(stdout.contains("all 7 facet(s)"), "{stdout}");
    // Selecting a subset works too.
    let (ok, stdout, _) = ppe(&["verify-facets", "--facets", "sign,size"]);
    assert!(ok);
    assert!(stdout.contains("all 2 facet(s)"), "{stdout}");
}
