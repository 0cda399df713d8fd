//! Golden snapshots of the cache-key scheme.
//!
//! The disk persistence tier (`persist.rs`) stores residuals under the
//! exact `residual_key` values computed here, so *any* change to the key
//! derivation — a reordered field, a new config knob, a different hash
//! tag — silently invalidates every `.ppe` file ever written, turning
//! warm caches cold (or worse: colliding with stale entries if a field
//! stops being hashed). `analysis_key` addresses only the per-session
//! in-memory analysis cache, so a change to it needs a new tag but no new
//! `FORMAT_VERSION`. These tests pin the keys for a small fixed corpus
//! end-to-end: program text → parse → dependency graph → closure
//! fingerprint → products → 128-bit key. If one fails, the key scheme
//! drifted; see the assertion message for the required follow-up.

use std::sync::Arc;
use std::time::Duration;

use ppe_analyze::depgraph::DepGraph;
use ppe_core::ProductVal;
use ppe_lang::{parse_program, Symbol};
use ppe_online::{ExhaustionPolicy, PeConfig};
use ppe_server::spec::{build_facets, parse_input};
use ppe_server::{analysis_key, residual_key, CacheKey, Engine};

const POWER: &str = "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))";
const SUM_TO: &str = "(define (sum-to n) (if (= n 0) 0 (+ n (sum-to (- n 1)))))";

/// The one place a snapshot failure is explained: a drifted key is not a
/// broken test to update casually — it is an on-disk compatibility break.
fn assert_key(label: &str, actual: CacheKey, expected: &str) {
    if std::env::var_os("PPE_DUMP_KEYS").is_some() {
        println!("SNAPSHOT {label} => {actual}");
        return;
    }
    assert_eq!(
        format!("{actual}"),
        expected,
        "\ncache-key snapshot `{label}` drifted.\n\
         \n\
         The key derivation (crates/server/src/key.rs) no longer produces\n\
         the pinned value. Every entry the disk persistence tier has ever\n\
         written is addressed by these keys, so this change silently\n\
         invalidates all persisted caches — old entries become unreachable\n\
         and, if a component was *removed* from the hash, distinct requests\n\
         can now collide on stale entries.\n\
         \n\
         If the change is intentional you MUST:\n\
         1. bump `persist::FORMAT_VERSION` so old stores are rejected as\n\
            wrong-version instead of half-matching,\n\
         2. bump the hash tags (\"ppe-residual-v2\" / \"ppe-analysis-v3\")\n\
            to the next version,\n\
         3. update DESIGN.md §15 (on-disk format) and §17 (dependency\n\
            fingerprints), and these snapshots.\n"
    );
}

fn program_fingerprint(src: &str) -> u64 {
    Arc::new(parse_program(src).expect("corpus program parses")).fingerprint()
}

/// The entry's transitive-closure fingerprint — the program component of
/// every v2 cache key.
fn closure_fingerprint(src: &str, entry: &str) -> u64 {
    let program = parse_program(src).expect("corpus program parses");
    DepGraph::of_program(&program)
        .closure_fingerprint(Symbol::intern(entry))
        .expect("entry is defined")
}

fn products(specs: &[&str], facets: &[&str]) -> (Vec<String>, Vec<ProductVal>) {
    let names: Vec<String> = facets.iter().map(|s| s.to_string()).collect();
    let set = build_facets(&names).expect("corpus facets build");
    let ps = specs
        .iter()
        .map(|s| {
            parse_input(s)
                .expect("corpus input parses")
                .to_product(&set)
                .expect("corpus input lowers")
        })
        .collect();
    (names, ps)
}

#[test]
fn program_fingerprints_are_stable() {
    // The fingerprint feeds every key below; pin it separately so a
    // fingerprint change is distinguishable from a key-derivation change.
    assert_key(
        "fingerprint(power)",
        CacheKey(u128::from(program_fingerprint(POWER))),
        "0000000000000000623643504dccab9f",
    );
    assert_key(
        "fingerprint(sum-to)",
        CacheKey(u128::from(program_fingerprint(SUM_TO))),
        "0000000000000000bc3f08cd5bd8c750",
    );
}

#[test]
fn closure_fingerprints_are_stable() {
    // The closure fingerprint replaced the whole-program fingerprint as
    // the program component of every key (v2); pin it separately so a
    // depgraph change is distinguishable from a key-derivation change.
    assert_key(
        "closure(power)",
        CacheKey(u128::from(closure_fingerprint(POWER, "power"))),
        "00000000000000000f9937a386432ae1",
    );
    assert_key(
        "closure(sum-to)",
        CacheKey(u128::from(closure_fingerprint(SUM_TO, "sum-to"))),
        "00000000000000008d5b8ca8b8bc559d",
    );
    // The incremental-soundness contract, pinned at the key level:
    // appending a definition the entry cannot reach changes the
    // whole-program fingerprint but not the closure fingerprint.
    let padded = format!("{POWER}\n(define (unrelated q) (+ q 41))");
    assert_ne!(program_fingerprint(POWER), program_fingerprint(&padded));
    assert_eq!(
        closure_fingerprint(POWER, "power"),
        closure_fingerprint(&padded, "power"),
        "unreachable definitions must not perturb the key"
    );
}

#[test]
fn residual_keys_are_stable() {
    let fp = closure_fingerprint(POWER, "power");
    let config = PeConfig::default();

    let (names, ps) = products(&["_", "3"], &[]);
    assert_key(
        "power/online/no-facets",
        residual_key(fp, "power", Engine::Online, &names, &ps, false, &config),
        "d8b70e61f1a7318ac2331e2a0fef130e",
    );
    assert_key(
        "power/online/no-facets/optimize",
        residual_key(fp, "power", Engine::Online, &names, &ps, true, &config),
        "1c303cce89a73190037471aad37306ef",
    );
    assert_key(
        "power/simple/no-facets",
        residual_key(fp, "power", Engine::Simple, &names, &ps, false, &config),
        "3c8e33460f54d763353308fd69938ebf",
    );

    let (names, ps) = products(&["_:sign=pos", "3"], &["sign"]);
    assert_key(
        "power/online/sign-facet",
        residual_key(fp, "power", Engine::Online, &names, &ps, false, &config),
        "a563e1a5388e0ee23883ca9fff535494",
    );
    assert_key(
        "power/offline/sign-facet",
        residual_key(fp, "power", Engine::Offline, &names, &ps, false, &config),
        "9f9e9232d93e4f71afedc3d095c56f46",
    );

    let fp2 = closure_fingerprint(SUM_TO, "sum-to");
    let (names, ps) = products(&["5"], &[]);
    assert_key(
        "sum-to/online/static-input",
        residual_key(fp2, "sum-to", Engine::Online, &names, &ps, false, &config),
        "cd6d14794842de4ec6bf90a73b3573f2",
    );
}

/// `0.0` and `-0.0` make programs with different residuals
/// (`(* 2.0 -0.0)` is `-0.0`), so they must not share a key. The
/// `0.0` program keeps the key it had before float bits were hashed as
/// written.
#[test]
fn the_sign_of_a_zero_reaches_the_key() {
    const POSITIVE: &str = "(define (f x) (* x 0.0))";
    const NEGATIVE: &str = "(define (f x) (* x -0.0))";
    let config = PeConfig::default();
    let (names, ps) = products(&["_"], &[]);
    let key = |src: &str| {
        let fp = closure_fingerprint(src, "f");
        residual_key(fp, "f", Engine::Online, &names, &ps, false, &config)
    };
    assert_key(
        "f/online/zero",
        key(POSITIVE),
        "ea6c474038c9a096f37f9770ef243e05",
    );
    assert_key(
        "f/online/negative-zero",
        key(NEGATIVE),
        "a7e4f9eb3ff3151e377d5898b0739b99",
    );
    assert_ne!(program_fingerprint(POSITIVE), program_fingerprint(NEGATIVE));
    assert_ne!(
        closure_fingerprint(POSITIVE, "f"),
        closure_fingerprint(NEGATIVE, "f")
    );
}

#[test]
fn analysis_keys_are_stable() {
    let fp = closure_fingerprint(POWER, "power");
    let config = PeConfig::default();
    let (names, ps) = products(&["_:sign=pos", "3"], &["sign"]);
    // Re-pinned when the key became the facet signature
    // (`ppe-analysis-v3`): abstract products, deadline and policy only.
    assert_key(
        "power/analysis/sign-facet",
        analysis_key(fp, "power", &names, &ps, &config),
        "29c3e5173b93142d74eb252db0cb5eb2",
    );
    // The analysis key ignores the optimizer flag by construction; the
    // residual key for the same request must not alias it (different tag).
    let residual = residual_key(fp, "power", Engine::Offline, &names, &ps, false, &config);
    assert_ne!(
        format!("{residual}"),
        format!("{}", analysis_key(fp, "power", &names, &ps, &config)),
        "residual and analysis keys live in separate hash domains"
    );
}

#[test]
fn every_config_knob_reaches_the_key() {
    // Each knob flips the key; pin the variants so adding a knob without
    // hashing it (or silently dropping one) fails loudly.
    let fp = closure_fingerprint(POWER, "power");
    let (names, ps) = products(&["_", "3"], &[]);
    let key = |config: &PeConfig| {
        format!(
            "{}",
            residual_key(fp, "power", Engine::Online, &names, &ps, false, config)
        )
    };

    let base = PeConfig::default();
    let cases: &[(&str, PeConfig, &str)] = &[
        (
            "fuel=1",
            PeConfig {
                fuel: 1,
                ..base.clone()
            },
            "314742962dc2d7d735b584871e352256",
        ),
        (
            "max_unfold_depth=2",
            PeConfig {
                max_unfold_depth: 2,
                ..base.clone()
            },
            "0c1222ffacc0551ebc83be53341576a0",
        ),
        (
            "max_specializations=7",
            PeConfig {
                max_specializations: 7,
                ..base.clone()
            },
            "4a44c6f5edf648fe0f89c7065ad26f29",
        ),
        (
            "max_residual_size=9",
            PeConfig {
                max_residual_size: 9,
                ..base.clone()
            },
            "a2b320a09c391cd603d159da4c7c72d7",
        ),
        (
            "max_recursion_depth=3",
            PeConfig {
                max_recursion_depth: 3,
                ..base.clone()
            },
            "03ad504d971cb814d9cc3214d8bd110d",
        ),
        (
            "deadline=250ms",
            PeConfig {
                deadline: Some(Duration::from_millis(250)),
                ..base.clone()
            },
            "4efb0bbbed2ec142f628a979ea2c6275",
        ),
        (
            "on_exhaustion=degrade",
            PeConfig {
                on_exhaustion: ExhaustionPolicy::Degrade,
                ..base.clone()
            },
            "11bfe1efaab7c2ba85df2eb65689fecf",
        ),
    ];

    let base_key = key(&base);
    for (label, config, expected) in cases {
        let actual = key(config);
        assert_ne!(actual, base_key, "knob `{label}` must separate keys");
        assert_key(
            &format!("power/online/{label}"),
            residual_key(fp, "power", Engine::Online, &names, &ps, false, config),
            expected,
        );
    }
}
