//! The incremental re-specialization contract, end to end.
//!
//! Residual cache keys are built from the entry point's *closure
//! fingerprint* (`ppe_analyze::depgraph`), not the whole-program
//! fingerprint, so an edit to a definition the entry cannot reach must
//! keep every cached residual addressable — in the in-memory tier of a
//! live service *and* in the disk tier across a restart — while an edit
//! to a reachable definition must miss and recompute. These tests drive
//! both properties through the real `SpecializeService`, checking the
//! cache dispositions, the `depgraph_*` metrics, and (the part that makes
//! the hits sound) that the residual served from cache is byte-identical
//! to a cold recompute of the edited program.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ppe_server::{
    CacheDisposition, EngineContext, ExecEngine, ExecuteRequest, PersistConfig, PersistMode,
    ServiceConfig, SpecializeRequest, SpecializeService,
};

/// `main` reaches `helper`; `orphan` is unreachable from `main`.
const BASE: &str = "(define (main x n) (if (= n 0) 1 (* x (helper x (- n 1)))))\n\
                    (define (helper x n) (if (= n 0) 1 (* x (main x (- n 1)))))\n\
                    (define (orphan q) (+ q 1))";

/// `BASE` with only the unreachable `orphan` edited.
const DEAD_EDIT: &str = "(define (main x n) (if (= n 0) 1 (* x (helper x (- n 1)))))\n\
                         (define (helper x n) (if (= n 0) 1 (* x (main x (- n 1)))))\n\
                         (define (orphan q) (+ q 2))";

/// `BASE` with the reachable `helper` edited (`* x` became `* 2`).
const LIVE_EDIT: &str = "(define (main x n) (if (= n 0) 1 (* x (helper x (- n 1)))))\n\
                         (define (helper x n) (if (= n 0) 1 (* 2 (main x (- n 1)))))\n\
                         (define (orphan q) (+ q 1))";

/// A private scratch directory, removed on drop even when a test fails.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ppe-incr-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn request(program: &str) -> SpecializeRequest {
    SpecializeRequest::new(program, vec!["_".into(), "3".into()])
}

fn disk_service(dir: &Path) -> SpecializeService {
    SpecializeService::new(ServiceConfig {
        persist: Some(PersistConfig {
            mode: PersistMode::ReadWrite,
            ..PersistConfig::new(dir)
        }),
        ..ServiceConfig::default()
    })
}

fn answer(service: &SpecializeService, program: &str) -> (String, CacheDisposition) {
    let mut ctx = EngineContext::new();
    let r = service.handle(&request(program), &mut ctx);
    let out = r.outcome.expect("request succeeds");
    (out.residual, r.disposition)
}

#[test]
fn unreachable_edit_hits_memory_and_preserves_the_residual() {
    let service = SpecializeService::new(ServiceConfig::default());
    let (baseline, first) = answer(&service, BASE);
    assert_eq!(first, CacheDisposition::Miss, "cold start must compute");

    let (edited, disposition) = answer(&service, DEAD_EDIT);
    assert_eq!(
        disposition,
        CacheDisposition::Hit,
        "editing a definition `main` cannot reach must keep the in-memory entry live"
    );
    // The hit is only sound if the cached residual is what a cold run of
    // the edited program would produce.
    let cold = SpecializeService::new(ServiceConfig::default());
    let (reference, _) = answer(&cold, DEAD_EDIT);
    assert_eq!(edited, reference, "cached residual must match a cold run");
    assert_eq!(edited, baseline, "the closure did not change");

    let m = service.metrics().snapshot();
    assert_eq!(m.cache_hits, 1);
    assert_eq!(m.cache_misses, 1);
    assert_eq!(m.depgraph_analyses, 2, "each distinct source is analyzed");
    assert_eq!(
        m.depgraph_invalidations, 1,
        "only `orphan` — the edited definition itself — changed closure \
         fingerprint; `main` and `helper` stayed stable"
    );
}

#[test]
fn executing_an_unedited_program_invalidates_nothing() {
    // `execute` reads each residual back through the parse cache. The
    // residual reuses the source's definition names, but it is the
    // service's own output, not an edit of the program.
    let service = SpecializeService::new(ServiceConfig::default());
    let mut ctx = EngineContext::new();
    let mut req = request(BASE);
    req.execute = Some(ExecuteRequest {
        inputs: vec!["2".into()],
        engine: ExecEngine::Vm,
    });
    for _ in 0..3 {
        let r = service.handle(&req, &mut ctx);
        assert_eq!(r.exec.expect("executed").value.as_deref(), Ok("8"));
    }
    let m = service.metrics().snapshot();
    assert_eq!(m.depgraph_invalidations, 0, "nothing was edited");
    assert_eq!(
        m.depgraph_analyses, 2,
        "the source and its residual text, each parsed once"
    );
}

#[test]
fn unreachable_edit_hits_disk_across_a_restart() {
    let scratch = Scratch::new("dead-edit");

    let warm = disk_service(scratch.path());
    let (baseline, first) = answer(&warm, BASE);
    assert_eq!(first, CacheDisposition::Miss);
    assert_eq!(warm.metrics().snapshot().disk_stores, 1);
    drop(warm);

    // A fresh process image: empty memory tier, same cache directory,
    // *edited* program. The closure fingerprint of `main` is unchanged,
    // so the key still addresses the persisted entry.
    let restarted = disk_service(scratch.path());
    let (edited, disposition) = answer(&restarted, DEAD_EDIT);
    assert_eq!(
        disposition,
        CacheDisposition::Disk,
        "the persisted residual must survive an unreachable edit"
    );
    assert_eq!(edited, baseline, "disk entry served byte-identically");
    let m = restarted.metrics().snapshot();
    // (`cache_misses` still counts the memory-tier miss that preceded the
    // disk probe; the `Disk` disposition above is what proves no
    // recompute happened.)
    assert_eq!(m.disk_hits, 1);
    assert_eq!(m.disk_stores, 0, "nothing new was computed or persisted");
}

#[test]
fn reachable_edit_misses_everywhere_and_recomputes() {
    let scratch = Scratch::new("live-edit");

    let warm = disk_service(scratch.path());
    let (baseline, _) = answer(&warm, BASE);

    // Same live service: the edit to `helper` is reachable from `main`,
    // so the memory tier must not serve the old residual.
    let (edited, disposition) = answer(&warm, LIVE_EDIT);
    assert_eq!(
        disposition,
        CacheDisposition::Miss,
        "a reachable edit must invalidate the in-memory entry"
    );
    assert_ne!(edited, baseline, "the recomputed residual differs");
    let m = warm.metrics().snapshot();
    assert_eq!(
        m.depgraph_invalidations, 2,
        "`main` and `helper` both changed closure fingerprints"
    );
    drop(warm);

    // And across a restart the disk tier must not serve it either.
    let restarted = disk_service(scratch.path());
    let (again, disposition) = answer(&restarted, LIVE_EDIT);
    assert_eq!(
        disposition,
        CacheDisposition::Disk,
        "the *edited* program's own persisted entry is the one that hits"
    );
    assert_eq!(again, edited);
}
