//! One facet analysis per facet signature, through the service.
//!
//! The offline engine caches facet analyses per session under the
//! request's facet signature: the entry's closure, the facet set, each
//! input's abstract product, the deadline and the exhaustion policy
//! (Definition 8: one analysis per abstract input serves every concrete
//! static value). These tests drive offline requests over the corpus and
//! the E1/E3/E5 programs through `SpecializeService::handle` on one
//! `EngineContext`, several concrete inputs per signature, and check that
//! a shared analysis specializes byte-identically to a fresh one and that
//! the session analyses exactly once per signature.

mod common;

use common::CORPUS;
use ppe::server::{Engine, EngineContext, ServiceConfig, SpecializeRequest, SpecializeService};
use ppe_bench::{INNER_PRODUCT, SIGN_KERNEL};

/// Requests that share one facet signature: the same program, facets and
/// abstract inputs, with differing concrete static values.
struct Signature {
    src: &'static str,
    facets: &'static [&'static str],
    inputs: Vec<Vec<String>>,
}

fn signature(src: &'static str, facets: &'static [&'static str], inputs: &[&str]) -> Signature {
    Signature {
        src,
        facets,
        inputs: inputs
            .iter()
            .map(|line| line.split_whitespace().map(str::to_owned).collect())
            .collect(),
    }
}

fn corpus(name: &str) -> &'static str {
    CORPUS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, src, _)| *src)
        .expect("corpus program")
}

/// Every group is a distinct signature; inside a group the static values
/// differ but abstract alike.
fn signatures() -> Vec<Signature> {
    vec![
        signature(
            corpus("power"),
            &["sign"],
            &["_:sign=pos 2", "_:sign=pos 3", "_:sign=pos 7"],
        ),
        signature(corpus("power"), &["sign"], &["_ 3", "_ 4"]),
        signature(
            corpus("sum-to"),
            &["sign", "parity"],
            &["_ 2", "_ 4", "_ 10"],
        ),
        signature(corpus("gauss"), &["sign"], &["3 _", "5 _", "8 _"]),
        signature(corpus("abs-scale"), &["sign"], &["_ 2", "_ 9"]),
        signature(
            corpus("abs-scale"),
            &["sign"],
            &["_:sign=neg 2", "_:sign=neg 9"],
        ),
        signature(corpus("fib-ish"), &["sign"], &["5", "6"]),
        signature(corpus("even-odd"), &["parity"], &["4", "8"]),
        signature(corpus("even-odd"), &["parity"], &["3", "9"]),
        // E1/E3: Figure 7's inner product on two vectors of static size.
        signature(
            INNER_PRODUCT,
            &["size"],
            &[
                "_:size=3 _:size=3",
                "_:size=5 _:size=5",
                "_:size=8 _:size=8",
            ],
        ),
        // E5: the sign kernel under growing facet products. Range is its
        // own abstract facet, so each static count is its own signature
        // once range is in the set.
        signature(
            SIGN_KERNEL,
            &["sign"],
            &["_:sign=pos 3", "_:sign=pos 5", "_:sign=pos 7"],
        ),
        signature(
            SIGN_KERNEL,
            &["sign", "parity"],
            &["_:sign=pos 3", "_:sign=pos 5"],
        ),
        signature(SIGN_KERNEL, &["sign", "parity", "range"], &["_:sign=pos 3"]),
        signature(SIGN_KERNEL, &["sign", "parity", "range"], &["_:sign=pos 5"]),
        signature(
            SIGN_KERNEL,
            &["sign", "parity", "range", "size"],
            &["_:sign=neg 4"],
        ),
    ]
}

fn request(sig: &Signature, inputs: &[String], optimize: bool) -> SpecializeRequest {
    let mut req = SpecializeRequest::new(sig.src, inputs.to_vec());
    req.engine = Engine::Offline;
    req.facets = sig.facets.iter().map(|f| f.to_string()).collect();
    req.optimize = optimize;
    req
}

fn residual(
    service: &SpecializeService,
    ctx: &mut EngineContext,
    req: &SpecializeRequest,
) -> String {
    match service.handle(req, ctx).outcome {
        Ok(out) => out.residual,
        Err(msg) => panic!("{} {:?}: {msg}", req.program_src, req.inputs),
    }
}

#[test]
fn shared_analyses_specialize_like_fresh_ones() {
    let sigs = signatures();
    let shared = SpecializeService::new(ServiceConfig::default());
    let mut ctx = EngineContext::new();
    let mut requests = 0;
    for sig in &sigs {
        for inputs in &sig.inputs {
            // The optimizer runs after specialization, so it shares the
            // analysis too.
            for optimize in [false, true] {
                let req = request(sig, inputs, optimize);
                let got = residual(&shared, &mut ctx, &req);
                let fresh = SpecializeService::new(ServiceConfig::default());
                let want = residual(&fresh, &mut EngineContext::new(), &req);
                assert_eq!(got, want, "{} {inputs:?} optimize={optimize}", sig.src);
                requests += 1;
            }
        }
    }
    let s = shared.metrics().snapshot();
    assert_eq!(
        s.analysis_misses,
        sigs.len() as u64,
        "one analysis per signature"
    );
    assert_eq!(s.analysis_hits, requests - sigs.len() as u64);
    assert_eq!(ctx.cached_analyses(), sigs.len());
}

#[test]
fn budgets_analysis_never_reads_share_it() {
    let sig = signature(INNER_PRODUCT, &["size"], &["_:size=4 _:size=4"]);
    let service = SpecializeService::new(ServiceConfig::default());
    let mut ctx = EngineContext::new();
    let base = request(&sig, &sig.inputs[0], false);
    let mut variants = vec![base.clone()];
    let tweaks: [fn(&mut SpecializeRequest); 4] = [
        |r| r.config.fuel = 50_000,
        |r| r.config.max_unfold_depth = 7,
        |r| r.config.max_specializations = 9,
        |r| r.optimize = true,
    ];
    for tweak in tweaks {
        let mut req = base.clone();
        tweak(&mut req);
        variants.push(req);
    }
    for req in &variants {
        residual(&service, &mut ctx, req);
    }
    let s = service.metrics().snapshot();
    assert_eq!(
        s.cache_misses,
        variants.len() as u64,
        "distinct residual keys"
    );
    assert_eq!((s.analysis_misses, s.analysis_hits), (1, 4));

    // What analysis reads does separate signatures.
    let mut apart = Vec::new();
    let mut deadline = base.clone();
    deadline.config.deadline = Some(std::time::Duration::from_secs(60));
    apart.push(deadline);
    let mut degrade = base.clone();
    degrade.config.on_exhaustion = ppe::online::ExhaustionPolicy::Degrade;
    apart.push(degrade);
    let mut facets = base.clone();
    facets.facets = vec!["size".into(), "sign".into()];
    apart.push(facets);
    let mut dynamic = base.clone();
    dynamic.inputs = vec!["_".into(), "_:size=4".into()];
    apart.push(dynamic);
    for req in &apart {
        residual(&service, &mut ctx, req);
    }
    let s = service.metrics().snapshot();
    assert_eq!(s.analysis_misses, 1 + apart.len() as u64);
}
