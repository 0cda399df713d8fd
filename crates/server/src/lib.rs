//! ppe-server: a concurrent specialization service over the PPE engines.
//!
//! The seed crates answer one specialization at a time: parse, specialize,
//! print, exit. This crate turns that into a long-lived service:
//!
//! - [`SpecializeService`] — the shared state: a sharded, content-addressed
//!   [`ResidualCache`] (single-flight deduplication, byte-budgeted LRU
//!   eviction), an optional crash-safe disk [`PersistTier`] beneath it
//!   (warm starts survive restarts; see `persist`), plus lock-free
//!   [`Metrics`].
//! - [`run_batch`] — a batch driver whose fixed pool of big-stack worker
//!   threads share one cursor over the requests; responses come back in
//!   request order.
//! - [`serve()`] — a JSON-lines request/response loop (one line in, one line
//!   out, in order) for driving the service from another process.
//! - [`NetServer`] — the TCP front-end: the same line protocol per
//!   connection, with bounded concurrency, deadline-clamping/load-shedding
//!   admission control ([`RequestGovernor`]), graceful drain, and
//!   `health`/`ready`/Prometheus-`metrics` control commands.
//!
//! The central design constraint is that the engines' abstract values are
//! `Rc`-backed and must stay on one thread. So a [`SpecializeRequest`] is
//! plain data (source text, input-spec strings, a `PeConfig`), each worker
//! re-derives the parsed forms locally, and the things actually worth
//! sharing — parsed programs, finished residuals, metrics — are plain data
//! behind their own synchronization. Cache keys hash symbol *spellings*
//! and canonical product renderings (never interner ids), so every thread
//! and every process agrees on them; see `DESIGN.md` § "Service layer" for
//! the soundness argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod driver;
mod engine;
pub mod json;
pub mod key;
pub mod metrics;
pub mod net;
pub mod persist;
pub mod request;
pub mod serve;
pub mod service;
pub mod spec;

pub use cache::ResidualCache;
pub use driver::{run_batch, BatchOptions, WORKER_STACK_BYTES};
pub use engine::EngineContext;
pub use json::Json;
pub use key::{analysis_key, residual_key, CacheKey};
pub use metrics::{Metrics, MetricsSnapshot, WALL_BUCKETS};
pub use net::{NetOptions, NetServer, NetSummary};
pub use persist::{
    DiskStats, FaultKind, FaultReport, GcReport, PersistConfig, PersistMode, PersistTier,
    StaleGcReport, FORMAT_VERSION,
};
pub use request::{
    CacheDisposition, Engine, ExecEngine, ExecOutcome, ExecuteRequest, RenderedHit,
    SpecializeOutput, SpecializeRequest, SpecializeResponse, MAX_WIRE_RECURSION_DEPTH,
};
pub use serve::{
    handle_session, serve, RequestGovernor, ServeOptions, ServeSummary, SessionOptions,
    MAX_LINE_BYTES,
};
pub use service::{ServiceConfig, SpecializeService};

#[cfg(test)]
mod thread_safety {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_types_cross_threads() {
        assert_send_sync::<ppe_lang::Program>();
        assert_send_sync::<SpecializeRequest>();
        assert_send_sync::<SpecializeResponse>();
        assert_send_sync::<SpecializeService>();
        assert_send_sync::<ResidualCache>();
        assert_send_sync::<Metrics>();
    }
}
