//! Service metrics: lock-free atomic counters, a fixed-bucket latency
//! histogram, a JSON snapshot, and a Prometheus text exporter.
//!
//! Workers on every thread bump the same [`Metrics`] instance through
//! `&self` (all counters are atomics with relaxed ordering — they are
//! statistics, not synchronization), and the drivers render a
//! [`MetricsSnapshot`] as one JSON object at the end of a batch or on a
//! `{"cmd":"metrics"}` serve request. The TCP front-end additionally
//! exposes the snapshot as Prometheus text
//! ([`MetricsSnapshot::to_prometheus`]) with a stable label taxonomy:
//! cache traffic is `ppe_cache_events_total{tier=…,event=…}`, analysis
//! reuse is `ppe_analysis_cache_total{event=…}`, and request latency is
//! the `ppe_request_duration_us` histogram fed by [`Metrics::observe_wall`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// Latency-histogram bucket count: buckets `0..WALL_BUCKETS-1` hold
/// observations of at most `2^i` microseconds (power-of-two bounds, so
/// bucketing is a `leading_zeros`, never a search); the last bucket is
/// `+Inf`. `2^20` µs ≈ 1.05 s, comfortably past any governed request.
pub const WALL_BUCKETS: usize = 22;

/// The inclusive upper bound of histogram bucket `i`, in microseconds;
/// `None` is the `+Inf` bucket.
pub fn bucket_le(i: usize) -> Option<u64> {
    (i + 1 < WALL_BUCKETS).then(|| 1u64 << i)
}

/// The bucket `micros` lands in: the smallest `i` with `micros <= 2^i`,
/// capped at the `+Inf` bucket.
fn bucket_index(micros: u64) -> usize {
    if micros <= 1 {
        return 0;
    }
    let ceil_log2 = 64 - (micros - 1).leading_zeros() as usize;
    ceil_log2.min(WALL_BUCKETS - 1)
}

/// A fixed-bucket latency histogram with power-of-two microsecond bounds.
///
/// Buckets are plain (non-cumulative) atomic counters; the Prometheus
/// rendering accumulates them into the `le`-cumulative form the format
/// requires.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; WALL_BUCKETS],
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, micros: u64) {
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> [u64; WALL_BUCKETS] {
        let mut out = [0u64; WALL_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }
}

/// The upper bound of the bucket containing quantile `q` of `buckets`
/// (0 when empty). Bucket-quantized: an upper bound on the true
/// quantile, never an interpolation.
pub fn histogram_quantile(buckets: &[u64; WALL_BUCKETS], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return bucket_le(i).unwrap_or(u64::MAX);
        }
    }
    u64::MAX
}

/// Monotonic counters plus a queue-depth gauge for one service instance.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests accepted (including ones that later failed).
    pub requests: AtomicU64,
    /// Requests answered from the residual cache.
    pub cache_hits: AtomicU64,
    /// Requests that ran a specialization engine.
    pub cache_misses: AtomicU64,
    /// Requests that blocked on another request's in-flight computation
    /// (single-flight deduplication).
    pub dedup_coalesced: AtomicU64,
    /// Cache entries evicted under the byte budget.
    pub cache_evictions: AtomicU64,
    /// Residuals too large to cache at all.
    pub cache_rejected: AtomicU64,
    /// Analysis-cache hits (offline engine signature reuse).
    pub analysis_hits: AtomicU64,
    /// Analyses computed (offline engine).
    pub analysis_misses: AtomicU64,
    /// Dependency graphs built: one per parse-cache miss. That includes
    /// the residual text an `execute` reads back through the same cache,
    /// so it counts residual re-parses as well as request programs.
    pub depgraph_analyses: AtomicU64,
    /// Definitions whose closure fingerprint changed relative to the
    /// last request program that defined the same name — i.e. entries the
    /// edit actually invalidated (defs outside the edit's reachable
    /// closure don't count, which is the point of dependency
    /// fingerprints). Residuals read back for `execute` never count.
    pub depgraph_invalidations: AtomicU64,
    /// Requests answered from the disk persistence tier.
    pub disk_hits: AtomicU64,
    /// Disk lookups that found no entry (absent file).
    pub disk_misses: AtomicU64,
    /// Entries durably written to the disk tier.
    pub disk_stores: AtomicU64,
    /// Disk writes that failed or were refused (full disk, oversized).
    pub disk_store_errors: AtomicU64,
    /// Disk entries rejected as corrupt (truncated, bit-flipped, torn,
    /// wrong version, oversized, misnamed) — each fell back to compute.
    pub disk_corrupt: AtomicU64,
    /// Corrupt disk entries successfully moved into `quarantine/`.
    pub disk_quarantined: AtomicU64,
    /// Residual executions requested (the `execute` path), either engine.
    pub executes: AtomicU64,
    /// Residual executions that ended in an evaluation error.
    pub exec_errors: AtomicU64,
    /// Bytecode chunks compiled by the VM for execute requests.
    pub vm_chunks_compiled: AtomicU64,
    /// Execute requests answered from the VM's process-wide chunk cache
    /// (compilation skipped entirely).
    pub vm_chunk_cache_hits: AtomicU64,
    /// Opcodes the VM dispatched across all execute requests.
    pub vm_opcodes_executed: AtomicU64,
    /// Requests that failed with an error.
    pub errors: AtomicU64,
    /// Requests whose responses carried at least one degradation event.
    pub degraded: AtomicU64,
    /// Requests answered under load shedding (the front-end forced
    /// `Degrade` + a tight deadline because the in-flight limit was hit).
    pub shed: AtomicU64,
    /// Connections the TCP front-end accepted over its lifetime.
    pub connections: AtomicU64,
    /// Connections currently open on the TCP front-end (gauge).
    pub connections_active: AtomicU64,
    /// Connections refused because the server was draining.
    pub connections_refused: AtomicU64,
    /// Requests currently executing on the front-end (gauge; the
    /// shed-policy pressure signal).
    pub inflight: AtomicU64,
    /// Requests currently queued or executing (gauge).
    pub queue_depth: AtomicU64,
    /// Total request wall time, microseconds.
    pub wall_micros_total: AtomicU64,
    /// Longest single request, microseconds.
    pub wall_micros_max: AtomicU64,
    /// Per-request wall-time distribution (power-of-two µs buckets).
    pub wall_histogram: Histogram,
}

impl Metrics {
    /// A fresh, zeroed instance.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds one completed request's wall time: the histogram observation
    /// plus the legacy sum/max aggregates (kept so pre-histogram
    /// consumers of the JSON snapshot see an unchanged field set).
    pub fn observe_wall(&self, micros: u64) {
        self.wall_micros_total.fetch_add(micros, Ordering::Relaxed);
        self.wall_micros_max.fetch_max(micros, Ordering::Relaxed);
        self.wall_histogram.observe(micros);
    }

    /// A consistent-enough point-in-time copy (each counter is read
    /// atomically; the set is not a transaction, which is fine for
    /// reporting).
    ///
    /// The `spec_vm_*` fields are read from the VM's process-wide
    /// counters ([`ppe_vm::vm_stats`]) rather than this instance. The
    /// caches they describe — the shared chunk cache and the per-thread
    /// `(chunk, args)` result memo of the worker threads — are not owned
    /// by one service, so a per-service split would misattribute hits
    /// that one service earned from another's work.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let vm = ppe_vm::vm_stats();
        MetricsSnapshot {
            spec_vm_evals: vm.spec_vm_evals,
            spec_vm_chunk_hits: vm.spec_vm_chunk_hits,
            spec_vm_chunk_misses: vm.spec_vm_chunk_misses,
            requests: r(&self.requests),
            cache_hits: r(&self.cache_hits),
            cache_misses: r(&self.cache_misses),
            dedup_coalesced: r(&self.dedup_coalesced),
            cache_evictions: r(&self.cache_evictions),
            cache_rejected: r(&self.cache_rejected),
            analysis_hits: r(&self.analysis_hits),
            analysis_misses: r(&self.analysis_misses),
            depgraph_analyses: r(&self.depgraph_analyses),
            depgraph_invalidations: r(&self.depgraph_invalidations),
            disk_hits: r(&self.disk_hits),
            disk_misses: r(&self.disk_misses),
            disk_stores: r(&self.disk_stores),
            disk_store_errors: r(&self.disk_store_errors),
            disk_corrupt: r(&self.disk_corrupt),
            disk_quarantined: r(&self.disk_quarantined),
            executes: r(&self.executes),
            exec_errors: r(&self.exec_errors),
            vm_chunks_compiled: r(&self.vm_chunks_compiled),
            vm_chunk_cache_hits: r(&self.vm_chunk_cache_hits),
            vm_opcodes_executed: r(&self.vm_opcodes_executed),
            errors: r(&self.errors),
            degraded: r(&self.degraded),
            shed: r(&self.shed),
            connections: r(&self.connections),
            connections_active: r(&self.connections_active),
            connections_refused: r(&self.connections_refused),
            inflight: r(&self.inflight),
            queue_depth: r(&self.queue_depth),
            wall_micros_total: r(&self.wall_micros_total),
            wall_micros_max: r(&self.wall_micros_max),
            wall_histogram: self.wall_histogram.snapshot(),
        }
    }
}

/// A point-in-time copy of [`Metrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror Metrics, documented there
pub struct MetricsSnapshot {
    pub requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub dedup_coalesced: u64,
    pub cache_evictions: u64,
    pub cache_rejected: u64,
    pub analysis_hits: u64,
    pub analysis_misses: u64,
    pub depgraph_analyses: u64,
    pub depgraph_invalidations: u64,
    pub disk_hits: u64,
    pub disk_misses: u64,
    pub disk_stores: u64,
    pub disk_store_errors: u64,
    pub disk_corrupt: u64,
    pub disk_quarantined: u64,
    pub executes: u64,
    pub exec_errors: u64,
    pub vm_chunks_compiled: u64,
    pub vm_chunk_cache_hits: u64,
    pub vm_opcodes_executed: u64,
    pub spec_vm_evals: u64,
    pub spec_vm_chunk_hits: u64,
    pub spec_vm_chunk_misses: u64,
    pub errors: u64,
    pub degraded: u64,
    pub shed: u64,
    pub connections: u64,
    pub connections_active: u64,
    pub connections_refused: u64,
    pub inflight: u64,
    pub queue_depth: u64,
    pub wall_micros_total: u64,
    pub wall_micros_max: u64,
    pub wall_histogram: [u64; WALL_BUCKETS],
}

impl MetricsSnapshot {
    /// Total histogram observations (the histogram's `_count`).
    pub fn wall_observations(&self) -> u64 {
        self.wall_histogram.iter().sum()
    }

    /// A bucket-quantized wall-time quantile in microseconds, clamped to
    /// the observed maximum (the bucket upper bound can overshoot the
    /// true quantile; the max never undershoots it).
    pub fn wall_quantile_us(&self, q: f64) -> u64 {
        histogram_quantile(&self.wall_histogram, q).min(self.wall_micros_max)
    }

    /// Renders the snapshot as one JSON object.
    ///
    /// Every pre-histogram field is preserved byte-for-byte (the shape is
    /// golden-snapshotted); the histogram rides along as `wall_us_histogram`
    /// plus quantized `wall_us_p50`/`wall_us_p99` convenience quantiles.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("requests", Json::num(self.requests)),
            ("cache_hits", Json::num(self.cache_hits)),
            ("cache_misses", Json::num(self.cache_misses)),
            ("dedup_coalesced", Json::num(self.dedup_coalesced)),
            ("cache_evictions", Json::num(self.cache_evictions)),
            ("cache_rejected", Json::num(self.cache_rejected)),
            ("analysis_hits", Json::num(self.analysis_hits)),
            ("analysis_misses", Json::num(self.analysis_misses)),
            ("depgraph_analyses", Json::num(self.depgraph_analyses)),
            (
                "depgraph_invalidations",
                Json::num(self.depgraph_invalidations),
            ),
            ("disk_hits", Json::num(self.disk_hits)),
            ("disk_misses", Json::num(self.disk_misses)),
            ("disk_stores", Json::num(self.disk_stores)),
            ("disk_store_errors", Json::num(self.disk_store_errors)),
            ("disk_corrupt", Json::num(self.disk_corrupt)),
            ("disk_quarantined", Json::num(self.disk_quarantined)),
            ("executes", Json::num(self.executes)),
            ("exec_errors", Json::num(self.exec_errors)),
            ("vm_chunks_compiled", Json::num(self.vm_chunks_compiled)),
            ("vm_chunk_cache_hits", Json::num(self.vm_chunk_cache_hits)),
            ("vm_opcodes_executed", Json::num(self.vm_opcodes_executed)),
            ("spec_vm_evals", Json::num(self.spec_vm_evals)),
            ("spec_vm_chunk_hits", Json::num(self.spec_vm_chunk_hits)),
            ("spec_vm_chunk_misses", Json::num(self.spec_vm_chunk_misses)),
            ("errors", Json::num(self.errors)),
            ("degraded", Json::num(self.degraded)),
            ("shed", Json::num(self.shed)),
            ("connections", Json::num(self.connections)),
            ("connections_active", Json::num(self.connections_active)),
            ("connections_refused", Json::num(self.connections_refused)),
            ("inflight", Json::num(self.inflight)),
            ("queue_depth", Json::num(self.queue_depth)),
            ("wall_micros_total", Json::num(self.wall_micros_total)),
            ("wall_micros_max", Json::num(self.wall_micros_max)),
            ("wall_us_p50", Json::num(self.wall_quantile_us(0.50))),
            ("wall_us_p99", Json::num(self.wall_quantile_us(0.99))),
            (
                "wall_us_histogram",
                Json::Arr(self.wall_histogram.iter().map(|&n| Json::num(n)).collect()),
            ),
        ])
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// The output is deterministic: metric families are emitted in
    /// alphabetical order, each with its `# HELP`/`# TYPE` header, and
    /// label sets within a family are in a fixed declaration order. The
    /// label taxonomy is stable: residual-cache traffic is
    /// `ppe_cache_events_total{tier="memory"|"disk",event=…}`, analysis
    /// reuse is `ppe_analysis_cache_total{event=…}`, and request latency
    /// is the `ppe_request_duration_us` histogram (cumulative `le`
    /// buckets in microseconds).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let mut family = |name: &str, kind: &str, help: &str, series: &[(&str, u64)]| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, value) in series {
                let _ = writeln!(out, "{name}{labels} {value}");
            }
        };
        family(
            "ppe_analysis_cache_total",
            "counter",
            "Offline-engine analysis cache events.",
            &[
                ("{event=\"hit\"}", self.analysis_hits),
                ("{event=\"miss\"}", self.analysis_misses),
            ],
        );
        family(
            "ppe_cache_events_total",
            "counter",
            "Residual cache events by tier.",
            &[
                ("{tier=\"memory\",event=\"hit\"}", self.cache_hits),
                ("{tier=\"memory\",event=\"miss\"}", self.cache_misses),
                (
                    "{tier=\"memory\",event=\"coalesced\"}",
                    self.dedup_coalesced,
                ),
                ("{tier=\"memory\",event=\"eviction\"}", self.cache_evictions),
                ("{tier=\"memory\",event=\"rejected\"}", self.cache_rejected),
                ("{tier=\"disk\",event=\"hit\"}", self.disk_hits),
                ("{tier=\"disk\",event=\"miss\"}", self.disk_misses),
                ("{tier=\"disk\",event=\"store\"}", self.disk_stores),
                (
                    "{tier=\"disk\",event=\"store_error\"}",
                    self.disk_store_errors,
                ),
                ("{tier=\"disk\",event=\"corrupt\"}", self.disk_corrupt),
                (
                    "{tier=\"disk\",event=\"quarantined\"}",
                    self.disk_quarantined,
                ),
            ],
        );
        family(
            "ppe_connections_active",
            "gauge",
            "Connections currently open on the TCP front-end.",
            &[("", self.connections_active)],
        );
        family(
            "ppe_connections_refused_total",
            "counter",
            "Connections refused because the server was draining.",
            &[("", self.connections_refused)],
        );
        family(
            "ppe_connections_total",
            "counter",
            "Connections accepted by the TCP front-end.",
            &[("", self.connections)],
        );
        family(
            "ppe_depgraph_analyses_total",
            "counter",
            "Dependency graphs built, one per parse-cache miss (request programs and residuals read back for execute).",
            &[("", self.depgraph_analyses)],
        );
        family(
            "ppe_depgraph_invalidations_total",
            "counter",
            "Definitions whose closure fingerprint changed across an edit.",
            &[("", self.depgraph_invalidations)],
        );
        family(
            "ppe_exec_errors_total",
            "counter",
            "Residual executions that ended in an evaluation error.",
            &[("", self.exec_errors)],
        );
        family(
            "ppe_executes_total",
            "counter",
            "Residual executions requested (either engine).",
            &[("", self.executes)],
        );
        family(
            "ppe_queue_depth",
            "gauge",
            "Requests currently queued or executing.",
            &[("", self.queue_depth)],
        );
        // Histogram family, rendered cumulatively as the format requires.
        {
            let name = "ppe_request_duration_us";
            let _ = writeln!(out, "# HELP {name} Request wall time in microseconds.");
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, &count) in self.wall_histogram.iter().enumerate() {
                cumulative += count;
                match bucket_le(i) {
                    Some(le) => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                    None => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    }
                }
            }
            let _ = writeln!(out, "{name}_sum {}", self.wall_micros_total);
            let _ = writeln!(out, "{name}_count {}", self.wall_observations());
        }
        let mut family = |name: &str, kind: &str, help: &str, series: &[(&str, u64)]| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, value) in series {
                let _ = writeln!(out, "{name}{labels} {value}");
            }
        };
        family(
            "ppe_request_duration_us_max",
            "gauge",
            "Longest single request observed, microseconds.",
            &[("", self.wall_micros_max)],
        );
        family(
            "ppe_requests_degraded_total",
            "counter",
            "Requests whose responses carried a degradation event.",
            &[("", self.degraded)],
        );
        family(
            "ppe_requests_errors_total",
            "counter",
            "Requests that failed with an error.",
            &[("", self.errors)],
        );
        family(
            "ppe_requests_inflight",
            "gauge",
            "Requests currently executing on the front-end.",
            &[("", self.inflight)],
        );
        family(
            "ppe_requests_shed_total",
            "counter",
            "Requests answered under load shedding (forced Degrade).",
            &[("", self.shed)],
        );
        family(
            "ppe_requests_total",
            "counter",
            "Requests accepted, including ones that later failed.",
            &[("", self.requests)],
        );
        family(
            "ppe_spec_vm_chunk_total",
            "counter",
            "Spec-eval VM chunk cache events.",
            &[
                ("{event=\"hit\"}", self.spec_vm_chunk_hits),
                ("{event=\"miss\"}", self.spec_vm_chunk_misses),
            ],
        );
        family(
            "ppe_spec_vm_evals_total",
            "counter",
            "Static subtrees evaluated on the VM during specialization.",
            &[("", self.spec_vm_evals)],
        );
        family(
            "ppe_vm_chunk_cache_hits_total",
            "counter",
            "Execute requests answered from the VM chunk cache.",
            &[("", self.vm_chunk_cache_hits)],
        );
        family(
            "ppe_vm_chunks_compiled_total",
            "counter",
            "Bytecode chunks compiled for execute requests.",
            &[("", self.vm_chunks_compiled)],
        );
        family(
            "ppe_vm_opcodes_executed_total",
            "counter",
            "Opcodes dispatched by the VM across execute requests.",
            &[("", self.vm_opcodes_executed)],
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters() {
        let m = Metrics::new();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(2, Ordering::Relaxed);
        m.observe_wall(10);
        m.observe_wall(40);
        let s = m.snapshot();
        assert_eq!(s.requests, 3);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.wall_micros_total, 50);
        assert_eq!(s.wall_micros_max, 40);
        assert_eq!(s.wall_observations(), 2);
        // 10 µs → le=16 (bucket 4); 40 µs → le=64 (bucket 6).
        assert_eq!(s.wall_histogram[4], 1);
        assert_eq!(s.wall_histogram[6], 1);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        // Exact powers of two land in their own bucket (bounds inclusive).
        for i in 0..WALL_BUCKETS - 1 {
            let le = bucket_le(i).unwrap();
            assert_eq!(bucket_index(le), i, "2^{i} must land in bucket {i}");
            assert_eq!(bucket_index(le + 1), i + 1, "2^{i}+1 must overflow it");
        }
        // Past the largest finite bound everything is +Inf.
        assert_eq!(bucket_index(u64::MAX), WALL_BUCKETS - 1);
        assert_eq!(bucket_le(WALL_BUCKETS - 1), None);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut buckets = [0u64; WALL_BUCKETS];
        assert_eq!(histogram_quantile(&buckets, 0.5), 0, "empty histogram");
        buckets[3] = 98; // 98 obs ≤ 8 µs
        buckets[10] = 2; // 2 obs ≤ 1024 µs
        assert_eq!(histogram_quantile(&buckets, 0.50), 8);
        assert_eq!(histogram_quantile(&buckets, 0.98), 8);
        assert_eq!(histogram_quantile(&buckets, 0.99), 1024);
        assert_eq!(histogram_quantile(&buckets, 1.0), 1024);
        let mut inf = [0u64; WALL_BUCKETS];
        inf[WALL_BUCKETS - 1] = 1;
        assert_eq!(histogram_quantile(&inf, 0.5), u64::MAX, "+Inf bucket");
    }

    #[test]
    fn json_quantiles_clamp_to_observed_max() {
        let m = Metrics::new();
        m.observe_wall(3); // bucket le=4, but the true max is 3
        let s = m.snapshot();
        assert_eq!(s.wall_quantile_us(0.5), 3);
        assert_eq!(s.wall_quantile_us(0.99), 3);
    }

    #[test]
    fn snapshot_renders_json() {
        let s = Metrics::new().snapshot();
        let text = s.to_json().render();
        assert!(text.starts_with('{'), "{text}");
        assert!(text.contains("\"cache_hits\":0"), "{text}");
        assert!(text.contains("\"queue_depth\":0"), "{text}");
        assert!(text.contains("\"depgraph_analyses\":0"), "{text}");
        assert!(text.contains("\"depgraph_invalidations\":0"), "{text}");
        assert!(text.contains("\"disk_hits\":0"), "{text}");
        assert!(text.contains("\"disk_corrupt\":0"), "{text}");
        assert!(text.contains("\"disk_quarantined\":0"), "{text}");
        assert!(text.contains("\"executes\":0"), "{text}");
        assert!(text.contains("\"vm_chunks_compiled\":0"), "{text}");
        assert!(text.contains("\"vm_chunk_cache_hits\":0"), "{text}");
        assert!(text.contains("\"vm_opcodes_executed\":0"), "{text}");
        // Process-wide counters: other tests in the same process may have
        // bumped them, so assert presence, not value.
        assert!(text.contains("\"spec_vm_evals\":"), "{text}");
        assert!(text.contains("\"spec_vm_chunk_hits\":"), "{text}");
        assert!(text.contains("\"spec_vm_chunk_misses\":"), "{text}");
        assert!(text.contains("\"shed\":0"), "{text}");
        assert!(text.contains("\"connections\":0"), "{text}");
        assert!(text.contains("\"inflight\":0"), "{text}");
        assert!(text.contains("\"wall_us_p50\":0"), "{text}");
        assert!(text.contains("\"wall_us_p99\":0"), "{text}");
        assert!(text.contains("\"wall_us_histogram\":[0,0"), "{text}");
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let m = Metrics::new();
        m.observe_wall(1); // bucket 0 (le=1)
        m.observe_wall(2); // bucket 1 (le=2)
        m.observe_wall(1_000_000_000); // +Inf
        let text = m.snapshot().to_prometheus();
        assert!(
            text.contains("ppe_request_duration_us_bucket{le=\"1\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("ppe_request_duration_us_bucket{le=\"2\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("ppe_request_duration_us_bucket{le=\"1048576\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("ppe_request_duration_us_bucket{le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("ppe_request_duration_us_count 3\n"), "{text}");
        assert!(
            text.contains(&format!(
                "ppe_request_duration_us_sum {}\n",
                1_000_000_003u64
            )),
            "{text}"
        );
    }

    #[test]
    fn prometheus_families_are_alphabetical() {
        let text = Metrics::new().snapshot().to_prometheus();
        let families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split(' ').next())
            .collect();
        let mut sorted = families.clone();
        sorted.sort_unstable();
        assert_eq!(families, sorted, "families must render alphabetically");
        assert!(!families.is_empty());
    }
}
