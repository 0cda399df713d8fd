//! Golden-snapshot and property tests for the metrics exporters.
//!
//! The Prometheus text format and the JSON snapshot are consumed by
//! scrapers and scripts outside this repo, so their exact shape is a
//! compatibility surface: field names, label taxonomy, family ordering,
//! and cumulative-bucket semantics must not drift by accident. The
//! golden tests pin the full rendered output for a snapshot whose every
//! field is a distinct value (so a transposed counter shows up as a
//! diff, not a coincidence); the property test drives a live `Metrics`
//! and re-parses the exposition text to check what the format promises:
//! counters only ever go up, buckets are cumulative, `+Inf` equals
//! `_count`.
//!
//! Regenerate the goldens after an intentional format change with:
//! `PPE_BLESS=1 cargo test -p ppe-server --test metrics_export`

use ppe_server::{Metrics, MetricsSnapshot, WALL_BUCKETS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;

/// A snapshot with every field set to a distinct value, built without
/// touching the process-global VM counters (`Metrics::snapshot` reads
/// those, so a live-instance golden would depend on what other tests in
/// this binary happened to execute).
fn fixed_snapshot() -> MetricsSnapshot {
    let mut s = Metrics::new().snapshot();
    s.requests = 101;
    s.cache_hits = 102;
    s.cache_misses = 103;
    s.dedup_coalesced = 104;
    s.cache_evictions = 105;
    s.cache_rejected = 106;
    s.analysis_hits = 107;
    s.analysis_misses = 108;
    s.depgraph_analyses = 109;
    s.depgraph_invalidations = 110;
    s.disk_hits = 111;
    s.disk_misses = 112;
    s.disk_stores = 113;
    s.disk_store_errors = 114;
    s.disk_corrupt = 115;
    s.disk_quarantined = 116;
    s.executes = 117;
    s.exec_errors = 118;
    s.vm_chunks_compiled = 119;
    s.vm_chunk_cache_hits = 120;
    s.vm_opcodes_executed = 121;
    s.spec_vm_evals = 122;
    s.spec_vm_chunk_hits = 123;
    s.spec_vm_chunk_misses = 124;
    s.errors = 126;
    s.degraded = 127;
    s.shed = 128;
    s.connections = 129;
    s.connections_active = 130;
    s.connections_refused = 131;
    s.inflight = 132;
    s.queue_depth = 133;
    s.wall_micros_total = 134_000;
    s.wall_micros_max = 135;
    let mut histogram = [0u64; WALL_BUCKETS];
    for (i, slot) in histogram.iter_mut().enumerate() {
        *slot = (i as u64 + 1) * 3;
    }
    s.wall_histogram = histogram;
    s
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("PPE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with PPE_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; if intentional, re-bless with \
         PPE_BLESS=1 cargo test -p ppe-server --test metrics_export"
    );
}

#[test]
fn prometheus_text_matches_golden() {
    check_golden("metrics.prom", &fixed_snapshot().to_prometheus());
}

#[test]
fn json_snapshot_matches_golden() {
    let mut rendered = fixed_snapshot().to_json().render();
    rendered.push('\n');
    check_golden("metrics.json", &rendered);
}

/// One parsed exposition: family → type, and series key → value.
struct Exposition {
    types: BTreeMap<String, String>,
    series: BTreeMap<String, u64>,
}

/// Parses the Prometheus text format back into series. Every
/// non-comment line must be `name[{labels}] value` with a `u64` value —
/// the parse itself is part of the test.
fn parse_exposition(text: &str) -> Exposition {
    let mut types = BTreeMap::new();
    let mut series = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line has a kind");
            types.insert(name.to_owned(), kind.to_owned());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (key, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: u64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad sample: {line}"));
        assert!(
            series.insert(key.to_owned(), value).is_none(),
            "duplicate series {key}"
        );
    }
    Exposition { types, series }
}

/// The family a series belongs to: the name up to `{`, with histogram
/// suffixes stripped.
fn family_of(series_key: &str) -> String {
    let name = series_key.split('{').next().unwrap();
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return base.to_owned();
        }
    }
    name.to_owned()
}

#[test]
fn counters_are_monotonic_under_load() {
    let metrics = Metrics::new();
    let mut previous: Option<Exposition> = None;
    // Drive the counters through several rounds of uneven traffic,
    // snapshotting between rounds; a counter that ever decreases, or a
    // histogram that loses an observation, fails the scrape-to-scrape
    // comparison a real Prometheus server would be making.
    for round in 0..6u64 {
        for i in 0..=round * 7 {
            metrics.requests.fetch_add(1, Relaxed);
            if i % 3 == 0 {
                metrics.cache_hits.fetch_add(1, Relaxed);
            } else {
                metrics.cache_misses.fetch_add(1, Relaxed);
            }
            if i % 5 == 0 {
                metrics.shed.fetch_add(1, Relaxed);
            }
            metrics.observe_wall(i * 17 % 4096);
        }
        // Gauges may move in both directions; that must not trip the check.
        metrics.inflight.store(round % 3, Relaxed);
        metrics.queue_depth.store((round + 1) % 2, Relaxed);

        let exposition = parse_exposition(&metrics.snapshot().to_prometheus());

        // Within one scrape: buckets are cumulative and +Inf == _count.
        let mut buckets: Vec<(&String, u64)> = exposition
            .series
            .iter()
            .filter(|(k, _)| k.starts_with("ppe_request_duration_us_bucket"))
            .map(|(k, v)| (k, *v))
            .collect();
        // `le` values are powers of two rendered in increasing order by
        // the exporter; sorting samples numerically by `le` reproduces it.
        buckets.sort_by_key(|(k, _)| {
            let le = k.split("le=\"").nth(1).unwrap().trim_end_matches("\"}");
            le.parse::<u64>().unwrap_or(u64::MAX)
        });
        let mut last = 0u64;
        for (key, value) in &buckets {
            assert!(*value >= last, "bucket {key} not cumulative");
            last = *value;
        }
        assert_eq!(
            Some(&last),
            exposition.series.get("ppe_request_duration_us_count"),
            "+Inf bucket must equal _count"
        );

        // Across scrapes: every counter-family series is non-decreasing.
        if let Some(prev) = &previous {
            for (key, value) in &exposition.series {
                let family = family_of(key);
                let is_counter = exposition.types.get(&family).map(String::as_str)
                    == Some("counter")
                    || exposition.types.get(&family).map(String::as_str) == Some("histogram");
                if !is_counter {
                    continue;
                }
                let before = prev
                    .series
                    .get(key)
                    .copied()
                    .unwrap_or_else(|| panic!("series {key} disappeared between scrapes"));
                assert!(
                    *value >= before,
                    "counter {key} went backwards: {before} -> {value}"
                );
            }
        }
        previous = Some(exposition);
    }
}
