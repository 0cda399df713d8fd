//! The sharded, content-addressed residual cache with single-flight
//! deduplication and byte-budgeted LRU eviction.
//!
//! The paper's specializer already folds repeated specializations of the
//! same `(function, product of facet values)` *within* one run (the cache
//! `Sf` of Figure 3). This module is the same idea lifted one level: a
//! cache of whole residual programs keyed by the request content hash
//! ([`crate::key::residual_key`]), shared across requests, threads, and —
//! because keys hash spellings, not interner ids — across processes.
//!
//! Concurrency design, in order of acquisition:
//!
//! 1. Each key maps to one shard (high key bits); shards are independent
//!    `Mutex`es, so unrelated requests never contend.
//! 2. A shard lock is held only for map operations — never while a
//!    specialization runs.
//! 3. The first requester of an absent key registers an in-flight
//!    *flight* and computes outside the lock; concurrent requesters of
//!    the same key block on the flight's condvar and receive the leader's
//!    result (single-flight: N concurrent identical requests cost one
//!    specialization).
//!
//! Eviction is least-recently-used under a per-shard byte budget (total
//! budget ÷ shards); residuals larger than a whole shard's budget are
//! returned but never retained, and reported via
//! [`ppe_online::Budget::CacheBytes`] so callers can see the capacity
//! degradation in the response.
//!
//! An entry's first hit renders its answer fragment ([`RenderedHit`])
//! from the entry's own outcome, under the shard lock. The fragment is
//! charged to the same budget and leaves with its entry.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use ppe_online::{DegradationEvent, PeStats};

use crate::key::CacheKey;
use crate::metrics::Metrics;
use crate::request::{CacheDisposition, RenderedHit};

/// A completed specialization, as stored in (and served from) the cache.
#[derive(Clone, Debug)]
pub struct CachedOutcome {
    /// Pretty-printed residual program.
    pub residual: String,
    /// Engine counters from the run that produced it.
    pub stats: PeStats,
    /// Degradations from the run that produced it (replayed on hits: a
    /// hit on a degraded entry is still a degraded answer).
    pub degradations: Vec<DegradationEvent>,
    /// The entry function the residual specializes (spelling).
    pub entry: String,
    /// The entry's closure fingerprint at compute time — together with
    /// `entry` this lets `gc --stale-against` decide, entry by entry,
    /// whether a persisted residual is still reachable-identical in an
    /// edited program.
    pub closure_fingerprint: u64,
}

impl CachedOutcome {
    /// Approximate retained bytes: the dominant strings plus fixed
    /// per-entry bookkeeping overhead.
    fn cost(&self) -> usize {
        self.residual.len() + 64 * self.degradations.len() + 256
    }
}

/// What [`ResidualCache::get_or_compute`] observed.
#[derive(Debug)]
pub struct Fetched {
    /// The outcome (shared with the cache on hits), or the error the
    /// computation produced. Errors are not cached: under `Fail` policies
    /// they are cheap to reproduce, and not caching them keeps a
    /// transient condition (a deadline trip) from becoming sticky.
    pub outcome: Result<Arc<CachedOutcome>, String>,
    /// Hit, miss, or coalesced.
    pub disposition: CacheDisposition,
    /// On a hit, the entry's answer fragment (`None` otherwise, and when
    /// the fragment did not fit beside its entry in the shard's budget).
    pub rendered: Option<Arc<RenderedHit>>,
    /// Set when a computed outcome was too large to retain (its cost in
    /// bytes); the caller surfaces this as a `CacheBytes` degradation.
    pub rejected_bytes: Option<usize>,
}

struct Entry {
    outcome: Arc<CachedOutcome>,
    /// `None` until the first hit; then the fragment, or `Some(None)` when
    /// it did not fit. `bytes` counts the outcome and a kept fragment.
    rendered: Option<Option<Arc<RenderedHit>>>,
    bytes: usize,
    last_used: u64,
}

enum FlightState {
    Pending,
    Done(Result<Arc<CachedOutcome>, String>),
}

struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

/// Completion guard for the single-flight leader. Every exit from the
/// leader's critical section — success, error, *or a panic unwinding
/// anywhere between flight registration and completion* — must (a) remove
/// the `in_flight` registration so a later request for the key computes
/// fresh instead of observing stale flight state, and (b) mark the flight
/// `Done` and wake waiters so nobody blocks forever. Routing both through
/// one structure makes that invariant hold by construction: the happy
/// path calls [`FlightCompletion::finish`], and `Drop` covers unwinds
/// (e.g. a poisoned shard lock panicking the post-compute insert).
struct FlightCompletion<'a> {
    shard: &'a Mutex<Shard>,
    key: u128,
    flight: &'a Arc<Flight>,
    finished: bool,
}

impl FlightCompletion<'_> {
    /// Publishes `outcome` to waiters and deregisters the flight.
    fn finish(&mut self, outcome: Result<Arc<CachedOutcome>, String>) {
        self.finished = true;
        self.complete(outcome);
    }

    fn complete(&self, outcome: Result<Arc<CachedOutcome>, String>) {
        // Poison-tolerant locking: this runs on panic paths, where the
        // ordinary `expect` would turn recovery into a double panic.
        let mut s = match self.shard.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        s.in_flight.remove(&self.key);
        drop(s);
        let mut state = match self.flight.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        *state = FlightState::Done(outcome);
        drop(state);
        self.flight.done.notify_all();
    }
}

impl Drop for FlightCompletion<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.complete(Err(
                "specialization aborted: cache leader panicked before completing".to_owned(),
            ));
        }
    }
}

struct Shard {
    entries: HashMap<u128, Entry>,
    in_flight: HashMap<u128, Arc<Flight>>,
    bytes: usize,
    clock: u64,
}

impl Shard {
    /// Marks `key`'s entry most recently used and returns its outcome and
    /// answer fragment, rendering the fragment on the entry's first hit.
    fn touch(
        &mut self,
        key: CacheKey,
        budget: usize,
        metrics: &Metrics,
    ) -> Option<(Arc<CachedOutcome>, Option<Arc<RenderedHit>>)> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entries.get_mut(&key.0)?;
        entry.last_used = clock;
        if entry.rendered.is_none() {
            let out = &entry.outcome;
            let fragment = RenderedHit::new(key, &out.residual, &out.stats, &out.degradations);
            let need = fragment.cost();
            let fits = entry.bytes + need <= budget;
            if fits {
                entry.bytes += need;
                self.bytes += need;
            }
            entry.rendered = Some(fits.then(|| Arc::new(fragment)));
        }
        let found = (Arc::clone(&entry.outcome), entry.rendered.clone().flatten());
        // Only older entries make way for a new fragment: this one was
        // just used.
        self.make_room(0, budget, metrics);
        Some(found)
    }

    /// Evicts least-recently-used entries until `need` bytes fit in
    /// `budget`. Linear scan per eviction: shards keep entry counts small
    /// enough (budget ÷ typical residual) that this stays cheap, and it
    /// needs no auxiliary order structure to keep consistent.
    fn make_room(&mut self, need: usize, budget: usize, metrics: &Metrics) {
        while self.bytes + need > budget && !self.entries.is_empty() {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty map has a minimum");
            if let Some(e) = self.entries.remove(&oldest) {
                self.bytes -= e.bytes;
                metrics
                    .cache_evictions
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }
}

/// The sharded residual cache. See the module docs for the design.
pub struct ResidualCache {
    shards: Box<[Mutex<Shard>]>,
    shard_budget: usize,
}

impl std::fmt::Debug for ResidualCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidualCache")
            .field("shards", &self.shards.len())
            .field("shard_budget", &self.shard_budget)
            .finish()
    }
}

impl ResidualCache {
    /// A cache holding at most `total_bytes` across `shards` shards
    /// (rounded up to a power of two; at least one).
    pub fn new(total_bytes: usize, shards: usize) -> ResidualCache {
        let shards = shards.max(1).next_power_of_two();
        ResidualCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        in_flight: HashMap::new(),
                        bytes: 0,
                        clock: 0,
                    })
                })
                .collect(),
            shard_budget: total_bytes / shards,
        }
    }

    /// Number of retained entries (for tests and reports).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// True when no entry is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retained bytes across shards (for tests and reports).
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").bytes)
            .sum()
    }

    /// Looks `key` up; on a miss, runs `compute` exactly once across all
    /// concurrent callers of the same key and caches its success.
    ///
    /// A panicking `compute` is converted into an error result (and
    /// delivered to coalesced waiters) rather than poisoning the flight —
    /// a hung waiter would be a far worse failure than a lost answer.
    pub fn get_or_compute(
        &self,
        key: CacheKey,
        metrics: &Metrics,
        compute: impl FnOnce() -> Result<CachedOutcome, String>,
    ) -> Fetched {
        use std::sync::atomic::Ordering::Relaxed;
        let shard = &self.shards[key.shard(self.shards.len())];
        let flight: Arc<Flight>;
        {
            let mut s = shard.lock().expect("cache shard poisoned");
            if let Some((outcome, rendered)) = s.touch(key, self.shard_budget, metrics) {
                metrics.cache_hits.fetch_add(1, Relaxed);
                return Fetched {
                    outcome: Ok(outcome),
                    disposition: CacheDisposition::Hit,
                    rendered,
                    rejected_bytes: None,
                };
            }
            if let Some(existing) = s.in_flight.get(&key.0) {
                let existing = Arc::clone(existing);
                drop(s);
                metrics.dedup_coalesced.fetch_add(1, Relaxed);
                return Fetched {
                    outcome: wait(&existing),
                    disposition: CacheDisposition::Coalesced,
                    rendered: None,
                    rejected_bytes: None,
                };
            }
            flight = Arc::new(Flight {
                state: Mutex::new(FlightState::Pending),
                done: Condvar::new(),
            });
            s.in_flight.insert(key.0, Arc::clone(&flight));
        }

        metrics.cache_misses.fetch_add(1, Relaxed);
        // From here until `finish`, any unwind must clean the flight up;
        // the guard's Drop handles it (see `FlightCompletion`).
        let mut completion = FlightCompletion {
            shard,
            key: key.0,
            flight: &flight,
            finished: false,
        };
        let computed = match catch_unwind(AssertUnwindSafe(compute)) {
            Ok(result) => result,
            Err(panic) => Err(format!(
                "specialization panicked: {}",
                panic_text(panic.as_ref())
            )),
        };

        let mut rejected_bytes = None;
        let outcome = match computed {
            Ok(outcome) => {
                let bytes = outcome.cost();
                let outcome = Arc::new(outcome);
                let mut s = shard.lock().expect("cache shard poisoned");
                if bytes <= self.shard_budget {
                    s.make_room(bytes, self.shard_budget, metrics);
                    s.clock += 1;
                    let last_used = s.clock;
                    s.bytes += bytes;
                    s.entries.insert(
                        key.0,
                        Entry {
                            outcome: Arc::clone(&outcome),
                            rendered: None,
                            bytes,
                            last_used,
                        },
                    );
                } else {
                    metrics.cache_rejected.fetch_add(1, Relaxed);
                    rejected_bytes = Some(bytes);
                }
                drop(s);
                Ok(outcome)
            }
            Err(msg) => Err(msg),
        };

        completion.finish(outcome.clone());

        Fetched {
            outcome,
            disposition: CacheDisposition::Miss,
            rendered: None,
            rejected_bytes,
        }
    }
}

fn wait(flight: &Flight) -> Result<Arc<CachedOutcome>, String> {
    let mut state = flight.state.lock().expect("flight poisoned");
    loop {
        if let FlightState::Done(result) = &*state {
            return result.clone();
        }
        state = flight.done.wait(state).expect("flight poisoned");
    }
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn outcome(text: &str) -> CachedOutcome {
        CachedOutcome {
            residual: text.to_owned(),
            stats: PeStats::default(),
            degradations: Vec::new(),
            entry: "main".to_owned(),
            closure_fingerprint: 0,
        }
    }

    /// The fragment `key`'s entry renders for `out` on its first hit.
    fn fragment(key: u128, out: &CachedOutcome) -> RenderedHit {
        RenderedHit::new(CacheKey(key), &out.residual, &out.stats, &out.degradations)
    }

    #[test]
    fn second_lookup_hits() {
        let cache = ResidualCache::new(1 << 20, 4);
        let metrics = Metrics::new();
        let key = CacheKey(42);
        let first = cache.get_or_compute(key, &metrics, || Ok(outcome("r")));
        assert_eq!(first.disposition, CacheDisposition::Miss);
        let again = cache.get_or_compute(key, &metrics, || panic!("must not recompute"));
        assert_eq!(again.disposition, CacheDisposition::Hit);
        assert_eq!(again.outcome.unwrap().residual, "r");
        assert_eq!(metrics.snapshot().cache_hits, 1);
        assert_eq!(metrics.snapshot().cache_misses, 1);
    }

    #[test]
    fn errors_propagate_and_are_not_cached() {
        let cache = ResidualCache::new(1 << 20, 1);
        let metrics = Metrics::new();
        let key = CacheKey(7);
        let r = cache.get_or_compute(key, &metrics, || Err("boom".to_owned()));
        assert_eq!(r.outcome.unwrap_err(), "boom");
        assert_eq!(cache.len(), 0);
        let r2 = cache.get_or_compute(key, &metrics, || Ok(outcome("ok")));
        assert_eq!(r2.disposition, CacheDisposition::Miss, "errors don't stick");
    }

    #[test]
    fn panicking_leader_leaves_no_stale_flight_state() {
        // Regression: after a leader panics — with waiters coalesced on
        // its flight — every waiter must receive an error (not hang on a
        // stale Pending flight), and a *later* request for the same key
        // must recompute cleanly and then cache normally.
        let cache = Arc::new(ResidualCache::new(1 << 20, 2));
        let metrics = Arc::new(Metrics::new());
        let key = CacheKey(1234);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let metrics = Arc::clone(&metrics);
                scope.spawn(move || {
                    let r = cache.get_or_compute(key, &metrics, || {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        panic!("leader dies");
                    });
                    let msg = r.outcome.unwrap_err();
                    assert!(
                        msg.contains("leader dies") || msg.contains("panicked"),
                        "{msg}"
                    );
                });
            }
        });
        // No flight survives the panic: the next request is a fresh miss.
        let r = cache.get_or_compute(key, &metrics, || Ok(outcome("recovered")));
        assert_eq!(r.disposition, CacheDisposition::Miss, "clean recompute");
        assert_eq!(r.outcome.unwrap().residual, "recovered");
        let again = cache.get_or_compute(key, &metrics, || unreachable!());
        assert_eq!(again.disposition, CacheDisposition::Hit);
    }

    #[test]
    fn panics_become_errors() {
        let cache = ResidualCache::new(1 << 20, 1);
        let metrics = Metrics::new();
        let r = cache.get_or_compute(CacheKey(1), &metrics, || panic!("kaboom"));
        let msg = r.outcome.unwrap_err();
        assert!(msg.contains("kaboom"), "{msg}");
    }

    #[test]
    fn lru_evicts_under_byte_budget() {
        // One shard, budget fits two small entries and the fragment of
        // key 1's hit, but not a third entry.
        let budget = 2 * outcome("a").cost() + fragment(1, &outcome("a")).cost();
        let cache = ResidualCache::new(budget, 1);
        let metrics = Metrics::new();
        cache.get_or_compute(CacheKey(1), &metrics, || Ok(outcome("a")));
        cache.get_or_compute(CacheKey(2), &metrics, || Ok(outcome("b")));
        assert_eq!(cache.len(), 2);
        // Touch 1 so 2 is the LRU victim.
        cache.get_or_compute(CacheKey(1), &metrics, || unreachable!());
        cache.get_or_compute(CacheKey(3), &metrics, || Ok(outcome("c")));
        assert_eq!(cache.len(), 2);
        assert_eq!(metrics.snapshot().cache_evictions, 1);
        assert_eq!(
            cache
                .get_or_compute(CacheKey(1), &metrics, || unreachable!())
                .disposition,
            CacheDisposition::Hit,
            "recently used survives"
        );
        assert_eq!(
            cache
                .get_or_compute(CacheKey(2), &metrics, || Ok(outcome("b")))
                .disposition,
            CacheDisposition::Miss,
            "LRU victim was evicted"
        );
    }

    #[test]
    fn fragment_is_built_on_first_hit_charged_and_evicted_with_its_entry() {
        let metrics = Metrics::new();
        let out = outcome("(define (f x) x)");
        let entry = out.cost();
        let expected = fragment(1, &out);
        let cache = ResidualCache::new(2 * entry + expected.cost(), 1);
        let miss = cache.get_or_compute(CacheKey(1), &metrics, || Ok(out.clone()));
        assert!(miss.rendered.is_none());
        assert_eq!(
            cache.bytes(),
            entry,
            "a key answered once keeps its entry only"
        );

        let hit = cache.get_or_compute(CacheKey(1), &metrics, || unreachable!());
        let rendered = hit.rendered.expect("the first hit renders the fragment");
        assert_eq!(
            rendered.line(CacheDisposition::Hit, None, 7),
            expected.line(CacheDisposition::Hit, None, 7)
        );
        assert_eq!(
            cache.bytes(),
            entry + expected.cost(),
            "charged to the budget"
        );
        let again = cache.get_or_compute(CacheKey(1), &metrics, || unreachable!());
        assert!(
            Arc::ptr_eq(&rendered, &again.rendered.unwrap()),
            "built once"
        );
        assert_eq!(cache.bytes(), entry + expected.cost());

        // Two more entries of the same cost: key 1 is the LRU victim, and
        // its fragment goes with it.
        cache.get_or_compute(CacheKey(2), &metrics, || Ok(out.clone()));
        cache.get_or_compute(CacheKey(3), &metrics, || Ok(out.clone()));
        assert_eq!(metrics.snapshot().cache_evictions, 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes(), 2 * entry, "the fragment left with its entry");
    }

    #[test]
    fn recomputed_entry_renders_its_own_outcome() {
        // An evicted key that is computed again, with another outcome (a
        // deadline trip under `Degrade` can do that), answers with the new
        // residual, never the fragment of the entry it replaced.
        let metrics = Metrics::new();
        let cache = ResidualCache::new(2 * outcome("old").cost(), 1);
        cache.get_or_compute(CacheKey(1), &metrics, || Ok(outcome("old")));
        let old = cache.get_or_compute(CacheKey(1), &metrics, || unreachable!());
        assert!(old
            .rendered
            .unwrap()
            .line(CacheDisposition::Hit, None, 0)
            .contains("old"));
        cache.get_or_compute(CacheKey(2), &metrics, || Ok(outcome("other")));
        let recomputed = cache.get_or_compute(CacheKey(1), &metrics, || Ok(outcome("new")));
        assert_eq!(
            recomputed.disposition,
            CacheDisposition::Miss,
            "was evicted"
        );
        let hit = cache.get_or_compute(CacheKey(1), &metrics, || unreachable!());
        let line = hit.rendered.unwrap().line(CacheDisposition::Hit, None, 0);
        assert!(line.contains("\"residual\":\"new\""), "{line}");
    }

    #[test]
    fn fragment_that_does_not_fit_beside_its_entry_is_not_kept() {
        let metrics = Metrics::new();
        let out = outcome("(define (f x) x)");
        let cache = ResidualCache::new(out.cost() + fragment(1, &out).cost() - 1, 1);
        cache.get_or_compute(CacheKey(1), &metrics, || Ok(out.clone()));
        for _ in 0..2 {
            let hit = cache.get_or_compute(CacheKey(1), &metrics, || unreachable!());
            assert_eq!(hit.disposition, CacheDisposition::Hit);
            assert!(hit.rendered.is_none());
            assert_eq!(cache.bytes(), out.cost(), "the entry stays, alone");
        }
        assert_eq!(metrics.snapshot().cache_evictions, 0);
    }

    #[test]
    fn oversized_outcomes_are_returned_but_not_retained() {
        let cache = ResidualCache::new(100, 1);
        let metrics = Metrics::new();
        let big = "x".repeat(10_000);
        let r = cache.get_or_compute(CacheKey(5), &metrics, || Ok(outcome(&big)));
        assert!(r.rejected_bytes.is_some());
        assert_eq!(r.outcome.unwrap().residual.len(), 10_000);
        assert_eq!(cache.len(), 0);
        assert_eq!(metrics.snapshot().cache_rejected, 1);
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_requests() {
        let cache = Arc::new(ResidualCache::new(1 << 20, 4));
        let metrics = Arc::new(Metrics::new());
        let computed = Arc::new(AtomicU64::new(0));
        let key = CacheKey(99);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let metrics = Arc::clone(&metrics);
                let computed = Arc::clone(&computed);
                scope.spawn(move || {
                    let r = cache.get_or_compute(key, &metrics, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so followers actually
                        // coalesce instead of hitting the finished entry.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        Ok(outcome("shared"))
                    });
                    assert_eq!(r.outcome.unwrap().residual, "shared");
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "exactly one compute");
        let s = metrics.snapshot();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits + s.dedup_coalesced, 7);
    }
}
