//! The batch driver: a fixed pool of big-stack workers sharing one cursor
//! over a batch of specialization requests.
//!
//! Requests cross the thread boundary as plain data (see
//! [`crate::request`]); each worker owns a private [`EngineContext`] and
//! shares the [`SpecializeService`]'s caches. Results land in their
//! request's input slot, so the output order is the input order no matter
//! which worker ran what.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::thread;

use crate::engine::EngineContext;
use crate::request::{SpecializeRequest, SpecializeResponse};
use crate::service::SpecializeService;

/// Engines recurse on the structure of the program being specialized;
/// deep programs need deep stacks, so every worker gets a large one
/// (matching the CLI's dedicated driver thread).
pub const WORKER_STACK_BYTES: usize = 256 * 1024 * 1024;

/// Knobs for one batch run.
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Worker count; `0` and `1` both mean "run inline on this thread".
    pub jobs: usize,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions { jobs: 1 }
    }
}

/// Runs every request against `service`, returning responses in request
/// order. With `jobs > 1`, the workers share one cursor over the batch:
/// a worker that comes free takes the next request no one has started, so
/// a batch of mixed cheap and expensive requests still keeps every worker
/// busy.
pub fn run_batch(
    service: &SpecializeService,
    requests: &[SpecializeRequest],
    options: BatchOptions,
) -> Vec<SpecializeResponse> {
    let jobs = options.jobs.max(1).min(requests.len().max(1));
    if jobs <= 1 {
        let mut ctx = EngineContext::new();
        return requests
            .iter()
            .map(|r| service.handle(r, &mut ctx))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<SpecializeResponse>>> =
        requests.iter().map(|_| Mutex::new(None)).collect();
    let queue_depth = &service.metrics().queue_depth;
    queue_depth.store(requests.len() as u64, Relaxed);
    // One worker's loop: take the next unstarted request until none is left.
    let work = || {
        let mut ctx = EngineContext::new();
        loop {
            let index = cursor.fetch_add(1, Relaxed);
            let Some(request) = requests.get(index) else {
                return;
            };
            let response = service.handle(request, &mut ctx);
            *results[index].lock().expect("result slot poisoned") = Some(response);
            queue_depth.fetch_sub(1, Relaxed);
        }
    };

    thread::scope(|scope| {
        let mut spawned = 0;
        for worker in 0..jobs {
            let started = thread::Builder::new()
                .name(format!("ppe-worker-{worker}"))
                .stack_size(WORKER_STACK_BYTES)
                .spawn_scoped(scope, work);
            match started {
                Ok(_) => spawned += 1,
                // Out of threads: the workers already spawned (or, in the
                // worst case, this thread below) will drain the batch.
                Err(_) => break,
            }
        }
        if spawned == 0 {
            work();
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every request was drained")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    const POWER: &str = "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))";

    fn batch(n: usize) -> Vec<SpecializeRequest> {
        (0..n)
            .map(|i| SpecializeRequest::new(POWER, vec!["_".into(), format!("{}", i % 4)]))
            .collect()
    }

    #[test]
    fn parallel_batches_match_serial_batches() {
        let requests = batch(24);
        let serial = {
            let service = SpecializeService::new(ServiceConfig::default());
            run_batch(&service, &requests, BatchOptions { jobs: 1 })
        };
        let parallel = {
            let service = SpecializeService::new(ServiceConfig::default());
            run_batch(&service, &requests, BatchOptions { jobs: 8 })
        };
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                s.outcome.as_ref().unwrap().residual,
                p.outcome.as_ref().unwrap().residual
            );
        }
    }

    #[test]
    fn repeated_work_in_a_batch_is_shared() {
        let service = SpecializeService::new(ServiceConfig::default());
        let responses = run_batch(&service, &batch(32), BatchOptions { jobs: 4 });
        assert!(responses.iter().all(|r| r.outcome.is_ok()));
        let s = service.metrics().snapshot();
        // 32 requests over 4 distinct keys: everything past the first
        // computation of each key is a hit or a coalesced wait.
        assert_eq!(s.cache_misses, 4, "{s:?}");
        assert_eq!(s.cache_hits + s.dedup_coalesced, 28, "{s:?}");
        assert_eq!(s.requests, 32);
        assert_eq!(service.metrics().queue_depth.load(Relaxed), 0);
    }

    #[test]
    fn more_jobs_than_requests_is_fine() {
        let service = SpecializeService::new(ServiceConfig::default());
        let responses = run_batch(&service, &batch(2), BatchOptions { jobs: 16 });
        assert_eq!(responses.len(), 2);
        assert!(responses.iter().all(|r| r.outcome.is_ok()));
    }

    #[test]
    fn empty_batches_return_nothing() {
        let service = SpecializeService::new(ServiceConfig::default());
        assert!(run_batch(&service, &[], BatchOptions { jobs: 8 }).is_empty());
    }
}
