//! One benchmark run against the deployed server: set-up, the timed (or
//! counted) closed-loop phase, and verification after the clock stops.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use ppe_lang::{parse_program, Evaluator, Program, Value};
use ppe_server::Json;

use crate::calib::reference_ns;
use crate::client::{cpu_ns, peak_rss_kib, scan, Conn, Server};
use crate::workload::{Expect, Req, Rng, Workload};

/// When the measured phase ends.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// Send for this long (then finish the first
    /// [`Workload::mean_prefix`] requests of each connection, untimed, if a
    /// slow machine fell short).
    Seconds(f64),
    /// Send exactly this many requests per connection.
    Requests(usize),
}

/// A server that finished set-up, with its timed connections open.
struct Ready {
    server: Server,
    conns: Vec<Conn>,
    /// Set-up responses per connection, in request order.
    warm: Vec<Vec<String>>,
    setup_s: f64,
}

/// Spawn → listening → every connection opened → the workload's set-up
/// requests sent on each timed connection, one connection after another.
fn set_up(ppe: &Path, w: &Workload) -> Result<Ready, String> {
    let t0 = Instant::now();
    let server = Server::spawn(ppe, w.conns)?;
    let mut conns = (0..w.conns)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let mut warm = Vec::with_capacity(w.conns);
    for (conn, reqs) in conns.iter_mut().zip(&w.warmup) {
        let mut out = Vec::with_capacity(reqs.len());
        for r in reqs {
            let line = conn.call(&r.line).map_err(|e| format!("set-up: {e}"))?;
            out.push(line.to_owned());
        }
        warm.push(out);
    }
    Ok(Ready {
        server,
        conns,
        warm,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// What one connection saw during one server's measured phase.
///
/// Its buffers are written before the clock starts (so their pages are
/// resident) and reused for every server of a run: the client's loop then
/// neither allocates nor page-faults while the clock runs, and only the
/// server's own memory behaviour shows in the figures.
pub struct ConnRun {
    /// Round trip of every timed request, nanoseconds.
    pub lat_ns: Vec<u64>,
    /// When each timed request completed, nanoseconds from the common start.
    done_ns: Vec<u64>,
    /// Connection 0 only: a mark before its first timed request and after
    /// every [`Workload::window`] more.
    marks: Vec<Mark>,
    /// Round trip minus the server's own `wall_us`, microseconds.
    pub outside_us: Vec<f64>,
    /// Requests completed inside the timed window.
    pub timed: usize,
    /// Requests sent in the measured phase (timed or not).
    pub sent: usize,
    /// First response to each stream entry, as a byte range of `arena`.
    first: Vec<Option<(usize, usize)>>,
    arena: Vec<u8>,
    /// Answers to each stream entry, and how many failed the cheap checks.
    uses: Vec<u32>,
    bad: Vec<u32>,
    /// The server's `VmHWM` once `prefix` requests were answered: memory
    /// after a fixed amount of work, whatever the throughput.
    pub rss_at_prefix_kib: Option<u64>,
}

/// A vector with `cap` elements of capacity whose pages are resident.
fn resident<T: Copy>(cap: usize, fill: T) -> Vec<T> {
    let mut v = Vec::with_capacity(cap);
    v.resize(cap, fill);
    v.clear();
    v
}

impl ConnRun {
    /// Buffers for up to `requests` timed requests over a stream of
    /// `entries` entries.
    fn new(entries: usize, requests: usize) -> ConnRun {
        ConnRun {
            lat_ns: resident(requests, 0),
            done_ns: resident(requests, 0),
            marks: resident(requests / 64 + 2, Mark::default()),
            outside_us: resident(requests, 0.0),
            timed: 0,
            sent: 0,
            first: vec![None; entries],
            arena: resident(entries.min(requests) * 2560, 0),
            uses: vec![0; entries],
            bad: vec![0; entries],
            rss_at_prefix_kib: None,
        }
    }

    fn reset(&mut self) {
        self.lat_ns.clear();
        self.done_ns.clear();
        self.marks.clear();
        self.outside_us.clear();
        self.timed = 0;
        self.sent = 0;
        self.first.fill(None);
        self.arena.clear();
        self.uses.fill(0);
        self.bad.fill(0);
        self.rss_at_prefix_kib = None;
    }

    /// The first response to stream entry `idx`.
    pub fn first(&self, idx: usize) -> Option<&str> {
        let (at, len) = self.first[idx]?;
        std::str::from_utf8(&self.arena[at..at + len]).ok()
    }
}

/// A boundary between slices: one call of the reference computation (see
/// [`crate::calib`]), with the time from the common start and the
/// server's CPU time on either side of it.
#[derive(Clone, Copy, Default)]
struct Mark {
    end: (u64, u64),
    ref_ns: u64,
    start: (u64, u64),
}

/// How one connection runs its stream.
#[derive(Clone, Copy)]
struct Plan {
    /// Whether the stream may wrap.
    cyclic: bool,
    /// Requests that must be answered even when the clock runs out first.
    prefix: usize,
    /// Connection 0 only: the server, whose peak RSS it reads once the
    /// prefix is answered and whose CPU time it marks every `window`
    /// timed requests.
    server: Option<u32>,
    window: usize,
}

/// The closed loop of one connection: next request only after the
/// previous response.
fn drive(
    run: &mut ConnRun,
    conn: &mut Conn,
    stream: &[Req],
    plan: Plan,
    limit: Limit,
    start: Instant,
) -> Result<(), String> {
    let n = stream.len();
    let deadline = match limit {
        Limit::Seconds(s) => Some(start + Duration::from_secs_f64(s)),
        Limit::Requests(_) => None,
    };
    let mark = |run: &mut ConnRun, pid: u32| -> Result<(), String> {
        let end = (start.elapsed().as_nanos() as u64, cpu_ns(pid)?);
        let ref_ns = reference_ns();
        let at = start.elapsed().as_nanos() as u64;
        run.marks.push(Mark {
            end,
            ref_ns,
            start: (at, cpu_ns(pid)?),
        });
        Ok(())
    };
    if let Some(pid) = plan.server {
        mark(run, pid)?;
    }
    let mut i = 0usize;
    loop {
        let timed = match (limit, deadline) {
            (Limit::Requests(m), _) => i < m,
            (_, Some(d)) => Instant::now() < d,
            _ => unreachable!("a seconds limit has a deadline"),
        };
        let needed = matches!(limit, Limit::Seconds(_)) && i < plan.prefix;
        if (!timed && !needed) || (!plan.cyclic && i >= n) {
            break;
        }
        let idx = i % n;
        let t0 = Instant::now();
        let line = conn
            .call(&stream[idx].line)
            .map_err(|e| format!("request {i}: {e}"))?;
        let t1 = Instant::now();
        let s = scan(line);
        if timed {
            let rt = t1 - t0;
            run.lat_ns.push(rt.as_nanos() as u64);
            run.done_ns.push((t1 - start).as_nanos() as u64);
            run.outside_us
                .push(rt.as_secs_f64() * 1e6 - s.wall_us as f64);
            run.timed += 1;
        }
        run.sent += 1;
        run.uses[idx] += 1;
        let mut ok = s.ok;
        match run.first[idx] {
            None => {
                run.first[idx] = Some((run.arena.len(), line.len()));
                run.arena.extend_from_slice(line.as_bytes());
            }
            Some((at, len)) => {
                let first = &run.arena[at..at + len];
                let f = scan(std::str::from_utf8(first).unwrap_or(""));
                ok &= line.as_bytes()[s.stable.0..s.stable.1] == first[f.stable.0..f.stable.1];
            }
        }
        if !ok {
            run.bad[idx] += 1;
        }
        i += 1;
        if let Some(pid) = plan.server {
            if timed && run.timed.is_multiple_of(plan.window) {
                mark(run, pid)?;
            }
            if i == plan.prefix {
                run.rss_at_prefix_kib = Some(peak_rss_kib(pid)?);
            }
        }
    }
    Ok(())
}

/// One slice of a server's measured phase: connection 0's next
/// [`Workload::window`] requests, and every request of any connection that
/// completed meanwhile.
pub struct Slice {
    pub wall_ns: u64,
    /// Server CPU time spent in the slice.
    pub cpu_ns: u64,
    /// The reference computation's time next to the slice: the mean of
    /// the calls right before and right after it.
    pub ref_ns: f64,
    /// Round trips of the requests that completed in the slice.
    pub lat_ns: Vec<u64>,
}

impl Slice {
    pub fn throughput(&self) -> f64 {
        self.lat_ns.len() as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// Cuts a measured phase into slices at connection 0's marks.
fn slices(runs: &[ConnRun]) -> Vec<Slice> {
    let marks = &runs[0].marks;
    let mut out: Vec<Slice> = marks
        .windows(2)
        .map(|m| Slice {
            wall_ns: m[1].end.0 - m[0].start.0,
            cpu_ns: m[1].end.1 - m[0].start.1,
            ref_ns: (m[0].ref_ns + m[1].ref_ns) as f64 / 2.0,
            lat_ns: Vec::new(),
        })
        .collect();
    for run in runs {
        for (&done, &lat) in run.done_ns.iter().zip(&run.lat_ns) {
            // The first mark that ends at or after `done` closes its slice.
            let k = marks.partition_point(|m| m.end.0 < done);
            if (1..marks.len()).contains(&k) && done > marks[k - 1].start.0 {
                out[k - 1].lat_ns.push(lat);
            }
        }
    }
    out
}

/// Everything measured on one server: a set-up and a measured phase.
pub struct Measured {
    pub setup_s: f64,
    pub runs: Vec<ConnRun>,
    pub warm: Vec<Vec<String>>,
    pub slices: Vec<Slice>,
    /// `VmHWM` after the stream prefix (see [`ConnRun::rss_at_prefix_kib`]),
    /// or at the end when the phase was shorter.
    pub peak_rss_kib: u64,
    /// Server counters after set-up and at the end of the run.
    pub before: BTreeMap<String, u64>,
    pub after: BTreeMap<String, u64>,
}

/// A run: `servers` fresh servers one after another, each set up and then
/// measured on its set-up connections, the limit split evenly among them;
/// `visit` sees each server's measurements before the next one starts.
pub fn measure(
    ppe: &Path,
    w: &Workload,
    servers: usize,
    limit: Limit,
    mut visit: impl FnMut(&mut Measured) -> Result<(), String>,
) -> Result<(), String> {
    let (each, requests) = match limit {
        // Far above any connection's rate on this machine class; a faster
        // one only grows the buffers once.
        Limit::Seconds(s) => {
            let s = s / servers as f64;
            (Limit::Seconds(s), (s * 150_000.0) as usize)
        }
        Limit::Requests(m) => (limit, m),
    };
    let mut runs: Vec<ConnRun> = w
        .stream
        .iter()
        .map(|s| ConnRun::new(s.len(), requests))
        .collect();
    for _ in 0..servers {
        let mut m = measure_one(ppe, w, each, runs)?;
        visit(&mut m)?;
        runs = m.runs;
    }
    Ok(())
}

fn measure_one(
    ppe: &Path,
    w: &Workload,
    limit: Limit,
    mut runs: Vec<ConnRun>,
) -> Result<Measured, String> {
    let Ready {
        server,
        mut conns,
        warm,
        setup_s,
    } = set_up(ppe, w)?;
    runs.iter_mut().for_each(ConnRun::reset);
    let before = conns[0].counters()?;
    let pid = server.pid();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter_mut()
            .zip(conns.iter_mut())
            .zip(&w.stream)
            .enumerate()
            .map(|(c, ((run, conn), stream))| {
                let plan = Plan {
                    cyclic: w.cyclic,
                    prefix: w.mean_prefix(c),
                    server: (c == 0).then_some(pid),
                    window: w.window,
                };
                scope.spawn(move || drive(run, conn, stream, plan, limit, start))
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("client thread panicked"))
    })?;
    let slices = slices(&runs);
    let after = conns[0].counters()?;
    let peak_rss_kib = match runs[0].rss_at_prefix_kib {
        Some(kib) => kib,
        None => peak_rss_kib(pid)?,
    };
    server.shutdown(conns)?;
    Ok(Measured {
        setup_s,
        runs,
        warm,
        slices,
        peak_rss_kib,
        before,
        after,
    })
}

/// The verdict on every answer of a run.
pub struct Verdict {
    /// Answers in measured phases that passed every check.
    pub good: usize,
    pub sent: usize,
    /// One line per failure: the reason and the request line.
    pub failures: Vec<String>,
    /// Residual bytes per connection's stream entry (first server).
    pub residual_len: Vec<Vec<usize>>,
    /// Requests each connection of the first server sent.
    pub first_sent: Vec<usize>,
}

/// Parses a response and checks it in full; returns its residual text.
fn check_response(line: &str, req: &Req) -> Result<String, String> {
    let json = Json::parse(line)?;
    if json.get("ok") != Some(&Json::Bool(true)) {
        let err = json.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("ok:false ({err})"));
    }
    if json.get("shed") == Some(&Json::Bool(true)) {
        return Err("shed".into());
    }
    match json.get("degradations").and_then(Json::as_array) {
        Some([]) => {}
        _ => return Err("degraded".into()),
    }
    let residual = json
        .get("residual")
        .and_then(Json::as_str)
        .ok_or("no residual")?
        .to_owned();
    if let Expect::Value(want) = &req.expect {
        let exec = json.get("exec").ok_or("no exec result")?;
        let got = exec.get("value").and_then(Json::as_str);
        if got != Some(want.as_str()) {
            let err = exec.get("error").and_then(Json::as_str).unwrap_or("");
            return Err(format!("exec value {got:?} {err}, reference {want}"));
        }
    }
    Ok(residual)
}

/// Theorem 1 on seeded inputs: the residual and the source agree.
fn theorem1(
    w: &Workload,
    spec: usize,
    residual: &str,
    seed: u64,
    sources: &mut HashMap<&'static str, Program>,
) -> Result<(), String> {
    let shape = &w.specs[spec].shape;
    let src = shape.source();
    if !sources.contains_key(src) {
        sources.insert(src, parse_program(src).map_err(|e| e.to_string())?);
    }
    let source = &sources[src];
    let residual = parse_program(residual).map_err(|e| format!("residual: {e}"))?;
    let mut rng = Rng::new(seed ^ 0x7E57_0001, spec as u64);
    for _ in 0..2 {
        let full = shape.concrete(&mut rng);
        let args: Vec<Value> = full.iter().map(|(v, _)| v.clone()).collect();
        let want = Evaluator::new(source)
            .run_main(&args)
            .map(|v| v.to_string());
        let rargs = residual
            .main()
            .params
            .iter()
            .map(|p| {
                shape
                    .params()
                    .iter()
                    .position(|q| *q == p.as_str())
                    .map(|i| args[i].clone())
                    .ok_or_else(|| format!("residual parameter `{p}` is not a source parameter"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let got = Evaluator::new(&residual)
            .run_main(&rargs)
            .map(|v| v.to_string());
        if want != got || want.is_err() {
            let inputs: Vec<&str> = full.iter().map(|(_, s)| s.as_str()).collect();
            return Err(format!(
                "Theorem 1: source gives {want:?}, residual gives {got:?} on {inputs:?}"
            ));
        }
    }
    Ok(())
}

/// Full verification, after each server's clock stops: every first answer
/// parsed and checked, one residual text per key across all servers,
/// Theorem 1 for each distinct residual, and every repeat byte-identical
/// to its first answer.
pub struct Verifier<'w> {
    w: &'w Workload,
    seed: u64,
    residual_of: HashMap<usize, String>,
    spec_ok: HashMap<usize, bool>,
    sources: HashMap<&'static str, Program>,
    verdict: Verdict,
}

impl<'w> Verifier<'w> {
    pub fn new(w: &'w Workload, seed: u64) -> Verifier<'w> {
        Verifier {
            w,
            seed,
            residual_of: HashMap::new(),
            spec_ok: HashMap::new(),
            sources: HashMap::new(),
            verdict: Verdict {
                good: 0,
                sent: 0,
                failures: Vec::new(),
                residual_len: Vec::new(),
                first_sent: Vec::new(),
            },
        }
    }

    /// Checks one answer in full; returns its residual length if it passed.
    fn check(&mut self, line: &str, req: &Req) -> Option<usize> {
        let verdict = check_response(line, req).and_then(|residual| {
            match self.residual_of.get(&req.spec) {
                Some(prev) if *prev != residual => {
                    return Err("residual differs from an earlier answer for the same key".into())
                }
                Some(_) => {}
                None => {
                    self.residual_of.insert(req.spec, residual.clone());
                }
            }
            let (w, seed, sources) = (self.w, self.seed, &mut self.sources);
            let failures = &mut self.verdict.failures;
            let passed = *self.spec_ok.entry(req.spec).or_insert_with(|| {
                let ok = match req.expect {
                    Expect::Residual => theorem1(w, req.spec, &residual, seed, sources),
                    Expect::Value(_) => Ok(()),
                };
                if let Err(e) = &ok {
                    failures.push(format!("{e}\n  request: {}", req.line));
                }
                ok.is_ok()
            });
            if passed {
                Ok(residual.len())
            } else {
                Err("failed Theorem 1 (above)".into())
            }
        });
        match verdict {
            Ok(len) => Some(len),
            Err(e) => {
                self.verdict
                    .failures
                    .push(format!("{e}\n  request: {}\n  response: {line}", req.line));
                None
            }
        }
    }

    /// Verifies everything one server answered.
    pub fn server(&mut self, m: &Measured) {
        let w = self.w;
        for (c, lines) in m.warm.iter().enumerate() {
            for (line, req) in lines.iter().zip(&w.warmup[c]) {
                self.check(line, req);
            }
        }
        let first_server = self.verdict.residual_len.is_empty();
        for (c, run) in m.runs.iter().enumerate() {
            let mut lens = vec![0; w.stream[c].len()];
            for (idx, len) in lens.iter_mut().enumerate() {
                let Some(line) = run.first(idx) else { continue };
                let req = &w.stream[c][idx];
                if let Some(n) = self.check(line, req) {
                    *len = n;
                    self.verdict.good += (run.uses[idx] - run.bad[idx]) as usize;
                }
                if run.bad[idx] > 0 {
                    self.verdict.failures.push(format!(
                        "{} repeated answer(s) failed the tail scan or differ from the first\n  request: {}",
                        run.bad[idx], req.line
                    ));
                }
            }
            self.verdict.sent += run.sent;
            if first_server {
                self.verdict.residual_len.push(lens);
                self.verdict.first_sent.push(run.sent);
            }
        }
    }

    pub fn finish(self) -> Verdict {
        self.verdict
    }
}

/// Mean residual bytes over the first [`Workload::mean_prefix`] requests
/// of each connection's stream (exact for a seed).
pub fn residual_bytes_mean(w: &Workload, v: &Verdict) -> f64 {
    let mut total = 0usize;
    let mut count = 0usize;
    for (c, lens) in v.residual_len.iter().enumerate() {
        let n = w.stream[c].len();
        let prefix = w.mean_prefix(c).min(v.first_sent[c]);
        for i in 0..prefix {
            total += lens[i % n];
            count += 1;
        }
    }
    total as f64 / count.max(1) as f64
}

/// Nearest-rank percentile of `xs` (sorted in place).
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    percentile(&mut v, 0.5)
}
