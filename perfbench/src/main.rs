//! The service benchmark for `ppe serve --listen`.
//!
//! ```text
//! ppe-perfbench --workload W --seed N --seconds S --trace 0|1 --ppe PPE --out DIR
//! ppe-perfbench all --ppe PPE --out DIR [--seed N] [--seconds S]
//! ppe-perfbench selftest --ppe PPE --out DIR [--seed N]
//! ppe-perfbench replay --conns N --traffic FILE --mode traced|handle [--spans FILE]
//! ```
//!
//! `--trace 0` is the timed run: it prints the end-to-end table and, as
//! its last line, one JSON object with the end-to-end metrics. `--trace 1`
//! is the traced run: a counted run against the server, then the same
//! traffic replayed in-process (see `replay`), checked against the
//! server, and the per-layer table. `all` does both for every workload and
//! prints one end-to-end row per workload, then the per-layer table.
//! `selftest` runs every workload twice at one seed and requires identical
//! counts. Usually driven through `run.py`, which builds the server and
//! this harness first.

mod bench;
mod calib;
mod client;
mod replay;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use bench::{measure, median, percentile, residual_bytes_mean, Limit, Measured, Slice, Verifier};
use replay::{fnv64, Mode, Traffic};
use workload::{generate, Workload, WORKLOADS};

/// Fresh servers per timed run, each set up and then measured for a tenth
/// of the time. `setup_s` is the median of their set-ups.
const SERVERS: usize = 10;

/// The recorded default seed (used while the benchmark was built). Seed
/// 7919 is held out for later performance claims.
const DEFAULT_SEED: u64 = 1;

/// Server counters whose deltas must repeat exactly at one seed.
const EXACT_COUNTERS: &[&str] = &[
    "requests",
    "cache_hits",
    "cache_misses",
    "dedup_coalesced",
    "cache_evictions",
    "cache_rejected",
    "analysis_hits",
    "analysis_misses",
    "depgraph_analyses",
    "executes",
    "exec_errors",
    "vm_chunks_compiled",
    "vm_chunk_cache_hits",
    "vm_opcodes_executed",
    "spec_vm_evals",
    "spec_vm_chunk_hits",
    "spec_vm_chunk_misses",
    "vm_inlined_calls",
    "errors",
    "degraded",
    "shed",
];

struct Args {
    map: BTreeMap<String, String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{a}`"))?;
            let value = it.next().ok_or_else(|| format!("`{a}` needs a value"))?;
            map.insert(key.to_owned(), value.clone());
        }
        Ok(Args { map })
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.map
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("--{key} must be a number"))
    }

    fn opt_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.map.get(key) {
            None => Ok(None),
            Some(_) => self.num(key).map(Some),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("replay") => Args::parse(&argv[1..]).and_then(|a| cmd_replay(&a)),
        Some("selftest") => Args::parse(&argv[1..]).and_then(|a| cmd_selftest(&a)),
        Some("all") => Args::parse(&argv[1..]).and_then(|a| cmd_all(&a)),
        _ => Args::parse(&argv).and_then(|a| cmd_bench(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_replay(a: &Args) -> Result<bool, String> {
    let traffic = Traffic::read(Path::new(a.get("traffic")?), a.num("conns")?)?;
    let mode = match a.get("mode")? {
        "traced" => Mode::Traced,
        "handle" => Mode::Handle,
        other => return Err(format!("unknown replay mode `{other}`")),
    };
    let spans = a.map.get("spans").map(PathBuf::from);
    replay::replay(&traffic, mode, spans.as_deref())?;
    Ok(true)
}

/// One metric as printed in the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!("  {:<30} {:>14}  {:<9} notes", "metric", "value", "unit");
    for m in metrics {
        println!(
            "  {:<30} {:>14.4}  {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

fn cmd_bench(a: &Args) -> Result<bool, String> {
    let name = a.get("workload")?;
    let seed: u64 = a.opt_num("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = a.num("seconds")?;
    let trace: u8 = a.num("trace")?;
    let ppe = PathBuf::from(a.get("ppe")?);
    let out = PathBuf::from(a.get("out")?);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let outcome = match trace {
        0 => timed(name, seed, seconds, &ppe, &out)?,
        1 => traced(name, seed, &ppe, &out)?,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(print_outcome(&outcome))
}

/// Every workload, timed and traced: one end-to-end row per workload,
/// then the per-layer table with one column per workload.
fn cmd_all(a: &Args) -> Result<bool, String> {
    let seed: u64 = a.opt_num("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = a.opt_num("seconds")?.unwrap_or(30.0);
    let ppe = PathBuf::from(a.get("ppe")?);
    let out = PathBuf::from(a.get("out")?);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut runs = Vec::new();
    for name in WORKLOADS {
        runs.push((
            name,
            timed(name, seed, seconds, &ppe, &out)?,
            traced(name, seed, &ppe, &out)?,
        ));
    }
    println!("end to end: seed {seed}, {seconds} s per workload over {SERVERS} servers, faster half of slices scaled to nominal speed");
    let mut header = format!("  {:<16}", "workload");
    for m in &runs[0].1.metrics {
        header.push_str(&format!(" {:>22}", format!("{} [{}]", m.name, m.unit)));
    }
    println!("{header}  latency samples");
    for (name, t, _) in &runs {
        let mut row = format!("  {name:<16}");
        for m in &t.metrics {
            row.push_str(&format!(" {:>22.4}", m.value));
        }
        println!("{row}  {}", t.samples);
    }
    println!("per layer: traced replay, seed {seed}");
    let mut header = format!("  {:<30} {:<9}", "metric", "unit");
    for (name, _, _) in &runs {
        header.push_str(&format!(" {name:>16}"));
    }
    println!("{header}");
    for (i, m) in runs[0].2.metrics.iter().enumerate() {
        let mut row = format!("  {:<30} {:<9}", m.name, m.unit);
        for (_, _, r) in &runs {
            row.push_str(&format!(" {:>16.4}", r.metrics[i].value));
        }
        println!("{row}");
    }
    let mut ok = true;
    for (_, t, r) in &runs {
        ok &= report_failures(&t.failures);
        ok &= report_failures(&r.failures);
    }
    Ok(ok)
}

/// One run's figures and verdict, ready to print.
struct Outcome {
    title: String,
    /// Latency sample counts (timed runs).
    samples: String,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    failures: Vec<String>,
    attempted: usize,
    failed: usize,
}

/// Prints the table, the failures and, last, the JSON result; returns
/// whether every answer passed.
fn print_outcome(o: &Outcome) -> bool {
    print_table(&o.title, &o.metrics);
    for n in &o.notes {
        println!("  {n}");
    }
    let correct = report_failures(&o.failures);
    println!(
        "{}",
        result_json(correct, o.attempted, o.failed, &o.metrics)
    );
    correct
}

/// Print the failures (with their request lines) and say whether none.
fn report_failures(failures: &[String]) -> bool {
    for f in failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    if failures.len() > 20 {
        println!("FAILED: ... and {} more", failures.len() - 20);
    }
    failures.is_empty()
}

fn counter_deltas(m: &Measured) -> BTreeMap<&'static str, u64> {
    EXACT_COUNTERS
        .iter()
        .map(|&k| {
            let after = m.after.get(k).copied().unwrap_or(0);
            let before = m.before.get(k).copied().unwrap_or(0);
            (k, after - before)
        })
        .collect()
}

/// The timed run: end-to-end metrics, tracing off. The run is split over
/// [`SERVERS`] fresh servers, and each server's measured phase into slices
/// of a fixed amount of work (see [`Slice`]). Each slice's timings are
/// scaled to nominal machine speed by the reference call next to it (see
/// `calib`), and throughput, latency and CPU per request are taken over
/// the faster half of the scaled slices: load from outside only ever slows
/// a slice down.
fn timed(name: &str, seed: u64, seconds: f64, ppe: &Path, out: &Path) -> Result<Outcome, String> {
    // Cold requests never repeat, so that stream must outlast one server's
    // share of the clock (every server starts it afresh): 8000/s is over
    // twice the rate of a lightly loaded 2-vCPU host (about 3300/s), and a
    // run that exhausts it stops early and says so.
    let w = generate(name, seed, (seconds / SERVERS as f64 * 8000.0) as usize)?;
    let mut verifier = Verifier::new(&w, seed);
    let mut slices: Vec<(usize, Slice)> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut rss_mib: Vec<f64> = Vec::new();
    let mut deltas = None;
    let mut exhausted = false;
    measure(ppe, &w, SERVERS, Limit::Seconds(seconds), |m| {
        verifier.server(m);
        let server = setups.len();
        slices.extend(m.slices.drain(..).map(|s| (server, s)));
        setups.push(m.setup_s);
        rss_mib.push(m.peak_rss_kib as f64 / 1024.0);
        deltas.get_or_insert_with(|| counter_deltas(m));
        exhausted |= !w.cyclic && m.runs.iter().zip(&w.stream).any(|(r, s)| r.sent >= s.len());
        Ok(())
    })?;
    let v = verifier.finish();
    let success = v.good as f64 / v.sent.max(1) as f64;
    write_slices(&out.join(format!("slices-{name}-{seed}.tsv")), &slices)?;
    // Each slice is scaled by how much slower than nominal the machine ran
    // next to it (see `calib`): its times are divided by that and its rate
    // multiplied. The faster half of the scaled slices is kept.
    let slow = |s: &Slice| s.ref_ns / calib::NOMINAL_NS;
    let scaled = |s: &Slice| s.throughput() * slow(s);
    let mut kept: Vec<&Slice> = slices.iter().map(|(_, s)| s).collect();
    kept.sort_by(|a, b| scaled(b).total_cmp(&scaled(a)));
    kept.truncate(slices.len().div_ceil(2));
    // Throughput, p50, p99 and CPU per request over the kept slices, with
    // every time in slice `s` divided by `k(s)`.
    let figures = |k: &dyn Fn(&Slice) -> f64| {
        let wall_ns: f64 = kept.iter().map(|s| s.wall_ns as f64 / k(s)).sum();
        let cpu_ns: f64 = kept.iter().map(|s| s.cpu_ns as f64 / k(s)).sum();
        let mut lat_us: Vec<f64> = kept
            .iter()
            .flat_map(|s| s.lat_ns.iter().map(move |&ns| ns as f64 / 1e3 / k(s)))
            .collect();
        let n = lat_us.len() as f64;
        [
            n / (wall_ns / 1e9).max(1e-9) * success,
            percentile(&mut lat_us, 0.50),
            percentile(&mut lat_us, 0.99),
            cpu_ns / 1e3 / n.max(1.0),
        ]
    };
    let [throughput, p50, p99, cpu] = figures(&slow);
    let raw_figures = figures(&|_| 1.0);
    let raw = |i: usize| format!("raw {:.4}", raw_figures[i]);
    let n: usize = kept.iter().map(|s| s.lat_ns.len()).sum();
    let beyond = n - ((0.99 * n as f64).ceil() as usize).min(n);
    let run_slow = median(&slices.iter().map(|(_, s)| slow(s)).collect::<Vec<_>>());
    let setup = median(&setups);
    let metrics = vec![
        metric("throughput_rps", throughput, "1/s", raw(0)),
        metric("latency_p50_us", p50, "us", format!("{}, n={n}", raw(1))),
        metric(
            "latency_p99_us",
            p99,
            "us",
            format!("{}, n={n}, beyond={beyond}", raw(2)),
        ),
        metric(
            "success_fraction",
            success,
            "ratio",
            format!("{} of {} verified", v.good, v.sent),
        ),
        metric(
            "setup_s",
            setup / run_slow,
            "s",
            format!(
                "raw {setup:.4}; set-ups: {}",
                setups
                    .iter()
                    .map(|s| format!("{s:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        ),
        metric("server_cpu_us_per_req", cpu, "us", raw(3)),
        metric(
            "server_peak_rss_mb",
            median(&rss_mib),
            "MiB",
            "VmHWM, median over servers".into(),
        ),
        metric(
            "residual_bytes_mean",
            residual_bytes_mean(&w, &v),
            "bytes",
            format!("first {} requests per connection", w.mean_prefix(0)),
        ),
    ];
    let deltas: Vec<String> = deltas
        .unwrap_or_default()
        .iter()
        .filter(|(_, v)| **v > 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let mut notes = vec![
        format!(
            "timings over the faster {} of {} slices, each scaled to nominal speed; the reference ran {run_slow:.3}x its nominal time (median)",
            kept.len(),
            slices.len()
        ),
        format!("server counter deltas (first server): {}", deltas.join(" ")),
    ];
    if exhausted {
        notes.push("the cold stream ran out before the clock; throughput covers the stream".into());
    }
    Ok(Outcome {
        title: format!(
            "workload {name}: seed {seed}, {} connection(s), --jobs {}, closed loop, {seconds} s over {SERVERS} servers, faster half of slices of {} requests scaled to nominal speed",
            w.conns, w.conns, w.window
        ),
        samples: format!("n={n} beyond p99={beyond}"),
        metrics,
        notes,
        failures: v.failures,
        attempted: v.sent,
        failed: v.sent - v.good,
    })
}

/// Every slice of a timed run, one line each, for a look at the host's
/// noise: server, wall and CPU time, requests, and their p50 and p99.
fn write_slices(path: &Path, slices: &[(usize, Slice)]) -> Result<(), String> {
    let mut text = String::from("server\twall_ns\tcpu_ns\trequests\tp50_ns\tp99_ns\tref_ns\n");
    for (server, s) in slices {
        let mut lat: Vec<f64> = s.lat_ns.iter().map(|&ns| ns as f64).collect();
        text.push_str(&format!(
            "{server}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            s.wall_ns,
            s.cpu_ns,
            lat.len(),
            percentile(&mut lat, 0.5),
            percentile(&mut lat, 0.99),
            s.ref_ns
        ));
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Requests per connection in a traced run and in the self-test.
fn counted(name: &str) -> usize {
    match name {
        "warm_hit" => 5000,
        "cold_specialize" => 1000,
        _ => 5000,
    }
}

/// The server's answer to each request, as the replay reports it.
fn server_answers(w: &Workload, m: &Measured) -> Result<Vec<Vec<String>>, String> {
    let mut out = Vec::new();
    for c in 0..w.conns {
        let mut answers = Vec::new();
        let run = &m.runs[c];
        let stream = (0..run.sent).map(|i| run.first(i));
        for line in m.warm[c].iter().map(|l| Some(l.as_str())).chain(stream) {
            let line = line.ok_or("a counted stream entry went unanswered")?;
            let json = ppe_server::Json::parse(line)?;
            let residual = json
                .get("residual")
                .and_then(ppe_server::Json::as_str)
                .map(|r| format!("{:016x}", fnv64(r.as_bytes())))
                .unwrap_or_else(|| "error".into());
            let exec = match json.get("exec") {
                None => "-".to_owned(),
                Some(e) => e
                    .get("value")
                    .and_then(ppe_server::Json::as_str)
                    .unwrap_or("exec-error")
                    .to_owned(),
            };
            answers.push(format!("{residual} {exec}"));
        }
        out.push(answers);
    }
    Ok(out)
}

/// A replay child's report.
#[derive(Default)]
struct Report {
    answers: Vec<Vec<String>>,
    counters: BTreeMap<String, u64>,
    layers: BTreeMap<String, (u64, u64)>,
    totals: BTreeMap<String, u64>,
}

fn run_replay(
    conns: usize,
    traffic: &Path,
    mode: &str,
    spans: Option<&Path>,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["replay", "--conns", &conns.to_string(), "--mode", mode])
        .arg("--traffic")
        .arg(traffic);
    if let Some(s) = spans {
        cmd.arg("--spans").arg(s);
    }
    let out = cmd.output().map_err(|e| format!("replay: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "replay --mode {mode} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    let mut r = Report {
        answers: vec![Vec::new(); conns],
        ..Report::default()
    };
    for line in text.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        let num = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("bad replay line: {line}"))
        };
        match f.as_slice() {
            ["R", c, _, hash, exec] => r.answers[num(c)? as usize].push(format!("{hash} {exec}")),
            ["C", k, v] => {
                r.counters.insert((*k).to_owned(), num(v)?);
            }
            ["L", k, ns, calls] => {
                r.layers.insert((*k).to_owned(), (num(ns)?, num(calls)?));
            }
            ["T", k, v] => {
                r.totals.insert((*k).to_owned(), num(v)?);
            }
            _ => return Err(format!("bad replay line: {line}")),
        }
    }
    Ok(r)
}

/// Replay answers and counters against the server's; one line per
/// disagreement.
fn fidelity(server: &[Vec<String>], counters: &BTreeMap<String, u64>, r: &Report) -> Vec<String> {
    let mut out = Vec::new();
    for (c, (s, p)) in server.iter().zip(&r.answers).enumerate() {
        if s.len() != p.len() {
            out.push(format!(
                "connection {c}: {} answers vs {}",
                s.len(),
                p.len()
            ));
        }
        if let Some(i) = s.iter().zip(p).position(|(a, b)| a != b) {
            out.push(format!(
                "connection {c} request {i}: server `{}`, replay `{}`",
                s[i], p[i]
            ));
        }
    }
    for &k in EXACT_COUNTERS {
        let (a, b) = (counters.get(k), r.counters.get(k));
        if a != b {
            out.push(format!("counter {k}: server {a:?}, replay {b:?}"));
        }
    }
    out
}

/// The traced run: per-layer metrics from an in-process replay of the
/// exact traffic a counted server run answered.
fn traced(name: &str, seed: u64, ppe: &Path, out: &Path) -> Result<Outcome, String> {
    let wanted = counted(name);
    let w = generate(name, seed, wanted)?;
    // One pass at most: the comparison with the replay keeps each stream
    // entry's first answer only.
    let count = w.stream.iter().map(Vec::len).fold(wanted, usize::min);
    let mut verifier = Verifier::new(&w, seed);
    let mut seen_by_server = None;
    measure(ppe, &w, 1, Limit::Requests(count), |m| {
        verifier.server(m);
        let outside: Vec<f64> = m.runs.iter().flat_map(|r| r.outside_us.clone()).collect();
        let sent: Vec<usize> = m.runs.iter().map(|r| r.sent).collect();
        seen_by_server = Some((server_answers(&w, m)?, m.after.clone(), sent, outside));
        Ok(())
    })?;
    let v = verifier.finish();
    let (server, after, sent, mut outside) = seen_by_server.ok_or("no server was measured")?;
    let traffic = Traffic {
        warmup: w
            .warmup
            .iter()
            .map(|reqs| reqs.iter().map(|r| r.line.to_string()).collect())
            .collect(),
        stream: w
            .stream
            .iter()
            .zip(&sent)
            .map(|(reqs, &sent)| {
                (0..sent)
                    .map(|i| reqs[i % reqs.len()].line.to_string())
                    .collect()
            })
            .collect(),
    };
    let traffic_path = out.join(format!("traffic-{name}-{seed}.txt"));
    let spans_path = out.join(format!("spans-{name}-{seed}.tsv"));
    traffic.write(&traffic_path)?;
    let t = run_replay(w.conns, &traffic_path, "traced", Some(&spans_path))?;
    let h = run_replay(w.conns, &traffic_path, "handle", None)?;
    let mut problems = fidelity(&server, &after, &t);
    problems.extend(
        fidelity(&server, &after, &h)
            .into_iter()
            .map(|p| format!("handle pass: {p}")),
    );

    let reqs = t.totals["requests"].max(1) as f64;
    let us = |layer: &str| t.layers.get(layer).map_or(0, |l| l.0) as f64 / 1e3 / reqs;
    let c = |k: &str| t.counters.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let inside_ns: u64 = t
        .layers
        .iter()
        .filter(|(k, _)| !k.starts_with("wire."))
        .map(|(_, l)| l.0)
        .sum();
    let handle_ns = h.totals["handle_ns"] as f64;
    let (opt_before, opt_after) = (t.totals["opt_before"] as f64, t.totals["opt_after"] as f64);
    let n_out = outside.len();
    let metrics = vec![
        metric(
            "wire.decode_us",
            us("wire.decode"),
            "us",
            "Json::parse + from_json".into(),
        ),
        metric(
            "wire.encode_us",
            us("wire.encode"),
            "us",
            "to_json/template + render".into(),
        ),
        metric(
            "net.outside_handle_us_p50",
            percentile(&mut outside, 0.5),
            "us",
            format!("round trip - wall_us, n={n_out}"),
        ),
        metric(
            "service.parse_misses_per_req",
            c("depgraph_analyses") / reqs,
            "count/req",
            format!("{} misses", c("depgraph_analyses")),
        ),
        metric("lang.parse_us", us("lang.parse"), "us", String::new()),
        metric(
            "analyze.depgraph_us",
            us("analyze.depgraph"),
            "us",
            String::new(),
        ),
        metric("analyze.check_us", us("analyze.check"), "us", String::new()),
        metric(
            "resolve.us",
            us("resolve"),
            "us",
            "facets, inputs, products, key".into(),
        ),
        metric(
            "cache.hit_ratio",
            ratio(c("cache_hits"), c("cache_hits") + c("cache_misses")),
            "ratio",
            format!("{} hits, {} misses", c("cache_hits"), c("cache_misses")),
        ),
        metric(
            "cache.evictions",
            c("cache_evictions"),
            "count",
            String::new(),
        ),
        metric(
            "cache.lookup_us",
            us("cache.get_or_compute"),
            "us",
            "get_or_compute minus compute".into(),
        ),
        metric(
            "analysis.hit_ratio",
            ratio(
                c("analysis_hits"),
                c("analysis_hits") + c("analysis_misses"),
            ),
            "ratio",
            format!(
                "{} hits, {} misses",
                c("analysis_hits"),
                c("analysis_misses")
            ),
        ),
        metric(
            "offline.analysis_us",
            us("offline.analysis"),
            "us",
            String::new(),
        ),
        metric(
            "specialize.online_us",
            us("specialize.online"),
            "us",
            String::new(),
        ),
        metric(
            "specialize.simple_us",
            us("specialize.simple"),
            "us",
            String::new(),
        ),
        metric(
            "specialize.offline_us",
            us("specialize.offline"),
            "us",
            String::new(),
        ),
        metric(
            "specialize.steps_per_miss",
            ratio(t.totals["miss_steps"] as f64, c("cache_misses")),
            "count",
            String::new(),
        ),
        metric(
            "spec_eval.evals_per_req",
            c("spec_vm_evals") / reqs,
            "count/req",
            String::new(),
        ),
        metric(
            "spec_eval.chunk_hit_ratio",
            ratio(
                c("spec_vm_chunk_hits"),
                c("spec_vm_chunk_hits") + c("spec_vm_chunk_misses"),
            ),
            "ratio",
            String::new(),
        ),
        metric("lang.opt_us", us("lang.opt"), "us", String::new()),
        metric("lang.pretty_us", us("lang.pretty"), "us", String::new()),
        metric(
            "opt.size_ratio",
            ratio(opt_after, opt_before),
            "ratio",
            format!("{opt_after} / {opt_before} nodes"),
        ),
        metric(
            "vm.chunk_lookup_us",
            us("vm.compile_cached"),
            "us",
            "compile_cached".into(),
        ),
        metric("vm.run_us", us("vm.run"), "us", String::new()),
        metric(
            "vm.chunk_hit_ratio",
            ratio(c("vm_chunk_cache_hits"), c("executes")),
            "ratio",
            format!("{} executes", c("executes")),
        ),
        metric(
            "vm.ops_per_exec",
            ratio(c("vm_opcodes_executed"), c("executes")),
            "count",
            String::new(),
        ),
        metric(
            "interner.nodes_per_req",
            t.totals["interned"] as f64 / reqs,
            "count/req",
            String::new(),
        ),
        metric(
            "service.handle_us",
            handle_ns / 1e3 / reqs,
            "us",
            "untraced SpecializeService::handle".into(),
        ),
        metric(
            "trace.coverage",
            ratio(inside_ns as f64, handle_ns),
            "ratio",
            "sum of layer self time / handle time".into(),
        ),
        metric(
            "trace.overhead",
            ratio(t.totals["request_ns"] as f64, h.totals["request_ns"] as f64),
            "ratio",
            "untraced / traced replay throughput".into(),
        ),
    ];
    let mut failures = v.failures;
    failures.extend(problems.iter().map(|p| format!("replay is stale: {p}")));
    let notes = if problems.is_empty() {
        vec!["fidelity: replay residuals, exec values and counters match the server".to_owned()]
    } else {
        Vec::new()
    };
    Ok(Outcome {
        title: format!(
            "workload {name}: seed {seed}, traced replay of {} requests ({count} per connection after set-up); spans in {}",
            t.totals["requests"],
            spans_path.display()
        ),
        samples: String::new(),
        metrics,
        notes,
        failures,
        attempted: v.sent,
        failed: v.sent - v.good,
    })
}

/// Each workload twice at one seed, counted: identical results required.
fn cmd_selftest(a: &Args) -> Result<bool, String> {
    let ppe = PathBuf::from(a.get("ppe")?);
    let seed: u64 = a.opt_num("seed")?.unwrap_or(DEFAULT_SEED);
    let mut ok = true;
    for name in WORKLOADS {
        let count = counted(name) / 4;
        let mut seen: Vec<String> = Vec::new();
        for round in 0..2 {
            let w = generate(name, seed, count)?;
            let mut verifier = Verifier::new(&w, seed);
            let mut seen_by_server = None;
            measure(&ppe, &w, 1, Limit::Requests(count), |m| {
                verifier.server(m);
                let connections = m.after.get("connections").copied().unwrap_or(0);
                seen_by_server = Some((counter_deltas(m), connections));
                Ok(())
            })?;
            let v = verifier.finish();
            let (deltas, connections) = seen_by_server.ok_or("no server was measured")?;
            let sent = v.sent.max(1) as f64;
            let summary = format!(
                "success_fraction={} residual_bytes_mean={} parse_miss_share={} counters={:?}",
                v.good as f64 / sent,
                residual_bytes_mean(&w, &v),
                deltas["depgraph_analyses"] as f64 / sent,
                deltas
            );
            println!("{name} round {round}: {summary}");
            if !report_failures(&v.failures) {
                ok = false;
            }
            if connections != w.conns as u64 {
                println!("FAILED: {name}: {connections} connections, expected the {} timed ones (set-up on other connections?)", w.conns);
                ok = false;
            }
            if deltas["shed"] != 0 {
                println!("FAILED: {name}: requests were shed");
                ok = false;
            }
            seen.push(summary);
        }
        if seen[0] != seen[1] {
            println!("FAILED: {name}: two runs at seed {seed} disagree");
            ok = false;
        }
    }
    println!(
        "selftest: {}",
        if ok {
            "identical counts on every workload"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}
