//! The serve loop: JSON-lines requests on a reader, JSON-lines responses
//! on a writer.
//!
//! One input line is one request object (see
//! [`SpecializeRequest::from_json`]) and produces exactly one output
//! line, *in input order* even when several workers answer concurrently —
//! a reordering writer buffers out-of-order completions. Lines whose
//! object carries a `cmd` field are control messages:
//!
//! - `{"cmd": "metrics"}` — a point-in-time [`crate::metrics`] snapshot;
//!   with `"format": "prometheus"` the snapshot is returned as Prometheus
//!   exposition text in a `prometheus` string field.
//! - `{"cmd": "health"}` — liveness: answers `{"ok":true,"health":"ok"}`.
//! - `{"cmd": "ready"}` — readiness: `ready` is `false` once the server
//!   is draining (always `true` on a plain stdio session).
//! - `{"cmd": "shutdown"}` — acknowledge, finish in-flight work, stop.
//!
//! Malformed lines answer `{"ok": false, "error": ...}` rather than
//! killing the session: a service must outlive its worst client. That
//! includes lines the reader cannot even hand to the JSON parser: a line
//! longer than [`MAX_LINE_BYTES`] is drained (never buffered whole) and
//! answered with a structured error, and a line that is not valid UTF-8
//! is dropped the same way. Only real I/O errors end the session.
//!
//! A hit's answer is assembled around the fragment its residual-cache
//! entry keeps ([`crate::request::RenderedHit`]), one copy for every
//! session; the bytes are those [`SpecializeResponse::to_json`] renders.
//!
//! The same core loop serves two transports: [`serve`] drives it over
//! stdio (with an optional worker pool and a reordering writer), and the
//! TCP front-end ([`crate::net`]) runs one [`handle_session`] per
//! connection, layering admission control and drain awareness on top via
//! [`SessionOptions`].

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use ppe_online::ExhaustionPolicy;

use crate::driver::WORKER_STACK_BYTES;
use crate::engine::EngineContext;
use crate::json::Json;
use crate::metrics::Metrics;
use crate::request::{SpecializeRequest, SpecializeResponse};
use crate::service::SpecializeService;

/// Longest request line the serve loop will buffer, in bytes.
///
/// Longer lines are drained in chunks (bounded memory regardless of how
/// much a client sends) and answered with a structured error; the session
/// then continues with the next line.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Knobs for one serve session.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Worker count; `0` and `1` both mean "answer on the calling thread".
    pub jobs: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions { jobs: 1 }
    }
}

/// Admission control the front-end applies to every specialize request
/// before it reaches the engines: a deadline cap, and load shedding once
/// too many requests are executing at once.
///
/// Shedding is deliberately *graceful*: a shed request is not refused, it
/// is forced onto [`ExhaustionPolicy::Degrade`] with a tight deadline, so
/// the client still gets a correct (if less specialized) residual plus a
/// `"shed": true` marker — and a warm cache hit under pressure still
/// answers at full quality in microseconds.
#[derive(Clone, Copy, Debug)]
pub struct RequestGovernor {
    /// Cap applied to every request's deadline (`min` with the client's
    /// own, if any). `None` leaves client deadlines untouched.
    pub request_deadline: Option<Duration>,
    /// Shed once this many requests are already executing.
    pub max_inflight: u64,
    /// The deadline forced onto shed requests.
    pub shed_deadline: Duration,
}

impl RequestGovernor {
    /// Applies admission control to `req`, returning whether it was shed.
    pub fn admit(&self, req: &mut SpecializeRequest, metrics: &Metrics) -> bool {
        if let Some(cap) = self.request_deadline {
            req.config.deadline = Some(req.config.deadline.map_or(cap, |d| d.min(cap)));
        }
        if metrics.inflight.load(Relaxed) < self.max_inflight {
            return false;
        }
        req.config.on_exhaustion = ExhaustionPolicy::Degrade;
        req.config.deadline = Some(
            req.config
                .deadline
                .map_or(self.shed_deadline, |d| d.min(self.shed_deadline)),
        );
        metrics.shed.fetch_add(1, Relaxed);
        true
    }
}

/// Per-session hooks a transport layers on top of the core line loop.
///
/// The default (all `None`) is the plain stdio session, byte-identical to
/// the pre-TCP serve loop. The TCP front-end supplies all four: a
/// [`RequestGovernor`], the server-wide drain flag, a callback that
/// triggers the drain when *this* session receives `{"cmd":"shutdown"}`,
/// and an interrupt predicate polled on read timeouts so idle sessions
/// notice the drain without a read deadline elapsing into an error.
#[derive(Clone, Copy, Default)]
pub struct SessionOptions<'a> {
    /// Admission control for specialize requests.
    pub governor: Option<&'a RequestGovernor>,
    /// Server-wide drain flag; once set, the session exits after the
    /// request it is currently answering.
    pub draining: Option<&'a AtomicBool>,
    /// Invoked after this session acknowledges a `shutdown` command.
    pub on_shutdown: Option<&'a (dyn Fn() + Sync)>,
    /// Polled when a read times out (`WouldBlock`/`TimedOut`); returning
    /// `true` ends the session as if the input reached end-of-file.
    /// Without it, read timeouts propagate as I/O errors.
    pub interrupt: Option<&'a (dyn Fn() -> bool + Sync)>,
}

impl std::fmt::Debug for SessionOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionOptions")
            .field("governor", &self.governor)
            .field("draining", &self.draining)
            .field("on_shutdown", &self.on_shutdown.map(|_| "..."))
            .field("interrupt", &self.interrupt.map(|_| "..."))
            .finish()
    }
}

/// What one serve session processed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Non-empty input lines consumed.
    pub lines: u64,
    /// Specialization requests dispatched (excludes control messages).
    pub requests: u64,
    /// Responses with `ok: false` (parse, validation, or engine errors).
    pub errors: u64,
}

/// Runs the serve loop over `input`/`output` until end-of-input or a
/// `shutdown` command.
///
/// # Errors
///
/// Only I/O errors on `input`/`output` end the session abnormally;
/// request-level failures become `ok: false` response lines.
pub fn serve(
    service: &SpecializeService,
    input: impl BufRead,
    output: impl Write + Send,
    options: ServeOptions,
) -> io::Result<ServeSummary> {
    if options.jobs <= 1 {
        return handle_session(service, input, output, &SessionOptions::default());
    }
    serve_parallel(service, input, output, options.jobs)
}

/// One request line end-to-end on the calling thread. Takes the line
/// already parsed (or its parse error) so callers that must inspect the
/// line themselves — for `cmd` routing, shutdown detection, request
/// counting — parse exactly once.
fn answer(
    service: &SpecializeService,
    ctx: &mut EngineContext,
    parsed: Result<Json, String>,
    errors: &AtomicU64,
    session: &SessionOptions<'_>,
) -> String {
    let parsed = match parsed {
        Ok(v) => v,
        Err(e) => {
            errors.fetch_add(1, Relaxed);
            return error_line(format!("bad JSON: {e}"), None);
        }
    };
    if let Some(cmd) = parsed.get("cmd").and_then(Json::as_str) {
        return control_line(service, cmd, &parsed, session, errors);
    }
    let id = parsed.get("id").cloned();
    let response = match SpecializeRequest::from_json(&parsed) {
        Ok(mut req) => {
            let metrics = service.metrics();
            let shed = match session.governor {
                Some(gov) => gov.admit(&mut req, metrics),
                None => false,
            };
            metrics.inflight.fetch_add(1, Relaxed);
            let mut response = service.handle(&req, ctx);
            metrics.inflight.fetch_sub(1, Relaxed);
            response.shed = shed;
            response
        }
        Err(e) => SpecializeResponse::error(e),
    };
    if response.outcome.is_err() {
        errors.fetch_add(1, Relaxed);
    }
    response.wire_line(id.as_ref())
}

/// Renders a control command's response line.
fn control_line(
    service: &SpecializeService,
    cmd: &str,
    parsed: &Json,
    session: &SessionOptions<'_>,
    errors: &AtomicU64,
) -> String {
    let mut fields = match cmd {
        "metrics" => match parsed.get("format").and_then(Json::as_str) {
            None | Some("json") => vec![
                ("ok", Json::Bool(true)),
                ("metrics", service.metrics().snapshot().to_json()),
            ],
            Some("prometheus") => vec![
                ("ok", Json::Bool(true)),
                (
                    "prometheus",
                    Json::str(service.metrics().snapshot().to_prometheus()),
                ),
            ],
            Some(other) => {
                errors.fetch_add(1, Relaxed);
                vec![
                    ("ok", Json::Bool(false)),
                    (
                        "error",
                        Json::str(format!(
                            "unknown metrics format `{other}` (json|prometheus)"
                        )),
                    ),
                ]
            }
        },
        "health" => vec![("ok", Json::Bool(true)), ("health", Json::str("ok"))],
        "ready" => {
            let draining = session.draining.is_some_and(|d| d.load(Relaxed));
            vec![("ok", Json::Bool(true)), ("ready", Json::Bool(!draining))]
        }
        "shutdown" => vec![("ok", Json::Bool(true)), ("shutdown", Json::Bool(true))],
        other => {
            errors.fetch_add(1, Relaxed);
            vec![
                ("ok", Json::Bool(false)),
                ("error", Json::str(format!("unknown command `{other}`"))),
            ]
        }
    };
    if let Some(id) = parsed.get("id") {
        fields.push(("id", id.clone()));
    }
    Json::obj(fields).render()
}

fn error_line(message: String, id: Option<&Json>) -> String {
    let mut fields = vec![("ok", Json::Bool(false)), ("error", Json::str(message))];
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    Json::obj(fields).render()
}

/// One unit of input as seen by the serve loops.
enum Frame {
    /// A non-empty line that fit the cap and decoded as UTF-8.
    Request(String),
    /// A line the reader refused; the payload is the error message to
    /// answer with. The offending bytes are already drained.
    Reject(String),
    /// End of input.
    Eof,
}

/// Reads the next non-empty line, enforcing [`MAX_LINE_BYTES`].
///
/// Oversized lines are consumed chunk-by-chunk off the reader without
/// ever holding more than the cap in memory, so a hostile client cannot
/// balloon the server by omitting newlines.
///
/// A read that times out (`WouldBlock`/`TimedOut` — a socket with a read
/// timeout) polls `interrupt`: `true` ends the session as end-of-file,
/// `false` resumes the read with any partially-buffered line intact. With
/// no interrupt hook, timeouts propagate as the I/O errors they are.
fn next_frame(
    input: &mut impl BufRead,
    interrupt: Option<&(dyn Fn() -> bool + Sync)>,
) -> io::Result<Frame> {
    loop {
        let mut buf: Vec<u8> = Vec::new();
        let mut overflowed = false;
        let mut saw_any = false;
        loop {
            let chunk = match input.fill_buf() {
                Ok(chunk) => chunk,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) && interrupt.is_some() =>
                {
                    if interrupt.is_some_and(|f| f()) {
                        return Ok(Frame::Eof);
                    }
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                if !saw_any {
                    return Ok(Frame::Eof);
                }
                break;
            }
            saw_any = true;
            if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
                if !overflowed && buf.len() + pos <= MAX_LINE_BYTES {
                    buf.extend_from_slice(&chunk[..pos]);
                } else {
                    overflowed = true;
                }
                input.consume(pos + 1);
                break;
            }
            let len = chunk.len();
            if !overflowed && buf.len() + len <= MAX_LINE_BYTES {
                buf.extend_from_slice(chunk);
            } else {
                overflowed = true;
            }
            input.consume(len);
        }
        if overflowed {
            return Ok(Frame::Reject(format!(
                "request line exceeds {MAX_LINE_BYTES} bytes; line dropped"
            )));
        }
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        match String::from_utf8(buf) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => return Ok(Frame::Request(line)),
            Err(_) => {
                return Ok(Frame::Reject(
                    "request line is not valid UTF-8; line dropped".to_owned(),
                ))
            }
        }
    }
}

/// Runs one line-loop session over any transport: requests answered on
/// the calling thread, in order.
///
/// This is the core the stdio loop and the TCP front-end share. With
/// default [`SessionOptions`] it is exactly the single-threaded stdio
/// serve loop; the hooks add admission control, drain awareness, and
/// shutdown propagation without forking the loop per transport (the 1 MiB
/// line cap and invalid-UTF-8 hardening apply identically everywhere).
///
/// # Errors
///
/// Only I/O errors on `input`/`output` end the session abnormally;
/// request-level failures become `ok: false` response lines.
pub fn handle_session(
    service: &SpecializeService,
    mut input: impl BufRead,
    mut output: impl Write,
    session: &SessionOptions<'_>,
) -> io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    let errors = AtomicU64::new(0);
    let mut ctx = EngineContext::new();
    loop {
        if session.draining.is_some_and(|d| d.load(Relaxed)) {
            break;
        }
        let line = match next_frame(&mut input, session.interrupt)? {
            Frame::Eof => break,
            Frame::Reject(message) => {
                summary.lines += 1;
                errors.fetch_add(1, Relaxed);
                writeln!(output, "{}", error_line(message, None))?;
                output.flush()?;
                continue;
            }
            Frame::Request(line) => line,
        };
        summary.lines += 1;
        let parsed = Json::parse(&line);
        let cmd = parsed
            .as_ref()
            .ok()
            .and_then(|v| v.get("cmd").and_then(Json::as_str));
        let shutdown = cmd == Some("shutdown");
        if cmd.is_none() {
            summary.requests += 1;
        }
        writeln!(
            output,
            "{}",
            answer(service, &mut ctx, parsed, &errors, session)
        )?;
        output.flush()?;
        if shutdown {
            if let Some(hook) = session.on_shutdown {
                hook();
            }
            break;
        }
    }
    summary.errors = errors.load(Relaxed);
    Ok(summary)
}

fn serve_parallel(
    service: &SpecializeService,
    mut input: impl BufRead,
    output: impl Write + Send,
    jobs: usize,
) -> io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    let errors = AtomicU64::new(0);
    let (job_tx, job_rx) = mpsc::channel::<(u64, String)>();
    let job_rx = Mutex::new(job_rx);
    let (out_tx, out_rx) = mpsc::channel::<(u64, String)>();

    let written = thread::scope(|scope| -> io::Result<ServeSummary> {
        let writer = scope.spawn(move || write_ordered(output, out_rx));
        let mut workers = 0usize;
        for worker in 0..jobs {
            let job_rx = &job_rx;
            let out_tx = out_tx.clone();
            let errors = &errors;
            let spawned = thread::Builder::new()
                .name(format!("ppe-serve-{worker}"))
                .stack_size(WORKER_STACK_BYTES)
                .spawn_scoped(scope, move || {
                    let mut ctx = EngineContext::new();
                    loop {
                        let job = job_rx.lock().expect("job queue poisoned").recv();
                        let Ok((seq, line)) = job else { return };
                        let session = SessionOptions::default();
                        let parsed = Json::parse(&line);
                        let rendered = answer(service, &mut ctx, parsed, errors, &session);
                        if out_tx.send((seq, rendered)).is_err() {
                            return;
                        }
                    }
                });
            if spawned.is_ok() {
                workers += 1;
            }
        }

        let mut inline_ctx = EngineContext::new();
        let mut seq = 0u64;
        loop {
            let line = match next_frame(&mut input, None)? {
                Frame::Eof => break,
                Frame::Reject(message) => {
                    summary.lines += 1;
                    errors.fetch_add(1, Relaxed);
                    let _ = out_tx.send((seq, error_line(message, None)));
                    seq += 1;
                    continue;
                }
                Frame::Request(line) => line,
            };
            summary.lines += 1;
            let parsed = Json::parse(&line).ok();
            let cmd = parsed
                .as_ref()
                .and_then(|v| v.get("cmd").and_then(Json::as_str).map(str::to_owned));
            match cmd.as_deref() {
                Some(cmd) => {
                    // Control messages answer on the read thread, but go
                    // through the same sequenced writer so their position
                    // in the output matches their position in the input.
                    let parsed = parsed.as_ref().expect("cmd implies parsed");
                    let session = SessionOptions::default();
                    let rendered = control_line(service, cmd, parsed, &session, &errors);
                    let _ = out_tx.send((seq, rendered));
                    seq += 1;
                    if cmd == "shutdown" {
                        break;
                    }
                }
                None => {
                    summary.requests += 1;
                    if workers == 0 {
                        // Could not spawn any worker: degrade to inline.
                        let session = SessionOptions::default();
                        let parsed = Json::parse(&line);
                        let rendered = answer(service, &mut inline_ctx, parsed, &errors, &session);
                        let _ = out_tx.send((seq, rendered));
                    } else {
                        job_tx
                            .send((seq, line))
                            .expect("workers outlive the read loop");
                    }
                    seq += 1;
                }
            }
        }
        drop(job_tx); // workers drain and exit
        drop(out_tx); // writer sees the channel close once workers finish
        writer.join().expect("writer panicked")?;
        Ok(summary)
    })?;
    let mut summary = written;
    summary.errors = errors.load(Relaxed);
    Ok(summary)
}

/// Drains `(seq, line)` completions, writing them strictly in `seq` order.
fn write_ordered(mut output: impl Write, rx: mpsc::Receiver<(u64, String)>) -> io::Result<()> {
    let mut pending: BTreeMap<u64, String> = BTreeMap::new();
    let mut next = 0u64;
    for (seq, line) in rx {
        pending.insert(seq, line);
        while let Some(line) = pending.remove(&next) {
            writeln!(output, "{line}")?;
            output.flush()?;
            next += 1;
        }
    }
    // Shutdown mid-stream can retire sequence numbers without responses
    // (skipped dispatches); flush whatever completed, in order.
    for (_, line) in pending {
        writeln!(output, "{line}")?;
    }
    output.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, SpecializeService};

    const POWER: &str = "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))";

    fn run_bytes(input: &[u8], jobs: usize) -> (Vec<String>, ServeSummary) {
        let service = SpecializeService::new(ServiceConfig::default());
        let mut out = Vec::new();
        let summary = serve(&service, input, &mut out, ServeOptions { jobs }).unwrap();
        let lines = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        (lines, summary)
    }

    fn run(input: &str, jobs: usize) -> (Vec<String>, ServeSummary) {
        run_bytes(input.as_bytes(), jobs)
    }

    fn request_line(id: u64, n: u64) -> String {
        format!(r#"{{"id": {id}, "program": "{POWER}", "inputs": "_ {n}"}}"#)
    }

    #[test]
    fn one_line_in_one_line_out() {
        let input = format!("{}\n", request_line(1, 3));
        let (lines, summary) = run(&input, 1);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
        assert!(lines[0].contains("\"id\":1"), "{}", lines[0]);
        assert_eq!(
            summary,
            ServeSummary {
                lines: 1,
                requests: 1,
                errors: 0
            }
        );
    }

    #[test]
    fn bad_json_and_bad_requests_answer_errors() {
        let input = format!(
            "this is not json\n{{\"program\": \"(\"}}\n{}\n",
            request_line(9, 2)
        );
        let (lines, summary) = run(&input, 1);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("bad JSON"), "{}", lines[0]);
        assert!(lines[1].contains("\"ok\":false"), "{}", lines[1]);
        assert!(lines[2].contains("\"ok\":true"), "{}", lines[2]);
        assert_eq!(summary.errors, 2);
    }

    #[test]
    fn metrics_and_shutdown_commands() {
        let input = format!(
            "{}\n{{\"cmd\": \"metrics\"}}\n{{\"cmd\": \"shutdown\"}}\n{}\n",
            request_line(1, 2),
            request_line(2, 3)
        );
        let (lines, summary) = run(&input, 1);
        assert_eq!(lines.len(), 3, "request, metrics, shutdown ack: {lines:?}");
        assert!(lines[1].contains("\"requests\":1"), "{}", lines[1]);
        assert!(lines[2].contains("\"shutdown\":true"), "{}", lines[2]);
        assert_eq!(summary.lines, 3, "the post-shutdown line is never read");
    }

    #[test]
    fn oversized_line_answers_error_and_loop_survives() {
        // A newline-free 1 MiB+ blast, then a legitimate request: the
        // oversized line must be drained (not buffered) and answered with
        // a structured error, and the next request must still succeed.
        for jobs in [1, 4] {
            let mut input = String::with_capacity(MAX_LINE_BYTES + 256);
            input.push_str(&"x".repeat(MAX_LINE_BYTES + 17));
            input.push('\n');
            input.push_str(&request_line(7, 2));
            input.push('\n');
            let (lines, summary) = run(&input, jobs);
            assert_eq!(lines.len(), 2, "jobs={jobs}: {lines:?}");
            assert!(lines[0].contains("\"ok\":false"), "{}", lines[0]);
            assert!(lines[0].contains("exceeds"), "{}", lines[0]);
            assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
            assert!(lines[1].contains("\"id\":7"), "{}", lines[1]);
            assert_eq!(summary.lines, 2, "jobs={jobs}");
            assert_eq!(summary.errors, 1, "jobs={jobs}");
        }
    }

    #[test]
    fn invalid_utf8_line_answers_error_and_loop_survives() {
        for jobs in [1, 4] {
            let mut input: Vec<u8> = vec![0xff, 0xfe, b'{', 0x80, b'\n'];
            input.extend_from_slice(request_line(3, 1).as_bytes());
            input.push(b'\n');
            let (lines, summary) = run_bytes(&input, jobs);
            assert_eq!(lines.len(), 2, "jobs={jobs}: {lines:?}");
            assert!(lines[0].contains("not valid UTF-8"), "{}", lines[0]);
            assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
            assert_eq!(summary.errors, 1, "jobs={jobs}");
        }
    }

    #[test]
    fn line_exactly_at_cap_is_still_parsed() {
        // Pad a valid request with trailing spaces up to exactly
        // MAX_LINE_BYTES: the reader must accept it (the cap is
        // inclusive) and the request must succeed.
        let request = request_line(5, 2);
        let mut input = request.clone();
        input.push_str(&" ".repeat(MAX_LINE_BYTES - request.len()));
        assert_eq!(input.len(), MAX_LINE_BYTES);
        input.push('\n');
        let (lines, summary) = run(&input, 1);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn parallel_serve_preserves_input_order() {
        // Interleave expensive (n=40) and cheap (n=0) requests; with 4
        // workers the cheap ones finish first, and the writer must hold
        // them until their turn.
        let mut input = String::new();
        for id in 0..12u64 {
            input.push_str(&request_line(id, if id % 2 == 0 { 40 } else { 0 }));
            input.push('\n');
        }
        let (lines, summary) = run(&input, 4);
        assert_eq!(lines.len(), 12);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"id\":{i}")), "line {i}: {line}");
        }
        assert_eq!(summary.requests, 12);
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn warm_hits_carry_their_own_programs_diagnostics() {
        // Both programs resolve `f` to the same cache key (the key covers
        // only the entry's reachable closure), but the pre-flight warnings
        // about `g` belong only to the program that defines it.
        let with_g = r#"{"program": "(define (f x) (+ x 1)) (define (g y) (g y))", "inputs": "_"}"#;
        let without_g = r#"{"program": "(define (f x) (+ x 1))", "inputs": "_"}"#;
        for (first, second) in [(with_g, without_g), (without_g, with_g)] {
            let (lines, _) = run(&format!("{first}\n{second}\n"), 1);
            assert_eq!(lines.len(), 2, "{lines:?}");
            assert!(lines[1].contains("\"cache\":\"hit\""), "{}", lines[1]);
            for (request, line) in [first, second].iter().zip(&lines) {
                let has_g = request.contains("(g y)");
                let warned = (
                    line.contains("\"diagnostics\""),
                    line.contains("\"function\":\"g\""),
                );
                assert_eq!(warned, (has_g, has_g), "{request} -> {line}");
            }
        }
    }

    #[test]
    fn templated_execute_answers_carry_their_own_values() {
        // One cache key, three inputs: the later answers assemble from the
        // fragment the key's cache entry keeps, each with its own exec
        // outcome.
        let line = |id: u64, x: &str| {
            format!(r#"{{"id": {id}, "program": "{POWER}", "inputs": "_ 3", "execute": ["{x}"]}}"#)
        };
        let input = format!("{}\n{}\n{}\n", line(1, "2"), line(2, "3"), line(3, "4"));
        let (lines, _) = run(&input, 1);
        assert_eq!(lines.len(), 3, "{lines:?}");
        let expected = [(1, "8"), (2, "27"), (3, "64")];
        for (line, (id, value)) in lines.iter().zip(expected) {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("id").and_then(Json::as_u64), Some(id), "{line}");
            let exec = v.get("exec").expect("exec object");
            assert_eq!(
                exec.get("value").and_then(Json::as_str),
                Some(value),
                "{line}"
            );
        }
        assert!(lines[1].contains("\"cache\":\"hit\""), "{}", lines[1]);
    }

    #[test]
    fn parallel_serve_matches_inline_serve() {
        let mut input = String::new();
        for id in 0..8u64 {
            input.push_str(&request_line(id, id % 3));
            input.push('\n');
        }
        let (serial, _) = run(&input, 1);
        let (parallel, _) = run(&input, 4);
        // Residuals are deterministic; only cache dispositions and wall
        // time may differ between the runs.
        let strip = |line: &str| -> String {
            let v = Json::parse(line).unwrap();
            let residual = v.get("residual").and_then(Json::as_str).unwrap().to_owned();
            let id = v.get("id").and_then(Json::as_u64).unwrap();
            format!("{id}:{residual}")
        };
        let serial: Vec<_> = serial.iter().map(|l| strip(l)).collect();
        let parallel: Vec<_> = parallel.iter().map(|l| strip(l)).collect();
        assert_eq!(serial, parallel);
    }
}
