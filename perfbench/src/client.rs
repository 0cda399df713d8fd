//! The deployed server and the closed-loop client that drives it.
//!
//! [`Server`] owns one `ppe serve --listen 127.0.0.1:0 --jobs N` child:
//! it waits for the listening line and always stops (and reaps) the
//! process, on every exit path; [`cpu_ns`] and [`peak_rss_kib`] read its
//! CPU time and peak RSS from `/proc`. [`Conn`] is one TCP connection
//! speaking the JSON-lines protocol, one request in flight at a time.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppe_server::Json;

/// A running `ppe serve --listen` child process.
pub struct Server {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<String>>,
}

impl Server {
    /// Spawns the server and waits until it is listening.
    pub fn spawn(ppe: &Path, jobs: usize) -> Result<Server, String> {
        let child = Command::new(ppe)
            .args(["serve", "--listen", "127.0.0.1:0", "--jobs"])
            .arg(jobs.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ppe.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
            stderr: None,
        };
        let stderr = server.child.stderr.take().expect("stderr is piped");
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("reading server stderr: {e}"))?;
            if n == 0 {
                return Err("server exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("; listening on ") {
                server.addr = addr.to_owned();
                break;
            }
        }
        server.stderr = Some(std::thread::spawn(move || drain(reader)));
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Opens one more connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// Graceful stop: `shutdown` on `conn`, close every connection, and
    /// wait for the process to exit.
    pub fn shutdown(mut self, mut conns: Vec<Conn>) -> Result<(), String> {
        if let Some(first) = conns.first_mut() {
            first
                .call("{\"cmd\":\"shutdown\"}")
                .map_err(|e| format!("shutdown: {e}"))?;
        }
        drop(conns);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not drain within 20 s".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}

/// CPU time of every live thread of process `pid`, in nanoseconds, from
/// `/proc/<pid>/task/*/schedstat` (read it before sessions end: the file
/// of an exited thread is gone).
pub fn cpu_ns(pid: u32) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut total = 0u64;
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
        let path = entry.map_err(|e| e.to_string())?.path().join("schedstat");
        // A thread may exit between listing and reading; skip it.
        if let Ok(text) = std::fs::read_to_string(&path) {
            let ns = text.split_whitespace().next().unwrap_or("0");
            total += ns.parse::<u64>().map_err(|e| format!("{path:?}: {e}"))?;
        }
    }
    Ok(total)
}

/// Peak resident set (`VmHWM`) of process `pid` in KiB.
pub fn peak_rss_kib(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

fn drain(mut reader: BufReader<ChildStderr>) -> String {
    let mut rest = String::new();
    let _ = reader.read_to_string(&mut rest);
    rest
}

/// One client connection: a request line out, a response line back.
///
/// The socket is non-blocking and the client polls it for the answer, so
/// its own wake-up is not part of a round trip and its vCPU never idles
/// while the server works. With a blocking read the round trip of a short
/// request flipped between two modes about 2x apart, depending on where
/// the scheduler had placed the two threads.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    /// Bytes received; the first `done` of them were returned already.
    buf: Vec<u8>,
    done: usize,
    chunk: Box<[u8]>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(64 * 1024),
            buf: Vec::with_capacity(256 * 1024),
            done: 0,
            chunk: vec![0; 64 * 1024].into_boxed_slice(),
        })
    }

    /// Sends `request` and reads its response line (without the newline).
    pub fn call(&mut self, request: &str) -> io::Result<&str> {
        self.out.clear();
        self.out.extend_from_slice(request.as_bytes());
        self.out.push(b'\n');
        let mut sent = 0;
        while sent < self.out.len() {
            match self.stream.write(&self.out[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.drain(..self.done);
        let mut scanned = 0;
        let end = loop {
            if let Some(i) = self.buf[scanned..].iter().position(|&b| b == b'\n') {
                break scanned + i;
            }
            scanned = self.buf.len();
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        self.done = end + 1;
        std::str::from_utf8(&self.buf[..end])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// The server's counters (`{"cmd":"metrics"}`), numeric fields only.
    pub fn counters(&mut self) -> Result<BTreeMap<String, u64>, String> {
        let line = self
            .call("{\"cmd\":\"metrics\"}")
            .map_err(|e| format!("metrics: {e}"))?;
        let json = Json::parse(line)?;
        let Some(Json::Obj(fields)) = json.get("metrics") else {
            return Err(format!("metrics reply has no object: {line}"));
        };
        Ok(fields
            .iter()
            .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
            .collect())
    }
}

/// The cheap per-response checks the client makes while the clock runs:
/// a tail scan (as `load_suite` does) for `ok:false`, `shed:true` and the
/// server's `wall_us`, and the byte offset of the per-key stable segment.
pub struct Scan {
    pub ok: bool,
    pub wall_us: u64,
    /// Every field that must repeat byte for byte across answers to one
    /// request: `"key":…` through `"stats":{…}`, preceded by the execution
    /// result from `"fuel_used":` on when there is one (chunk-cache fields
    /// before it legitimately differ).
    pub stable: (usize, usize),
}

pub fn scan(line: &str) -> Scan {
    let tail = &line[line.len().saturating_sub(400)..];
    let bad = tail.contains("\"ok\":false") || tail.contains("\"shed\":true");
    let wall_at = line.rfind(",\"wall_us\":");
    let wall_us = wall_at
        .and_then(|at| line[at + 11..].trim_end_matches('}').parse().ok())
        .unwrap_or(0);
    let key_at = line.find("\"key\":");
    let stable = match (key_at, wall_at) {
        (Some(k), Some(w)) if k < w => {
            let exec_at = line[..k].find("\"fuel_used\":").unwrap_or(k);
            (exec_at, w)
        }
        _ => (0, 0),
    };
    Scan {
        ok: !bad && wall_at.is_some() && key_at.is_some(),
        wall_us,
        stable,
    }
}
