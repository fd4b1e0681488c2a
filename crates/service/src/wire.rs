//! Line-delimited JSON wire protocol over std TCP.
//!
//! The service's second front-end (the first is the in-process
//! [`ServiceHandle`]): a minimal request/response protocol where every
//! message is one JSON object on one line. Analyses cannot travel over
//! the wire — a weak distance is code — so submissions reference a
//! server-side [`Catalog`] of named problems (the `serve` bin in
//! `wdm_bench` registers the GSL suite and synthetic problems).
//!
//! Requests:
//!
//! | `cmd`       | fields                                               | reply |
//! |-------------|------------------------------------------------------|-------|
//! | `ping`      |                                                      | `{"ok":true}` |
//! | `problems`  |                                                      | `{"ok":true,"problems":[...]}` |
//! | `submit`    | `problem`, `seed`, `rounds?`, `max_evals?`, `backends?`, `weight?` | `{"ok":true,"id":N}` |
//! | `status`    | `id`                                                 | `{"ok":true,"done":bool}` |
//! | `wait`      | `id`                                                 | outcome object |
//! | `cancel`    | `id`                                                 | `{"ok":true}` |
//! | `report`    |                                                      | `{"ok":true,"jobs":[...]}` |
//! | `subscribe` |                                                      | event stream until disconnect |
//! | `shutdown`  |                                                      | `{"ok":true}`, then the server stops |
//!
//! Errors reply `{"ok":false,"error":"..."}`. Outcome objects carry
//! solution inputs both as decimal floats (readability) and as IEEE-754
//! bit patterns (exactness), mirroring the checkpoint convention. A
//! request line longer than [`MAX_REQUEST_LINE`] bytes gets an error
//! reply, and the server closes its connection. So does a connection
//! opened while [`MAX_CONNECTIONS`] others are being served, and one on
//! which the server has waited [`IDLE_TIMEOUT`] for a request.

use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde::Value;
use wdm_core::{AnalysisConfig, BackendKind, Outcome, WeakDistance};

use crate::service::{
    AnalysisService, EventKind, JobId, JobOutcome, JobSpec, ProgressEvent, ServiceHandle,
};

/// The longest request line the server reads, in bytes before its `\n`.
/// A longer line is refused and its connection closed, so a client that
/// never sends a newline cannot make the server buffer without bound.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// The most connections the server serves at once, each on a thread of its
/// own. A connection beyond them gets an error reply and is closed, so
/// clients cannot make the server hold threads without bound.
pub const MAX_CONNECTIONS: usize = 64;

/// How long the server waits for the next byte of a request. A connection
/// that stays silent for longer gets an error reply and is closed, so
/// idle clients cannot hold the [`MAX_CONNECTIONS`] slots. Time spent
/// serving a request (a `wait`, a `subscribe` stream) does not count.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(120);

/// Named problems a wire client can submit against.
#[derive(Clone, Default)]
pub struct Catalog {
    entries: Vec<(String, Arc<dyn WeakDistance>)>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a problem under `name` (later registrations shadow
    /// earlier ones on resolve).
    pub fn register(mut self, name: impl Into<String>, wd: Arc<dyn WeakDistance>) -> Self {
        self.entries.push((name.into(), wd));
        self
    }

    /// Resolves a problem by name.
    pub fn resolve(&self, name: &str) -> Option<Arc<dyn WeakDistance>> {
        self.entries
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, wd)| Arc::clone(wd))
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|(n, _)| n.clone()).collect()
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn ok(mut fields: Vec<(&str, Value)>) -> Value {
    fields.insert(0, ("ok", Value::Bool(true)));
    obj(fields)
}

fn err(message: impl Into<String>) -> Value {
    obj(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::Str(message.into())),
    ])
}

fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// Parses a backend name: the report name ([`BackendKind::name`]) or a
/// short code (`bh`, `de`, `powell`, `ms`, `rs`).
pub fn parse_backend(name: &str) -> Option<BackendKind> {
    let lower = name.to_ascii_lowercase();
    BackendKind::all()
        .into_iter()
        .find(|b| b.name().to_ascii_lowercase() == lower)
        .or(match lower.as_str() {
            "bh" => Some(BackendKind::BasinHopping),
            "de" => Some(BackendKind::DifferentialEvolution),
            "powell" => Some(BackendKind::Powell),
            "ms" => Some(BackendKind::MultiStart),
            "rs" => Some(BackendKind::RandomSearch),
            _ => None,
        })
}

fn floats_json(xs: &[f64]) -> (Value, Value) {
    (
        Value::Array(xs.iter().map(|&x| Value::Float(x)).collect()),
        Value::Array(xs.iter().map(|&x| Value::UInt(x.to_bits())).collect()),
    )
}

/// Renders a terminal outcome as a wire object.
pub fn outcome_json(id: JobId, outcome: &JobOutcome) -> Value {
    let winner = outcome.run.winning_backend().name();
    let mut fields = vec![
        ("ok", Value::Bool(true)),
        ("id", Value::UInt(id.0 as u64)),
        ("name", Value::Str(outcome.name.clone())),
        ("winner", Value::Str(winner.to_string())),
    ];
    match &outcome.run.outcome() {
        Outcome::Found { input, evals } => {
            let (dec, bits) = floats_json(input);
            fields.push(("found", Value::Bool(true)));
            fields.push(("input", dec));
            fields.push(("input_bits", bits));
            fields.push(("evals", Value::UInt(*evals as u64)));
        }
        Outcome::NotFound {
            best_value,
            best_input,
            evals,
        } => {
            let (dec, bits) = floats_json(best_input);
            fields.push(("found", Value::Bool(false)));
            fields.push(("best_value", Value::Float(*best_value)));
            fields.push(("best_value_bits", Value::UInt(best_value.to_bits())));
            fields.push(("best_input", dec));
            fields.push(("best_input_bits", bits));
            fields.push(("evals", Value::UInt(*evals as u64)));
        }
    }
    if let Some(reason) = &outcome.failure {
        fields.push(("failed", Value::Str(reason.clone())));
    }
    obj(fields)
}

/// Renders one job of the `report` reply: its outcome object once it has
/// one, a pending marker before.
fn report_entry_json(id: JobId, name: &str, outcome: Option<&JobOutcome>) -> Value {
    match outcome {
        Some(outcome) => outcome_json(id, outcome),
        None => obj(vec![
            ("ok", Value::Bool(true)),
            ("id", Value::UInt(id.0 as u64)),
            ("name", Value::Str(name.to_string())),
            ("pending", Value::Bool(true)),
        ]),
    }
}

/// Renders a progress event as a wire object.
pub fn event_json(event: &ProgressEvent) -> Value {
    let mut fields = vec![
        ("job", Value::UInt(event.job.0 as u64)),
        ("name", Value::Str(event.name.clone())),
    ];
    match &event.kind {
        EventKind::Admitted { resumed_at_turn } => {
            fields.push(("event", Value::Str("admitted".into())));
            fields.push(("resumed_at_turn", Value::UInt(*resumed_at_turn)));
        }
        EventKind::Progress {
            residual,
            evals,
            leader,
            turn,
        } => {
            fields.push(("event", Value::Str("progress".into())));
            fields.push(("residual", Value::Float(*residual)));
            fields.push(("residual_bits", Value::UInt(residual.to_bits())));
            fields.push(("evals", Value::UInt(*evals as u64)));
            fields.push((
                "leader",
                match leader {
                    Some(b) => Value::Str(b.name().to_string()),
                    None => Value::Null,
                },
            ));
            fields.push(("turn", Value::UInt(*turn)));
        }
        EventKind::Checkpointed { turn } => {
            fields.push(("event", Value::Str("checkpointed".into())));
            fields.push(("turn", Value::UInt(*turn)));
        }
        EventKind::Finished {
            found,
            evals,
            winner,
        } => {
            fields.push(("event", Value::Str("finished".into())));
            fields.push(("found", Value::Bool(*found)));
            fields.push(("evals", Value::UInt(*evals as u64)));
            fields.push(("winner", Value::Str(winner.name().to_string())));
        }
        EventKind::Cancelled => {
            fields.push(("event", Value::Str("cancelled".into())));
        }
        EventKind::Failed { reason } => {
            fields.push(("event", Value::Str("failed".into())));
            fields.push(("reason", Value::Str(reason.clone())));
        }
    }
    obj(fields)
}

/// How a dispatched request is answered.
enum Reply {
    /// One response line.
    Line(Value),
    /// The `report` line, written job by job ([`write_report`]).
    Report,
    /// Stream progress events on this connection until it closes.
    Stream,
    /// One `ok` line, then stop the whole server.
    Shutdown,
}

fn dispatch(request: &Value, handle: &ServiceHandle, catalog: &Catalog) -> Reply {
    let cmd = match request.field("cmd") {
        Value::Str(s) => s.as_str(),
        _ => return Reply::Line(err("missing cmd")),
    };
    match cmd {
        "ping" => Reply::Line(ok(vec![])),
        "problems" => Reply::Line(ok(vec![(
            "problems",
            Value::Array(catalog.names().into_iter().map(Value::Str).collect()),
        )])),
        "submit" => {
            let Value::Str(problem) = request.field("problem") else {
                return Reply::Line(err("submit needs a problem name"));
            };
            let Some(wd) = catalog.resolve(problem) else {
                return Reply::Line(err(format!("unknown problem {problem:?}")));
            };
            let Some(seed) = as_u64(request.field("seed")) else {
                return Reply::Line(err("submit needs a seed"));
            };
            let mut config = AnalysisConfig::quick(seed);
            if let Some(rounds) = as_u64(request.field("rounds")) {
                config = config.with_rounds(rounds as usize);
            }
            if let Some(max_evals) = as_u64(request.field("max_evals")) {
                config = config.with_max_evals(max_evals as usize);
            }
            let mut spec = JobSpec::new(problem.clone(), wd, config);
            if let Value::Array(names) = request.field("backends") {
                let mut backends = Vec::new();
                for name in names {
                    let Value::Str(name) = name else {
                        return Reply::Line(err("backends must be strings"));
                    };
                    let Some(backend) = parse_backend(name) else {
                        return Reply::Line(err(format!("unknown backend {name:?}")));
                    };
                    backends.push(backend);
                }
                if backends.is_empty() {
                    return Reply::Line(err("backends must be non-empty"));
                }
                spec = spec.with_backends(&backends);
            }
            if let Some(weight) = as_u64(request.field("weight")) {
                spec = spec.with_weight(weight as usize);
            }
            match handle.submit(spec) {
                Ok(id) => Reply::Line(ok(vec![("id", Value::UInt(id.0 as u64))])),
                Err(closed) => Reply::Line(err(closed.to_string())),
            }
        }
        "status" => match as_u64(request.field("id")) {
            Some(id) if (id as usize) < handle.jobs() => {
                let done = handle.outcome(JobId(id as usize)).is_some();
                Reply::Line(ok(vec![("done", Value::Bool(done))]))
            }
            _ => Reply::Line(err("status needs a known id")),
        },
        "wait" => match as_u64(request.field("id")) {
            Some(id) if (id as usize) < handle.jobs() => {
                let id = JobId(id as usize);
                let outcome = handle.wait(id);
                Reply::Line(outcome_json(id, &outcome))
            }
            _ => Reply::Line(err("wait needs a known id")),
        },
        "cancel" => match as_u64(request.field("id")) {
            Some(id) if (id as usize) < handle.jobs() => {
                handle.cancel(JobId(id as usize));
                Reply::Line(ok(vec![]))
            }
            _ => Reply::Line(err("cancel needs a known id")),
        },
        "report" => Reply::Report,
        "subscribe" => Reply::Stream,
        "shutdown" => Reply::Shutdown,
        other => Reply::Line(err(format!("unknown cmd {other:?}"))),
    }
}

fn json_text(value: &Value) -> std::io::Result<String> {
    serde_json::to_string(value).map_err(|e| std::io::Error::other(format!("{e:?}")))
}

/// Writes `value` and its newline in one write: a reply split in two
/// writes waits for the client's delayed ACK before its second part.
fn write_line(stream: &mut TcpStream, value: &Value) -> std::io::Result<()> {
    let mut text = json_text(value)?;
    text.push('\n');
    stream.write_all(text.as_bytes())
}

/// Sends an error reply saying `why`, then ends the connection's output.
/// Closing with the client's bytes unread resets the connection; shutting
/// down the write side first delivers the refusal and then the end of the
/// stream.
fn refuse(stream: &mut TcpStream, why: String) {
    let _ = write_line(stream, &err(why));
    let _ = stream.shutdown(Shutdown::Write);
}

/// Writes the `report` reply, `{"ok":true,"jobs":[...]}` on one line, one
/// job at a time through a buffer: the state lock is taken per job while
/// its entry is rendered, never across a write, and the whole reply never
/// sits in memory at once. Lists the jobs admitted when the report starts.
fn write_report(out: impl Write, handle: &ServiceHandle) -> std::io::Result<()> {
    let mut out = BufWriter::new(out);
    out.write_all(b"{\"ok\":true,\"jobs\":[")?;
    for i in 0..handle.jobs() {
        let id = JobId(i);
        let Some(entry) =
            handle.report_job(id, |name, outcome| report_entry_json(id, name, outcome))
        else {
            break;
        };
        if i > 0 {
            out.write_all(b",")?;
        }
        out.write_all(json_text(&entry)?.as_bytes())?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

/// What [`read_request`] found on the connection.
enum Request {
    /// A line, now in the buffer without its line ending.
    Line,
    /// A line longer than [`MAX_REQUEST_LINE`] bytes.
    TooLong,
    /// No byte arrived within the connection's read timeout.
    Idle,
    /// The end of the stream, or a failed read.
    End,
}

/// Reads the next request line into `line`, reading at most one byte past
/// [`MAX_REQUEST_LINE`]. Strips `\n` or `\r\n`, as [`BufRead::lines`]
/// does; a last line without a newline still counts.
fn read_request(reader: &mut impl BufRead, line: &mut Vec<u8>) -> Request {
    line.clear();
    let limit = MAX_REQUEST_LINE as u64 + 1;
    match reader.take(limit).read_until(b'\n', line) {
        Ok(0) => return Request::End,
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            return Request::Idle
        }
        Err(_) => return Request::End,
        Ok(_) => {}
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() > MAX_REQUEST_LINE {
        return Request::TooLong;
    }
    Request::Line
}

fn handle_connection(
    stream: TcpStream,
    handle: ServiceHandle,
    catalog: Arc<Catalog>,
    stop: Arc<AtomicBool>,
    idle_timeout: Duration,
) {
    // No Nagle delay: a reply sent while the previous one is unacknowledged
    // (pipelined requests) goes out at once, not after the client's
    // delayed ACK.
    if stream.set_read_timeout(Some(idle_timeout)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        match read_request(&mut reader, &mut buf) {
            Request::Line => {}
            Request::End => return,
            Request::TooLong => {
                refuse(
                    &mut writer,
                    format!(
                        "request line exceeds {MAX_REQUEST_LINE} bytes; closing the connection"
                    ),
                );
                return;
            }
            Request::Idle => {
                refuse(
                    &mut writer,
                    format!("no request for {idle_timeout:?}; closing the connection"),
                );
                return;
            }
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            return;
        };
        if line.trim().is_empty() {
            continue;
        }
        let reply = match serde_json::value_from_str(line) {
            Ok(request) => dispatch(&request, &handle, &catalog),
            Err(e) => Reply::Line(err(format!("bad request: {e:?}"))),
        };
        match reply {
            Reply::Line(value) => {
                if write_line(&mut writer, &value).is_err() {
                    return;
                }
            }
            Reply::Report => {
                if write_report(&mut writer, &handle).is_err() {
                    return;
                }
            }
            Reply::Stream => {
                // The connection becomes an event stream; it ends when
                // the client disconnects or the service shuts down
                // (which closes every subscriber sender).
                let events = handle.subscribe();
                if write_line(&mut writer, &ok(vec![])).is_err() {
                    return;
                }
                for event in events {
                    if write_line(&mut writer, &event_json(&event)).is_err() {
                        return;
                    }
                }
                return;
            }
            Reply::Shutdown => {
                let _ = write_line(&mut writer, &ok(vec![]));
                stop.store(true, Ordering::SeqCst);
                return;
            }
        }
    }
}

/// Serves the wire protocol on `listener` until a client sends
/// `shutdown`. Owns the service: on shutdown, unfinished jobs are
/// cancelled to terminal outcomes, the workers are joined, and every
/// subscriber stream is closed before `serve` returns.
pub fn serve(listener: TcpListener, service: AnalysisService, catalog: Catalog) {
    serve_with_idle_timeout(listener, service, catalog, IDLE_TIMEOUT);
}

/// [`serve`], closing connections that stay silent for `idle_timeout`
/// rather than [`IDLE_TIMEOUT`].
fn serve_with_idle_timeout(
    listener: TcpListener,
    service: AnalysisService,
    catalog: Catalog,
    idle_timeout: Duration,
) {
    let handle = service.handle();
    let catalog = Arc::new(catalog);
    let stop = Arc::new(AtomicBool::new(false));
    let local_addr = listener.local_addr().ok();
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        for finished in connections.extract_if(.., |c| c.is_finished()) {
            let _ = finished.join();
        }
        if connections.len() >= MAX_CONNECTIONS {
            refuse(
                &mut stream,
                format!("the server is serving {MAX_CONNECTIONS} connections; closing this one"),
            );
            continue;
        }
        let handle = handle.clone();
        let catalog = Arc::clone(&catalog);
        let conn_stop = Arc::clone(&stop);
        let addr = local_addr;
        connections.push(std::thread::spawn(move || {
            handle_connection(
                stream,
                handle,
                catalog,
                Arc::clone(&conn_stop),
                idle_timeout,
            );
            // Unblock the accept loop once a shutdown was requested.
            if conn_stop.load(Ordering::SeqCst) {
                if let Some(addr) = addr {
                    let _ = TcpStream::connect(addr);
                }
            }
        }));
    }
    // Terminal outcomes for every job, workers joined, subscriber
    // senders dropped — which ends the streaming connections joined
    // below.
    service.shutdown();
    for conn in connections {
        let _ = conn.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use fp_runtime::Interval;
    use std::net::SocketAddr;
    use std::time::Instant;
    use wdm_core::weak_distance::FnWeakDistance;

    /// Serves an empty catalog on a loopback port from a background
    /// thread; tests submit through the returned handle.
    fn start() -> (SocketAddr, ServiceHandle, JoinHandle<()>) {
        start_with_idle_timeout(IDLE_TIMEOUT)
    }

    /// [`start`], closing connections that stay silent for `idle_timeout`.
    fn start_with_idle_timeout(
        idle_timeout: Duration,
    ) -> (SocketAddr, ServiceHandle, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local address");
        let service = AnalysisService::start(ServiceConfig::new(2));
        let handle = service.handle();
        let server = std::thread::spawn(move || {
            serve_with_idle_timeout(listener, service, Catalog::new(), idle_timeout)
        });
        (addr, handle, server)
    }

    /// Sends one request line on a fresh connection and returns the
    /// reply line, newline included.
    fn request(addr: SocketAddr, line: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{line}").expect("send request");
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .expect("read reply");
        reply
    }

    fn stop(addr: SocketAddr, server: JoinHandle<()>) {
        assert_eq!(request(addr, r#"{"cmd":"shutdown"}"#), "{\"ok\":true}\n");
        server.join().expect("server thread");
    }

    /// The `report` reply as it was rendered before it was streamed: a
    /// snapshot of every job, one `Value` tree, one serialization.
    fn reference_report_line(handle: &ServiceHandle) -> String {
        let snapshot: Vec<(JobId, String, Option<JobOutcome>)> = (0..handle.jobs())
            .map(|i| {
                handle
                    .report_job(JobId(i), |name, outcome| {
                        (JobId(i), name.to_string(), outcome.cloned())
                    })
                    .expect("admitted job")
            })
            .collect();
        let jobs = snapshot
            .into_iter()
            .map(|(id, name, outcome)| match outcome {
                Some(outcome) => outcome_json(id, &outcome),
                None => obj(vec![
                    ("ok", Value::Bool(true)),
                    ("id", Value::UInt(id.0 as u64)),
                    ("name", Value::Str(name)),
                    ("pending", Value::Bool(true)),
                ]),
            })
            .collect();
        let text = serde_json::to_string(&ok(vec![("jobs", Value::Array(jobs))])).expect("render");
        format!("{text}\n")
    }

    fn job(name: &str, wd: FnWeakDistance<fn(&[f64]) -> f64>, max_evals: usize) -> JobSpec {
        let config = AnalysisConfig::quick(5)
            .with_rounds(1)
            .with_max_evals(max_evals);
        JobSpec::new(name, Arc::new(wd), config)
    }

    #[test]
    fn streamed_report_matches_the_single_tree_rendering() {
        let (addr, handle, server) = start();
        let empty = request(addr, r#"{"cmd":"report"}"#);
        assert_eq!(empty, "{\"ok\":true,\"jobs\":[]}\n");
        assert_eq!(empty, reference_report_line(&handle));

        let domain = vec![Interval::symmetric(100.0)];
        let found: fn(&[f64]) -> f64 = |x| (x[0] - 3.0).abs();
        let zero_free: fn(&[f64]) -> f64 = |x| x[0].abs() + 0.5;
        let finished = [
            handle.submit(job(
                "found",
                FnWeakDistance::new(1, domain.clone(), found),
                2_000,
            )),
            handle.submit(job(
                "not-found",
                FnWeakDistance::new(1, domain.clone(), zero_free),
                2_000,
            )),
        ];
        for id in finished {
            handle.wait(id.expect("service accepts submissions"));
        }
        // Far more budget than the test lives: it stays pending until it
        // is cancelled below.
        let pending = job(
            "pending",
            FnWeakDistance::new(1, domain, zero_free),
            1 << 40,
        );
        let pending = handle.submit(pending).expect("service accepts submissions");

        let streamed = request(addr, r#"{"cmd":"report"}"#);
        assert!(handle.outcome(pending).is_none(), "the long job finished");
        assert_eq!(streamed, reference_report_line(&handle));
        assert!(streamed.contains("\"found\":true"), "{streamed}");
        assert!(streamed.contains("\"found\":false"), "{streamed}");
        assert!(streamed.contains("\"pending\":true"), "{streamed}");
        handle.cancel(pending);
        handle.wait(pending);
        stop(addr, server);
    }

    /// Regression: each reply went out in two writes, the line and then
    /// its newline, and Nagle's algorithm held the second until the
    /// client's delayed ACK arrived, ~40 ms per reply. In a burst of
    /// pipelined requests the next reply waited for the same ACK too,
    /// until the server turned Nagle's algorithm off.
    #[test]
    fn pipelined_replies_arrive_without_a_stall() {
        let (addr, _handle, server) = start();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let burst = "{\"cmd\":\"ping\"}\n".repeat(4);
        let started = Instant::now();
        let mut reply = String::new();
        for _ in 0..50 {
            stream.write_all(burst.as_bytes()).expect("send pings");
            for _ in 0..4 {
                reply.clear();
                reader.read_line(&mut reply).expect("read reply");
                assert_eq!(reply, "{\"ok\":true}\n");
            }
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "200 pipelined pings took {elapsed:?}"
        );
        drop((stream, reader));
        stop(addr, server);
    }

    #[test]
    fn an_overlong_request_line_is_refused_and_its_connection_closed() {
        let (addr, _handle, server) = start();
        let stream = TcpStream::connect(addr).expect("connect");
        // A server that buffers the whole line never answers: fail, not hang.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .expect("read timeout");
        let mut flood = stream.try_clone().expect("clone stream");
        // 2 MiB without a newline. The server hangs up after the first
        // MiB, so this write fails partway; that is expected.
        let writer = std::thread::spawn(move || {
            let _ = flood.write_all(&vec![b'x'; 2 * MAX_REQUEST_LINE]);
        });
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read the refusal");
        let reply = serde_json::value_from_str(line.trim()).expect("JSON refusal");
        assert_eq!(reply.field("ok"), &Value::Bool(false), "{line}");
        line.clear();
        assert_eq!(
            reader.read_line(&mut line).expect("read to the end"),
            0,
            "the connection stayed open: {line}"
        );
        writer.join().expect("flooding thread");
        // The server keeps serving new connections.
        assert_eq!(request(addr, r#"{"cmd":"ping"}"#), "{\"ok\":true}\n");
        stop(addr, server);
    }

    /// [`request`], retried while the server refuses the connection as one
    /// over [`MAX_CONNECTIONS`]: a handler thread frees its slot shortly
    /// after its client hangs up, not at once.
    fn request_admitted(addr: SocketAddr, line: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let mut stream = TcpStream::connect(addr).expect("connect");
            // A refused connection may be closed before the request is
            // sent or read: a failed write or read is one more refusal.
            let _ = writeln!(stream, "{line}");
            let mut reply = String::new();
            let read = BufReader::new(stream).read_line(&mut reply);
            if read.is_ok() && !reply.contains("\"ok\":false") {
                return reply;
            }
            assert!(
                Instant::now() < deadline,
                "no connection slot freed: {reply}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Reads an `ok:false` line from `stream` and then the end of the
    /// stream, and returns the line.
    fn refusal_then_end(stream: TcpStream) -> String {
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream);
        let mut refusal = String::new();
        reader.read_line(&mut refusal).expect("read the refusal");
        let reply = serde_json::value_from_str(refusal.trim()).expect("JSON refusal");
        assert_eq!(reply.field("ok"), &Value::Bool(false), "{refusal}");
        let mut rest = String::new();
        assert_eq!(
            reader.read_line(&mut rest).expect("read to the end"),
            0,
            "the connection stayed open: {rest}"
        );
        refusal
    }

    #[test]
    fn connections_over_the_cap_are_refused_until_one_closes() {
        let (addr, _handle, server) = start();
        let mut idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        // The server accepts in order: it is serving every idle connection
        // when it reaches this one.
        let refusal = refusal_then_end(TcpStream::connect(addr).expect("connect"));
        assert!(refusal.contains("connections"), "{refusal}");

        drop(idle.pop());
        assert_eq!(
            request_admitted(addr, r#"{"cmd":"ping"}"#),
            "{\"ok\":true}\n"
        );
        drop(idle);
        assert_eq!(
            request_admitted(addr, r#"{"cmd":"shutdown"}"#),
            "{\"ok\":true}\n"
        );
        server.join().expect("server thread");
    }

    #[test]
    fn silent_connections_are_closed_after_the_idle_timeout() {
        let idle_timeout = Duration::from_secs(1);
        let (addr, _handle, server) = start_with_idle_timeout(idle_timeout);
        // The timeout bounds each wait for a request, not the connection's
        // life: requests a third of it apart keep a connection open.
        let mut active = TcpStream::connect(addr).expect("connect");
        for _ in 0..4 {
            writeln!(active, r#"{{"cmd":"ping"}}"#).expect("send ping");
            let mut reply = String::new();
            BufReader::new(&active)
                .read_line(&mut reply)
                .expect("read reply");
            assert_eq!(reply, "{\"ok\":true}\n");
            std::thread::sleep(idle_timeout / 3);
        }
        // Silent clients holding every slot give their slots up.
        let silent: Vec<TcpStream> = (1..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        for stream in std::iter::once(active).chain(silent) {
            let refusal = refusal_then_end(stream);
            assert!(refusal.contains("no request for"), "{refusal}");
        }
        assert_eq!(
            request_admitted(addr, r#"{"cmd":"ping"}"#),
            "{\"ok\":true}\n"
        );
        assert_eq!(
            request_admitted(addr, r#"{"cmd":"shutdown"}"#),
            "{\"ok\":true}\n"
        );
        server.join().expect("server thread");
    }

    #[test]
    fn request_lines_end_at_a_newline_or_the_stream_end() {
        let mut input: &[u8] = b"{\"cmd\":\"ping\"}\r\n\nlast";
        let mut line = Vec::new();
        assert!(matches!(read_request(&mut input, &mut line), Request::Line));
        assert_eq!(line, b"{\"cmd\":\"ping\"}");
        assert!(matches!(read_request(&mut input, &mut line), Request::Line));
        assert!(line.is_empty());
        assert!(matches!(read_request(&mut input, &mut line), Request::Line));
        assert_eq!(line, b"last");
        assert!(matches!(read_request(&mut input, &mut line), Request::End));

        // A line of exactly the cap is accepted; one byte more is not.
        let mut at_cap = vec![b'x'; MAX_REQUEST_LINE];
        at_cap.push(b'\n');
        assert!(matches!(
            read_request(&mut &at_cap[..], &mut line),
            Request::Line
        ));
        assert_eq!(line.len(), MAX_REQUEST_LINE);
        let over = vec![b'x'; MAX_REQUEST_LINE + 1];
        assert!(matches!(
            read_request(&mut &over[..], &mut line),
            Request::TooLong
        ));
    }
}
