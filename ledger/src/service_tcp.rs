//! `service_tcp`: `wdm_service::serve` on loopback in the benchmark
//! process — two pool workers, durable checkpoints in a fresh directory,
//! default rounds per turn — driven by a closed loop over one control
//! connection (submits, the final `report`) and one `subscribe`
//! connection. The loop keeps [`IN_FLIGHT`] jobs admitted, more than the
//! workers, so fair-share slicing interleaves tenants; jobs are a seeded
//! mix of instant-hit boundary problems and (one in three) zero-free
//! problems that spend their whole pool on the five-backend adaptive
//! portfolio. Every outcome is checked bit for bit against an in-process
//! `minimize_weak_distance_adaptive` run.

use crate::calib;
use crate::probe::TimedObjective;
use crate::report::{per_layer, Output};
use crate::run::{metric, Args, Counts, Metric};
use crate::stats::{self, mix, Digest};
use crate::trace::{self, Layer};
use fp_runtime::{BranchId, Interval};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wdm_core::adaptive::minimize_weak_distance_adaptive;
use wdm_core::boundary::{BoundaryMode, BoundaryWeakDistance};
use wdm_core::weak_distance::FnWeakDistance;
use wdm_core::{AnalysisConfig, BackendKind, Outcome, PortfolioRun, WeakDistance};
use wdm_service::{serve, AnalysisService, Catalog, EventKind, ProgressEvent, ServiceConfig};

/// Pool workers of the service.
const WORKERS: usize = 2;
/// Jobs the closed loop keeps admitted.
const IN_FLIGHT: usize = 6;
/// Jobs whose deterministic counts are compared between runs.
const PREFIX: usize = 24;
/// Restart rounds and per-round budget of every job: a zero-free job
/// spends `ROUNDS × MAX_EVALS` evaluations (about 0.3 s of one worker) over
/// several turns, so turns, not the ~44 ms reply stall of the wire, set the
/// verdict times.
const ROUNDS: u64 = 3;
const MAX_EVALS: u64 = 500_000;
/// Wall seconds of one window of the closed loop.
const WINDOW_S: f64 = 1.0;
/// Host-speed measurements per window: the pool workers run on both
/// vCPUs, the measurement on whichever one the client thread lands on, so
/// several per window average the two.
const SPEED_PROBES: u32 = 4;
/// Set-up samples per session.
const SETUP_SAMPLES: usize = 15;
/// How long any single read may block before the run counts as hung.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Problems that reach a zero almost immediately.
const INSTANT: [&str; 3] = ["boundary/fig2", "boundary/eq_zero", "boundary/glibc_sin"];
/// Problems with no zero: every job spends its whole pool.
const ZERO_FREE: [&str; 2] = ["zero_free/needle", "zero_free/sin_2p1024"];

/// The served problems. `timed` wraps each in a [`TimedObjective`].
fn catalog(timed: bool) -> Catalog {
    let problems: Vec<(&str, Arc<dyn WeakDistance>)> = vec![
        (
            "boundary/fig2",
            Arc::new(BoundaryWeakDistance::new(mini_gsl::toy::Fig2Program::new())),
        ),
        (
            "boundary/eq_zero",
            Arc::new(BoundaryWeakDistance::new(
                mini_gsl::toy::EqZeroProgram::new(),
            )),
        ),
        (
            "boundary/glibc_sin",
            Arc::new(BoundaryWeakDistance::new(
                mini_gsl::glibc_sin::GlibcSin::new(),
            )),
        ),
        (
            "zero_free/needle",
            Arc::new(FnWeakDistance::new(
                1,
                vec![Interval::symmetric(1.0e4)],
                |x: &[f64]| (x[0] - 1.0).abs() * (x[0] + 3.0).abs() + 0.5,
            )),
        ),
        (
            // The `k < 2^1024` condition of Glibc `sin`: unreachable for
            // finite inputs, so its single-site weak distance never hits 0.
            "zero_free/sin_2p1024",
            Arc::new(
                BoundaryWeakDistance::new(mini_gsl::glibc_sin::GlibcSin::new())
                    .with_mode(BoundaryMode::Single(BranchId(4))),
            ),
        ),
    ];
    problems
        .into_iter()
        .fold(Catalog::new(), |catalog, (name, wd)| {
            let wd: Arc<dyn WeakDistance> = if timed {
                Arc::new(TimedObjective::new(wd))
            } else {
                wd
            };
            catalog.register(name, wd)
        })
}

/// The `i`-th job of the seeded stream and its seed. Every block of three
/// jobs has one zero-free job, at a seeded slot, and two instant-hit ones;
/// the zero-free problems alternate between blocks. A fixed mix keeps the
/// work per job steady across seeds, and with a third of the jobs slow,
/// the median verdict is an instant-hit job queued behind other tenants'
/// turns while p90 is a whole zero-free job.
fn job(seed: u64, i: usize) -> (&'static str, u64) {
    let block = i / 3;
    let hash = mix(seed, block as u64) as usize;
    let slot = i % 3;
    let pick = hash >> (4 + 4 * slot);
    let problem = if slot == hash % 3 {
        ZERO_FREE[block % ZERO_FREE.len()]
    } else {
        INSTANT[pick % INSTANT.len()]
    };
    (problem, mix(!seed, i as u64))
}

fn config(seed: u64) -> AnalysisConfig {
    AnalysisConfig::quick(seed)
        .with_rounds(ROUNDS as usize)
        .with_max_evals(MAX_EVALS as usize)
}

/// One line-delimited JSON connection, counting bytes both ways.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    bytes: u64,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(reader),
            writer: stream,
            bytes: 0,
        })
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        self.bytes += n as u64;
        Ok(line)
    }

    /// Pipelined requests: every line in one write, then the replies, which
    /// the server sends in request order. Each request gets a client span
    /// of `layer` from the write to its reply; returns each reply with its
    /// milliseconds.
    fn requests(&mut self, layer: Layer, requests: &[String]) -> Result<Vec<(Value, f64)>, String> {
        let lines: String = requests.iter().map(|r| format!("{r}\n")).collect();
        let (sent, sent_ns) = (Instant::now(), trace::now_ns());
        self.writer
            .write_all(lines.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.bytes += lines.len() as u64;
        let mut replies = Vec::with_capacity(requests.len());
        for _ in requests {
            let reply = self.read_line()?;
            trace::record(layer, sent_ns, trace::now_ns());
            let value = serde_json::value_from_str(&reply)
                .map_err(|e| format!("bad reply {reply:?}: {e:?}"))?;
            replies.push((value, sent.elapsed().as_secs_f64() * 1e3));
        }
        Ok(replies)
    }

    /// One request, one reply line.
    fn request(&mut self, layer: Layer, request: &str) -> Result<Value, String> {
        let mut replies = self.requests(layer, &[request.to_string()])?;
        Ok(replies.remove(0).0)
    }
}

fn ok(reply: &Value) -> bool {
    matches!(reply.field("ok"), Value::Bool(true))
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn bits(v: &Value) -> Option<Vec<u64>> {
    match v {
        Value::Array(items) => items.iter().map(as_u64).collect(),
        _ => None,
    }
}

/// A running server with its two client connections.
struct Server {
    thread: JoinHandle<()>,
    control: Conn,
    subscribe: Conn,
    dir: PathBuf,
    /// The in-process progress stream, subscribed before `serve` took the
    /// service (traced runs).
    events: Option<Receiver<ProgressEvent>>,
}

/// Starts the service, the TCP front-end and both connections: the
/// benchmark's set-up.
fn start(timed: bool, dir: PathBuf) -> Result<Server, String> {
    // A directory left by an earlier process with the same id would make
    // the service resume its jobs.
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = catalog(timed);
    let service = AnalysisService::start(ServiceConfig::new(WORKERS).with_checkpoint_dir(&dir));
    let events = timed.then(|| service.handle().subscribe());
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let thread = std::thread::spawn(move || serve(listener, service, catalog));
    let control = Conn::connect(addr)?;
    let mut subscribe = Conn::connect(addr)?;
    if !ok(&subscribe.request(Layer::WireControl, "{\"cmd\":\"subscribe\"}")?) {
        return Err("subscribe refused".into());
    }
    Ok(Server {
        thread,
        control,
        subscribe,
        dir,
        events,
    })
}

impl Server {
    /// Shuts the server down and joins it.
    fn stop(mut self) -> Result<(), String> {
        let reply = self
            .control
            .request(Layer::WireControl, "{\"cmd\":\"shutdown\"}")?;
        self.thread.join().map_err(|_| "server thread panicked")?;
        let _ = std::fs::remove_dir_all(&self.dir);
        if ok(&reply) {
            Ok(())
        } else {
            Err("shutdown refused".into())
        }
    }
}

/// What one wire event says about a job: turns and finishes carry the
/// pool evaluations the job has drawn so far.
enum Wire {
    Turn(usize, u64),
    Checkpoint(usize),
    Done(usize, bool, u64),
    Other,
}

fn parse_event(line: &str) -> Wire {
    let Ok(v) = serde_json::value_from_str(line) else {
        return Wire::Other;
    };
    let Some(job) = as_u64(v.field("job")).map(|j| j as usize) else {
        return Wire::Other;
    };
    let evals = as_u64(v.field("evals")).unwrap_or(0);
    match v.field("event") {
        Value::Str(s) if s == "progress" => Wire::Turn(job, evals),
        Value::Str(s) if s == "checkpointed" => Wire::Checkpoint(job),
        Value::Str(s) if s == "finished" => Wire::Done(job, true, evals),
        Value::Str(s) if s == "cancelled" => Wire::Done(job, false, evals),
        _ => Wire::Other,
    }
}

/// One submitted job as the client saw it.
#[derive(Debug, Clone)]
struct JobLog {
    problem: &'static str,
    seed: u64,
    sent: Instant,
    done: Option<Instant>,
    ok: bool,
    turns: u64,
    checkpoints: u64,
    /// Pool evaluations reported by the job's latest event.
    evals: u64,
}

/// The closed loop's client side of the control connection.
struct Client {
    seed: u64,
    jobs: Vec<JobLog>,
    error_replies: u64,
    submit_ms: Vec<f64>,
    ping_ms: Vec<f64>,
}

impl Client {
    /// Submits the next `k` jobs of the seeded stream as one pipelined
    /// burst: every reply on the connection waits out the same ~44 ms
    /// stall, so a burst costs one stall, not `k`. Returns how many were
    /// admitted under the expected ids.
    fn submit(&mut self, control: &mut Conn, k: usize) -> Result<usize, String> {
        let first = self.jobs.len();
        let requests: Vec<String> = (first..first + k)
            .map(|i| {
                let (problem, seed) = job(self.seed, i);
                format!(
                    "{{\"cmd\":\"submit\",\"problem\":\"{problem}\",\"seed\":{seed},\"rounds\":{ROUNDS},\"max_evals\":{MAX_EVALS}}}"
                )
            })
            .collect();
        let sent = Instant::now();
        let replies = control.requests(Layer::WireSubmit, &requests)?;
        let mut admitted = 0;
        for (i, (reply, ms)) in (first..).zip(replies) {
            let (problem, seed) = job(self.seed, i);
            let accepted = ok(&reply) && as_u64(reply.field("id")) == Some(i as u64);
            self.submit_ms.push(ms);
            self.error_replies += u64::from(!accepted);
            admitted += usize::from(accepted);
            self.jobs.push(JobLog {
                problem,
                seed,
                sent,
                done: None,
                ok: accepted,
                turns: 0,
                checkpoints: 0,
                evals: 0,
            });
        }
        Ok(admitted)
    }

    /// A bare request-reply on the control connection (traced runs).
    fn ping(&mut self, control: &mut Conn) -> Result<(), String> {
        let start = Instant::now();
        let pong = control.request(Layer::WirePing, "{\"cmd\":\"ping\"}")?;
        self.ping_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.error_replies += u64::from(!ok(&pong));
        Ok(())
    }
}

/// A job's terminal outcome as rendered on the wire.
#[derive(Debug, Clone, PartialEq)]
struct WireOutcome {
    found: bool,
    input_bits: Vec<u64>,
    best_value_bits: Option<u64>,
    evals: u64,
}

fn wire_outcome(v: &Value) -> Option<WireOutcome> {
    let found = matches!(v.field("found"), Value::Bool(true));
    Some(WireOutcome {
        found,
        input_bits: bits(v.field(if found {
            "input_bits"
        } else {
            "best_input_bits"
        }))?,
        best_value_bits: if found {
            None
        } else {
            Some(as_u64(v.field("best_value_bits"))?)
        },
        evals: as_u64(v.field("evals"))?,
    })
}

fn reference_outcome(run: &PortfolioRun) -> WireOutcome {
    match run.outcome() {
        Outcome::Found { input, evals } => WireOutcome {
            found: true,
            input_bits: input.iter().map(|x| x.to_bits()).collect(),
            best_value_bits: None,
            evals: evals as u64,
        },
        Outcome::NotFound {
            best_value,
            best_input,
            evals,
        } => WireOutcome {
            found: false,
            input_bits: best_input.iter().map(|x| x.to_bits()).collect(),
            best_value_bits: Some(best_value.to_bits()),
            evals: evals as u64,
        },
    }
}

/// One [`WINDOW_S`] slice of the closed loop.
#[derive(Debug, Clone, Default)]
struct Window {
    /// Pool evaluations reported in the slice.
    evals: u64,
    /// Host-speed factors measured in the slice.
    speeds: Vec<f64>,
}

impl Window {
    fn speed(&self) -> Option<f64> {
        (!self.speeds.is_empty())
            .then(|| self.speeds.iter().sum::<f64>() / self.speeds.len() as f64)
    }
}

/// What the closed loop has seen so far, on the client's clock.
struct Timeline {
    begin: Instant,
    /// Pool evaluations as reported, stamped on receipt.
    evals: Vec<(Instant, u64)>,
    /// Host-speed factors measured during the loop.
    speeds: Vec<(Instant, f64)>,
}

impl Timeline {
    fn slice(&self, at: Instant) -> usize {
        (at.duration_since(self.begin).as_secs_f64() / WINDOW_S) as usize
    }

    /// The whole windows between the loop's start and `end`.
    fn windows(&self, end: Instant) -> Vec<Window> {
        let mut windows = vec![Window::default(); self.slice(end)];
        for &(at, evals) in &self.evals {
            if let Some(w) = windows.get_mut(self.slice(at)) {
                w.evals += evals;
            }
        }
        for &(at, speed) in &self.speeds {
            if let Some(w) = windows.get_mut(self.slice(at)) {
                w.speeds.push(speed);
            }
        }
        windows
    }
}

/// Each window's mean host-speed factor; a window without a measurement
/// takes the median of the others.
fn speeds(windows: &[Window]) -> Vec<f64> {
    let measured: Vec<f64> = windows.iter().filter_map(Window::speed).collect();
    let fill = stats::median(&measured).unwrap_or(1.0);
    windows.iter().map(|w| w.speed().unwrap_or(fill)).collect()
}

/// Calibrated nanoseconds per pool evaluation.
fn ns_per_eval(windows: &[Window]) -> f64 {
    let calibrated_s: f64 = speeds(windows).iter().map(|s| s * WINDOW_S).sum();
    let evals: u64 = windows.iter().map(|w| w.evals).sum();
    calibrated_s * 1e9 / evals.max(1) as f64
}

/// Everything one closed-loop measurement produced.
struct Session {
    /// Calibrated set-up samples.
    setup_s: Vec<f64>,
    windows: Vec<Window>,
    /// Calibrated times to verdict of the jobs that finished before the
    /// loop stopped submitting (the drain runs below the in-flight count),
    /// each scaled by the mean speed factor of the windows it spans.
    verdict_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    jobs: Vec<JobLog>,
    outcomes: Vec<Option<WireOutcome>>,
    error_replies: u64,
    bytes: u64,
    submit_ms: Vec<f64>,
    ping_ms: Vec<f64>,
    events: Vec<StreamEvent>,
    checkpoint_bytes: Vec<u64>,
    objective: (u64, u64),
}

fn ckpt_dir(tag: usize) -> PathBuf {
    PathBuf::from(format!(".ledger/ckpt-{}-{tag}", std::process::id()))
}

/// One in-process progress event: job, kind, and when it was received.
type StreamEvent = (usize, &'static str, Instant);

/// Drains the in-process stream, stamping each event on receipt and
/// sizing each durable checkpoint as it is announced.
fn collect_events(
    rx: Receiver<ProgressEvent>,
    dir: PathBuf,
) -> JoinHandle<(Vec<StreamEvent>, Vec<u64>)> {
    std::thread::spawn(move || {
        let mut events = Vec::new();
        let mut sizes = Vec::new();
        for event in rx {
            let at = Instant::now();
            let job = event.job.0;
            let kind = match event.kind {
                EventKind::Admitted { .. } => "admitted",
                EventKind::Progress { .. } => "turn",
                EventKind::Finished { .. } | EventKind::Cancelled => "done",
                EventKind::Checkpointed { .. } => {
                    let path = dir.join(format!("job-{job}.json"));
                    if let Ok(meta) = std::fs::metadata(path) {
                        sizes.push(meta.len());
                    }
                    "checkpoint"
                }
                _ => "other",
            };
            events.push((job, kind, at));
        }
        (events, sizes)
    })
}

/// Starts a throwaway server with both connections, times it, and stops
/// it: one set-up sample.
fn sample_setup(tag: usize) -> Result<f64, String> {
    let start_at = Instant::now();
    let server = start(false, ckpt_dir(tag))?;
    let took = start_at.elapsed().as_secs_f64();
    server.stop()?;
    Ok(took)
}

/// Calibrated set-up samples, then the closed loop until `seconds` have
/// elapsed, the prefix is complete and the verdict times support a p90;
/// then a drain, the final `report`, and shutdown. The host's speed is
/// measured [`SPEED_PROBES`] times a window.
fn session(args: &Args, timed: bool) -> Result<Session, String> {
    trace::set_enabled(timed);
    // Sampled while the pool is idle: during the loop a throwaway server
    // would wait for the vCPUs the busy workers hold.
    let mut setup_s = Vec::with_capacity(SETUP_SAMPLES);
    for tag in 1..=SETUP_SAMPLES {
        let speed = calib::speed();
        setup_s.push(sample_setup(tag)? * speed);
    }
    let mut server = start(timed, ckpt_dir(0))?;
    let collector = server
        .events
        .take()
        .map(|rx| collect_events(rx, server.dir.clone()));

    let (tx, rx) = mpsc::channel::<(Wire, Instant)>();
    let mut sub_reader = BufReader::new(
        server
            .subscribe
            .reader
            .get_ref()
            .try_clone()
            .map_err(|e| format!("clone: {e}"))?,
    );
    let reader = std::thread::spawn(move || {
        let mut bytes = 0u64;
        let mut line = String::new();
        loop {
            line.clear();
            match sub_reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    bytes += n as u64;
                    if tx.send((parse_event(&line), Instant::now())).is_err() {
                        break;
                    }
                }
            }
        }
        bytes
    });

    let cpu_start = stats::cpu_seconds().unwrap_or(0.0);
    let begin = Instant::now();
    let mut timeline = Timeline {
        begin,
        evals: Vec::new(),
        speeds: Vec::new(),
    };
    let mut client = Client {
        seed: args.seed,
        jobs: Vec::new(),
        error_replies: 0,
        submit_ms: Vec::new(),
        ping_ms: Vec::new(),
    };
    let mut in_flight = client.submit(&mut server.control, IN_FLIGHT)?;
    let mut finished: Vec<usize> = Vec::new();
    let mut finished_ms: Vec<f64> = Vec::new();
    let mut stopped: Option<Instant> = None;
    let mut last_done = begin;
    let mut pinged = usize::MAX;
    let mut probed = usize::MAX;
    while in_flight > 0 {
        let first = rx
            .recv_timeout(READ_TIMEOUT)
            .map_err(|_| "no service event within the read timeout")?;
        let now = Instant::now();
        let probe =
            (now.duration_since(begin).as_secs_f64() * f64::from(SPEED_PROBES) / WINDOW_S) as usize;
        if stopped.is_none() && probe != probed {
            probed = probe;
            timeline.speeds.push((now, calib::speed()));
        }
        if timed && stopped.is_none() && timeline.slice(now) != pinged {
            pinged = timeline.slice(now);
            client.ping(&mut server.control)?;
        }
        let mut replace = 0;
        for (event, at) in std::iter::once(first).chain(rx.try_iter()) {
            let jobs = &mut client.jobs;
            match event {
                Wire::Turn(j, evals) if j < jobs.len() => {
                    jobs[j].turns += 1;
                    timeline
                        .evals
                        .push((at, evals.saturating_sub(jobs[j].evals)));
                    jobs[j].evals = jobs[j].evals.max(evals);
                }
                Wire::Checkpoint(j) if j < jobs.len() => jobs[j].checkpoints += 1,
                Wire::Done(j, fine, evals) if j < jobs.len() && jobs[j].done.is_none() => {
                    let log = &mut jobs[j];
                    log.turns += 1;
                    log.done = Some(at);
                    log.ok &= fine;
                    timeline.evals.push((at, evals.saturating_sub(log.evals)));
                    last_done = at;
                    in_flight -= 1;
                    if stopped.is_some() {
                        continue;
                    }
                    finished.push(j);
                    finished_ms.push(at.duration_since(log.sent).as_secs_f64() * 1e3);
                    if begin.elapsed().as_secs_f64() >= args.seconds.max(2.0 * WINDOW_S)
                        && jobs.len() >= PREFIX
                        && stats::supported_percentile(&finished_ms, 90.0).is_some()
                    {
                        stopped = Some(at);
                    } else {
                        replace += 1;
                    }
                }
                _ => {}
            }
        }
        if replace > 0 {
            in_flight += client.submit(&mut server.control, replace)?;
        }
        if begin.elapsed().as_secs_f64() > 4.0 * args.seconds + 60.0 {
            return Err("closed loop did not drain".into());
        }
    }
    let windows = timeline.windows(stopped.unwrap_or(last_done));
    let speeds = speeds(&windows);
    let last = speeds.len().saturating_sub(1);
    let verdict_ms: Vec<f64> = finished
        .iter()
        .zip(&finished_ms)
        .map(|(&j, ms)| {
            let log = &client.jobs[j];
            let done = log.done.expect("finished jobs are done");
            let spanned = speeds
                .get(timeline.slice(log.sent).min(last)..=timeline.slice(done).min(last))
                .unwrap_or(&[1.0]);
            ms * spanned.iter().sum::<f64>() / spanned.len() as f64
        })
        .collect();
    let wall_s = last_done.duration_since(begin).as_secs_f64();
    let cpu_s = stats::cpu_seconds().unwrap_or(0.0) - cpu_start;

    let report = server
        .control
        .request(Layer::WireReport, "{\"cmd\":\"report\"}")?;
    let listed = match report.field("jobs") {
        Value::Array(items) if ok(&report) => items.clone(),
        _ => return Err("report refused".into()),
    };
    let Client {
        jobs,
        error_replies,
        submit_ms,
        ping_ms,
        ..
    } = client;
    let mut outcomes = vec![None; jobs.len()];
    for item in &listed {
        if let Some(id) = as_u64(item.field("id")).map(|i| i as usize) {
            if id < outcomes.len() {
                outcomes[id] = wire_outcome(item);
            }
        }
    }
    let control_bytes = server.control.bytes + server.subscribe.bytes;
    let dir = server.dir.clone();
    server.stop()?;
    let bytes = control_bytes + reader.join().map_err(|_| "event reader panicked")?;
    let (events, checkpoint_bytes) = match collector {
        Some(c) => c.join().map_err(|_| "event collector panicked")?,
        None => (Vec::new(), Vec::new()),
    };
    let _ = std::fs::remove_dir_all(dir);
    trace::set_enabled(false);
    if timed {
        let path = PathBuf::from(format!(".ledger/spans-service_tcp-{}.tsv", args.seed));
        trace::write_spans(&path, &trace::take_spans()).map_err(|e| format!("span dump: {e}"))?;
    }
    Ok(Session {
        setup_s,
        windows,
        verdict_ms,
        wall_s,
        cpu_s,
        jobs,
        outcomes,
        error_replies,
        bytes,
        submit_ms,
        ping_ms,
        events,
        checkpoint_bytes,
        objective: trace::take_orphan_leaves(),
    })
}

/// The deterministic counts of the first [`PREFIX`] jobs.
fn prefix_counts(s: &Session) -> Counts {
    let mut c = Counts::default();
    let mut digest = Digest::default();
    for (log, outcome) in s.jobs.iter().zip(&s.outcomes).take(PREFIX) {
        c.verdicts += 1;
        c.targets += 1;
        c.turns += log.turns;
        c.checkpoints += log.checkpoints;
        match outcome {
            Some(o) => {
                c.evals += o.evals;
                c.witnesses += 1;
                if o.found {
                    c.solved += 1;
                } else {
                    c.unsolved_evals += o.evals;
                }
                digest.word(o.evals);
                for b in o.input_bits.iter().chain(&o.best_value_bits) {
                    digest.word(*b);
                }
            }
            None => c.errors += 1,
        }
        if !log.ok {
            c.errors += 1;
        }
    }
    c.digest = digest.0;
    c
}

/// Re-runs every distinct job in-process on `WORKERS` threads and returns
/// the reference runs, in job order.
fn references(s: &Session) -> Vec<PortfolioRun> {
    let catalog = catalog(false);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<PortfolioRun>> = vec![None; s.jobs.len()];
    let results = std::sync::Mutex::new(&mut slots);
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= s.jobs.len() {
                    break;
                }
                let log = &s.jobs[i];
                let wd = catalog.resolve(log.problem).expect("catalog problem");
                let run =
                    minimize_weak_distance_adaptive(&*wd, &config(log.seed), &BackendKind::all());
                results.lock().expect("reference lock")[i] = Some(run);
            });
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("reference ran"))
        .collect()
}

/// Runs `service_tcp`: the untraced session, the bit-for-bit check of
/// every outcome, and (with `--trace 1`) the traced session with its
/// determinism gate and per-layer metrics.
pub fn run(args: &Args) -> Result<Output, String> {
    let untraced = session(args, false)?;
    let refs = references(&untraced);
    let mut rejected = Vec::new();
    for (i, ((log, outcome), reference)) in untraced
        .jobs
        .iter()
        .zip(&untraced.outcomes)
        .zip(&refs)
        .enumerate()
    {
        if outcome.as_ref() != Some(&reference_outcome(reference)) {
            rejected.push(format!("job {i} ({} seed {})", log.problem, log.seed));
        }
    }
    if !rejected.is_empty() {
        return Err(format!(
            "oracle rejected {} of {} service outcomes:\n  {}",
            rejected.len(),
            untraced.jobs.len(),
            rejected.join("\n  ")
        ));
    }
    let counts = prefix_counts(&untraced);
    // Throughput is the calibrated pool evaluation rate over the run's
    // evaluations per verdict: in a saturated closed loop the two are the
    // same figure, and the rate, unlike a count of a few hundred
    // completions, carries no counting noise.
    let ms = &untraced.verdict_ms;
    let speeds = speeds(&untraced.windows);
    let ns_per_eval = ns_per_eval(&untraced.windows);
    let finished: Vec<&WireOutcome> = untraced.outcomes.iter().flatten().collect();
    let evals_per_job =
        finished.iter().map(|o| o.evals).sum::<u64>() as f64 / finished.len().max(1) as f64;
    let failed = untraced.jobs.iter().filter(|j| !j.ok).count() as u64;
    let attempted = untraced.jobs.len() as u64;
    let rss = stats::peak_rss_mb().ok_or("cannot read VmHWM")?;
    let end_to_end = vec![
        metric(
            "setup_s",
            stats::median(&untraced.setup_s).ok_or("no setup")?,
            "s",
            "",
        ),
        metric(
            "verdicts_per_s",
            1e9 / ns_per_eval / evals_per_job,
            "1/s",
            "",
        ),
        metric(
            "verdict_ms_p50",
            stats::median(ms).ok_or("no verdicts")?,
            "ms",
            "",
        ),
        metric(
            "verdict_ms_p90",
            stats::supported_percentile(ms, 90.0)
                .ok_or(format!("{} verdicts do not support a p90", ms.len()))?,
            "ms",
            "",
        ),
        metric("ns_per_eval", ns_per_eval, "ns", ""),
        metric(
            "evals_per_verdict",
            counts.evals as f64 / counts.verdicts as f64,
            "count",
            "",
        ),
        metric(
            "solved_frac",
            counts.solved as f64 / counts.targets as f64,
            "ratio",
            "",
        ),
        metric(
            "verified_frac",
            (attempted - rejected.len() as u64) as f64 / attempted as f64,
            "ratio",
            "",
        ),
        metric("error_frac", failed as f64 / attempted as f64, "ratio", ""),
        metric("peak_rss_mb", rss, "MB", ""),
    ];
    let beyond =
        stats::supported_percentile(ms, 90.0).map_or(0, |p| ms.iter().filter(|&&x| x > p).count());
    let mut notes = vec![
        format!(
            "workload service_tcp seed {} jobs {} in flight {IN_FLIGHT} workers {WORKERS} wall {:.3} s windows {} verdict-time samples {} (beyond p90: {beyond})",
            args.seed,
            untraced.jobs.len(),
            untraced.wall_s,
            untraced.windows.len(),
            ms.len()
        ),
        format!(
            "host speed factor median {:.3} (min {:.3}, max {:.3}); uncalibrated ns_per_eval {:.2}",
            stats::median(&speeds).unwrap_or(0.0),
            speeds.iter().copied().fold(f64::INFINITY, f64::min),
            speeds.iter().copied().fold(0.0, f64::max),
            untraced.windows.len() as f64 * WINDOW_S * 1e9
                / untraced.windows.iter().map(|w| w.evals).sum::<u64>().max(1) as f64
        ),
        format!("deterministic counts (first {PREFIX} jobs) {counts:?}"),
    ];
    let mut per_layer = Vec::new();
    if args.trace {
        let traced = session(args, true)?;
        crate::run::gate(&counts, &prefix_counts(&traced))?;
        // Every job both sessions ran must have the same outcome.
        for (i, (a, b)) in untraced.outcomes.iter().zip(&traced.outcomes).enumerate() {
            if a != b {
                return Err(format!(
                    "determinism gate: job {i} differs between the untraced and traced sessions"
                ));
            }
        }
        notes.push(format!(
            "traced session: {} jobs, wall {:.3} s",
            traced.jobs.len(),
            traced.wall_s
        ));
        per_layer = service_layers(&untraced, &traced, &refs);
    }
    Ok(Output {
        notes,
        end_to_end,
        per_layer,
        attempted,
        failed,
        traced: args.trace,
    })
}

fn median0(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

/// Per-layer metrics of the service from the traced session.
fn service_layers(untraced: &Session, traced: &Session, refs: &[PortfolioRun]) -> Vec<Metric> {
    let counts = prefix_counts(traced);
    // Admitted → first turn, and the gaps between a job's turns.
    let mut queue_ms = Vec::new();
    let mut gap_ms = Vec::new();
    let mut last: std::collections::BTreeMap<usize, (Instant, bool)> = Default::default();
    for &(job, kind, at) in &traced.events {
        match kind {
            "admitted" => {
                last.insert(job, (at, false));
            }
            "turn" | "done" => {
                if let Some((prev, turned)) = last.get(&job).copied() {
                    let ms = at.duration_since(prev).as_secs_f64() * 1e3;
                    if turned {
                        gap_ms.push(ms);
                    } else {
                        queue_ms.push(ms);
                    }
                }
                last.insert(job, (at, true));
            }
            _ => {}
        }
    }
    let winner_share: Vec<f64> = refs
        .iter()
        .map(|run| {
            let total: usize = run.entries.iter().map(|e| e.run.outcome.evals()).sum();
            run.entries[run.winner].run.outcome.evals() as f64 / total.max(1) as f64
        })
        .collect();
    let mean = |xs: &[u64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<u64>() as f64 / xs.len() as f64
        }
    };
    // Tracing overhead: the extra calibrated time per pool evaluation over
    // the untraced session's evaluations.
    let plain = ns_per_eval(&untraced.windows);
    let with_trace = ns_per_eval(&traced.windows);
    let untraced_evals: u64 = untraced.windows.iter().map(|w| w.evals).sum();
    let overhead_s = (with_trace - plain) * untraced_evals as f64 / 1e9;
    let (objective_ns, _) = traced.objective;
    per_layer(&[
        (
            "search.unsolved_eval_share",
            counts.unsolved_evals as f64 / counts.evals.max(1) as f64,
        ),
        ("adaptive.winner_eval_share", median0(&winner_share)),
        ("service.turns", counts.turns as f64),
        ("service.checkpoints", counts.checkpoints as f64),
        ("service.queue_ms_p50", median0(&queue_ms)),
        ("service.turn_gap_ms_p50", median0(&gap_ms)),
        (
            "service.checkpoint_bytes_mean",
            mean(&traced.checkpoint_bytes),
        ),
        (
            "service.objective_share",
            objective_ns as f64 / 1e9 / traced.cpu_s.max(f64::MIN_POSITIVE),
        ),
        ("wire.ping_ms_p50", median0(&traced.ping_ms)),
        ("wire.submit_ms_p50", median0(&traced.submit_ms)),
        (
            "wire.bytes_per_verdict",
            traced.bytes as f64 / traced.jobs.len() as f64,
        ),
        ("wire.error_replies", traced.error_replies as f64),
        ("process.cpu_util", traced.cpu_s / traced.wall_s),
        ("trace.overhead_s", overhead_s),
        ("trace.overhead_frac", with_trace / plain - 1.0),
    ])
}
