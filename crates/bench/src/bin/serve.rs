//! The analysis service's TCP front-end: serves the line-delimited JSON
//! protocol of `wdm_service::wire` over a catalog of named problems (the
//! paper's boundary benchmarks plus a zero-free synthetic), with optional
//! durable checkpointing.
//!
//! Usage: `serve [--addr HOST:PORT] [--threads N] [--checkpoint-dir DIR]
//! [--smoke]`
//!
//! `--smoke` runs the end-to-end durability drill instead of serving:
//! submit over TCP → stream progress until a durable checkpoint → kill
//! the server mid-run → start a fresh server over the same checkpoint
//! directory → resume → assert the final report is bit-identical to an
//! uninterrupted in-process run. CI runs this under both thread counts
//! of the test matrix; it exits non-zero on any mismatch.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use wdm_core::adaptive::minimize_weak_distance_adaptive;
use wdm_core::boundary::BoundaryWeakDistance;
use wdm_core::weak_distance::FnWeakDistance;
use wdm_core::{AnalysisConfig, BackendKind};
use wdm_service::wire::outcome_json;
use wdm_service::{serve, AnalysisService, Catalog, JobId, JobOutcome, ServiceConfig};

/// The problems a client can submit against.
fn catalog() -> Catalog {
    Catalog::new()
        .register(
            "boundary/fig2",
            Arc::new(BoundaryWeakDistance::new(mini_gsl::toy::Fig2Program::new())),
        )
        .register(
            "boundary/eq_zero",
            Arc::new(BoundaryWeakDistance::new(
                mini_gsl::toy::EqZeroProgram::new(),
            )),
        )
        .register(
            "boundary/glibc_sin",
            Arc::new(BoundaryWeakDistance::new(
                mini_gsl::glibc_sin::GlibcSin::new(),
            )),
        )
        .register(
            "zero_free/needle",
            Arc::new(FnWeakDistance::new(
                1,
                vec![fp_runtime::Interval::symmetric(1.0e4)],
                |x: &[f64]| (x[0] - 1.0).abs() * (x[0] + 3.0).abs() + 0.5,
            )),
        )
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// One line-delimited JSON client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("socket timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read server line");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    fn send(&mut self, request: &str) -> String {
        writeln!(self.writer, "{request}").expect("write request");
        self.read_line()
    }
}

/// Starts a server over an ephemeral port and returns its address plus
/// the thread running it.
fn spawn_server(
    threads: usize,
    checkpoint_dir: Option<&std::path::Path>,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let mut config = ServiceConfig::new(threads).with_rounds_per_turn(1);
    if let Some(dir) = checkpoint_dir {
        config = config.with_checkpoint_dir(dir);
    }
    let service = AnalysisService::start(config);
    let thread = std::thread::spawn(move || serve(listener, service, catalog()));
    (addr, thread)
}

/// The `--smoke` drill: submit → stream → kill → resume → identical report.
fn smoke(threads: usize) {
    const PROBLEM: &str = "zero_free/needle";
    const SEED: u64 = 11;
    const ROUNDS: u64 = 2;
    const MAX_EVALS: u64 = 2_500;

    // The uninterrupted reference, in-process: what the whole drill must
    // reproduce bit for bit.
    let config = AnalysisConfig::quick(SEED)
        .with_rounds(ROUNDS as usize)
        .with_max_evals(MAX_EVALS as usize);
    let wd = catalog().resolve(PROBLEM).expect("catalog problem");
    let reference = minimize_weak_distance_adaptive(&*wd, &config, &BackendKind::all());
    let expected = serde_json::to_string(&outcome_json(
        JobId(0),
        &JobOutcome {
            name: PROBLEM.to_string(),
            run: reference,
            failure: None,
        },
    ))
    .expect("render reference outcome");

    let dir = std::env::temp_dir().join(format!("wdm-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let submit = format!(
        "{{\"cmd\":\"submit\",\"problem\":\"{PROBLEM}\",\"seed\":{SEED},\
         \"rounds\":{ROUNDS},\"max_evals\":{MAX_EVALS}}}"
    );

    // Phase 1: submit over TCP, stream until a durable checkpoint, then
    // kill the server mid-run.
    {
        let (addr, server) = spawn_server(threads, Some(&dir));
        let mut control = Client::connect(addr);
        assert!(control.send("{\"cmd\":\"ping\"}").contains("true"), "ping");
        let mut stream = Client::connect(addr);
        let ack = stream.send("{\"cmd\":\"subscribe\"}");
        assert!(ack.contains("true"), "subscribe ack: {ack}");
        let reply = control.send(&submit);
        assert!(reply.contains("\"id\":0"), "submit reply: {reply}");
        loop {
            let event = stream.read_line();
            if event.contains("\"checkpointed\"") {
                break;
            }
            assert!(
                !event.contains("\"finished\""),
                "zero-free job finished before the kill: {event}"
            );
        }
        control.send("{\"cmd\":\"shutdown\"}");
        server.join().expect("server thread");
        println!("smoke: killed the server mid-run after a durable checkpoint");
    }

    // Phase 2: a fresh server over the same directory resumes the
    // re-submitted job and replays to the identical final report.
    {
        let (addr, server) = spawn_server(threads, Some(&dir));
        let mut stream = Client::connect(addr);
        stream.send("{\"cmd\":\"subscribe\"}");
        let mut control = Client::connect(addr);
        let reply = control.send(&submit);
        assert!(reply.contains("\"id\":0"), "resubmit reply: {reply}");
        let admitted = stream.read_line();
        assert!(
            admitted.contains("\"admitted\"") && !admitted.contains("\"resumed_at_turn\":0"),
            "job resumed from disk: {admitted}"
        );
        let outcome = control.send("{\"cmd\":\"wait\",\"id\":0}");
        assert_eq!(
            outcome, expected,
            "resumed report differs from the uninterrupted run"
        );
        let report = control.send("{\"cmd\":\"report\"}");
        assert!(report.contains("zero_free/needle"), "report: {report}");
        control.send("{\"cmd\":\"shutdown\"}");
        server.join().expect("server thread");
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("smoke: kill+resume replayed the identical report ({threads} threads) -- OK");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = flag_value(&args, "--threads")
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::env::var("WDM_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or(4)
        });

    if args.iter().any(|a| a == "--smoke") {
        smoke(threads);
        return;
    }

    let addr = flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:4127".to_string());
    let listener = TcpListener::bind(&addr).expect("bind address");
    let mut config = ServiceConfig::new(threads);
    if let Some(dir) = flag_value(&args, "--checkpoint-dir") {
        config = config.with_checkpoint_dir(dir);
    }
    let service = AnalysisService::start(config);
    let catalog = catalog();
    println!(
        "analysis service on {addr} ({threads} workers); problems: {}",
        catalog.names().join(", ")
    );
    println!("protocol: one JSON object per line; send {{\"cmd\":\"shutdown\"}} to stop");
    serve(listener, service, catalog);
}
