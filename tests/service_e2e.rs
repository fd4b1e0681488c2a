//! End-to-end properties of the multi-tenant analysis service:
//!
//! 1. **Multi-tenancy is invisible** — every job's terminal outcome is
//!    bit-identical to a solo adaptive run of the same configuration,
//!    at any tenant mix, fair-share weight, slicing granularity, and
//!    thread count (the CI matrix runs this suite under
//!    `WDM_TEST_THREADS=1` and `=8`);
//! 2. **Kill/resume is invisible** — stopping the service mid-run, or
//!    cancelling a job mid-turn, and resuming from durable checkpoints
//!    replays every job to the identical final report;
//! 3. **Progress streaming** — subscribers see admission, per-slice
//!    progress with monotone evaluation counts, and a terminal event;
//! 4. **Task passthrough and cancellation** — opaque tasks run on the
//!    service's workers, and cancelled jobs still reach terminal
//!    outcomes;
//! 5. **New jobs first, then a rotation** — a job that has not run yet
//!    gets the next free worker, ahead of jobs that have had turns, and
//!    jobs that have had turns take them in rotation, so a newer job does
//!    not hold an older one back.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::matrix_threads;
use wdm::core::adaptive::minimize_weak_distance_adaptive;
use wdm::core::driver::{AnalysisConfig, BackendKind};
use wdm::core::weak_distance::FnWeakDistance;
use wdm::core::{PortfolioRun, WeakDistance};
use wdm::runtime::Interval;
use wdm::service::wire::{event_json, outcome_json};
use wdm::service::{
    AnalysisService, EventKind, JobId, JobSpec, ProgressEvent, ServiceConfig, ServiceHandle,
};

const EVENT_TIMEOUT: Duration = Duration::from_secs(60);

/// Three distinct tenants: two zero-free residual shapes (so the whole
/// pool is spent) and one solvable problem (so first-hit cancellation
/// runs under multi-tenancy too).
fn tenant(kind: usize) -> Arc<dyn WeakDistance> {
    match kind % 3 {
        0 => Arc::new(FnWeakDistance::new(
            1,
            vec![Interval::symmetric(100.0)],
            |x: &[f64]| x[0].abs() + 0.5,
        )),
        1 => Arc::new(FnWeakDistance::new(
            2,
            vec![Interval::symmetric(50.0); 2],
            |x: &[f64]| (x[0] - 7.0).powi(2) + x[1].abs() + 0.25,
        )),
        _ => Arc::new(FnWeakDistance::new(
            1,
            vec![Interval::symmetric(1.0e4)],
            |x: &[f64]| (x[0] - 1.0).abs() * (x[0] + 3.0).abs(),
        )),
    }
}

fn tenant_config(kind: usize) -> AnalysisConfig {
    AnalysisConfig::quick(40 + kind as u64)
        .with_rounds(2)
        .with_max_evals(2_500)
}

fn assert_portfolios_identical(actual: &PortfolioRun, expected: &PortfolioRun, what: &str) {
    assert_eq!(actual.winner, expected.winner, "{what}: winner");
    assert_eq!(actual.entries.len(), expected.entries.len(), "{what}");
    for (a, b) in actual.entries.iter().zip(&expected.entries) {
        assert_eq!(a.backend, b.backend, "{what}");
        common::assert_runs_identical(&a.run, &b.run, &format!("{what}: {:?}", a.backend));
    }
}

/// A unique scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wdm-service-{tag}-{}-{:p}",
        std::process::id(),
        &EVENT_TIMEOUT
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn multi_tenant_outcomes_match_solo_runs_at_any_weight_and_slicing() {
    let backends = BackendKind::all();
    let solo: Vec<PortfolioRun> = (0..3)
        .map(|kind| {
            minimize_weak_distance_adaptive(&*tenant(kind), &tenant_config(kind), &backends)
        })
        .collect();

    // Tenant mixes, fair-share weights and slicing granularities vary;
    // outcomes must not.
    for (rounds_per_turn, weights) in [(1usize, [1usize, 1, 1]), (3, [3, 1, 2]), (2, [1, 5, 1])] {
        let service = AnalysisService::start(
            ServiceConfig::new(matrix_threads()).with_rounds_per_turn(rounds_per_turn),
        );
        let handle = service.handle();
        let ids: Vec<_> = (0..3)
            .map(|kind| {
                handle
                    .submit(
                        JobSpec::new(format!("tenant-{kind}"), tenant(kind), tenant_config(kind))
                            .with_weight(weights[kind]),
                    )
                    .expect("service accepts submissions")
            })
            .collect();
        for (kind, id) in ids.into_iter().enumerate() {
            let outcome = handle.wait(id);
            assert_portfolios_identical(
                &outcome.run,
                &solo[kind],
                &format!("tenant {kind}, rpt {rounds_per_turn}"),
            );
        }
        service.shutdown();
    }
}

#[test]
fn kill_and_resume_replays_to_the_identical_report() {
    let backends = BackendKind::all();
    // Zero-free tenants only: they cannot finish before the kill, so
    // the restart genuinely resumes mid-run.
    let kinds = [0usize, 1];
    let solo: Vec<PortfolioRun> = kinds
        .iter()
        .map(|&kind| {
            minimize_weak_distance_adaptive(&*tenant(kind), &tenant_config(kind), &backends)
        })
        .collect();
    let dir = scratch_dir("resume");

    // Phase 1: run until every job has made durable progress, then
    // stop the service mid-run (graceful stop cancels the jobs; their
    // cancelled terminal state is deliberately not persisted).
    {
        let service = AnalysisService::start(
            ServiceConfig::new(matrix_threads())
                .with_rounds_per_turn(1)
                .with_checkpoint_dir(&dir),
        );
        let handle = service.handle();
        let events = handle.subscribe();
        for &kind in &kinds {
            handle
                .submit(JobSpec::new(
                    format!("tenant-{kind}"),
                    tenant(kind),
                    tenant_config(kind),
                ))
                .expect("service accepts submissions");
        }
        let mut checkpointed = [false; 2];
        while !checkpointed.iter().all(|&c| c) {
            let event = events
                .recv_timeout(EVENT_TIMEOUT)
                .expect("progress before kill");
            if let EventKind::Checkpointed { .. } = event.kind {
                checkpointed[event.job.0] = true;
            }
        }
        service.shutdown();
    }
    for (i, &kind) in kinds.iter().enumerate() {
        assert!(
            dir.join(format!("job-{i}.json")).exists(),
            "durable checkpoint for tenant {kind}"
        );
    }

    // Phase 2: a fresh service over the same directory; re-submitting
    // the same jobs resumes them and replays to the solo outcomes.
    {
        let service = AnalysisService::start(
            ServiceConfig::new(matrix_threads())
                .with_rounds_per_turn(1)
                .with_checkpoint_dir(&dir),
        );
        let handle = service.handle();
        let events = handle.subscribe();
        let ids: Vec<_> = kinds
            .iter()
            .map(|&kind| {
                handle
                    .submit(JobSpec::new(
                        format!("tenant-{kind}"),
                        tenant(kind),
                        tenant_config(kind),
                    ))
                    .expect("service accepts submissions")
            })
            .collect();
        // An already-admitted job may stream progress before the next
        // job's admission arrives; scan until both admissions are seen.
        let mut admitted = [false; 2];
        while !admitted.iter().all(|&a| a) {
            let event = events.recv_timeout(EVENT_TIMEOUT).expect("admission event");
            if let EventKind::Admitted { resumed_at_turn } = event.kind {
                assert!(resumed_at_turn > 0, "job {} resumed from disk", event.job);
                admitted[event.job.0] = true;
            }
        }
        for (i, id) in ids.into_iter().enumerate() {
            let outcome = handle.wait(id);
            assert_portfolios_identical(
                &outcome.run,
                &solo[i],
                &format!("resumed tenant {}", kinds[i]),
            );
        }
        service.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn progress_stream_reports_admission_slices_and_termination() {
    let service =
        AnalysisService::start(ServiceConfig::new(matrix_threads()).with_rounds_per_turn(1));
    let handle = service.handle();
    let events = handle.subscribe();
    let id = handle
        .submit(JobSpec::new("stream", tenant(0), tenant_config(0)))
        .expect("service accepts submissions");

    let mut saw_admitted = false;
    let mut progress_evals = Vec::new();
    let mut terminal = None;
    loop {
        match events.recv_timeout(EVENT_TIMEOUT) {
            Ok(event) => {
                assert_eq!(event.job, id);
                assert_eq!(event.name, "stream");
                match event.kind {
                    EventKind::Admitted { resumed_at_turn } => {
                        assert_eq!(resumed_at_turn, 0);
                        saw_admitted = true;
                    }
                    EventKind::Progress {
                        residual,
                        evals,
                        leader,
                        ..
                    } => {
                        assert!(!residual.is_nan());
                        assert!(leader.is_some(), "a round has run, so a leader exists");
                        progress_evals.push(evals);
                    }
                    EventKind::Finished { found, .. } => {
                        assert!(!found, "tenant 0 is zero-free");
                        terminal = Some(event.kind.clone());
                        break;
                    }
                    EventKind::Cancelled => panic!("job was never cancelled"),
                    _ => {}
                }
            }
            Err(RecvTimeoutError::Timeout) => panic!("no terminal event"),
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    assert!(saw_admitted, "admission event streamed");
    assert!(
        progress_evals.len() > 1,
        "zero-free job spans multiple slices"
    );
    assert!(
        progress_evals.windows(2).all(|w| w[0] < w[1]),
        "evaluation counts grow monotonically: {progress_evals:?}"
    );
    assert!(terminal.is_some());
    service.shutdown();
}

#[test]
fn opaque_tasks_share_the_pool_with_analysis_jobs() {
    let service = AnalysisService::start(ServiceConfig::new(2));
    let handle = service.handle();
    let (tx, rx) = std::sync::mpsc::channel();
    let id = handle
        .submit(JobSpec::new("mixed", tenant(2), tenant_config(2)))
        .expect("service accepts submissions");
    for i in 0..8u32 {
        let tx = tx.clone();
        handle
            .submit_task(move || {
                let _ = tx.send(i);
            })
            .expect("service accepts tasks");
    }
    drop(tx);
    let mut got: Vec<u32> = rx.iter().collect();
    got.sort_unstable();
    assert_eq!(got, (0..8).collect::<Vec<_>>());
    // The analysis job is unaffected by the interleaved tasks.
    let solo = minimize_weak_distance_adaptive(&*tenant(2), &tenant_config(2), &BackendKind::all());
    assert_portfolios_identical(&handle.wait(id).run, &solo, "mixed tenancy");
    service.shutdown();
}

#[test]
fn slow_subscribers_are_disconnected_without_stalling_the_service() {
    let service = AnalysisService::start(
        ServiceConfig::new(matrix_threads())
            .with_rounds_per_turn(1)
            .with_subscriber_capacity(1),
    );
    let handle = service.handle();
    // This subscriber never drains: its one-event buffer fills at
    // admission, so the next emission finds it full and drops it.
    let stalled = handle.subscribe();
    let id = handle
        .submit(JobSpec::new("slow-sub", tenant(0), tenant_config(0)))
        .expect("service accepts submissions");
    // The job runs to its terminal outcome even though nobody drains
    // the subscriber: emission never blocks on a full buffer.
    let outcome = handle.wait(id);
    assert!(!outcome.run.outcome().is_found(), "tenant 0 is zero-free");
    // The stalled stream has ended — its sender was dropped on the
    // first overflowing emission while the service is still running —
    // so iterating it terminates with only the buffered event.
    let drained: Vec<_> = stalled.iter().collect();
    assert_eq!(drained.len(), 1, "one event fit the buffer");
    assert!(
        matches!(drained[0].kind, EventKind::Admitted { .. }),
        "the buffered event is the admission"
    );
    service.shutdown();
}

/// The evaluation of tenant 0 that [`held_tenant`] holds: past the first
/// turns, so the job has durable progress when the cancel lands.
const HELD_EVAL: usize = 3_001;

/// Tenant 0. With a `gate`, its `HELD_EVAL`-th evaluation sends on the
/// gate's sender, then waits until its receiver gets a message or
/// disconnects.
fn held_tenant(gate: Option<(Sender<()>, Receiver<()>)>) -> Arc<dyn WeakDistance> {
    let evals = AtomicUsize::new(0);
    let gate = Mutex::new(gate);
    Arc::new(FnWeakDistance::new(
        1,
        vec![Interval::symmetric(100.0)],
        move |x: &[f64]| {
            if evals.fetch_add(1, Ordering::Relaxed) + 1 == HELD_EVAL {
                if let Some((reached, open)) = &*gate.lock().expect("gate lock") {
                    let _ = reached.send(());
                    let _ = open.recv_timeout(EVENT_TIMEOUT);
                }
            }
            x[0].abs() + 0.5
        },
    ))
}

/// Regression: a cancel that landed mid-turn cut the turn's last round
/// short, yet the turn checkpointed that state as progress, and a
/// service resumed over the same directory replayed it to an outcome the
/// solo run never reaches.
#[test]
fn a_cancel_that_lands_mid_turn_keeps_the_last_full_turn_on_disk() {
    let solo = minimize_weak_distance_adaptive(&*tenant(0), &tenant_config(0), &BackendKind::all());
    let dir = scratch_dir("mid-turn-cancel");

    // Phase 1: one worker and one round per turn, so the held evaluation
    // runs in the last round of a turn. Cancel while it is held.
    {
        let service = AnalysisService::start(
            ServiceConfig::new(1)
                .with_rounds_per_turn(1)
                .with_checkpoint_dir(&dir),
        );
        let handle = service.handle();
        let (reached_tx, reached) = channel();
        let (open, open_rx) = channel::<()>();
        let id = handle
            .submit(JobSpec::new(
                "held",
                held_tenant(Some((reached_tx, open_rx))),
                tenant_config(0),
            ))
            .expect("service accepts submissions");
        reached
            .recv_timeout(EVENT_TIMEOUT)
            .expect("the held evaluation runs");
        handle.cancel(id);
        // Disconnecting releases the held evaluation.
        drop(open);
        assert!(
            !handle.wait(id).run.outcome().is_found(),
            "tenant 0 is zero-free"
        );
        service.shutdown();
    }
    assert!(
        dir.join("job-0.json").exists(),
        "turns before the cancel were checkpointed"
    );

    // Phase 2: the same submission resumes from the disk state and
    // replays the solo run.
    {
        let service = AnalysisService::start(
            ServiceConfig::new(1)
                .with_rounds_per_turn(1)
                .with_checkpoint_dir(&dir),
        );
        let handle = service.handle();
        let events = handle.subscribe();
        let id = handle
            .submit(JobSpec::new("held", held_tenant(None), tenant_config(0)))
            .expect("service accepts submissions");
        let event = events.recv_timeout(EVENT_TIMEOUT).expect("admission event");
        assert!(
            matches!(event.kind, EventKind::Admitted { resumed_at_turn } if resumed_at_turn > 0),
            "the job resumed from disk: {:?}",
            event.kind
        );
        let outcome = handle.wait(id);
        assert_portfolios_identical(&outcome.run, &solo, "resumed after a mid-turn cancel");
        service.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A weak distance whose search box cannot be built: the portfolio panics
/// before it evaluates anything, and so does the failed outcome's rebuild.
struct NoDomain;

impl WeakDistance for NoDomain {
    fn dim(&self) -> usize {
        1
    }

    fn domain(&self) -> Vec<Interval> {
        panic!("no search box")
    }

    fn eval(&self, x: &[f64]) -> f64 {
        x[0].abs()
    }
}

/// Regression: a weak distance that panicked killed the worker running its
/// turn and left the job running with no outcome, so `wait` on it and the
/// service's shutdown blocked forever.
#[test]
fn a_panicking_weak_distance_fails_its_job_and_spares_the_others() {
    const PANIC_EVAL: usize = 1_500;
    let evals = AtomicUsize::new(0);
    let broken: Arc<dyn WeakDistance> = Arc::new(FnWeakDistance::new(
        1,
        vec![Interval::symmetric(100.0)],
        move |x: &[f64]| {
            if evals.fetch_add(1, Ordering::Relaxed) + 1 == PANIC_EVAL {
                panic!("the weak distance broke at evaluation {PANIC_EVAL}");
            }
            x[0].abs() + 0.5
        },
    ));
    let solo = minimize_weak_distance_adaptive(&*tenant(1), &tenant_config(1), &BackendKind::all());
    let service = AnalysisService::start(ServiceConfig::new(2).with_rounds_per_turn(1));
    let handle = service.handle();
    let events = handle.subscribe();
    let broken = handle
        .submit(JobSpec::new("broken", broken, tenant_config(0)))
        .expect("service accepts submissions");
    let healthy = handle
        .submit(JobSpec::new("healthy", tenant(1), tenant_config(1)))
        .expect("service accepts submissions");
    let boxless = handle
        .submit(JobSpec::new(
            "boxless",
            Arc::new(NoDomain),
            tenant_config(2),
        ))
        .expect("service accepts submissions");

    let failed = handle.wait(broken);
    let reason = failed.failure.clone().expect("the broken job failed");
    assert!(reason.contains("broke at evaluation 1500"), "{reason}");
    assert!(!failed.run.outcome().is_found());
    let rendered = serde_json::to_string(&outcome_json(broken, &failed)).expect("render");
    assert!(rendered.contains("\"failed\""), "{rendered}");
    let unbuilt = handle.wait(boxless);
    assert_eq!(unbuilt.failure.as_deref(), Some("no search box"));
    assert_eq!(unbuilt.run.outcome().evals(), 0);
    let finished = handle.wait(healthy);
    assert!(finished.failure.is_none());
    assert_portfolios_identical(&finished.run, &solo, "beside a failed job");
    // The stream carries the failure as the broken job's terminal event.
    loop {
        let event = events.recv_timeout(EVENT_TIMEOUT).expect("failure event");
        if event.job != broken {
            continue;
        }
        match &event.kind {
            EventKind::Failed { reason: streamed } => {
                assert_eq!(*streamed, reason);
                let line = serde_json::to_string(&event_json(&event)).expect("render");
                assert!(line.contains("\"failed\""), "{line}");
                break;
            }
            EventKind::Finished { .. } | EventKind::Cancelled => {
                panic!("the broken job ended as {:?}", event.kind)
            }
            _ => {}
        }
    }
    service.shutdown();
}

/// An empty backend list is refused at `submit`, before the job exists:
/// a job admitted with one would fail every turn and leave an outcome with
/// no arm to read.
#[test]
fn an_empty_backend_list_is_refused_at_submit() {
    let service = AnalysisService::start(ServiceConfig::new(1));
    let handle = service.handle();
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle.submit(JobSpec::new("armless", tenant(0), tenant_config(0)).with_backends(&[]))
    }));
    assert!(refused.is_err());
    let solo = minimize_weak_distance_adaptive(&*tenant(1), &tenant_config(1), &BackendKind::all());
    let id = handle
        .submit(JobSpec::new("after", tenant(1), tenant_config(1)))
        .expect("service accepts submissions");
    assert_eq!(id, JobId(0), "the refused job took no id");
    assert_portfolios_identical(&handle.wait(id).run, &solo, "after a refused job");
    service.shutdown();
}

#[test]
fn cancelled_jobs_reach_terminal_cancelled_outcomes() {
    let service =
        AnalysisService::start(ServiceConfig::new(matrix_threads()).with_rounds_per_turn(1));
    let handle = service.handle();
    let events = handle.subscribe();
    // A pool the job cannot spend before the cancel lands: with the
    // tenant's 2 rounds it could finish first and correctly report
    // `Finished`. Turns stay small, since the slice depends only on
    // `max_evals`.
    let config = tenant_config(0).with_rounds(1_000_000);
    let id = handle
        .submit(JobSpec::new("doomed", tenant(0), config))
        .expect("service accepts submissions");
    // Let it make some progress first, then cancel.
    loop {
        let event = events.recv_timeout(EVENT_TIMEOUT).expect("progress");
        if matches!(event.kind, EventKind::Progress { .. }) {
            break;
        }
    }
    handle.cancel(id);
    let outcome = handle.wait(id);
    assert!(!outcome.run.outcome().is_found());
    // The stream reports the cancellation as the job's terminal event.
    loop {
        let event = events.recv_timeout(EVENT_TIMEOUT).expect("terminal event");
        match event.kind {
            EventKind::Cancelled => break,
            EventKind::Finished { .. } => panic!("cancelled job reported as finished"),
            _ => {}
        }
    }
    service.shutdown();
}

/// Submits a zero-free job with a pool it cannot spend: it runs until
/// cancelled.
fn submit_long(handle: &ServiceHandle, name: &str, kind: usize) -> JobId {
    let config = tenant_config(kind).with_rounds(1_000_000);
    handle
        .submit(JobSpec::new(name, tenant(kind), config))
        .expect("service accepts submissions")
}

/// The job of the next `Progress` event on the stream.
fn next_progress(events: &Receiver<ProgressEvent>) -> JobId {
    loop {
        let event = events.recv_timeout(EVENT_TIMEOUT).expect("progress");
        if let EventKind::Progress { .. } = event.kind {
            return event.job;
        }
    }
}

#[test]
fn a_job_that_has_not_run_goes_before_jobs_that_have() {
    // One worker at any matrix setting: the subject is the order of
    // turns, which the stream records as the worker emits them.
    let service = AnalysisService::start(ServiceConfig::new(1).with_rounds_per_turn(1));
    let handle = service.handle();
    let events = handle.subscribe();
    let long: Vec<_> = [0usize, 1, 0]
        .into_iter()
        .enumerate()
        .map(|(i, kind)| submit_long(&handle, &format!("long-{i}"), kind))
        .collect();
    // Every long job has had a turn, and then one more turn has run.
    let mut progressed = vec![false; long.len()];
    let mut after_all = false;
    while !after_all {
        let job = next_progress(&events);
        after_all = progressed.iter().all(|&p| p);
        progressed[job.0] = true;
    }

    let fresh = handle
        .submit(JobSpec::new("fresh", tenant(0), tenant_config(0)))
        .expect("service accepts submissions");
    // Turns of other jobs that end between the fresh job's admission and
    // its first turn: only the one running at admission may.
    let mut admitted = false;
    let mut overtaken = 0;
    loop {
        let event = events
            .recv_timeout(EVENT_TIMEOUT)
            .expect("the fresh job runs");
        match event.kind {
            EventKind::Admitted { .. } if event.job == fresh => admitted = true,
            EventKind::Progress { .. } | EventKind::Finished { .. } if event.job == fresh => break,
            EventKind::Progress { .. } if admitted => overtaken += 1,
            _ => {}
        }
    }
    assert!(
        overtaken <= 1,
        "{overtaken} turns of other jobs ran before the fresh job's first"
    );
    for id in long {
        handle.cancel(id);
    }
    service.shutdown();
}

#[test]
fn jobs_that_have_run_take_turns_in_rotation() {
    // One worker, as above. Fewest turns first would run the newer job
    // until it had had as many turns as the older one.
    let service = AnalysisService::start(ServiceConfig::new(1).with_rounds_per_turn(1));
    let handle = service.handle();
    let events = handle.subscribe();
    let older = submit_long(&handle, "older", 0);
    for _ in 0..3 {
        next_progress(&events);
    }
    let newer = submit_long(&handle, "newer", 1);
    while next_progress(&events) != newer {}
    let order: Vec<JobId> = (0..4).map(|_| next_progress(&events)).collect();
    assert_eq!(order, [older, newer, older, newer]);
    handle.cancel(older);
    handle.cancel(newer);
    service.shutdown();
}
