//! End-to-end properties of the multi-tenant analysis service:
//!
//! 1. **Multi-tenancy is invisible** — every job's terminal outcome is
//!    bit-identical to a solo adaptive run of the same configuration,
//!    at any tenant mix, fair-share weight, service seed, and thread
//!    count (the CI matrix runs this suite under `WDM_TEST_THREADS=1`
//!    and `=8`);
//! 2. **Kill/resume is invisible** — stopping the service mid-run and
//!    resuming from durable checkpoints replays every job to the
//!    identical final report;
//! 3. **Progress streaming** — subscribers see admission, per-slice
//!    progress with monotone evaluation counts, and a terminal event;
//! 4. **Task passthrough and cancellation** — opaque tasks run on the
//!    shared pool, and cancelled jobs still reach terminal outcomes.

mod common;

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use common::matrix_threads;
use wdm::core::adaptive::minimize_weak_distance_adaptive;
use wdm::core::driver::{AnalysisConfig, BackendKind, EscalationConfig};
use wdm::core::weak_distance::FnWeakDistance;
use wdm::core::{PortfolioRun, WeakDistance};
use wdm::runtime::Interval;
use wdm::service::{AnalysisService, EventKind, JobSpec, ServiceConfig};

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
fn multi_tenant_outcomes_match_solo_runs_at_any_weight_and_seed() {
    let backends = BackendKind::all();
    let solo: Vec<PortfolioRun> = (0..3)
        .map(|kind| minimize_weak_distance_adaptive(&*tenant(kind), &tenant_config(kind), &backends))
        .collect();

    // Tenant mixes, fair-share weights, service seeds and slicing
    // granularities vary; outcomes must not.
    for (service_seed, rounds_per_turn, weights) in
        [(0u64, 1usize, [1usize, 1, 1]), (7, 3, [3, 1, 2]), (99, 2, [1, 5, 1])]
    {
        let service = AnalysisService::start(
            ServiceConfig::new(matrix_threads())
                .with_rounds_per_turn(rounds_per_turn)
                .with_seed(service_seed),
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
                &format!("tenant {kind}, seed {service_seed}, rpt {rounds_per_turn}"),
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
                    EventKind::Checkpointed { .. } | EventKind::Escalated { .. } => {}
                    EventKind::Finished { found, .. } => {
                        assert!(!found, "tenant 0 is zero-free");
                        terminal = Some(event.kind.clone());
                        break;
                    }
                    EventKind::Cancelled => panic!("job was never cancelled"),
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

/// The Section-6-style plateau tenant: a flat shelf around an offset
/// center inside a huge domain, zero-free so the job cannot finish
/// before the kill. The adaptive scheduler's rewards flatline on the
/// shelf, which fires a plateau escalation mid-run (the seed is the one
/// `wdm_core`'s escalation tests verify to escalate).
fn plateau_tenant() -> Arc<dyn WeakDistance> {
    let c = 8.765_432_1e6;
    Arc::new(FnWeakDistance::new(
        1,
        vec![Interval::symmetric(1.0e8)],
        move |x: &[f64]| {
            let d = (x[0] - c).abs();
            if d <= 500.0 {
                0.5
            } else {
                0.5 + (d - 500.0) / 1.0e8
            }
        },
    ))
}

fn plateau_config() -> AnalysisConfig {
    AnalysisConfig::quick(43)
        .with_rounds(2)
        .with_max_evals(6_000)
        .with_escalation(
            EscalationConfig::default()
                .with_threshold(0.25)
                .with_patience(2)
                .with_tighten(1.5e-5),
        )
}

#[test]
fn escalation_events_stream_and_survive_kill_and_resume() {
    let backends = BackendKind::all();
    let solo = minimize_weak_distance_adaptive(&*plateau_tenant(), &plateau_config(), &backends);
    let dir = scratch_dir("esc-resume");

    // Phase 1: run until an escalation has fired and the turn that
    // contains it has checkpointed to disk, then stop mid-run.
    {
        let service = AnalysisService::start(
            ServiceConfig::new(matrix_threads())
                .with_rounds_per_turn(1)
                .with_checkpoint_dir(&dir),
        );
        let handle = service.handle();
        let events = handle.subscribe();
        handle
            .submit(JobSpec::new("plateau", plateau_tenant(), plateau_config()))
            .expect("service accepts submissions");
        let mut escalated_total = 0usize;
        loop {
            let event = events
                .recv_timeout(EVENT_TIMEOUT)
                .expect("progress before kill");
            match event.kind {
                EventKind::Escalated { total, .. } => {
                    assert!(
                        total > escalated_total,
                        "escalation totals grow strictly: {total} after {escalated_total}"
                    );
                    escalated_total = total;
                }
                EventKind::Checkpointed { .. } if escalated_total > 0 => break,
                EventKind::Finished { .. } | EventKind::Cancelled => {
                    panic!("zero-free plateau tenant finished before the kill")
                }
                _ => {}
            }
        }
        service.shutdown();
    }
    assert!(
        dir.join("job-0.json").exists(),
        "durable checkpoint with escalation state"
    );

    // Phase 2: a fresh service over the same directory resumes the job
    // — escalation-spawned arms, detector counters and event totals
    // included — and replays to the solo outcome bit-identically.
    {
        let service = AnalysisService::start(
            ServiceConfig::new(matrix_threads())
                .with_rounds_per_turn(1)
                .with_checkpoint_dir(&dir),
        );
        let handle = service.handle();
        let id = handle
            .submit(JobSpec::new("plateau", plateau_tenant(), plateau_config()))
            .expect("service accepts submissions");
        let outcome = handle.wait(id);
        assert_portfolios_identical(&outcome.run, &solo, "resumed plateau tenant");
        service.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
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
