//! The analysis service proper: job admission, turn scheduling,
//! progress streaming, the result store, and durable checkpointing.
//!
//! # Scheduling model
//!
//! The service owns [`threads`](ServiceConfig::threads) workers and no
//! other thread. A job runs in *turns* of `weight × rounds_per_turn`
//! adaptive scheduler rounds (see [`AdaptivePortfolio::round`]). At each
//! turn boundary, a worker takes the oldest queued opaque task or, if
//! there is none, one turn of an unfinished job not running elsewhere: a
//! job that has had no turn in this service yet goes first, lowest
//! [`JobId`] first, and the others take turns in rotation, the one whose
//! latest turn started longest ago going next. So a new job waits only
//! for the turns already running and for new jobs admitted before it,
//! and a weight-`w` job gets `w` times the rounds of a weight-1 job per
//! rotation. There are no cycles: no worker waits for another's turn,
//! and a worker parks only when nothing can run. Turns of different jobs
//! run concurrently — they are independent state machines — and
//! because a job's outcome depends only on its own round sequence,
//! never on when its turns run, each job's terminal outcome is
//! **bit-identical to a solo run** of the same configuration at any
//! tenant mix and any thread count.
//!
//! The rotation is deliberate: fewest turns first (least attained
//! service) also puts new jobs first, but under a steady stream of
//! submissions it holds back the jobs that have run longest for as long
//! as newer ones keep arriving.
//!
//! # Durability
//!
//! Between turns a job's entire state is a serializable value
//! ([`AdaptiveCheckpoint`]): backend state machines, bandit statistics,
//! merged incumbents. A worker re-materializes the portfolio from
//! that value at the start of every turn and checkpoints it back at the
//! end — the serialization seam is exercised continuously, not only on
//! kill. With a [`checkpoint_dir`](ServiceConfig::with_checkpoint_dir)
//! configured, the snapshot is also written to disk after every turn
//! (atomically: temp file + rename) and on completion; re-submitting the
//! same job after a restart resumes from the file and replays to the
//! identical final outcome.
//!
//! # Failed turns
//!
//! A turn runs under `catch_unwind`. If the weak distance panics, the job
//! ends with a failed outcome ([`JobOutcome::failure`] holds the panic
//! message, and its run is the job's state after its last full turn), an
//! [`EventKind::Failed`] event goes out, nothing is written to disk (the
//! file keeps the last full turn) and the worker goes on with other work.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use serde::Value;
use wdm_core::adaptive::AdaptivePortfolio;
use wdm_core::adaptive::PortfolioEntry;
use wdm_core::checkpoint::AdaptiveCheckpoint;
use wdm_core::driver::{MinimizationRun, Outcome};
use wdm_core::{AnalysisConfig, BackendKind, PortfolioRun, WeakDistance};
use wdm_mo::{CancelToken, MinimizeResult, SamplingTrace, Termination};

const LOCK: &str = "service state lock";

/// Identifies a job within one service instance: the zero-based
/// admission index. Ids are assigned in submission order, which is what
/// lets a restarted service match re-submitted jobs to their
/// checkpoint files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub usize);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An analysis job: a weak distance to minimize under a config with an
/// adaptive backend portfolio, plus fair-share weight.
pub struct JobSpec {
    /// Human-readable job name; also validates checkpoint files on
    /// resume.
    pub name: String,
    /// The weak distance to minimize.
    pub wd: Arc<dyn WeakDistance>,
    /// The analysis configuration (seed, rounds, budget, ...).
    pub config: AnalysisConfig,
    /// The backend portfolio, in arm order. Must not be empty
    /// ([`ServiceHandle::submit`] panics on an empty list).
    pub backends: Vec<BackendKind>,
    /// Fair-share weight: rounds granted per turn relative to a
    /// weight-1 job. Clamped to at least 1.
    pub weight: usize,
}

impl JobSpec {
    /// A job over the full backend portfolio at weight 1.
    pub fn new(name: impl Into<String>, wd: Arc<dyn WeakDistance>, config: AnalysisConfig) -> Self {
        JobSpec {
            name: name.into(),
            wd,
            config,
            backends: BackendKind::all().to_vec(),
            weight: 1,
        }
    }

    /// Restricts the backend portfolio to `backends`, which must not be
    /// empty.
    pub fn with_backends(mut self, backends: &[BackendKind]) -> Self {
        self.backends = backends.to_vec();
        self
    }

    /// Sets the fair-share weight.
    pub fn with_weight(mut self, weight: usize) -> Self {
        self.weight = weight;
        self
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads: the service's only threads, each running queued
    /// tasks and job turns.
    pub threads: usize,
    /// Adaptive scheduler rounds per weight-1 turn: the slicing
    /// granularity. Smaller values interleave tenants more finely at
    /// the cost of more checkpoint/restore cycles.
    pub rounds_per_turn: usize,
    /// Directory for durable checkpoints, written after every turn and
    /// at completion; `None` disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Progress-stream buffer per subscriber, in events. A subscriber
    /// that falls this far behind is disconnected (its receiver sees
    /// the stream end) rather than growing an unbounded queue inside
    /// the service. Clamped to at least 1.
    pub subscriber_capacity: usize,
}

impl ServiceConfig {
    /// A config with `threads` workers, 4 rounds per turn, no
    /// persistence, and room for 1024 buffered events per subscriber.
    pub fn new(threads: usize) -> Self {
        ServiceConfig {
            threads: threads.max(1),
            rounds_per_turn: 4,
            checkpoint_dir: None,
            subscriber_capacity: 1024,
        }
    }

    /// Sets the slicing granularity.
    pub fn with_rounds_per_turn(mut self, rounds: usize) -> Self {
        self.rounds_per_turn = rounds.max(1);
        self
    }

    /// Enables durable checkpoints under `dir`.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Sets the per-subscriber progress buffer, in events.
    pub fn with_subscriber_capacity(mut self, capacity: usize) -> Self {
        self.subscriber_capacity = capacity.max(1);
        self
    }
}

/// What happened to a job, streamed to subscribers. More kinds may
/// follow, so a `match` on it needs a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EventKind {
    /// The job was admitted (possibly resuming from a durable
    /// checkpoint at the given turn count).
    Admitted {
        /// Turns already executed by a previous incarnation.
        resumed_at_turn: u64,
    },
    /// A turn completed without finishing the job.
    Progress {
        /// Best weak-distance value across all arms so far.
        residual: f64,
        /// Evaluations drawn from the job's shared pool so far.
        evals: usize,
        /// The bandit's current leader arm, if any round has run.
        leader: Option<BackendKind>,
        /// Turns executed so far.
        turn: u64,
    },
    /// A durable checkpoint was written.
    Checkpointed {
        /// Turns executed when the snapshot was taken.
        turn: u64,
    },
    /// The job reached a terminal outcome.
    Finished {
        /// Whether a zero of the weak distance was found.
        found: bool,
        /// Total evaluations reported by the winning outcome.
        evals: usize,
        /// The winning backend.
        winner: BackendKind,
    },
    /// The job was cancelled before finding a zero.
    Cancelled,
    /// A turn panicked, which ended the job (see [`JobOutcome::failure`]).
    Failed {
        /// The panic message.
        reason: String,
    },
}

/// One progress event: which job, what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressEvent {
    /// The job the event concerns.
    pub job: JobId,
    /// The job's name.
    pub name: String,
    /// What happened.
    pub kind: EventKind,
}

/// A terminal job result retained by the result store.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's name.
    pub name: String,
    /// The full portfolio run: winner index plus every arm's outcome.
    /// For a failed job, the run as of its last full turn.
    pub run: PortfolioRun,
    /// Why the job failed: the message of the panic that ended its last
    /// turn. `None` for a job that finished or was cancelled.
    pub failure: Option<String>,
}

/// The error returned for operations on a service that is shutting
/// down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceClosed;

impl std::fmt::Display for ServiceClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("analysis service is shut down")
    }
}

impl std::error::Error for ServiceClosed {}

struct JobEntry {
    name: String,
    wd: Arc<dyn WeakDistance>,
    config: AnalysisConfig,
    backends: Vec<BackendKind>,
    weight: usize,
    cancel: CancelToken,
    checkpoint: Option<AdaptiveCheckpoint>,
    turns: u64,
    /// The service's [`turns_started`](ServiceState::turns_started) when
    /// this job's latest turn started; 0 before its first turn here.
    served_at: u64,
    /// A worker is running one of the job's turns.
    running: bool,
    outcome: Option<JobOutcome>,
}

type Task = Box<dyn FnOnce() + Send>;

struct ServiceState {
    jobs: Vec<JobEntry>,
    tasks: VecDeque<Task>,
    subscribers: Vec<SyncSender<ProgressEvent>>,
    shutdown: bool,
    /// Turns started since the service started: the clock of the
    /// rotation.
    turns_started: u64,
}

struct ServiceInner {
    state: Mutex<ServiceState>,
    /// Wakes parked workers on submission, cancellation and shutdown,
    /// and when a worker exits.
    wake: Condvar,
    /// Wakes `wait` callers on job completion.
    done: Condvar,
    config: ServiceConfig,
}

impl ServiceInner {
    fn lock(&self) -> MutexGuard<'_, ServiceState> {
        self.state.lock().expect(LOCK)
    }

    /// Delivers an event to every live subscriber. Subscriber buffers
    /// are bounded ([`ServiceConfig::subscriber_capacity`]): emission
    /// never blocks a worker, and a subscriber whose buffer is
    /// full — it stopped draining, or drains slower than events arrive
    /// — is disconnected along with closed ones. Its receiver observes
    /// the stream ending, the same signal a shutdown sends, instead of
    /// silently losing interior events.
    fn emit(&self, state: &mut ServiceState, event: ProgressEvent) {
        state
            .subscribers
            .retain(|tx| match tx.try_send(event.clone()) {
                Ok(()) => true,
                Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => false,
            });
    }
}

/// A cloneable handle to a running [`AnalysisService`]: the in-process
/// API (`wdm_engine::campaign` runs on it, and the TCP front-end in
/// `wdm_bench` wraps it).
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<ServiceInner>,
}

impl ServiceHandle {
    /// Admits an analysis job and returns its id. If a checkpoint
    /// directory is configured and holds a snapshot for this id with a
    /// matching name, the job resumes from it.
    ///
    /// # Panics
    ///
    /// Panics if `spec.backends` is empty: a portfolio needs an arm. The
    /// service is unaffected.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServiceClosed> {
        assert!(
            !spec.backends.is_empty(),
            "job `{}` has an empty backend list",
            spec.name
        );
        let mut state = self.inner.lock();
        if state.shutdown {
            return Err(ServiceClosed);
        }
        let id = JobId(state.jobs.len());
        let (turns, checkpoint) = self
            .inner
            .config
            .checkpoint_dir
            .as_deref()
            .and_then(|dir| load_checkpoint(dir, id, &spec.name))
            .map_or((0, None), |(turns, ckpt)| (turns, Some(ckpt)));
        state.jobs.push(JobEntry {
            name: spec.name.clone(),
            wd: spec.wd,
            config: spec.config,
            backends: spec.backends,
            weight: spec.weight.max(1),
            cancel: CancelToken::new(),
            checkpoint,
            turns,
            served_at: 0,
            running: false,
            outcome: None,
        });
        self.inner.emit(
            &mut state,
            ProgressEvent {
                job: id,
                name: spec.name,
                kind: EventKind::Admitted {
                    resumed_at_turn: turns,
                },
            },
        );
        self.inner.wake.notify_all();
        Ok(id)
    }

    /// Enqueues an opaque task. Tasks are atomic units: they bypass
    /// turn scheduling and run FIFO, each on the next worker to reach a
    /// turn boundary, ahead of any job turn (campaign mode submits its
    /// closure jobs here).
    pub fn submit_task(&self, task: impl FnOnce() + Send + 'static) -> Result<(), ServiceClosed> {
        let mut state = self.inner.lock();
        if state.shutdown {
            return Err(ServiceClosed);
        }
        state.tasks.push_back(Box::new(task));
        self.inner.wake.notify_all();
        Ok(())
    }

    /// Subscribes to the progress stream. Events from before the
    /// subscription are not replayed. The stream buffers at most
    /// [`ServiceConfig::subscriber_capacity`] undrained events; a
    /// subscriber that falls further behind is disconnected (the
    /// receiver sees the stream end) so slow consumers bound the
    /// service's memory instead of growing it.
    pub fn subscribe(&self) -> Receiver<ProgressEvent> {
        let (tx, rx) = sync_channel(self.inner.config.subscriber_capacity.max(1));
        self.inner.lock().subscribers.push(tx);
        rx
    }

    /// Cancels a job: its arms observe the token at their next
    /// cancellation check and the job reaches a terminal (cancelled)
    /// outcome, which `wait` returns.
    pub fn cancel(&self, id: JobId) {
        let state = self.inner.lock();
        if let Some(job) = state.jobs.get(id.0) {
            job.cancel.cancel();
        }
        drop(state);
        self.inner.wake.notify_all();
    }

    /// Blocks until `id` reaches a terminal outcome and returns it.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never admitted by this service.
    pub fn wait(&self, id: JobId) -> JobOutcome {
        let mut state = self.inner.lock();
        assert!(id.0 < state.jobs.len(), "unknown job {id}");
        loop {
            if let Some(outcome) = &state.jobs[id.0].outcome {
                return outcome.clone();
            }
            state = self.inner.done.wait(state).expect(LOCK);
        }
    }

    /// The terminal outcome of `id`, if it has one yet.
    pub fn outcome(&self, id: JobId) -> Option<JobOutcome> {
        self.inner.lock().jobs.get(id.0)?.outcome.clone()
    }

    /// Number of admitted jobs.
    pub fn jobs(&self) -> usize {
        self.inner.lock().jobs.len()
    }

    /// Worker threads running the service's tasks and turns.
    pub fn threads(&self) -> usize {
        self.inner.config.threads.max(1)
    }

    /// Lends job `id`'s result-store entry — its name and terminal
    /// outcome, if reached — to `f` under the state lock and returns what
    /// `f` returns, or `None` if `id` was never admitted. A report lists
    /// the jobs through this one at a time (ids `0..jobs()`, in admission
    /// order), so no outcome is copied and the lock is held per job only.
    pub fn report_job<R>(
        &self,
        id: JobId,
        f: impl FnOnce(&str, Option<&JobOutcome>) -> R,
    ) -> Option<R> {
        let state = self.inner.lock();
        let job = state.jobs.get(id.0)?;
        Some(f(&job.name, job.outcome.as_ref()))
    }
}

/// The multi-tenant analysis service. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) cancels unfinished jobs, drives them
/// to their terminal (cancelled) outcomes, and joins the workers.
pub struct AnalysisService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl AnalysisService {
    /// Starts a service: spawns its [`threads`](ServiceConfig::threads)
    /// workers, named `wdm-worker-{i}`.
    pub fn start(config: ServiceConfig) -> Self {
        let threads = config.threads.max(1);
        let inner = Arc::new(ServiceInner {
            state: Mutex::new(ServiceState {
                jobs: Vec::new(),
                tasks: VecDeque::new(),
                subscribers: Vec::new(),
                shutdown: false,
                turns_started: 0,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
            config,
        });
        let workers = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("wdm-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn service worker")
            })
            .collect();
        AnalysisService { inner, workers }
    }

    /// A cloneable handle for submitting and observing jobs.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Stops the service: rejects further submissions, cancels
    /// unfinished jobs, waits for every job to reach its terminal
    /// outcome, and joins the workers.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for AnalysisService {
    fn drop(&mut self) {
        self.inner.lock().shutdown = true;
        self.inner.wake.notify_all();
        let mut panicked = false;
        for worker in self.workers.drain(..) {
            panicked |= worker.join().is_err();
        }
        if panicked {
            panic!("analysis service worker panicked");
        }
        // Close every progress stream: subscribers iterating the
        // channel see it end instead of blocking forever.
        self.inner.lock().subscribers.clear();
    }
}

/// One worker. At each turn boundary it runs the oldest queued task or,
/// if there is none, one turn of the unfinished job no other worker is
/// running whose latest turn started first, a job that has not run yet
/// counting as earliest and ties going to the lowest id. It parks when
/// there is neither, and exits once the service is shut down and drained.
///
/// A worker parks only when no task is queued and every unfinished job is
/// running: a submission wakes the parked workers, and a worker whose
/// turn ends picks again itself, so no notification is needed there.
fn worker_loop(inner: &ServiceInner) {
    let mut state = inner.lock();
    loop {
        if let Some(task) = state.tasks.pop_front() {
            drop(state);
            task();
            state = inner.lock();
            continue;
        }
        // `min_by_key` keeps the first of equal keys: the lowest id.
        let next = state
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.outcome.is_none() && !j.running)
            .min_by_key(|(_, j)| j.served_at)
            .map(|(index, _)| index);
        if let Some(index) = next {
            state.turns_started += 1;
            let (shutdown, started) = (state.shutdown, state.turns_started);
            let job = &mut state.jobs[index];
            if shutdown {
                // Shutdown cancels a job between its turns, never mid-turn:
                // a turn cut short would still checkpoint, and a resumed
                // job would replay from it. The turn below then drives the
                // job to its terminal (cancelled) outcome fast.
                job.cancel.cancel();
            }
            job.served_at = started;
            job.running = true;
            drop(state);
            run_turn(inner, index);
            state = inner.lock();
            state.jobs[index].running = false;
            continue;
        }
        if state.shutdown && state.jobs.iter().all(|j| j.outcome.is_some()) {
            // Parked workers exit too once they see the drained state.
            inner.wake.notify_all();
            return;
        }
        state = inner.wake.wait(state).expect(LOCK);
    }
}

/// One turn of one job: re-materialize the portfolio from its
/// checkpoint, run the granted rounds, checkpoint back (and to disk when
/// a checkpoint directory is set), or finish the job and store its
/// outcome.
fn run_turn(inner: &ServiceInner, index: usize) {
    // Take the durable state out under the lock; the minimization below
    // runs without holding it.
    let (name, wd, config, backends, weight, cancel, checkpoint, turn) = {
        let mut state = inner.lock();
        let job = &mut state.jobs[index];
        job.turns += 1;
        (
            job.name.clone(),
            Arc::clone(&job.wd),
            job.config.clone(),
            job.backends.clone(),
            job.weight,
            job.cancel.clone(),
            job.checkpoint.take(),
            job.turns,
        )
    };
    let resume = || match &checkpoint {
        // A checkpoint that fails validation (foreign or corrupt disk
        // state) falls back to a fresh start rather than wedging the
        // job.
        Some(c) => AdaptivePortfolio::restore(&*wd, &config, &backends, &cancel, c)
            .unwrap_or_else(|| AdaptivePortfolio::new(&*wd, &config, &backends, &cancel)),
        None => AdaptivePortfolio::new(&*wd, &config, &backends, &cancel),
    };
    let played = catch_unwind(AssertUnwindSafe(|| {
        let mut portfolio = resume();
        let rounds = inner.config.rounds_per_turn.max(1).saturating_mul(weight);
        let mut live = true;
        for _ in 0..rounds {
            if !portfolio.round(1) {
                live = false;
                break;
            }
        }
        // A cancel that lands mid-turn cuts the running round short, and
        // `round` still reports it as run. Such a turn is not progress: the
        // job ends as cancelled, and the disk keeps the last full turn.
        live &= !cancel.is_cancelled();

        if live {
            let snapshot = portfolio.checkpoint();
            let residual = portfolio.best_value();
            let evals = portfolio.evals_spent();
            let leader = portfolio.leader();
            drop(portfolio);
            let durable = persist_checkpoint(inner, index, &name, turn, false, &snapshot);
            let mut state = inner.lock();
            state.jobs[index].checkpoint = Some(snapshot);
            inner.emit(
                &mut state,
                ProgressEvent {
                    job: JobId(index),
                    name: name.clone(),
                    kind: EventKind::Progress {
                        residual,
                        evals,
                        leader,
                        turn,
                    },
                },
            );
            if durable {
                inner.emit(
                    &mut state,
                    ProgressEvent {
                        job: JobId(index),
                        name: name.clone(),
                        kind: EventKind::Checkpointed { turn },
                    },
                );
            }
        } else {
            finish_job(inner, index, &name, turn, portfolio, &cancel);
        }
    }));
    if let Err(panic) = played {
        // The run as of the last full turn; rebuilding it evaluates
        // nothing, but it calls the weak distance's `domain`, which may
        // panic too.
        let run = catch_unwind(AssertUnwindSafe(|| resume().into_run()))
            .unwrap_or_else(|_| unplayed_run(&backends));
        fail_job(inner, index, &name, run, panic_message(panic.as_ref()));
    }
}

/// The message a panic carried, if it was a string.
fn panic_message(panic: &(dyn Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "the turn panicked".to_string())
}

/// A run in which no arm evaluated anything.
fn unplayed_run(backends: &[BackendKind]) -> PortfolioRun {
    let unplayed = MinimizationRun {
        outcome: Outcome::NotFound {
            best_value: f64::INFINITY,
            best_input: Vec::new(),
            evals: 0,
        },
        best: MinimizeResult::new(Vec::new(), f64::INFINITY, 0, Termination::Cancelled),
        trace: SamplingTrace::with_stride(1),
    };
    PortfolioRun {
        winner: 0,
        entries: backends
            .iter()
            .map(|&backend| PortfolioEntry {
                backend,
                run: unplayed.clone(),
            })
            .collect(),
    }
}

/// Terminal path of a turn that panicked: store the failed outcome, notify
/// waiters and subscribers. Nothing is persisted, so the disk keeps the
/// last full turn.
fn fail_job(inner: &ServiceInner, index: usize, name: &str, run: PortfolioRun, reason: String) {
    let mut state = inner.lock();
    state.jobs[index].outcome = Some(JobOutcome {
        name: name.to_string(),
        run,
        failure: Some(reason.clone()),
    });
    inner.emit(
        &mut state,
        ProgressEvent {
            job: JobId(index),
            name: name.to_string(),
            kind: EventKind::Failed { reason },
        },
    );
    drop(state);
    inner.done.notify_all();
}

/// Terminal path: finalize, persist the terminal state for durability,
/// store the outcome, notify waiters and subscribers.
///
/// The terminal snapshot goes to disk only: nothing reads a finished
/// job's checkpoint in memory again (no worker runs a finished job, and
/// a resumed service reads the file), so the entry keeps none.
fn finish_job(
    inner: &ServiceInner,
    index: usize,
    name: &str,
    turn: u64,
    mut portfolio: AdaptivePortfolio<'_>,
    cancel: &CancelToken,
) {
    portfolio.finalize();
    let found = portfolio.found();
    let cancelled = !found && cancel.is_cancelled();
    // A cancelled terminal state is not persisted: the last progress
    // snapshot stays on disk, so a stopped service resumed with the
    // same submissions continues the job instead of replaying the
    // cancellation.
    if !cancelled {
        persist_checkpoint(inner, index, name, turn, true, &portfolio.checkpoint());
    }
    let run = portfolio.into_run();
    let outcome = JobOutcome {
        name: name.to_string(),
        run,
        failure: None,
    };
    let winner = outcome.run.winning_backend();
    let evals = outcome.run.outcome().evals();
    let mut state = inner.lock();
    state.jobs[index].outcome = Some(outcome);
    let kind = if cancelled {
        EventKind::Cancelled
    } else {
        EventKind::Finished {
            found,
            evals,
            winner,
        }
    };
    inner.emit(
        &mut state,
        ProgressEvent {
            job: JobId(index),
            name: name.to_string(),
            kind,
        },
    );
    drop(state);
    inner.done.notify_all();
}

/// Writes `job-<id>.json` atomically (temp file + rename). Returns
/// whether a file was written.
fn persist_checkpoint(
    inner: &ServiceInner,
    index: usize,
    name: &str,
    turn: u64,
    finished: bool,
    ckpt: &AdaptiveCheckpoint,
) -> bool {
    let Some(dir) = &inner.config.checkpoint_dir else {
        return false;
    };
    let value = Value::Object(vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("turns".to_string(), Value::UInt(turn)),
        ("finished".to_string(), Value::Bool(finished)),
        ("ckpt".to_string(), serde::Serialize::to_value(ckpt)),
    ]);
    let Ok(text) = serde_json::to_string(&value) else {
        return false;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return false;
    }
    let tmp = dir.join(format!("job-{index}.json.tmp"));
    let path = dir.join(format!("job-{index}.json"));
    std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, &path).is_ok()
}

/// Loads `job-<id>.json` if it exists and belongs to a job with this
/// name. Returns the turn counter and the checkpoint.
fn load_checkpoint(
    dir: &std::path::Path,
    id: JobId,
    name: &str,
) -> Option<(u64, AdaptiveCheckpoint)> {
    let text = std::fs::read_to_string(dir.join(format!("job-{}.json", id.0))).ok()?;
    let value = serde_json::value_from_str(&text).ok()?;
    match value.field("name") {
        Value::Str(stored) if stored == name => {}
        _ => return None,
    }
    let turns = match value.field("turns") {
        Value::UInt(n) => *n,
        Value::Int(n) if *n >= 0 => *n as u64,
        _ => return None,
    };
    let ckpt: AdaptiveCheckpoint = serde_json::from_value(value.field("ckpt")).ok()?;
    Some((turns, ckpt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_runtime::Interval;
    use wdm_core::weak_distance::FnWeakDistance;

    /// Regression: a finished job kept its terminal checkpoint in its
    /// entry for the life of the service, although nothing reads it
    /// again, so memory grew by a checkpoint per finished job.
    #[test]
    fn a_finished_job_keeps_no_checkpoint_in_memory() {
        let dir =
            std::env::temp_dir().join(format!("wdm-service-terminal-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = AnalysisService::start(
            ServiceConfig::new(1)
                .with_rounds_per_turn(1)
                .with_checkpoint_dir(&dir),
        );
        let handle = service.handle();
        // Zero-free, so the job spends its whole pool over several turns
        // and holds a live checkpoint between them.
        let wd = Arc::new(FnWeakDistance::new(
            1,
            vec![Interval::symmetric(100.0)],
            |x: &[f64]| x[0].abs() + 0.5,
        ));
        let config = AnalysisConfig::quick(3)
            .with_rounds(2)
            .with_max_evals(2_000);
        let id = handle
            .submit(JobSpec::new("zero-free", wd, config))
            .expect("service accepts submissions");
        assert!(!handle.wait(id).run.outcome().is_found());
        // Read under the lock, assert outside it: a failed assertion must
        // not poison the lock the service's shutdown takes.
        let (turns, holds_checkpoint) = {
            let state = handle.inner.lock();
            let job = &state.jobs[id.0];
            (job.turns, job.checkpoint.is_some())
        };
        assert!(turns > 1, "the job finished in {turns} turn(s)");
        assert!(
            !holds_checkpoint,
            "the finished job still holds its terminal checkpoint"
        );
        // The terminal state is on disk, where a resumed service reads it.
        let text = std::fs::read_to_string(dir.join("job-0.json")).expect("terminal checkpoint");
        let value = serde_json::value_from_str(&text).expect("checkpoint JSON");
        assert_eq!(value.field("finished"), &Value::Bool(true));
        assert!(load_checkpoint(&dir, id, "zero-free").is_some());
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
