//! Benchmark-side wrappers at the program and objective boundaries.
//!
//! [`Probe`] wraps an [`Analyzable`] program and the [`BatchExecutor`]s it
//! hands out; [`TimedObjective`] wraps a catalog [`WeakDistance`]. Both
//! forward every call — `specialize`, `batch_executor` and the
//! reachability queries included — so the analyses take exactly the
//! kernel, opt and static-pruning paths they take on the bare program.
//! The wrappers add only counting (always) and leaf timing (when tracing
//! is on).

use crate::trace;
use fp_runtime::{
    Analyzable, BatchExecutor, BranchId, BranchSite, Ctx, Interval, KernelPolicy, ObservationSpec,
    Observer, OpId, OpSite, OptPolicy, Reachability,
};
use fpir::ModuleProgram;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wdm_core::WeakDistance;

/// One execution in this many is kept for the instruction-count sample.
const INSTS_SAMPLE_EVERY: u64 = 64;

/// Deterministic counters shared by every probe of one workload pass.
#[derive(Default)]
pub struct Meter {
    /// Program executions (evaluations plus the analyses' own replays).
    pub executions: AtomicU64,
    /// `execute_many` calls.
    pub batch_calls: AtomicU64,
    /// Inputs passed to `execute_many`.
    pub batch_inputs: AtomicU64,
    /// Inputs executed by a batch executor of a kernel-eligible module.
    pub kernel_inputs: AtomicU64,
    /// `Analyzable::specialize` calls.
    pub specialize_calls: AtomicU64,
    /// Calls that returned a specialized program.
    pub specialize_kept: AtomicU64,
    /// Every [`INSTS_SAMPLE_EVERY`]-th `fpir` execution: the module that
    /// ran and its input, replayed after the timed window.
    samples: Mutex<Vec<(Arc<ModuleProgram>, Vec<f64>)>>,
    /// Set once the sample covers the counted prefix: later executions are
    /// not kept (each sample pins its, possibly specialized, module).
    sampled: AtomicBool,
}

impl Meter {
    /// Stops sampling and returns how many executions were sampled.
    pub fn stop_sampling(&self) -> usize {
        self.sampled.store(true, Ordering::Relaxed);
        self.samples.lock().expect("sample lock").len()
    }

    /// Mean interpreter instructions over the first `n` sampled `fpir`
    /// executions (0 when none were sampled).
    pub fn insts_per_eval(&self, n: usize) -> f64 {
        let samples = self.samples.lock().expect("sample lock");
        let sampled = &samples[..n.min(samples.len())];
        let total: u64 = sampled
            .iter()
            .map(|(module, input)| module.instructions_executed(input).unwrap_or(0))
            .sum();
        if sampled.is_empty() {
            0.0
        } else {
            total as f64 / sampled.len() as f64
        }
    }

    fn count_execution(&self, module: Option<&Arc<ModuleProgram>>, input: &[f64]) {
        let n = self.executions.fetch_add(1, Ordering::Relaxed);
        if let Some(module) = module {
            if n.is_multiple_of(INSTS_SAMPLE_EVERY) && !self.sampled.load(Ordering::Relaxed) {
                self.samples
                    .lock()
                    .expect("sample lock")
                    .push((Arc::clone(module), input.to_vec()));
            }
        }
    }
}

/// A program under analysis seen through the benchmark's meter.
pub struct Probe {
    program: Arc<dyn Analyzable>,
    /// The same program when it is an `fpir` module (instruction counts,
    /// kernel eligibility, typed specialization).
    module: Option<Arc<ModuleProgram>>,
    meter: Arc<Meter>,
    timed: bool,
}

impl Probe {
    /// Wraps a native (hand-instrumented Rust) program.
    pub fn native(program: impl Analyzable + 'static, meter: &Arc<Meter>) -> Probe {
        Probe {
            program: Arc::new(program),
            module: None,
            meter: Arc::clone(meter),
            timed: trace::enabled(),
        }
    }

    /// Wraps an `fpir` module program.
    pub fn fpir(module: &Arc<ModuleProgram>, meter: &Arc<Meter>) -> Probe {
        Probe {
            program: Arc::clone(module) as Arc<dyn Analyzable>,
            module: Some(Arc::clone(module)),
            meter: Arc::clone(meter),
            timed: trace::enabled(),
        }
    }

    fn derive(&self, program: Arc<dyn Analyzable>, module: Option<Arc<ModuleProgram>>) -> Probe {
        Probe {
            program,
            module,
            meter: Arc::clone(&self.meter),
            timed: self.timed,
        }
    }
}

impl Analyzable for Probe {
    fn name(&self) -> &str {
        self.program.name()
    }

    fn num_inputs(&self) -> usize {
        self.program.num_inputs()
    }

    fn search_domain(&self) -> Vec<Interval> {
        self.program.search_domain()
    }

    fn op_sites(&self) -> Vec<OpSite> {
        self.program.op_sites()
    }

    fn branch_sites(&self) -> Vec<BranchSite> {
        self.program.branch_sites()
    }

    fn execute(&self, input: &[f64], ctx: &mut Ctx<'_>) -> Option<f64> {
        self.meter.count_execution(self.module.as_ref(), input);
        if !self.timed {
            return self.program.execute(input, ctx);
        }
        let start = Instant::now();
        let out = self.program.execute(input, ctx);
        trace::leaves(start.elapsed().as_nanos() as u64, 1);
        out
    }

    fn batch_executor(&self, policy: KernelPolicy) -> Box<dyn BatchExecutor + '_> {
        let inner = self.program.batch_executor(policy);
        // Asked after the program chose its backend, so the (cached)
        // eligibility analysis runs exactly when the untraced path runs it.
        let kernel = policy != KernelPolicy::Never
            && self.module.as_ref().is_some_and(|m| m.kernel_eligible());
        Box::new(ProbeSession {
            inner,
            probe: self,
            kernel,
        })
    }

    fn branch_side_reachability(&self, site: BranchId, taken: bool) -> Reachability {
        self.program.branch_side_reachability(site, taken)
    }

    fn branch_boundary_reachability(&self, site: BranchId) -> Reachability {
        self.program.branch_boundary_reachability(site)
    }

    fn op_site_reachability(&self, site: OpId) -> Reachability {
        self.program.op_site_reachability(site)
    }

    fn specialize(&self, spec: &ObservationSpec, policy: OptPolicy) -> Option<Box<dyn Analyzable>> {
        self.meter.specialize_calls.fetch_add(1, Ordering::Relaxed);
        let _span = trace::open(trace::Layer::Specialize);
        let derived = match &self.module {
            Some(module) => module.specialized(spec, policy).map(|m| {
                let m = Arc::new(m);
                self.derive(Arc::clone(&m) as Arc<dyn Analyzable>, Some(m))
            }),
            None => self
                .program
                .specialize(spec, policy)
                .map(|p| self.derive(Arc::from(p), None)),
        };
        derived.map(|probe| {
            self.meter.specialize_kept.fetch_add(1, Ordering::Relaxed);
            Box::new(probe) as Box<dyn Analyzable>
        })
    }
}

/// The [`BatchExecutor`] a [`Probe`] hands out: the program's own session,
/// counted and (when tracing) timed.
struct ProbeSession<'a> {
    inner: Box<dyn BatchExecutor + 'a>,
    probe: &'a Probe,
    kernel: bool,
}

impl ProbeSession<'_> {
    fn count<'x>(&self, inputs: impl ExactSizeIterator<Item = &'x [f64]>) {
        let meter = &self.probe.meter;
        if self.kernel {
            meter
                .kernel_inputs
                .fetch_add(inputs.len() as u64, Ordering::Relaxed);
        }
        for input in inputs {
            meter.count_execution(self.probe.module.as_ref(), input);
        }
    }
}

impl BatchExecutor for ProbeSession<'_> {
    fn execute_one(&mut self, input: &[f64], observer: &mut dyn Observer) -> Option<f64> {
        self.count(std::iter::once(input));
        if !self.probe.timed {
            return self.inner.execute_one(input, observer);
        }
        let start = Instant::now();
        let out = self.inner.execute_one(input, observer);
        trace::leaves(start.elapsed().as_nanos() as u64, 1);
        out
    }

    fn execute_many(
        &mut self,
        inputs: &[Vec<f64>],
        observers: &mut [&mut dyn Observer],
        results: &mut Vec<Option<f64>>,
    ) {
        self.count(inputs.iter().map(Vec::as_slice));
        let meter = &self.probe.meter;
        meter.batch_calls.fetch_add(1, Ordering::Relaxed);
        meter
            .batch_inputs
            .fetch_add(inputs.len() as u64, Ordering::Relaxed);
        if !self.probe.timed {
            return self.inner.execute_many(inputs, observers, results);
        }
        let start = Instant::now();
        self.inner.execute_many(inputs, observers, results);
        trace::leaves(start.elapsed().as_nanos() as u64, inputs.len() as u64);
    }
}

/// A catalog weak distance whose evaluations are timed as leaves on the
/// thread that runs them (the service's pool workers).
pub struct TimedObjective {
    inner: Arc<dyn WeakDistance>,
}

impl TimedObjective {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn WeakDistance>) -> Self {
        TimedObjective { inner }
    }
}

impl WeakDistance for TimedObjective {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn domain(&self) -> Vec<Interval> {
        self.inner.domain()
    }

    fn eval(&self, x: &[f64]) -> f64 {
        let start = Instant::now();
        let value = self.inner.eval(x);
        trace::leaves(start.elapsed().as_nanos() as u64, 1);
        value
    }

    fn eval_batch(&self, xs: &[Vec<f64>], out: &mut Vec<f64>) {
        let start = Instant::now();
        self.inner.eval_batch(xs, out);
        trace::leaves(start.elapsed().as_nanos() as u64, xs.len() as u64);
    }

    fn description(&self) -> String {
        self.inner.description()
    }
}
