//! In-memory spans recorded at the layer boundaries the benchmark can see
//! from outside the library, and the self-time arithmetic derived from
//! them.
//!
//! Spans are coarse (one per analysis call, specialization, or wire
//! request) and kept per thread. Program executions and objective
//! evaluations are far too many to keep one by one, so each is folded into
//! a *leaf* total of the innermost open span on its thread; leaves on a
//! thread never overlap, so subtracting their sum from the span is exact.
//! Leaves on a thread with no open span (the service's pool workers) are
//! folded into a process-wide total when the thread exits.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layer a span or leaf belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `BoundaryAnalysis::find_condition_run`.
    Boundary,
    /// `PathAnalysis::reach_run`.
    Path,
    /// `OverflowDetector::run`.
    Overflow,
    /// `CoverageAnalysis::run`.
    Coverage,
    /// `wdm_xsat::Solver::solve`.
    Xsat,
    /// `Analyzable::specialize` (`fpir::opt` with translation validation).
    Specialize,
    /// One wire `submit` request, sent to reply read.
    WireSubmit,
    /// One wire `ping` request.
    WirePing,
    /// The final wire `report` request.
    WireReport,
    /// A wire `subscribe` or `shutdown` request.
    WireControl,
}

impl Layer {
    /// The name used in the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Boundary => "boundary",
            Layer::Path => "path",
            Layer::Overflow => "overflow",
            Layer::Coverage => "coverage",
            Layer::Xsat => "xsat",
            Layer::Specialize => "specialize",
            Layer::WireSubmit => "wire.submit",
            Layer::WirePing => "wire.ping",
            Layer::WireReport => "wire.report",
            Layer::WireControl => "wire.control",
        }
    }
}

/// One closed span: `[start_ns, end_ns)` on the trace clock, its parent (an
/// index into the same thread's span list), and the summed duration and
/// count of the leaf executions that ran directly inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The layer.
    pub layer: Layer,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Summed duration of the leaves folded into this span.
    pub leaf_ns: u64,
    /// Number of leaves folded into this span.
    pub leaf_count: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// How much of `[start, end)` the `children` intervals cover, counting
/// overlapping children once and ignoring any part outside the span.
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of a span: its duration minus the part its child spans cover
/// and minus its (non-overlapping) leaf total.
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)], leaf_ns: u64) -> u64 {
    end.saturating_sub(start)
        .saturating_sub(covered_ns(start, end, children))
        .saturating_sub(leaf_ns)
}

/// Self time of every span in `spans` (one thread's list), in order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, c)| self_time_ns(s.start_ns, s.end_ns, c, s.leaf_ns))
        .collect()
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Leaves recorded on threads that had no open span, folded in at thread
/// exit: `(total ns, count)`.
static ORPHAN_LEAVES: Mutex<(u64, u64)> = Mutex::new((0, 0));

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
    orphan: (u64, u64),
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if self.orphan.1 > 0 {
            if let Ok(mut total) = ORPHAN_LEAVES.lock() {
                total.0 += self.orphan.0;
                total.1 += self.orphan.1;
            }
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// An open span; closing happens on drop.
pub struct SpanGuard {
    index: Option<usize>,
}

/// Opens a span of `layer` on this thread (a no-op when tracing is off).
pub fn open(layer: Layer) -> SpanGuard {
    if !enabled() {
        return SpanGuard { index: None };
    }
    let start_ns = now_ns();
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open.last().copied();
        let index = r.spans.len();
        r.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
            leaf_ns: 0,
            leaf_count: 0,
        });
        r.open.push(index);
        index
    });
    SpanGuard { index: Some(index) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end_ns = now_ns();
            RECORDER.with(|r| {
                let mut r = r.borrow_mut();
                r.spans[index].end_ns = end_ns;
                if r.open.last() == Some(&index) {
                    r.open.pop();
                }
            });
        }
    }
}

/// Records an already-closed span of `layer` over `[start_ns, end_ns)`,
/// a child of the innermost open span (a no-op when tracing is off). For
/// requests that overlap one another, which nested guards cannot express.
pub fn record(layer: Layer, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open.last().copied();
        r.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns,
            leaf_ns: 0,
            leaf_count: 0,
        });
    });
}

/// Folds `count` leaf executions taking `ns` in total (one batch) into the
/// innermost open span on this thread, or into the thread's orphan total.
pub fn leaves(ns: u64, count: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        match r.open.last().copied() {
            Some(top) => {
                r.spans[top].leaf_ns += ns;
                r.spans[top].leaf_count += count;
            }
            None => {
                r.orphan.0 += ns;
                r.orphan.1 += count;
            }
        }
    });
}

/// How many spans this thread has opened since its spans were last taken.
pub fn recorded() -> usize {
    RECORDER.with(|r| r.borrow().spans.len())
}

/// Takes this thread's closed spans, leaving it empty.
pub fn take_spans() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Takes the leaf totals of threads that have exited: `(ns, count)`.
pub fn take_orphan_leaves() -> (u64, u64) {
    let mut total = ORPHAN_LEAVES.lock().expect("orphan leaf lock");
    std::mem::take(&mut *total)
}

/// Writes `spans` as tab-separated lines (layer, parent, start, end, leaf
/// ns, leaf count) to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "layer\tparent\tstart_ns\tend_ns\tleaf_ns\tleaf_count")?;
    for s in spans {
        let parent = s.parent.map_or(-1, |p| p as i64);
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.layer.name(),
            parent,
            s.start_ns,
            s.end_ns,
            s.leaf_ns,
            s.leaf_count
        )?;
    }
    out.flush()
}
