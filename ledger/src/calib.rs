//! Host-speed calibration.
//!
//! The host is shared, and its neighbours slow this process by up to 2×
//! for seconds to minutes at a time: on a 2-vCPU Intel Xeon VM, one seed
//! of `native_suite` read 290 ns/eval for a minute and 520 ns/eval the
//! next, with process CPU time tracking wall time throughout. A run-long
//! figure then reads the neighbours' load as much as the program's speed.
//!
//! So a short loop of small allocations — the kind of work those
//! slow-downs hit hardest — is timed beside every window of a run, and the
//! window's times are scaled by the loop's nominal time over its measured
//! one. The loop is the benchmark's own and never calls the library, so a
//! change to the library moves calibrated timings exactly as it moves raw
//! ones; on a quiet host the two agree.

use std::time::Instant;

/// Allocations per attempt.
const ITERS: usize = 2_000;
/// Attempts per measurement; the fastest one counts, so an attempt cut by
/// an interrupt or a context switch does not.
const ATTEMPTS: usize = 16;
/// Seconds one attempt takes on a quiet host of the kind described above:
/// the speed calibrated timings are expressed at.
pub const NOMINAL_S: f64 = 5.3e-5;

/// One attempt: `ITERS` short vectors built, summed and freed.
#[inline(never)]
fn attempt() -> f64 {
    let start = Instant::now();
    let mut acc = 0.0f64;
    for i in 0..ITERS {
        let v: Vec<f64> = (0..8 + i % 24).map(|j| j as f64 * 1.5 + acc).collect();
        acc = std::hint::black_box(v.iter().sum::<f64>()) * 1e-9;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The host's speed now, relative to the nominal host: times measured now
/// are multiplied by it to read as they would on the nominal host. The
/// first call of a process also warms the allocator up and is thrown away.
pub fn speed() -> f64 {
    static WARM: std::sync::Once = std::sync::Once::new();
    WARM.call_once(|| {
        attempt();
    });
    let fastest = (0..ATTEMPTS)
        .map(|_| attempt())
        .fold(f64::INFINITY, f64::min);
    NOMINAL_S / fastest
}
