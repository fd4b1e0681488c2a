//! The benchmark's own arithmetic: order statistics, the percentile
//! support rule, and the process counters read from `/proc`.

/// How many samples must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `xs` (NaN-free by construction: every sample is a
/// measured duration or a ratio of counts).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `xs` (mean of the two middle values for even lengths), or
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `xs` — the
/// smallest sample with at least `p`% of the samples at or below it — but
/// only when at least [`MIN_BEYOND`] samples lie strictly above it.
/// Returns `None` when the run did not produce enough samples to support
/// the percentile, so a tail figure is never read off a handful of points.
pub fn supported_percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let value = v[rank.clamp(1, v.len()) - 1];
    let beyond = v.iter().filter(|&&x| x > value).count();
    (beyond >= MIN_BEYOND).then_some(value)
}

/// The peak resident set size (`VmHWM`) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut fields = rest.split_whitespace();
        let value = fields.next()?.parse().ok()?;
        (fields.next()? == "kB").then_some(value)
    })
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// User plus system CPU time, in clock ticks, from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After the command name: state is field 3, utime field 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// This process's CPU time in seconds (user + system), assuming the
/// kernel's usual 100 ticks per second.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks as f64 / 100.0)
}

/// FNV-1a over 64-bit words: the digest that lets repeated passes prove
/// they produced bit-identical witnesses without storing them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds the bit patterns of `xs`, prefixed by their count.
    pub fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// SplitMix64: derives the per-instance seeds from the workload seed, so
/// the programs only ever receive generated inputs.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
