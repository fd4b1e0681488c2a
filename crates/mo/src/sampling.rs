//! Recording of the optimization sampling sequence.
//!
//! The paper's Figures 3(c), 4(c) and 9 plot the *sampling sequence* of the
//! MO backend: the n-th sampled input against its index. Backends in this
//! crate report every objective evaluation to a [`SampleSink`];
//! [`SamplingTrace`] stores them (optionally subsampled) and [`NoTrace`]
//! discards them.

/// One recorded objective evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Index of the evaluation within the run (0-based).
    pub index: u64,
    /// The evaluated point.
    pub x: Vec<f64>,
    /// The objective value at `x`.
    pub value: f64,
}

/// Receives every objective evaluation a backend performs.
///
/// Sinks are `Send` so the parallel engine can give each worker thread its
/// own trace and merge them deterministically afterwards (each individual
/// sink is still driven from a single thread at a time, hence no `Sync`
/// requirement).
pub trait SampleSink: Send {
    /// Records one evaluation.
    fn record(&mut self, index: u64, x: &[f64], value: f64);

    /// Records a contiguous batch of evaluations: sample `i` of the batch
    /// has index `start_index + i`. Must be observably identical to calling
    /// [`SampleSink::record`] once per sample in order — the default does
    /// exactly that; sinks may override it to amortize per-sample work
    /// (the chunked [`Evaluator`](crate::Evaluator) records whole batch
    /// prefixes through this method).
    fn record_batch(&mut self, start_index: u64, xs: &[Vec<f64>], values: &[f64]) {
        debug_assert_eq!(xs.len(), values.len());
        for (i, (x, &value)) in xs.iter().zip(values).enumerate() {
            self.record(start_index + i as u64, x, value);
        }
    }
}

/// A sink that discards every sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl SampleSink for NoTrace {
    fn record(&mut self, _index: u64, _x: &[f64], _value: f64) {}

    fn record_batch(&mut self, _start_index: u64, _xs: &[Vec<f64>], _values: &[f64]) {}
}

/// Stores the sampling sequence, keeping every `stride`-th sample to bound
/// memory for long runs.
///
/// # Example
///
/// ```
/// use wdm_mo::{Sample, SampleSink, SamplingTrace};
/// let mut trace = SamplingTrace::with_stride(2);
/// trace.record(0, &[1.0], 0.5);
/// trace.record(1, &[2.0], 0.25);
/// trace.record(2, &[3.0], 0.0);
/// assert_eq!(trace.len(), 2); // indices 0 and 2
/// assert_eq!(trace.samples()[1].x, vec![3.0]);
/// ```
#[derive(Debug, Clone)]
pub struct SamplingTrace {
    samples: Vec<Sample>,
    stride: u64,
    recorded_total: u64,
}

impl Default for SamplingTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl SamplingTrace {
    /// Records every sample.
    pub fn new() -> Self {
        SamplingTrace {
            samples: Vec::new(),
            stride: 1,
            recorded_total: 0,
        }
    }

    /// Records every `stride`-th sample (stride 0 is treated as 1).
    pub fn with_stride(stride: u64) -> Self {
        SamplingTrace {
            samples: Vec::new(),
            stride: stride.max(1),
            recorded_total: 0,
        }
    }

    /// The retained samples, in evaluation order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total number of samples offered to the trace (before subsampling).
    pub fn total_seen(&self) -> u64 {
        self.recorded_total
    }

    /// Appends every sample retained by `other` (and its seen-count) to this
    /// trace, preserving order. The parallel driver records each restart
    /// shard into its own trace and merges them in round order, which
    /// reproduces exactly the trace a sequential run would have built
    /// (sample indices restart at 0 every round in both cases).
    pub fn append(&mut self, other: SamplingTrace) {
        self.recorded_total += other.recorded_total;
        self.samples.extend(other.samples);
    }

    /// The retained samples whose value is `<= threshold` (used to extract
    /// the reported boundary values `BV = {x ∈ Raw | W(x) = 0}`).
    pub fn below(&self, threshold: f64) -> Vec<&Sample> {
        self.samples
            .iter()
            .filter(|s| s.value <= threshold)
            .collect()
    }

    /// The best (smallest-value) retained sample, NaN-aware.
    pub fn best(&self) -> Option<&Sample> {
        self.samples
            .iter()
            .filter(|s| !s.value.is_nan())
            .min_by(|a, b| a.value.partial_cmp(&b.value).unwrap())
    }

    /// Serializable snapshot of this trace (floats as raw bit patterns).
    pub fn checkpoint(&self) -> crate::checkpoint::TraceCkpt {
        crate::checkpoint::TraceCkpt {
            samples: self
                .samples
                .iter()
                .map(|s| crate::checkpoint::SampleCkpt {
                    index: s.index,
                    x: crate::checkpoint::bits_of(&s.x),
                    value: s.value.to_bits(),
                })
                .collect(),
            stride: self.stride,
            recorded_total: self.recorded_total,
        }
    }

    /// Rebuilds a trace from a [`checkpoint`](SamplingTrace::checkpoint)
    /// snapshot, bit-exactly.
    pub fn from_checkpoint(ckpt: &crate::checkpoint::TraceCkpt) -> Self {
        SamplingTrace {
            samples: ckpt
                .samples
                .iter()
                .map(|s| Sample {
                    index: s.index,
                    x: crate::checkpoint::floats_of(&s.x),
                    value: f64::from_bits(s.value),
                })
                .collect(),
            stride: ckpt.stride.max(1),
            recorded_total: ckpt.recorded_total,
        }
    }
}

impl SampleSink for SamplingTrace {
    fn record(&mut self, index: u64, x: &[f64], value: f64) {
        self.recorded_total += 1;
        if index.is_multiple_of(self.stride) {
            self.samples.push(Sample {
                index,
                x: x.to_vec(),
                value,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_records_all_with_default_stride() {
        let mut t = SamplingTrace::new();
        for i in 0..10u64 {
            t.record(i, &[i as f64], (i as f64) / 10.0);
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.total_seen(), 10);
        assert!(!t.is_empty());
    }

    #[test]
    fn trace_subsamples_with_stride() {
        let mut t = SamplingTrace::with_stride(3);
        for i in 0..10u64 {
            t.record(i, &[i as f64], 1.0);
        }
        assert_eq!(t.len(), 4); // 0, 3, 6, 9
        assert_eq!(t.total_seen(), 10);
    }

    #[test]
    fn below_and_best() {
        let mut t = SamplingTrace::new();
        t.record(0, &[1.0], 0.5);
        t.record(1, &[2.0], 0.0);
        t.record(2, &[3.0], f64::NAN);
        t.record(3, &[4.0], 0.25);
        assert_eq!(t.below(0.0).len(), 1);
        assert_eq!(t.below(0.3).len(), 2);
        assert_eq!(t.best().unwrap().x, vec![2.0]);
    }

    #[test]
    fn no_trace_is_a_no_op() {
        let mut t = NoTrace;
        t.record(0, &[1.0], 1.0);
        t.record_batch(1, &[vec![2.0]], &[2.0]);
    }

    #[test]
    fn record_batch_matches_per_sample_records() {
        let xs: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64]).collect();
        let values: Vec<f64> = (0..7).map(|i| 0.5 * i as f64).collect();
        let mut batched = SamplingTrace::with_stride(2);
        batched.record_batch(4, &xs, &values);
        let mut scalar = SamplingTrace::with_stride(2);
        for (i, (x, &v)) in xs.iter().zip(&values).enumerate() {
            scalar.record(4 + i as u64, x, v);
        }
        assert_eq!(batched.samples(), scalar.samples());
        assert_eq!(batched.total_seen(), scalar.total_seen());
    }

    #[test]
    fn zero_stride_treated_as_one() {
        let mut t = SamplingTrace::with_stride(0);
        t.record(0, &[1.0], 1.0);
        t.record(1, &[1.0], 1.0);
        assert_eq!(t.len(), 2);
    }
}
