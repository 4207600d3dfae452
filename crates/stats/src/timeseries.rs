//! Timestamped sample series for the latency/power-over-time figures.

use lumen_desim::Picos;
use serde::{Deserialize, Serialize};

/// A named series of `(time, value)` samples in non-decreasing time order.
///
/// # Example
///
/// ```
/// use lumen_desim::Picos;
/// use lumen_stats::TimeSeries;
/// let mut ts = TimeSeries::new("latency");
/// ts.record(Picos::from_us(1), 12.0);
/// ts.record(Picos::from_us(2), 14.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last(), Some((Picos::from_us(2), 14.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    times: Vec<Picos>,
    values: Vec<f64>,
    retention: Option<SeriesRetention>,
}

/// Online-downsampling state for a bounded-memory [`TimeSeries`] (see
/// [`TimeSeries::with_retention`]).
///
/// Samples are kept by *absolute index*: sample `i` of the stream is
/// retained iff `i % stride == 0`. When the retained set would exceed
/// the cap, the stride doubles and every other retained sample is
/// dropped — so memory stays below the cap at any horizon, and the kept
/// set is a pure function of the sample stream (never of buffer history
/// or timing), which is what lets a checkpoint-resumed run reproduce it
/// bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesRetention {
    cap: usize,
    stride: u64,
    seen: u64,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
            retention: None,
        }
    }

    /// Converts the series to bounded-memory form: at most `cap` samples
    /// are retained at any time, with older samples thinned by a
    /// power-of-two stride over absolute sample indices.
    ///
    /// Retention is deterministic in the sample stream alone, so a run
    /// resumed from a checkpoint (which serializes the stride/seen
    /// counters) retains exactly the same samples as the unbroken run.
    ///
    /// # Example
    ///
    /// ```
    /// use lumen_desim::Picos;
    /// use lumen_stats::TimeSeries;
    /// let mut ts = TimeSeries::new("power").with_retention(64);
    /// for i in 0..10_000u64 {
    ///     ts.record(Picos::from_ns(i), i as f64);
    /// }
    /// assert!(ts.len() <= 64);
    /// // Retained samples are an index-strided subsequence of the stream.
    /// let stride = ts.retention_stride().unwrap();
    /// assert!(stride.is_power_of_two());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `cap < 2`.
    pub fn with_retention(mut self, cap: usize) -> Self {
        assert!(cap >= 2, "retention cap must be at least 2");
        let seen = self.times.len() as u64;
        self.retention = Some(SeriesRetention {
            cap,
            stride: 1,
            seen,
        });
        self.compact_to_cap();
        self
    }

    /// The retention cap, or `None` when the series is unbounded.
    pub fn retention_cap(&self) -> Option<usize> {
        self.retention.as_ref().map(|r| r.cap)
    }

    /// The current retention stride (samples kept per `stride` offered),
    /// or `None` when the series is unbounded.
    pub fn retention_stride(&self) -> Option<u64> {
        self.retention.as_ref().map(|r| r.stride)
    }

    /// Total samples ever offered to [`record`](Self::record), counting
    /// ones the retention policy dropped.
    pub fn samples_seen(&self) -> u64 {
        match &self.retention {
            Some(r) => r.seen,
            None => self.times.len() as u64,
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// Under a retention policy ([`with_retention`](Self::with_retention))
    /// the sample may be dropped rather than stored; which samples are
    /// kept depends only on their absolute index in the stream.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last recorded time or `value` is NaN.
    pub fn record(&mut self, at: Picos, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN");
        if let Some(&last) = self.times.last() {
            assert!(at >= last, "samples must be time-ordered");
        }
        if let Some(r) = &mut self.retention {
            let index = r.seen;
            r.seen += 1;
            if index % r.stride != 0 {
                return;
            }
        }
        self.times.push(at);
        self.values.push(value);
        self.compact_to_cap();
    }

    /// Halves the retained set (doubling the stride) until it fits the
    /// retention cap. Retained entry `j` always has absolute stream index
    /// `j * stride`, so dropping odd positions and doubling the stride
    /// preserves that invariant.
    fn compact_to_cap(&mut self) {
        let Some(r) = &mut self.retention else {
            return;
        };
        while self.times.len() > r.cap {
            let mut keep = 0usize;
            for j in (0..self.times.len()).step_by(2) {
                self.times[keep] = self.times[j];
                self.values[keep] = self.values[j];
                keep += 1;
            }
            self.times.truncate(keep);
            self.values.truncate(keep);
            r.stride *= 2;
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<(Picos, f64)> {
        match (self.times.last(), self.values.last()) {
            (Some(&t), Some(&v)) => Some((t, v)),
            _ => None,
        }
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Picos, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Mean of all values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Downsamples to at most `max_points` by averaging consecutive runs —
    /// used when emitting plot data for long simulations.
    ///
    /// # Panics
    ///
    /// Panics if `max_points` is zero.
    pub fn downsample(&self, max_points: usize) -> TimeSeries {
        assert!(max_points > 0, "max_points must be positive");
        if self.len() <= max_points {
            return self.clone();
        }
        let chunk = self.len().div_ceil(max_points);
        let mut out = TimeSeries::new(self.name.clone());
        for block in 0..self.len().div_ceil(chunk) {
            let lo = block * chunk;
            let hi = (lo + chunk).min(self.len());
            let t = self.times[hi - 1];
            let v = self.values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            out.record(t, v);
        }
        out
    }

    /// Values within `[from, to)`, averaged; `None` if no samples fall in
    /// the interval.
    pub fn window_mean(&self, from: Picos, to: Picos) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (t, v) in self.iter() {
            if t >= from && t < to {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> TimeSeries {
        let mut ts = TimeSeries::new("s");
        for i in 0..n {
            ts.record(Picos::from_ns(i as u64), i as f64);
        }
        ts
    }

    #[test]
    fn records_in_order() {
        let ts = series(5);
        assert_eq!(ts.len(), 5);
        assert_eq!(ts.last(), Some((Picos::from_ns(4), 4.0)));
        assert_eq!(ts.mean(), 2.0);
    }

    #[test]
    fn equal_timestamps_allowed() {
        let mut ts = TimeSeries::new("s");
        ts.record(Picos::from_ns(1), 1.0);
        ts.record(Picos::from_ns(1), 2.0);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_rejected() {
        let mut ts = TimeSeries::new("s");
        ts.record(Picos::from_ns(2), 1.0);
        ts.record(Picos::from_ns(1), 2.0);
    }

    #[test]
    fn downsample_shrinks() {
        let ts = series(100);
        let d = ts.downsample(10);
        assert!(d.len() <= 10);
        assert!((d.mean() - ts.mean()).abs() < 1.0);
        // Small series unchanged.
        let small = series(3);
        assert_eq!(small.downsample(10).len(), 3);
    }

    #[test]
    fn window_mean() {
        let ts = series(10);
        let m = ts
            .window_mean(Picos::from_ns(2), Picos::from_ns(5))
            .unwrap();
        assert_eq!(m, 3.0); // values 2,3,4
        assert!(ts
            .window_mean(Picos::from_us(1), Picos::from_us(2))
            .is_none());
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new("e");
        assert!(ts.is_empty());
        assert_eq!(ts.mean(), 0.0);
        assert_eq!(ts.last(), None);
    }

    #[test]
    fn retention_caps_memory() {
        let mut ts = TimeSeries::new("r").with_retention(16);
        for i in 0..100_000u64 {
            ts.record(Picos::from_ns(i), i as f64);
        }
        assert!(ts.len() <= 16);
        assert_eq!(ts.samples_seen(), 100_000);
        let stride = ts.retention_stride().unwrap();
        assert!(stride.is_power_of_two());
        // Every retained entry sits at absolute index j * stride.
        for (j, (_, v)) in ts.iter().enumerate() {
            assert_eq!(v, (j as u64 * stride) as f64);
        }
    }

    #[test]
    fn retention_is_stream_deterministic() {
        // Recording the same stream in one go or split at an arbitrary
        // point yields identical retained sets — the property checkpoint
        // resume relies on.
        let total = 12_345u64;
        for split in [1u64, 7, 100, 9_999] {
            let mut whole = TimeSeries::new("w").with_retention(32);
            let mut a = TimeSeries::new("w").with_retention(32);
            for i in 0..total {
                whole.record(Picos::from_ns(i), (i * 3) as f64);
            }
            for i in 0..split {
                a.record(Picos::from_ns(i), (i * 3) as f64);
            }
            let mut b = a.clone();
            for i in split..total {
                b.record(Picos::from_ns(i), (i * 3) as f64);
            }
            assert_eq!(whole, b);
        }
    }

    #[test]
    fn retention_applies_to_existing_samples() {
        let ts = series(100).with_retention(8);
        assert!(ts.len() <= 8);
        assert_eq!(ts.samples_seen(), 100);
    }
}
