//! Order statistics over a run's samples.

use std::time::{Duration, Instant};

/// How many times [`time_median`] calls the timed function: at least
/// `min`, then more while `budget` lasts, but never more than `max`.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    pub min: usize,
    pub max: usize,
    pub budget: Duration,
}

/// The median wall time, in seconds, of repeated calls of `f`.
pub fn time_median<T>(reps: Reps, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < reps.min || (times.len() < reps.max && start.elapsed() < reps.budget) {
        let t = Instant::now();
        std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    median(&mut times)
}

/// The median of `values` (the mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::median;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
