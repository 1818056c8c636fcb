//! Sample summaries and the bound rule every comparison uses.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` when the sample is too small to have
/// one above the median.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= 20 {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, s[idx]))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base`; negative
/// when `new` is better.
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// Self time of each nesting level from the busy time of every level,
/// outermost first: a level's self time is its busy time minus the busy
/// time of the level it wraps.
pub fn self_times(busy_ns: &[u64]) -> Vec<u64> {
    (0..busy_ns.len())
        .map(|i| busy_ns[i].saturating_sub(busy_ns.get(i + 1).copied().unwrap_or(0)))
        .collect()
}

/// Times `f` repeatedly for about `budget` and returns the per-call
/// seconds. At least `min` calls are made however long they take, so an
/// expensive probe still yields a median; at most `max`.
pub fn sample(budget: Duration, min: usize, max: usize, mut f: impl FnMut()) -> Vec<f64> {
    sample_with(budget, min, max, || {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    })
}

/// Like [`sample`], for a body that times only part of itself and
/// returns those seconds.
pub fn sample_with(
    budget: Duration,
    min: usize,
    max: usize,
    mut f: impl FnMut() -> f64,
) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < max && (out.len() < min || start.elapsed() < budget) {
        out.push(f());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, v) = tail(&xs).unwrap();
        assert_eq!(pct, 99.0);
        assert_eq!(v, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        // 30 samples: the 20th is the highest with ten beyond it.
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        let (pct, v) = tail(&xs).unwrap();
        assert!((pct - 66.666).abs() < 0.01);
        assert_eq!(v, 20.0);
        assert!(tail(&xs[..20]).is_none());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn self_time_is_outer_minus_inner() {
        // Timed<Byz<Timed<Quant<Timed<Synthetic>>>>>: 100 total, 70
        // below the Byzantine wrapper, 40 below the quantizer.
        assert_eq!(self_times(&[100, 70, 40]), vec![30, 30, 40]);
        // Clock jitter can make an inner level read longer; never
        // underflow.
        assert_eq!(self_times(&[10, 12]), vec![0, 12]);
    }

    #[test]
    fn sample_honours_min_and_max() {
        let mut calls = 0;
        let s = sample(Duration::ZERO, 5, 100, || calls += 1);
        assert_eq!((s.len(), calls), (5, 5));
        let s = sample(Duration::from_secs(3600), 1, 7, || {});
        assert_eq!(s.len(), 7);
    }
}
