//! Order statistics over timing samples.
//!
//! A tail percentile is reported only when at least [`TAIL_BEYOND`]
//! samples lie beyond it; with fewer, the number would be one or two
//! individual outliers rather than a percentile.

/// Samples that must rank strictly above a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Sorts samples ascending (total order, so NaN cannot panic the sort).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The median of ascending `sorted` (mean of the middle pair for even
/// lengths); `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// 1-based nearest rank of quantile `q` in `n` samples: `ceil(q·n)`,
/// clamped to `1..=n`. The epsilon keeps `0.95 × 240` at rank 228 despite
/// binary rounding.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q ∈ (0, 1]` of ascending `sorted`; `None`
/// when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(q, sorted.len()) - 1])
}

/// Like [`percentile`], but `None` unless at least [`TAIL_BEYOND`]
/// samples rank above it.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    (n > 0 && n - rank(q, n) >= TAIL_BEYOND).then(|| sorted[rank(q, n) - 1])
}

/// The fewest samples for which [`tail_percentile`] at `q` is defined.
#[cfg(test)]
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| n - rank(q, n) >= TAIL_BEYOND)
        .expect("q < 1")
}

/// Median and a tail percentile of one set of timings, with the sample
/// count they rest on.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `None` when the sample is too small for the requested tail.
    pub tail: Option<f64>,
}

impl Summary {
    /// Summarizes `samples` with the tail percentile `q`; `None` when
    /// there are no samples.
    pub fn of(samples: Vec<f64>, q: f64) -> Option<Self> {
        let s = sorted(samples);
        Some(Summary {
            n: s.len(),
            p50: median(&s)?,
            tail: tail_percentile(&s, q),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&ramp(240), 0.95), Some(228.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 above: reportable.
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples leave 9 above: too few.
        assert_eq!(tail_percentile(&ramp(999), 0.99), None);
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(min_samples_for(0.95), 200);
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(tail_percentile(&ramp(200), 0.95), Some(190.0));
        assert_eq!(tail_percentile(&ramp(199), 0.95), None);
    }

    #[test]
    fn summary_reports_count_and_missing_tail() {
        let s = Summary::of(ramp(50), 0.99).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (50, 25.5, None));
        assert!(Summary::of(Vec::new(), 0.5).is_none());
    }
}
