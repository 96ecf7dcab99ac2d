//! Order statistics and the percentile-reporting rule.

/// Nearest-rank quantile of an ascending slice: the value at rank
/// `ceil(q·n)` (1-based). `q = 0.5` is the lower median.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly past the nearest-rank position of `q`.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// A timing summary under the reporting rule: the median, plus the
/// highest percentile that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    /// `None` when fewer than ten samples lie beyond it.
    pub p99: Option<f64>,
    /// `None` when even p75 has fewer than ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

/// With no samples (every operation failed) every figure is NaN.
pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary {
            samples: 0,
            p50: f64::NAN,
            p99: None,
            tail: None,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = TAIL_LADDER
        .iter()
        .find(|&&q| beyond(n, q) >= 10)
        .map(|&q| (q, quantile(&sorted, q)));
    Summary {
        samples: n,
        p50: quantile(&sorted, 0.5),
        p99: (beyond(n, 0.99) >= 10).then(|| quantile(&sorted, 0.99)),
        tail,
    }
}

impl Summary {
    /// p99 when at least ten samples lie beyond it; otherwise the
    /// highest percentile the rule allows, or the median.
    pub fn p99_or_tail(&self) -> f64 {
        self.p99.or(self.tail.map(|(_, v)| v)).unwrap_or(self.p50)
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_positions() {
        let v = ramp(10);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1 000 samples: p99 sits at rank 990 with exactly 10 beyond
        let s = summarize(&ramp(1_000));
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert_eq!(s.p99_or_tail(), 990.0);
        // 999 samples: p99 has only 9 beyond, so p95 is reported
        let s = summarize(&ramp(999));
        assert_eq!(s.tail.map(|t| t.0), Some(0.95));
        assert_eq!(s.p99, None);
        assert_eq!(s.p99_or_tail(), 950.0);
        // 10 000 samples reach p99.9, and p99 stays available
        let s = summarize(&ramp(10_000));
        assert_eq!(s.tail.map(|t| t.0), Some(0.999));
        assert_eq!(s.p99, Some(9_900.0));
        // 39 samples: p75 leaves 9 beyond, no tail at all
        let s = summarize(&ramp(39));
        assert_eq!(s.tail, None);
        assert_eq!(s.p50, 20.0);
        assert_eq!(s.p99_or_tail(), 20.0);
        assert_eq!(summarize(&ramp(40)).tail, Some((0.75, 30.0)));
    }

    #[test]
    fn no_samples_give_nan() {
        let s = summarize(&[]);
        assert!(s.p50.is_nan() && s.p99_or_tail().is_nan());
        assert_eq!(s.samples, 0);
    }

    #[test]
    fn summary_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        let s = summarize(&v);
        assert_eq!(s.samples, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.tail, Some((0.95, 190.0)));
    }
}
