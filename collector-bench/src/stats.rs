//! Sample summaries: the median, the sample count, and the highest
//! percentile that still has at least ten samples beyond it.

/// Percentiles considered for the tail, highest first.
const TAILS: [f64; 5] = [99.99, 99.9, 99.0, 95.0, 90.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_SUPPORT: f64 = 10.0;

/// A summary of one timing (or any other sampled quantity).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median (linear interpolation between closest ranks).
    pub median: f64,
    /// Number of samples.
    pub n: usize,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it; `None` below twenty samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples` (any order). An empty sample set summarizes
    /// to a zero median with `n = 0`.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAILS
            .iter()
            .find(|&&p| n as f64 * (1.0 - p / 100.0) >= TAIL_SUPPORT - 1e-9)
            .map(|&p| (p, quantile(&sorted, p / 100.0)));
        Summary { median: quantile(&sorted, 0.5), n, tail }
    }

    /// One-line rendering: `median <v> <unit> (n=<n>, p<q> <v>)`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(", p{p} {v:.6} {unit}"),
            None => String::new(),
        };
        format!("median {:.6} {unit} (n={}{tail})", self.median, self.n)
    }
}

/// The `q`-quantile of sorted samples (linear interpolation).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The `q`-quantile of unsorted samples.
pub fn quantile_of(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, q)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile_of(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(Summary::of(&few).tail, None);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(Summary::of(&hundred).tail.map(|t| t.0), Some(90.0));
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Summary::of(&thousand).tail.map(|t| t.0), Some(99.0));
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(Summary::of(&[]).n, 0);
    }
}
