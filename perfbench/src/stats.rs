//! The benchmark's own arithmetic: medians, nearest-rank percentiles, the
//! "highest percentile with at least ten samples beyond it" rule, and the
//! attempted/failed tally behind `failed_frac`.

/// Percentiles the report may quote, highest first.
const PERCENTILE_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to be quoted.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` (0–100] among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding up
    // past an exact rank.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `values`; `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(p, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(p: f64, n: usize) -> usize {
    n.saturating_sub(nearest_rank(p, n))
}

/// The highest percentile of the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn top_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .into_iter()
        .find(|&p| n > 0 && beyond(p, n) >= MIN_BEYOND)
}

/// Attempted and failed operation counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, failed jobs, wrong outputs.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed or not.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
    }

    /// Share of attempted operations that failed (0 when none attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        // p90 of 100 samples is the 90th: exactly 10 beyond it.
        assert_eq!(beyond(90.0, 100), 10);
        assert_eq!(top_percentile(100), Some(90.0));
        // 99 samples leave only 9 beyond p90, so the median is the top.
        assert_eq!(top_percentile(99), Some(50.0));
        // p99 needs 1000 samples; p99.9 needs 10000.
        assert_eq!(top_percentile(999), Some(90.0));
        assert_eq!(top_percentile(1000), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
        // Fewer than 20 samples cannot support even the median.
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(0), None);
    }

    #[test]
    fn failed_frac_counts_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        t.record(true);
        t.record(false);
        t.add(8, 1);
        assert_eq!(
            t,
            Tally {
                attempted: 10,
                failed: 2
            }
        );
        assert!((t.failed_frac() - 0.2).abs() < 1e-12);
        // Failures never exceed attempts.
        t.add(1, 5);
        assert_eq!(
            t,
            Tally {
                attempted: 11,
                failed: 3
            }
        );
    }
}
