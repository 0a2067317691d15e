//! Per-run statistics: a robust centre (the median), the quartiles, the
//! sample count, the fast-end percentile the gated timings report, and
//! the tail-percentile rule.
//!
//! Preemption on a small shared host throws single samples far out, so
//! every reported timing is a median or a low percentile over many
//! samples of one run (trimmed statistics in the sense of
//! García-Escudero et al.), never a mean. A tail percentile is reported
//! only where the sample supports it: the highest percentile with at
//! least [`TAIL_SAMPLES`] samples beyond it.

/// The percentile, from the fast end, that the gated timings report.
/// Contention from other tenants only ever adds time, and the share of
/// a run it covers changes from minute to minute; the fastest 1 % of
/// many short samples stays put where the median and even the 10th
/// percentile move with it.
pub const FAST_PERCENTILE: f64 = 1.0;

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Sample count, quartiles and extremes of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise `samples` (any order). `None` when there are none.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        let n = sorted.len();
        let (q1, median, q3) = quartiles(&sorted)?;
        Some(Summary {
            n,
            median,
            q1,
            q3,
            min: sorted[0],
            max: sorted[n - 1],
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartiles of sorted data, by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (method "exclusive"), which is how
/// run-to-run spreads of the benchmark's results are judged.
fn quartiles(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    let ld = sorted.len();
    match ld {
        0 => return None,
        1 => return Some((sorted[0], sorted[0], sorted[0])),
        _ => {}
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // i·m − 4j lies in [0, 4]: the weight of the upper neighbour.
        let delta = (i * m) as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The highest percentile on the ladder with at least [`TAIL_SAMPLES`]
/// samples beyond it, or `None` when even the median lacks them
/// (fewer than 20 samples).
#[must_use]
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n - nearest_rank(n, p).min(n) >= TAIL_SAMPLES)
}

/// 1-based nearest rank of percentile `p` in `n` samples, in integer
/// tenths of a percent so that 99.9 % of 10 000 is exactly rank 9 990.
fn nearest_rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).max(1)
}

/// Nearest-rank percentile `p` of `samples`, if the sample supports it
/// under the tail rule; `None` otherwise.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let supported = supported_percentile(n)?;
    if p > supported {
        return None;
    }
    let sorted = sorted(samples);
    Some(sorted[nearest_rank(n, p) - 1])
}

/// Nearest-rank percentile `p` of `samples` at the fast end (`p` below
/// 50), with no tail rule: the robust lower envelope the gated timings
/// report. `None` when there are no samples.
#[must_use]
pub fn low_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    sorted
        .get(nearest_rank(sorted.len(), p).checked_sub(1)?)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn p99_needs_a_thousand_requests_and_p90_a_hundred_segments() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v[..100], 90.0), Some(90.0));
        assert_eq!(percentile(&v[..99], 90.0), None);
    }

    #[test]
    fn low_percentile_is_the_nearest_rank_from_the_fast_end() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(low_percentile(&v, 10.0), Some(20.0));
        assert_eq!(low_percentile(&v[..5], 10.0), Some(196.0));
        assert_eq!(low_percentile(&[], 10.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 3));
        assert_eq!(Summary::of(&[]), None);
    }
}
