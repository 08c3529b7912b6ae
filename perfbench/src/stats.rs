//! Order statistics for reported timings.

/// Percentiles tried for a tail figure, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count); 0 for
/// no samples.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, ascending.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// offset keeps float error (0.999 × 10,000 = 9,990.000…2) from pushing
/// an exact rank up by one.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// A tail latency: the highest percentile with at least [`MIN_BEYOND`]
/// samples beyond it, with the sample count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.0).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
}

/// The tail figure of `values`, or `None` when even the median has fewer
/// than [`MIN_BEYOND`] samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let pct = TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        pct,
        value: nearest_rank(&sorted, pct),
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // 1,000 samples: p99 sits at rank 990 with exactly 10 beyond it.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        // 10,000 samples reach p99.9 (rank 9,990).
        assert_eq!(tail(&ramp(10_000)).unwrap().pct, 99.9);
        // 999 samples fall short of p99 and report p95.
        assert_eq!(tail(&ramp(999)).unwrap().pct, 95.0);
        // 200 samples: p95 at rank 190, 10 beyond.
        let t = tail(&ramp(200)).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 190.0));
        // 20 samples only support the median; 19 support nothing.
        assert_eq!(tail(&ramp(20)).unwrap().pct, 50.0);
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }
}
