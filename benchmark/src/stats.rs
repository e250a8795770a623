//! Sample statistics. A timing is reported as its median and as the
//! highest percentile that still has at least ten samples beyond it.

/// Median; the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of `candidates` with at least ten samples beyond it, or
/// the lowest candidate when the sample is too small for any.
pub fn highest_supported_percentile(n: usize, candidates: &[f64]) -> f64 {
    let mut sorted = candidates.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
        .unwrap_or(sorted[0])
}

/// How much worse `now` is than `base` as a share of `base`, in the
/// metric's own direction; negative when it improved.
pub fn worsening(base: f64, now: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better {
        now - base
    } else {
        base - now
    };
    if base == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        delta / base.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle_or_averages_it() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0, 9.0], 90.0), 9.0);
        assert_eq!(percentile(&[5.0, 1.0, 9.0], 0.0), 1.0);
    }

    /// 400 warm windows: p90 has 40 samples beyond it, p99 only 4, so
    /// p90 is the highest percentile the benchmark may bound.
    #[test]
    fn ten_samples_beyond_rule_selects_p90_for_400_windows() {
        assert_eq!(samples_beyond(400, 90.0), 40);
        assert_eq!(samples_beyond(400, 99.0), 4);
        assert_eq!(highest_supported_percentile(400, &[50.0, 90.0, 99.0]), 90.0);
        assert_eq!(
            highest_supported_percentile(1000, &[50.0, 90.0, 99.0]),
            99.0
        );
        assert_eq!(highest_supported_percentile(100, &[50.0, 90.0, 99.0]), 90.0);
        assert_eq!(highest_supported_percentile(99, &[50.0, 90.0, 99.0]), 50.0);
        // Too few samples for anything: fall back to the median.
        assert_eq!(highest_supported_percentile(7, &[50.0, 90.0, 99.0]), 50.0);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, false) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(39.0, 39.0, true), 0.0);
        assert_eq!(worsening(0.0, 0.0, true), 0.0);
        assert_eq!(worsening(0.0, 1.0, true), f64::INFINITY);
    }
}
