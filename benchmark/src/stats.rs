//! Order statistics, tail-percentile choice and regression bounds for the
//! benchmark's timing samples.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Tail percentiles to try, highest first, in per-mille.
const TAILS: [(&str, usize); 5] = [
    ("p99.9", 999),
    ("p99", 990),
    ("p95", 950),
    ("p90", 900),
    ("p75", 750),
];

/// A timing reported the way the benchmark prints it: the median with
/// its quartiles, extremes and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises at least one sample.
    pub fn of(xs: &[f64]) -> Summary {
        let v = sorted(xs);
        let [q1, median, q3] = quartiles(&v);
        Summary {
            median,
            q1,
            q3,
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistics of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of at least one sample: the middle value, or the mean of the
/// two middle values.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles of at least one sample by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones computed over result files.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile of at least one sample, `per_mille` in
/// (0, 1000].
pub fn percentile(xs: &[f64], per_mille: usize) -> f64 {
    let v = sorted(xs);
    let rank = (v.len() * per_mille).div_ceil(1000).max(1);
    v[rank - 1]
}

/// The highest of p99.9, p99, p95, p90 and p75 that has at least ten
/// samples beyond it, as `(label, value)`. `None` below 40 samples: then
/// only the median, the maximum and the count are worth reporting.
pub fn tail_percentile(xs: &[f64]) -> Option<(&'static str, f64)> {
    let n = xs.len();
    TAILS.iter().find_map(|&(label, per_mille)| {
        let rank = (n * per_mille).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (label, percentile(xs, per_mille)))
    })
}

/// True when `current` is worse than `baseline` by more than `bound`, a
/// share of `baseline`.
pub fn regressed(baseline: f64, current: f64, better: Better, bound: f64) -> bool {
    match better {
        Better::Lower => current > baseline * (1.0 + bound),
        Better::Higher => current < baseline * (1.0 - bound),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn summary_reports_extremes_and_count() {
        let s = Summary::of(&[3.0, 9.0, 1.0, 5.0, 7.0]);
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 5.0, 9.0, 5));
        assert_eq!((s.q1, s.q3), (2.0, 8.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&forty), Some(("p75", 30.0)));
        let five: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail_percentile(&five), None);
        let thirty_nine: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail_percentile(&thirty_nine), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some(("p90", 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some(("p99", 990.0)));
        let ten_thousand: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&ten_thousand), Some(("p99.9", 9990.0)));
    }

    #[test]
    fn bounds_apply_in_the_metric_direction() {
        // Lower is better: only a rise past the bound regresses.
        assert!(!regressed(10.0, 10.9, Better::Lower, 0.1));
        assert!(regressed(10.0, 11.1, Better::Lower, 0.1));
        assert!(!regressed(10.0, 5.0, Better::Lower, 0.1));
        // Higher is better: only a drop past the bound regresses.
        assert!(!regressed(10.0, 9.1, Better::Higher, 0.1));
        assert!(regressed(10.0, 8.9, Better::Higher, 0.1));
        assert!(!regressed(10.0, 20.0, Better::Higher, 0.1));
    }
}
