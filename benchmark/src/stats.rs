//! Order statistics for timing samples.
//!
//! Every gated timing is the *best* repetition of an identical unit of
//! work within a run: co-tenants on a shared host switch the machine
//! between fast and slow phases lasting seconds, and a run's mean or
//! median takes on whichever phase it lands in, while its best repetition
//! repeats. Median, p90 and `interference` (median ÷ best) are kept as
//! ungated diagnostics, so a co-tenant-slowed run can be told from a slow
//! program.

/// Quartile cut points of `values` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// `exclusive` method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = 4usize;
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let mid = data.len() / 2;
    if data.len().is_multiple_of(2) {
        (data[mid - 1] + data[mid]) / 2.0
    } else {
        data[mid]
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

/// Interquartile range of `values` as a share of their median — the
/// spread the acceptance rule compares against a metric's bound.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// How much worse `after` is than `before` as a share of `before`, for a
/// metric where `higher_is_better` says which direction improves
/// (negative when `after` is better).
pub fn relative_worsening(before: f64, after: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (before - after) / before
    } else {
        (after - before) / before
    }
}

/// The repeated timings of one identical unit of work within a run.
#[derive(Clone, Debug, Default)]
pub struct Series {
    samples: Vec<f64>,
}

impl Series {
    /// Adds one repetition's duration (seconds).
    pub fn push(&mut self, seconds: f64) {
        self.samples.push(seconds);
    }

    /// The recorded durations, in order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Repetitions recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The fastest repetition: the gated figure.
    pub fn best(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Median repetition (diagnostic).
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// 90th-percentile repetition (diagnostic).
    pub fn p90(&self) -> f64 {
        percentile(&self.samples, 90.0)
    }
}

/// Repetitions of work made of identical units — a campaign's grid points,
/// delimited by `CampaignRunner::on_progress`. The best repetition is the
/// sum of each unit's fastest repetition, so a fast phase shorter than a
/// whole repetition still counts for the units it covered.
#[derive(Clone, Debug, Default)]
pub struct UnitSeries {
    units: Vec<Series>,
    totals: Series,
}

impl UnitSeries {
    /// Adds one repetition's unit durations (seconds).
    ///
    /// # Panics
    ///
    /// Panics if the repetition has a different number of units than the
    /// earlier ones.
    pub fn push(&mut self, units: &[f64]) {
        if self.units.is_empty() {
            self.units.resize_with(units.len(), Series::default);
        }
        assert_eq!(
            self.units.len(),
            units.len(),
            "every repetition has the same units"
        );
        for (series, &d) in self.units.iter_mut().zip(units) {
            series.push(d);
        }
        self.totals.push(units.iter().sum());
    }

    /// Sum over units of each unit's fastest repetition: the gated figure.
    pub fn best(&self) -> f64 {
        self.units.iter().map(Series::best).sum()
    }

    /// Whole-repetition durations (diagnostics).
    pub fn totals(&self) -> &Series {
        &self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 18.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn series_reports_best_median_and_p90() {
        let mut s = Series::default();
        for x in [1.2, 0.67, 1.1, 0.7, 1.25] {
            s.push(x);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.best(), 0.67);
        assert_eq!(s.median(), 1.1);
        assert_eq!(s.p90(), 1.25);
    }

    #[test]
    fn unit_series_sums_per_unit_bests() {
        let mut u = UnitSeries::default();
        u.push(&[1.0, 5.0, 2.0]);
        u.push(&[3.0, 1.0, 2.5]);
        assert_eq!(u.best(), 1.0 + 1.0 + 2.0);
        assert_eq!(u.totals().best(), 6.5);
        assert_eq!(u.totals().median(), 7.25);
    }

    #[test]
    #[should_panic(expected = "same units")]
    fn unit_series_rejects_a_changed_unit_count() {
        let mut u = UnitSeries::default();
        u.push(&[1.0, 2.0]);
        u.push(&[1.0]);
    }

    #[test]
    fn spread_and_worsening_follow_the_metric_direction() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert!((relative_worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((relative_worsening(1.0, 1.1, false) - 0.1).abs() < 1e-12);
        assert!(relative_worsening(1.0, 0.9, false) < 0.0);
    }
}
