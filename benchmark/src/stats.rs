//! The statistics every reported number goes through. Kept free of I/O so the
//! definitions can be unit-tested on hand-built samples.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller reports a metric that must exist.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The benchmark's latency statistic: split `samples` (in issue order) into cycles
/// of `cycle_len` requests — one pass over the workload's fixed request rotation —
/// take each cycle's mean, and return the median of those means. A trailing partial
/// cycle is dropped.
///
/// The mean inside a cycle folds a mixed-cost rotation (a cheap and an expensive
/// request shape) into one population, so the median never sits between two modes;
/// the median across cycles discards the cycles a stall landed in.
pub fn cycle_mean_median(samples: &[f64], cycle_len: usize) -> f64 {
    let means: Vec<f64> = samples.chunks_exact(cycle_len.max(1)).map(mean).collect();
    median(&means)
}

/// Position-wise minimum over rounds of identical work: element `k` of the result
/// is the fastest of the rounds' `k`-th samples.
///
/// # Panics
/// Panics when rounds disagree on how many samples they hold: identical work
/// issues identical request counts, anything else is a harness bug.
pub fn floor<'a>(rounds: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut rounds = rounds.into_iter();
    let Some(first) = rounds.next() else {
        return Vec::new();
    };
    let mut floor = first.to_vec();
    for round in rounds {
        assert_eq!(
            round.len(),
            floor.len(),
            "rounds issued different request counts"
        );
        for (fastest, sample) in floor.iter_mut().zip(round) {
            *fastest = fastest.min(*sample);
        }
    }
    floor
}

/// Smallest of `values`.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Tail value by the rule "the highest percentile with at least ten samples beyond
/// it", never above p99. Returns `(percentile, value)`; with fewer than twenty
/// samples even the median has fewer than ten beyond it and the maximum's rank is
/// meaningless, so the median is returned.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let percentile = [99.0, 98.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0);
    // Nearest-rank: the smallest value with `percentile` percent of samples at or below it.
    let rank = ((percentile / 100.0) * n as f64).ceil() as usize;
    (percentile, sorted[rank.clamp(1, n) - 1])
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive" method), which
/// is what the acceptance driver uses for the run-to-run spread.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let m = len + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Interquartile distance as a share of the median: the spread the driver bounds.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn cycle_mean_median_folds_a_two_population_rotation() {
        // A rotation of one 1 ms and one 50 ms request: the plain median of the pooled
        // samples sits on whichever mode has one sample more; the cycle statistic is
        // the rotation's mean cost regardless.
        let mut samples = Vec::new();
        for _ in 0..20 {
            samples.extend([1.0, 50.0]);
        }
        assert_eq!(cycle_mean_median(&samples, 2), 25.5);
        samples.push(1.0); // trailing partial cycle is dropped
        assert_eq!(cycle_mean_median(&samples, 2), 25.5);
        assert_eq!(median(&samples), 1.0, "the pooled median flips to one mode");
    }

    #[test]
    fn floor_keeps_per_position_costs_and_drops_one_sided_noise() {
        // Position 2 is a retrain in every round: it stays expensive. Round 1 ran
        // through a slow phase: none of it survives.
        let rounds = [
            vec![2.0, 2.1, 90.0, 2.0],
            vec![3.4, 3.3, 150.0, 3.5],
            vec![2.2, 2.0, 91.0, 2.6],
        ];
        assert_eq!(
            floor(rounds.iter().map(Vec::as_slice)),
            vec![2.0, 2.0, 90.0, 2.0]
        );
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    #[should_panic(expected = "different request counts")]
    fn floor_refuses_rounds_of_different_length() {
        floor([[1.0, 2.0].as_slice(), [1.0].as_slice()]);
    }

    #[test]
    fn cycle_mean_median_ignores_a_stalled_cycle() {
        let mut samples = vec![2.0; 30];
        samples[7] = 900.0; // one stall inside cycle 2
        assert_eq!(cycle_mean_median(&samples, 3), 2.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), (99.0, 990.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), (90.0, 90.0));
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&forty), (75.0, 30.0));
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few).0, 50.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }
}
