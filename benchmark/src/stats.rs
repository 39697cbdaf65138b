//! Percentiles, and the per-slice summaries a run is built from.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// Reorders `samples` (a selection, not a full sort: a slice has up to
/// half a million of them).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let rank = (q * samples.len() as f64).ceil() as usize;
    *samples
        .select_nth_unstable(rank.clamp(1, samples.len()) - 1)
        .1
}

/// The median of `values` (mean of the two middle ones for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values,
/// n=4)` computes them (the exclusive method) — the rule the acceptance
/// check of the benchmark uses.
///
/// # Panics
///
/// Panics with fewer than two values or a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let n = sorted.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis, interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    (at(1), at(3))
}

/// One measured slice: a fixed amount of work, timed as a whole and
/// request by request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Items completed (messages, deliveries, readings, remote calls).
    pub items: u64,
    /// Wall time of the slice.
    pub wall_ns: u64,
    /// Median request time.
    pub p50_ns: u64,
    /// Tail request time: the 99th percentile, or the slowest request
    /// where a slice has too few requests for one.
    pub tail_ns: u64,
}

impl Slice {
    /// Summarises one slice; reorders `request_ns`.
    pub fn new(items: u64, wall_ns: u64, request_ns: &mut [u64], tail: Tail) -> Slice {
        Slice {
            items,
            wall_ns,
            p50_ns: percentile(request_ns, 0.5),
            tail_ns: percentile(
                request_ns,
                match tail {
                    Tail::P99 => 0.99,
                    Tail::Max => 1.0,
                },
            ),
        }
    }

    /// Items per second of slice wall time.
    pub fn throughput(&self) -> f64 {
        self.items as f64 * 1e9 / self.wall_ns as f64
    }
}

/// Which tail a workload's slices support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// 99th percentile (at least 1 000 requests a slice).
    P99,
    /// The slowest request of the slice.
    Max,
}

/// A timing metric over the slices of a run. The best slice is the
/// value reported: on a shared host interference comes and goes in
/// phases of seconds and only ever slows a slice, so the best slice of a
/// run repeats far better than the median one (README, "Noise"). Median
/// and worst are printed beside it so the noise stays visible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverSlices {
    /// The best slice (highest throughput, lowest latency) — reported.
    pub best: f64,
    /// Median over slices.
    pub median: f64,
    /// The worst slice.
    pub worst: f64,
}

impl OverSlices {
    /// Summarises `per_slice`; `higher_is_better` orients best/worst.
    pub fn new(per_slice: &[f64], higher_is_better: bool) -> OverSlices {
        let lo = per_slice.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = per_slice.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (best, worst) = if higher_is_better { (hi, lo) } else { (lo, hi) };
        OverSlices {
            median: median(per_slice),
            best,
            worst,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut samples, 0.5), 50);
        assert_eq!(percentile(&mut samples, 0.99), 99);
        assert_eq!(percentile(&mut samples, 1.0), 100);
        assert_eq!(percentile(&mut samples, 0.0), 1);
        assert_eq!(percentile(&mut [7], 0.99), 7);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
    }

    #[test]
    fn a_slice_summarises_its_requests() {
        let mut requests: Vec<u64> = (1..=1000).rev().collect();
        let slice = Slice::new(2000, 1_000_000_000, &mut requests, Tail::P99);
        assert_eq!((slice.p50_ns, slice.tail_ns), (500, 990));
        assert_eq!(slice.throughput(), 2000.0);
        let slowest = Slice::new(1, 1, &mut [5, 9, 2], Tail::Max);
        assert_eq!(slowest.tail_ns, 9);
    }

    #[test]
    fn best_and_worst_follow_the_direction() {
        let t = OverSlices::new(&[10.0, 30.0, 20.0], true);
        assert_eq!((t.median, t.best, t.worst), (20.0, 30.0, 10.0));
        let l = OverSlices::new(&[10.0, 30.0, 20.0], false);
        assert_eq!((l.median, l.best, l.worst), (20.0, 10.0, 30.0));
    }
}
