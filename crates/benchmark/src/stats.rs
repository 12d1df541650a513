//! Sample statistics: quantiles, the tail-percentile rule and the
//! convergence-time helper. Local copies on purpose — the benchmark does
//! not depend on the experiment-binary crate it may one day measure.

/// Percentiles the tail rule may pick, highest first, in tenths of a
/// percent (integers, so the "samples beyond" test is exact).
const TAIL_LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples a tail percentile must leave beyond it.
const TAIL_MIN_BEYOND: u64 = 10;

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an already sorted,
/// non-empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Sorted copy of a sample.
///
/// # Panics
///
/// Panics on a NaN (every timing the benchmark takes is finite).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample values are comparable"));
    v
}

/// Median of a non-empty sample; infinite values sort last.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it; the median when the sample is too small for any.
pub fn tail_percentile(n: usize) -> f64 {
    let n = n as u64;
    let permille = TAIL_LADDER
        .into_iter()
        .find(|p| n * (1000 - p) >= TAIL_MIN_BEYOND * 1000)
        .unwrap_or(500);
    permille as f64 / 10.0
}

/// Median and tail of one timing sample.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Timing {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile [`Timing::tail`] is ([`tail_percentile`]).
    pub tail_percentile: f64,
    /// The value at the tail percentile.
    pub tail: f64,
}

impl Timing {
    /// Summarises a non-empty sample with its tail at `percentile`, or
    /// at the highest percentile the sample supports if that is lower.
    pub fn of(values: &[f64], percentile: f64) -> Timing {
        let s = sorted(values);
        let p = percentile.min(tail_percentile(s.len()));
        Timing {
            n: s.len(),
            p50: quantile(&s, 0.5),
            tail_percentile: p,
            tail: quantile(&s, p / 100.0),
        }
    }
}

/// Earliest virtual time after which every later planned selection has
/// true efficiency within 1.5% of the oracle; infinity if the stream
/// never settles. `planned` yields `(start time, true efficiency)` of
/// planned (non-forced) invocations in time order.
pub fn convergence_time_s(planned: impl IntoIterator<Item = (f64, f64)>, oracle_eff: f64) -> f64 {
    let mut since = f64::INFINITY;
    for (t_s, eff) in planned {
        if eff >= 0.985 * oracle_eff {
            if since.is_infinite() {
                since = t_s;
            }
        } else {
            since = f64::INFINITY;
        }
    }
    since
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&s, 0.875), 4.5);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_even_lengths_and_infinity() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[f64::INFINITY, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(299), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn timing_reports_its_percentile() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = Timing::of(&values, 99.0);
        assert_eq!(t.n, 100);
        assert_eq!(t.p50, 50.5);
        assert_eq!(t.tail_percentile, 90.0, "capped by the sample size");
        assert!((t.tail - 90.1).abs() < 1e-9);
        let t = Timing::of(&values, 75.0);
        assert_eq!(t.tail_percentile, 75.0, "a lower fixed percentile stands");
        assert!((t.tail - 75.25).abs() < 1e-9);
    }

    #[test]
    fn convergence_restarts_after_a_miss() {
        let stream = [(0.0, 0.5), (1.0, 1.0), (2.0, 0.9), (3.0, 0.99), (4.0, 1.0)];
        assert_eq!(convergence_time_s(stream, 1.0), 3.0);
        assert!(convergence_time_s([(0.0, 0.5)], 1.0).is_infinite());
        assert_eq!(convergence_time_s([(0.0, 1.0), (1.0, 1.0)], 1.0), 0.0);
    }
}
