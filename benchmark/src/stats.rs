//! Order statistics for the benchmark's samples.

/// Minimum, median, quartiles and size of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN: both mean the benchmark
    /// measured nothing, which must not be reported as a number.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a benchmark sample"));
        Summary {
            min: sorted[0],
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            n: sorted.len(),
        }
    }
}

/// The `p`-quantile of an ascending sample by the rule Python's
/// `statistics.quantiles` uses by default (position `p·(n+1)`, linear
/// interpolation, clamped to the extremes), so a spread computed here
/// equals the one the acceptance check computes from the same values.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = p * (n as f64 + 1.0);
    let below = (pos.floor() as usize).clamp(1, n);
    let above = (below + 1).min(n);
    let frac = (pos - below as f64).clamp(0.0, 1.0);
    sorted[below - 1] + frac * (sorted[above - 1] - sorted[below - 1])
}

/// Median of `values` (see [`Summary::of`]).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
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
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        assert_eq!(s.min, 1.0);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; the
        // benchmark clamps to the sample's range instead of extrapolating.
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn an_empty_sample_is_refused() {
        Summary::of(&[]);
    }
}
