//! HDR-style log-linear histogram.
//!
//! The bucket layout is the classic high-dynamic-range scheme: values
//! below 2^4 are recorded exactly, and every octave above that is split
//! into 2^4 linear sub-buckets (4 is `SUB_BITS`), so the relative
//! quantile error is bounded by 2^-4 (6.25%) across the full `u64`
//! range. Memory is lazily grown to the highest bucket touched — a
//! histogram of round-trip nanoseconds costs a few hundred `u64`s, never
//! a pre-allocated table.
//!
//! All state is plain counters: merging two histograms (e.g. folding
//! per-worker span timings into a run-wide view) is element-wise
//! addition and is exact.

/// Sub-bucket resolution: 2^4 = 16 linear buckets per octave.
const SUB_BITS: u32 = 4;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// A log-linear histogram over `u64` values with ≤ 6.25% relative
/// quantile error and exact counts below 16.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

/// Maps a value to its bucket index (exact below `SUB_COUNT`,
/// log-linear above).
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) - SUB_COUNT;
    ((u64::from(exp - SUB_BITS + 1) << SUB_BITS) + sub) as usize
}

/// Lower bound of the value range covered by bucket `index` (the
/// inverse of [`bucket_index`], used as the reported quantile value).
fn bucket_lo(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_COUNT {
        return index;
    }
    let group = (index >> SUB_BITS) - 1;
    let sub = index & (SUB_COUNT - 1);
    (SUB_COUNT + sub) << group
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `v`.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `count` observations of `v`.
    pub fn record_n(&mut self, v: u64, count: u64) {
        if count == 0 {
            return;
        }
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += count;
        if self.total == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.total += count;
        self.sum += u128::from(v) * u128::from(count);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all recorded values (exact — tracked outside the
    /// buckets).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of the recorded values (exact — tracked outside the
    /// buckets).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the lower bound of the
    /// bucket holding the `ceil(q·count)`-th observation, clamped to
    /// the exact recorded min/max so `quantile(0.0)` and
    /// `quantile(1.0)` are always exact.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lo(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self` (exact: counters add element-wise).
    pub fn merge(&mut self, other: &Histogram) {
        if other.total == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        if self.total == 0 || other.min < self.min {
            self.min = other.min;
        }
        self.max = self.max.max(other.max);
        self.total += other.total;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_continuous_and_invertible() {
        let mut values: Vec<u64> = (0..4096u64)
            .chain((0..40).map(|e| (1u64 << (e + 10)) + e))
            .collect();
        values.sort_unstable();
        let mut prev = None;
        for v in values {
            let idx = bucket_index(v);
            if let Some(p) = prev {
                assert!(idx >= p, "bucket index must be monotone at v={v}");
            }
            prev = Some(idx);
            let lo = bucket_lo(idx);
            assert!(lo <= v, "bucket_lo({idx}) = {lo} must not exceed v = {v}");
            assert_eq!(
                bucket_index(lo),
                idx,
                "bucket_lo must land in its own bucket"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        for q in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
            let want = ((q * 16.0).ceil() as u64).clamp(1, 16) - 1;
            assert_eq!(h.quantile(q), want, "quantile {q}");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert!((h.mean() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 37);
        }
        for q in [0.5f64, 0.9, 0.99, 0.999] {
            let exact = (q * 10_000.0).ceil() as u64 * 37;
            let approx = h.quantile(q);
            let err = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(err <= 1.0 / SUB_COUNT as f64, "q={q}: {approx} vs {exact}");
        }
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..1000u64 {
            let v = i * i % 7919;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
