#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Offline stand-in for the [`rand`](https://crates.io/crates/rand)
//! crate (0.9 API), vendored so the workspace builds in network-less
//! environments.
//!
//! Only the surface this workspace actually uses is provided: the
//! [`Rng`]/[`RngCore`]/[`SeedableRng`] traits, [`rngs::StdRng`], and
//! uniform sampling over integer ranges, floats, and booleans.
//!
//! `StdRng` here is xoshiro256++ seeded through SplitMix64 — a
//! different stream than upstream's ChaCha12, but every consumer in
//! this workspace depends only on determinism and statistical quality,
//! never on specific values, so the swap is behaviour-preserving at the
//! API contract level.

/// Low-level uniform bit generation.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Types that can be produced uniformly at random from an [`RngCore`].
pub trait Standard: Sized {
    /// Samples one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges that uniform values can be drawn from.
pub trait SampleRange<T> {
    /// Samples one value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Draws a uniform value in `[0, bound)` without modulo bias
/// (Lemire-style widening-multiply rejection).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128).wrapping_mul(bound as u128);
        let low = m as u64;
        if low >= bound.wrapping_neg() % bound {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}
impl_sample_range_signed!(i32 => u32, i64 => u64, isize => usize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// The user-facing random-value API, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A uniformly random value of `T`.
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniformly random value in `range`.
    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction of generators from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The bundled generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman &
    /// Vigna), seeded via SplitMix64. Fast, 256-bit state, passes BigCrush.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn split_mix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    split_mix64(&mut sm),
                    split_mix64(&mut sm),
                    split_mix64(&mut sm),
                    split_mix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.random_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.random_range(0u64..=5);
            assert!(y <= 5);
        }
    }

    #[test]
    fn range_sampling_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.random_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn bool_probability_is_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let hits = (0..100_000).filter(|_| rng.random_bool(0.25)).count();
        assert!(
            (23_000..27_000).contains(&hits),
            "p=0.25 gave {hits}/100000"
        );
        assert!(!(0..100).any(|_| rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn f64_samples_live_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn full_u64_range_inclusive_does_not_panic() {
        let mut rng = StdRng::seed_from_u64(4);
        let _: u64 = rng.random_range(0u64..=u64::MAX);
    }
}
