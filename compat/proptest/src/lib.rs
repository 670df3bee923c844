#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate, vendored so the workspace's property tests run in network-less
//! environments.
//!
//! The subset provided is exactly what this workspace uses: the
//! [`Strategy`] trait over integer ranges, [`Just`], tuples,
//! [`prop_map`](Strategy::prop_map), [`any`], `prop::collection::vec`,
//! the [`prop_oneof!`]/[`proptest!`]/[`prop_assert!`]/[`prop_assert_eq!`]/
//! [`prop_assume!`] macros, and a [`ProptestConfig`](test_runner::Config)
//! with a case count.
//!
//! Differences from upstream, deliberate for this environment:
//!
//! * **No shrinking.** A failing case reports its generated inputs and
//!   the reproducible derivation `(test name, case index)` instead of a
//!   minimized counterexample.
//! * **Deterministic seeding.** Cases derive from a fixed base seed (or
//!   `PROPTEST_SEED` if set), so CI runs are reproducible by default.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

pub mod test_runner {
    //! Test-runner configuration and case-level error plumbing.

    /// Why a single generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is skipped, not
        /// failed.
        Reject(String),
        /// `prop_assert!`-style failure: the property is violated.
        Fail(String),
    }

    impl TestCaseError {
        /// Builds a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// Builds a rejection with the given message.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Runner configuration. Only `cases` is consulted.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
        /// Maximum `prop_assume!` rejections tolerated before giving up.
        pub max_global_rejects: u32,
    }

    impl Config {
        /// A config running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            Config {
                cases,
                ..Config::default()
            }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 256,
                max_global_rejects: 65_536,
            }
        }
    }
}

/// The base seed for a named test: `PROPTEST_SEED` if set, else a fixed
/// constant — property runs are reproducible by default.
pub fn base_seed(test_name: &str) -> u64 {
    let env = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0x005e_ed0f_cafe);
    // FNV-1a over the test name separates the streams of different tests.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    env ^ h
}

/// A source of generated values: maps a random stream to a value.
///
/// Object-safe so heterogeneous strategies (e.g. [`prop_oneof!`] arms)
/// can be boxed together.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// A strategy producing `f(value)` for generated `value`s.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Always produces a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// The [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($($name:ident: $idx:tt),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)*)
            }
        }
    };
}
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Types with a canonical full-domain strategy (the [`any`] entry point).
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The full-domain strategy of an [`Arbitrary`] type.
#[derive(Debug, Clone, Default)]
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the canonical whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// Uniformly picks one of several boxed strategies per generated value.
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union over `arms`.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        let i = rng.random_range(0..self.arms.len());
        self.arms[i].generate(rng)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{StdRng, Strategy};
    use rand::Rng;

    /// A strategy for `Vec`s whose length is drawn from `range` and whose
    /// elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        range: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.random_range(self.range.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `prop::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, range: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, range }
    }
}

pub mod prelude {
    //! One-import access to the strategy combinators and macros.

    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, Strategy,
    };

    pub mod prop {
        //! The `prop::` module namespace of upstream proptest.
        pub use crate::collection;
    }
}

/// Picks one of several strategies, uniformly, per generated case.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Asserts a condition inside a property, failing the case (not the
/// whole process) with the formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Discards the current case (without failing) unless the assumption
/// holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

#[doc(hidden)]
pub fn __run_case<F>(config: &test_runner::Config, test_name: &str, mut case: F)
where
    F: FnMut(&mut StdRng) -> Result<(), test_runner::TestCaseError>,
{
    let base = base_seed(test_name);
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let mut case_idx = 0u64;
    while passed < config.cases {
        let mut rng = StdRng::seed_from_u64(base.wrapping_add(case_idx));
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(test_runner::TestCaseError::Reject(_)) => {
                rejected += 1;
                assert!(
                    rejected <= config.max_global_rejects,
                    "{test_name}: too many prop_assume! rejections ({rejected})"
                );
            }
            Err(test_runner::TestCaseError::Fail(msg)) => {
                panic!(
                    "{test_name}: property failed at case #{case_idx} \
                     (base seed {base:#x}; set PROPTEST_SEED to reproduce):\n{msg}"
                );
            }
        }
        case_idx += 1;
    }
}

/// Declares property tests: each `fn` runs its body over generated
/// inputs drawn from the given strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg); $($rest)*);
    };
    (@cfg ($cfg:expr);
        $($(#[$meta:meta])* fn $name:ident (
            $($arg:ident in $strat:expr),* $(,)?
        ) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                $crate::__run_case(&config, stringify!($name), |__rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), __rng);)*
                    let mut __case = move || -> ::core::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > {
                        $body
                        ::core::result::Result::Ok(())
                    };
                    __case()
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::test_runner::Config::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn union_draws_every_arm() {
        use super::Strategy;
        let s = prop_oneof![Just(1u32), Just(2u32), Just(3u32)];
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..10, y in any::<u64>()) {
            prop_assert!((3..10).contains(&x));
            let _ = y;
        }

        #[test]
        fn maps_and_tuples_compose(
            pair in (0u32..5, 10u32..20).prop_map(|(a, b)| a + b),
            v in prop::collection::vec((0usize..4, 0u64..100), 0..8),
        ) {
            prop_assert!((10..25).contains(&pair));
            prop_assert!(v.len() < 8);
            for (a, b) in v {
                prop_assert!(a < 4 && b < 100);
            }
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failures_surface_as_panics() {
        proptest! {
            @cfg (ProptestConfig::with_cases(4));
            fn always_fails(x in 0u32..2) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
