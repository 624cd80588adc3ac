//! Offline, dependency-free stand-in for the parts of the [`proptest`]
//! property-testing crate that the ATLAHS test suites use.
//!
//! Differences from the real crate, deliberate for an offline CI image:
//!
//! * **No shrinking.** A failing case panics with its (deterministic) case
//!   index; re-running reproduces it exactly.
//! * **Deterministic seeding.** Every `proptest!` test runs the same fixed
//!   generator stream, so failures are reproducible across machines — at
//!   the cost of not exploring new inputs between runs.
//! * **Generation only.** [`strategy::Strategy`] is "a way to produce a
//!   random value", not a value tree.
//!
//! Supported surface: range strategies (`0u32..8`), tuples of strategies,
//! [`strategy::Just`], [`collection::vec`], `prop_map` / `prop_flat_map`,
//! the [`proptest!`] macro with an optional
//! `#![proptest_config(ProptestConfig::with_cases(n))]` header, and the
//! `prop_assert*` macros.
//!
//! [`proptest`]: https://docs.rs/proptest

pub mod test_runner {
    //! Configuration and the deterministic generator behind every test.

    /// Per-test configuration (the subset of proptest's that matters here).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each `proptest!` test executes.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` random cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// SplitMix64 generator used to drive all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// The fixed-seed generator used by the `proptest!` macro.
        pub fn deterministic() -> Self {
            TestRng { state: 0x5EED_5EED_5EED_5EED }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[low, high)` (u128 arithmetic avoids
        /// overflow at type extremes).
        pub fn below(&mut self, low: u128, high: u128) -> u128 {
            assert!(low < high, "empty range strategy");
            low + (self.next_u64() as u128) % (high - low)
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for producing random values of an associated type.
    pub trait Strategy: Sized {
        /// The type of value this strategy produces.
        type Value;

        /// Produce one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform every produced value with `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F> {
            Map { inner: self, f }
        }

        /// Produce a value, then generate from the strategy `f` builds
        /// out of it (dependent generation).
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F> {
            FlatMap { inner: self, f }
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;

        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.below(self.start as u128, self.end as u128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident $idx:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (S0 0);
        (S0 0, S1 1);
        (S0 0, S1 1, S2 2);
        (S0 0, S1 1, S2 2, S3 3);
        (S0 0, S1 1, S2 2, S3 3, S4 4);
        (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5);
    }
}

pub mod collection {
    //! Strategies for collections.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `Vec`s whose length is drawn from a range and
    /// whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// `vec(strategy, 0..24)`: vectors of 0–23 elements of `element`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = if self.len.is_empty() {
                self.len.start
            } else {
                rng.below(self.len.start as u128, self.len.end as u128) as usize
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Assert inside a property test (plain `assert!` in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Assert inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Define property tests: each `fn name(pat in strategy, ...) { body }`
/// runs the body over `cases` generated inputs. As in proptest, the
/// function keeps its attributes: `#[test]` makes it a test, and
/// `#[ignore]` and doc comments apply as on any function.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(
            <$crate::test_runner::ProptestConfig as ::std::default::Default>::default();
            $($rest)*
        );
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic();
                let strat = ( $($strat,)+ );
                for _case in 0..cfg.cases {
                    let ($($arg,)+) =
                        $crate::strategy::Strategy::generate(&strat, &mut rng);
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vecs_generate_in_bounds() {
        let mut rng = crate::test_runner::TestRng::deterministic();
        let s = crate::collection::vec(1u32..5, 0..8);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!(v.len() < 8);
            assert!(v.iter().all(|x| (1..5).contains(x)));
        }
    }

    #[test]
    fn flat_map_sees_outer_value() {
        let mut rng = crate::test_runner::TestRng::deterministic();
        let s = (2usize..6).prop_flat_map(|n| (Just(n), 0usize..n));
        for _ in 0..200 {
            let (n, i) = s.generate(&mut rng);
            assert!(i < n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_drives_cases(x in 0u64..100, y in 0u64..100) {
            prop_assert!(x < 100 && y < 100);
            prop_assert_ne!(x + 1, 0);
        }
    }
}
