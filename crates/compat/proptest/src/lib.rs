//! Workspace-local stand-in for the
//! [`proptest`](https://crates.io/crates/proptest) crate, so the property
//! test-suites build and run without a registry.
//!
//! It implements the subset of the proptest API this workspace uses:
//!
//! * the [`proptest!`] macro wrapping `#[test] fn name(pat in strategy)`
//!   bodies into many-case runners;
//! * [`Strategy`] with [`Strategy::prop_map`] / [`Strategy::prop_perturb`];
//! * range strategies for the primitive integers and `f64`, [`any`],
//!   [`Just`], tuples up to arity 4, [`collection::vec`] and
//!   [`option::of`];
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_oneof!`].
//!
//! Unlike the real crate there is no shrinking: a failing case reports the
//! assertion message (the deterministic per-test RNG makes every failure
//! reproducible). Each test runs [`NUM_CASES`] generated cases, overridable
//! with the `PROPTEST_CASES` environment variable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// Default number of generated cases per property test.
pub const NUM_CASES: u32 = 64;

/// Number of cases to run, honouring the `PROPTEST_CASES` env override.
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(NUM_CASES)
}

/// The deterministic RNG handed to strategies (and `prop_perturb` closures).
pub mod test_runner {
    /// A splittable xorshift-style RNG; deterministic per test name.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the RNG from an arbitrary label (the test name).
        pub fn deterministic(label: &str) -> Self {
            let mut seed = 0xcbf2_9ce4_8422_2325u64;
            for b in label.bytes() {
                seed ^= u64::from(b);
                seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: seed | 1 }
        }

        /// Next raw 64-bit value (SplitMix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Next raw 32-bit value.
        pub fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        /// Uniform draw below `bound` (`bound > 0`).
        pub fn below(&mut self, bound: u64) -> u64 {
            // Multiply-shift; bias is negligible for test-case generation.
            ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A fresh independent stream (for `prop_perturb`).
        pub fn fork(&mut self) -> TestRng {
            TestRng { state: self.next_u64() | 1 }
        }
    }
}

use test_runner::TestRng;

/// The strategy abstraction: how to generate a value of `Self::Value`.
pub mod strategy {
    use super::test_runner::TestRng;

    /// Generates values for one argument of a property test.
    pub trait Strategy {
        /// The type of the generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Maps generated values through `f`, which also receives a fresh
        /// RNG stream (the real crate's escape hatch for custom shuffles).
        fn prop_perturb<O, F>(self, f: F) -> Perturb<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value, TestRng) -> O,
        {
            Perturb { inner: self, f }
        }
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_perturb`].
    pub struct Perturb<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, O> Strategy for Perturb<S, F>
    where
        S: Strategy,
        F: Fn(S::Value, TestRng) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            let v = self.inner.generate(rng);
            let fork = rng.fork();
            (self.f)(v, fork)
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

pub use strategy::{Just, Strategy};

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

/// Generates an arbitrary value of a primitive type (see [`Arbitrary`]).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types [`any`] can generate.
pub trait Arbitrary {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, sign-symmetric, wide dynamic range.
        let mantissa = rng.unit_f64() * 2.0 - 1.0;
        let exp = rng.below(61) as i32 - 30;
        mantissa * (2f64).powi(exp)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (S0/0)
    (S0/0, S1/1)
    (S0/0, S1/1, S2/2)
    (S0/0, S1/1, S2/2, S3/3)
}

/// Collection strategies.
pub mod collection {
    use super::test_runner::TestRng;
    use super::Strategy;
    use std::ops::Range;

    /// Generates a `Vec` whose length is drawn from `len` (a range or a
    /// fixed size) and whose elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, len: len.into() }
    }

    /// A vector-length specification: fixed or drawn from a range.
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange(r)
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = Strategy::generate(&self.len.0, rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::test_runner::TestRng;
    use super::Strategy;

    /// Generates `Some` (50 %) of the inner strategy's values, else `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 1 {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use super::strategy::{Just, Strategy};
    pub use super::{any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary};
}

/// Chooses uniformly between the given strategies (all yielding the same
/// value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        let arms: Vec<Box<dyn $crate::strategy::Strategy<Value = _>>> =
            vec![$(Box::new($strategy)),+];
        $crate::OneOf { arms }
    }};
}

/// Strategy built by [`prop_oneof!`].
pub struct OneOf<T> {
    /// The equally weighted alternatives.
    pub arms: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

/// `assert!` for property bodies (no shrinking in this stand-in).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// `assert_eq!` for property bodies (no shrinking in this stand-in).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Wraps `#[test] fn name(pat in strategy, ...) { body }` items into
/// multi-case property tests.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng =
                    $crate::test_runner::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..$crate::cases() {
                    $(let $pat = $crate::strategy::Strategy::generate(&($strategy), &mut rng);)+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::test_runner::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::deterministic("ranges");
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u64..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = Strategy::generate(&(-2.0f64..2.0), &mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn deterministic_per_label() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let mut c = TestRng::deterministic("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #[test]
        fn the_macro_itself_works(v in crate::collection::vec(0u8..10, 1..20), flag in any::<bool>()) {
            prop_assert!(!v.is_empty());
            prop_assert!(v.iter().all(|&x| x < 10));
            prop_assert_eq!(u8::from(flag) <= 1, true);
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (0u32..5).prop_map(|x| x as u64),
            Just(99u64),
        ]) {
            prop_assert!(v < 5 || v == 99);
        }
    }
}
