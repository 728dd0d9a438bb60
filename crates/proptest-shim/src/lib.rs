//! Offline drop-in replacement for the subset of the `proptest` crate API
//! this workspace uses.
//!
//! The build environment cannot reach a crates registry, so the workspace
//! maps the `proptest` dev-dependency name onto this crate via a Cargo
//! package rename; test modules keep `use proptest::prelude::*;` unchanged.
//!
//! Provided surface:
//!
//! * [`strategy::Strategy`] with `prop_map`, implemented for half-open
//!   numeric ranges and tuples up to arity 5,
//! * [`collection::vec`] with fixed or ranged lengths,
//! * [`test_runner::TestRunner`] (`deterministic`, `run`) plus
//!   [`test_runner::ProptestConfig`] (`with_cases`, `PROPTEST_CASES` env
//!   override),
//! * the [`proptest!`], [`prop_assert!`], and [`prop_assert_eq!`] macros.
//!
//! Differences from upstream: generation streams differ, and failing cases
//! are reported but **not shrunk** — acceptable for a deterministic offline
//! test suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Strategy trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value from the strategy.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy adapter produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty f64 strategy range");
            let u = rng.unit_f64();
            let v = self.start + (self.end - self.start) * u;
            if v >= self.end {
                f64::from_bits(self.end.to_bits() - 1)
            } else {
                v
            }
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer strategy range");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + (rng.next_u64() % span) as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(usize, u8, u16, u32, u64, i8, i16, i32, i64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
}

/// Strategies for collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed `usize` or a half-open
    /// `Range<usize>`.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty vec-length range");
            let span = (self.end - self.start) as u64;
            self.start + (rng.next_u64() % span) as usize
        }
    }

    /// Strategy generating `Vec`s of `element` values with lengths drawn
    /// from `size`.
    pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Test execution: configuration, RNG, runner, and error types.
pub mod test_runner {
    use crate::strategy::Strategy;

    /// Deterministic generator backing all strategies (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator with the given seed.
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Returns the next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Returns a uniform draw from `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Runner configuration; only the case count is configurable.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    /// A single case's failure, raised by `prop_assert!`.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// Assertion failure with a message.
        Fail(String),
    }

    impl TestCaseError {
        /// Builds a failure carrying `reason`.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }
    }

    /// Overall property failure returned by [`TestRunner::run`].
    #[derive(Clone, Debug)]
    pub enum TestError {
        /// Some case failed; carries the case index and its message.
        Fail(String),
    }

    /// Drives a property over many generated cases.
    ///
    /// Unlike upstream proptest this runner does not shrink failures; it
    /// reports the first failing case's message and index.
    pub struct TestRunner {
        rng: TestRng,
        config: ProptestConfig,
    }

    impl TestRunner {
        /// A runner with a fixed seed, so failures reproduce exactly.
        pub fn deterministic() -> Self {
            TestRunner {
                rng: TestRng::new(0x5EED_5EED_5EED_5EED),
                config: ProptestConfig::default(),
            }
        }

        /// A deterministic runner with an explicit configuration.
        pub fn with_config(config: ProptestConfig) -> Self {
            TestRunner {
                rng: TestRng::new(0x5EED_5EED_5EED_5EED),
                config,
            }
        }

        /// Runs `test` against `config.cases` values drawn from `strategy`.
        pub fn run<S, F>(&mut self, strategy: &S, mut test: F) -> Result<(), TestError>
        where
            S: Strategy,
            F: FnMut(S::Value) -> Result<(), TestCaseError>,
        {
            for case in 0..self.config.cases {
                let value = strategy.generate(&mut self.rng);
                if let Err(TestCaseError::Fail(msg)) = test(value) {
                    return Err(TestError::Fail(format!(
                        "property failed at case {case}/{}: {msg}",
                        self.config.cases
                    )));
                }
            }
            Ok(())
        }
    }
}

/// Asserts a condition inside a property, failing the current case (not the
/// whole process) when false.
#[macro_export]
macro_rules! prop_assert {
    // `if cond {} else { fail }` rather than `if !cond { fail }`: conditions
    // are often float comparisons, and negating a partial order trips
    // `clippy::neg_cmp_op_on_partial_ord` at every expansion site.
    ($cond:expr) => {
        if $cond {
        } else {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if $cond {
        } else {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Asserts two expressions are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = $config:expr;) => {};
    (config = $config:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let mut runner = $crate::test_runner::TestRunner::with_config($config);
            runner
                .run(&($($strat,)+), |($($arg,)+)| {
                    $body
                    ::std::result::Result::Ok(())
                })
                .unwrap();
        }
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// item becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut runner = TestRunner::deterministic();
        runner
            .run(&(0u64..100, -2.0..2.0f64, 3usize..7), |(a, b, c)| {
                prop_assert!(a < 100);
                prop_assert!((-2.0..2.0).contains(&b));
                prop_assert!((3..7).contains(&c));
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn vec_and_map_compose() {
        let mut runner = TestRunner::deterministic();
        let strat = crate::collection::vec(0.0..1.0f64, 1..9).prop_map(|v| (v.len(), v));
        runner
            .run(&strat, |(n, v)| {
                prop_assert_eq!(n, v.len());
                prop_assert!((1..9).contains(&n));
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn failures_report_case_and_message() {
        let mut runner = TestRunner::with_config(ProptestConfig::with_cases(5));
        let err = runner.run(&(0u32..10,), |(_x,)| {
            prop_assert!(false, "always fails");
            Ok(())
        });
        match err {
            Err(crate::test_runner::TestError::Fail(msg)) => {
                assert!(msg.contains("always fails"), "{msg}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_runnable_tests(
            x in -5.0..5.0f64,
            n in 1usize..4,
        ) {
            prop_assert!(x.abs() <= 5.0);
            prop_assert!((1..4).contains(&n));
        }
    }
}
