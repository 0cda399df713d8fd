//! Offline stand-in for the `proptest` property-testing crate.
//!
//! This workspace builds in environments with no network access to a crates
//! registry, so the subset of proptest that the test suite uses is provided
//! here. Semantics: each `proptest!` test runs `Config::cases` iterations
//! with a deterministic per-test RNG (seeded from the test's name), failing
//! with a panic that reports the case number on the first failed case.
//!
//! Differences from real proptest, on purpose:
//! - **no shrinking** — a failing case is reported as-is;
//! - string strategies support only simple `[class]{lo,hi}` / `\PC{lo,hi}`
//!   regex patterns (the ones used in this repo's tests);
//! - strategies are generators only (`generate(&self, rng)`), there is no
//!   `ValueTree` layer.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

pub use strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union};

/// Strategies for collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy producing `Vec`s with lengths drawn from `size` and elements
    /// drawn from `elem`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// Create a strategy generating vectors of `elem` with a length in
    /// `size` (half-open, like the real `proptest::collection::vec`).
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// The common imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Choose uniformly among several strategies for the same value type.
///
/// Only the unweighted `prop_oneof![s1, s2, ...]` form is supported.
#[macro_export]
macro_rules! prop_oneof {
    ($($item:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($item) ),+
        ])
    };
}

/// Fail the current test case unless `$cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fail the current test case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs == *rhs,
            "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            lhs,
            rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(*lhs == *rhs, $($fmt)+);
    }};
}

/// Define property tests. Mirrors the real `proptest!` block form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0i64..10, e in arb_expr()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { config = ($crate::test_runner::Config::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = ($config:expr);) => {};
    (config = ($config:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            let mut rng = $crate::test_runner::TestRng::deterministic(
                $crate::test_runner::seed_from_name(stringify!($name)),
            );
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        { $body }
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(err) = outcome {
                    panic!(
                        "proptest `{}` failed at case {}/{}:\n{}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        err
                    );
                }
            }
        }
        $crate::__proptest_fns! { config = ($config); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (i64, bool)> {
        (0i64..100, any::<bool>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in -6i64..=6, n in 1usize..120) {
            prop_assert!((-6..=6).contains(&x));
            prop_assert!((1..120).contains(&n));
        }

        #[test]
        fn tuples_and_oneof_work(p in arb_pair(), v in prop_oneof![Just(1i64), Just(2i64)]) {
            prop_assert!((0..100).contains(&p.0));
            prop_assert!(v == 1 || v == 2);
        }

        #[test]
        fn ascii_strings_match_class(s in "[ -~\\n]{0,80}") {
            prop_assert!(s.len() <= 80);
            prop_assert!(s.chars().all(|c| c == '\n' || (' '..='~').contains(&c)));
        }

        #[test]
        fn unicode_strings_bounded(s in "\\PC{0,40}") {
            prop_assert!(s.chars().count() <= 40);
        }

        #[test]
        fn recursive_strategies_terminate(v in arb_nested()) {
            prop_assert!(depth_of(&v) <= 40);
            prop_assert!(leaves_in_range(&v));
        }

        #[test]
        fn collection_vec_respects_size(xs in crate::collection::vec(0i64..5, 1..4)) {
            prop_assert!((1..4).contains(&xs.len()));
            prop_assert!(xs.iter().all(|x| (0..5).contains(x)));
        }
    }

    #[derive(Clone, Debug)]
    enum Nested {
        Leaf(i64),
        Node(Box<Nested>, Box<Nested>),
    }

    fn depth_of(n: &Nested) -> usize {
        match n {
            Nested::Leaf(_) => 1,
            Nested::Node(a, b) => 1 + depth_of(a).max(depth_of(b)),
        }
    }

    fn leaves_in_range(n: &Nested) -> bool {
        match n {
            Nested::Leaf(x) => (-10..10).contains(x),
            Nested::Node(a, b) => leaves_in_range(a) && leaves_in_range(b),
        }
    }

    fn arb_nested() -> impl Strategy<Value = Nested> {
        let leaf = (-10i64..10).prop_map(Nested::Leaf);
        leaf.prop_recursive(4, 16, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| Nested::Node(Box::new(a), Box::new(b)))
        })
    }

    #[test]
    fn same_name_same_stream() {
        let mut a =
            crate::test_runner::TestRng::deterministic(crate::test_runner::seed_from_name("t"));
        let mut b =
            crate::test_runner::TestRng::deterministic(crate::test_runner::seed_from_name("t"));
        let s = (0i64..1000, any::<bool>());
        for _ in 0..32 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }
}
