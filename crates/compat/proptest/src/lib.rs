//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no access to crates.io, so the workspace vendors
//! the subset of proptest that its property tests use:
//!
//! * the [`strategy::Strategy`] trait with `prop_map` / `prop_filter` /
//!   `boxed`, range strategies, tuple strategies, [`strategy::Just`], and
//!   type-erased unions,
//! * [`arbitrary::any`] for primitives,
//! * [`collection::vec`] and [`collection::btree_set`],
//! * `&str` regex-pattern string strategies (a practical subset of regex),
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`],
//!   [`prop_assert_eq!`], and [`prop_assert_ne!`] macros.
//!
//! **There is no shrinking.**  Cases are generated from a deterministic
//! per-test seed (overridable with `PROPTEST_SEED`), so a failure report
//! identifies the exact case and replays exactly.  The case count comes from
//! `ProptestConfig::with_cases` (default 256); `PROPTEST_CASES`, when set,
//! overrides both.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// What `use proptest::prelude::*` brings into scope.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Define property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn addition_commutes(a in any::<u32>(), b in any::<u32>()) {
///         prop_assert_eq!(a as u64 + b as u64, b as u64 + a as u64);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr)
      $(
          $(#[$meta:meta])*
          fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $config;
                $crate::test_runner::run_cases(__config, stringify!($name), |__rng| {
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                    let mut __case = || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    };
                    __case()
                });
            }
        )*
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Assert a condition inside a property (fails the case, not the process).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let __left = $left;
        let __right = $right;
        $crate::prop_assert!(
            __left == __right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            __left,
            __right
        );
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let __left = $left;
        let __right = $right;
        $crate::prop_assert!(
            __left != __right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            __left
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro wires patterns, strategies and assertions together.
        #[test]
        fn tuple_patterns_and_asserts((a, b) in (0u32..50, 50u32..100), flip in any::<bool>()) {
            prop_assert!(a < b, "a={a} b={b}");
            prop_assert_ne!(a, b);
            if flip {
                prop_assert_eq!(a + b, b + a);
            }
        }

        /// Early `return Ok(())` works like in real proptest.
        #[test]
        fn early_return_is_fine(x in 0u8..4) {
            if x == 0 {
                return Ok(());
            }
            prop_assert!(x > 0);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case_info() {
        crate::test_runner::run_cases(ProptestConfig::with_cases(8), "always_fails", |_rng| {
            Err(TestCaseError::fail("nope"))
        });
    }

    #[test]
    fn oneof_covers_all_arms() {
        let strat = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = TestRng::seed_from_u64(11);
        let seen: std::collections::BTreeSet<u8> =
            (0..100).map(|_| strat.generate(&mut rng)).collect();
        assert_eq!(seen, [1u8, 2, 3].into_iter().collect());
    }
}
