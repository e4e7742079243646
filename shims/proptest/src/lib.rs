//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! The build environment cannot fetch crates, so this shim re-implements the
//! property-testing surface rulekit's tests rely on: the [`proptest!`] macro,
//! `prop_assert*`, range / string-pattern / tuple / collection / `select` /
//! `Just` / `prop_oneof!` strategies, `prop_map`, and bounded
//! `prop_recursive`.
//!
//! Differences from upstream, deliberate and documented:
//!
//! * **No shrinking.** A failing case reports its deterministic case seed;
//!   rerunning the test replays the identical sequence, which is what the
//!   repo's debugging workflow needs.
//! * **Generation only.** Strategies are random generators, not integrated
//!   shrink trees; `prop_recursive` unrolls to a fixed depth with a
//!   leaf-biased union at each level.
//! * **String patterns** support the `[class]{m,n}`-style subset the tests
//!   use (char classes with ranges and escapes, counted repetition,
//!   literals), not full regex.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod sample;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// `prop::…` paths (`prop::collection::vec`, `prop::sample::select`).
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// Everything a property-test file imports.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines `#[test]` functions over generated inputs.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(256))]
///     #[test]
///     fn addition_commutes(a in 0u32..100, b in 0u32..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ($cfg:expr; $(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let __id = ::std::concat!(::std::module_path!(), "::", ::std::stringify!($name));
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::test_runner::TestRng::deterministic(__id, __case);
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(__e) = __outcome {
                    ::std::panic!(
                        "proptest `{}` failed at case {} (deterministic; rerun reproduces): {}",
                        __id, __case, __e
                    );
                }
            }
        }
        $crate::__proptest_fns! { $cfg; $($rest)* }
    };
    ($cfg:expr;) => {};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: {}", ::std::stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: `{:?}` == `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` == `{:?}`: {}",
            l,
            r,
            ::std::format!($($fmt)+)
        );
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{:?}` != `{:?}`: {}",
            l,
            r,
            ::std::format!($($fmt)+)
        );
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($item:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($item)),+
        ])
    };
}
