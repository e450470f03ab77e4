//! The workspace's property-testing crate, mapped in as `proptest` so test
//! code reads like ordinary proptest. It implements exactly the surface the
//! property tests use: the `proptest!` macro (with an optional
//! `#![proptest_config(..)]` header), `prop_assert!`/`prop_assert_eq!`/
//! `prop_assume!`, range and tuple strategies, `prop_map`, and the
//! `prop::{collection::vec, option::of, sample::select}` combinators plus
//! `any::<bool>()`.
//!
//! Inputs are drawn from the workspace generator ([`Rng`]) under a fixed
//! per-test seed derived from the test name, so every run samples the same
//! cases. Failing cases are reported as drawn, without shrinking; a case
//! worth keeping is pinned as an explicit `#[test]` next to the property.

use dfs_linalg::rng::Rng;

/// A source of values of one type (`proptest::strategy::Strategy`).
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut Rng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut Rng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty f64 range strategy");
        self.start + (self.end - self.start) * rng.f64()
    }
}

impl Strategy for core::ops::RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut Rng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty f64 range strategy");
        lo + (hi - lo) * rng.f64()
    }
}

macro_rules! int_strategy {
    ($t:ty) => {
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty integer range strategy");
                self.start + rng.below((self.end - self.start) as usize) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty integer range strategy");
                lo + rng.below((hi - lo) as usize + 1) as $t
            }
        }
    };
}
int_strategy!(usize);
int_strategy!(u64);
int_strategy!(u32);
int_strategy!(i32);
int_strategy!(i64);

macro_rules! tuple_strategy {
    ($($s:ident.$idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10, L.11);

/// Always-this-value strategy (`proptest::strategy::Just`).
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut Rng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical strategy, reachable through [`any`].
pub trait Arbitrary: Sized {
    type Strategy: Strategy<Value = Self>;
    fn arbitrary() -> Self::Strategy;
}

/// Strategy for `any::<bool>()`.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn sample(&self, rng: &mut Rng) -> bool {
        rng.bool()
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;
    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

/// The canonical strategy for a type: `any::<bool>()` etc.
pub fn any<A: Arbitrary>() -> A::Strategy {
    A::arbitrary()
}

pub mod collection {
    use super::{Rng, Strategy};

    /// Size bound for [`vec()`]: exact length or a half-open range of lengths.
    pub trait SizeRange {
        fn pick(&self, rng: &mut Rng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut Rng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn pick(&self, rng: &mut Rng) -> usize {
            assert!(self.start < self.end, "empty vec-length range");
            self.start + rng.below(self.end - self.start)
        }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut Rng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `prop::collection::vec(element, len)` — vector of sampled elements.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

pub mod option {
    use super::{Rng, Strategy};

    /// Output of [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut Rng) -> Option<S::Value> {
            // Same None-bias as real proptest's default (1 in 4).
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }

    /// `prop::option::of(strategy)` — sometimes-`None` wrapper.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

pub mod sample {
    use super::{Rng, Strategy};

    /// Output of [`select`].
    pub struct Select<T> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut Rng) -> T {
            self.items[rng.below(self.items.len())].clone()
        }
    }

    /// `prop::sample::select(items)` — uniform choice from a non-empty list.
    pub fn select<T: Clone>(items: impl Into<Vec<T>>) -> Select<T> {
        let items = items.into();
        assert!(!items.is_empty(), "select from empty list");
        Select { items }
    }
}

pub mod test_runner {
    /// Runner configuration; only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }
}

/// Why a single sampled case did not pass.
#[derive(Debug)]
pub enum CaseError {
    /// `prop_assume!` rejected the inputs; resample and retry.
    Reject,
    /// `prop_assert!`-family failure; aborts the test.
    Fail(String),
}

/// Drives one property: samples inputs and runs the body until `cases`
/// accepted executions, panicking on the first failed assertion. Rejection
/// via `prop_assume!` retries with fresh inputs, up to a 20x attempt cap.
pub fn run_property<F>(config: &test_runner::Config, name: &str, mut case: F)
where
    F: FnMut(&mut Rng) -> Result<(), CaseError>,
{
    // Stable per-test seed: failures reproduce exactly.
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        seed = (seed ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    let mut rng = Rng::seed_from_u64(seed);
    let mut accepted = 0u32;
    let mut attempts = 0u32;
    while accepted < config.cases {
        attempts += 1;
        assert!(
            attempts <= config.cases.saturating_mul(20).max(64),
            "{name}: too many cases rejected by prop_assume!"
        );
        match case(&mut rng) {
            Ok(()) => accepted += 1,
            Err(CaseError::Reject) => {}
            Err(CaseError::Fail(msg)) => {
                panic!("{name}: property failed after {accepted} passing cases: {msg}")
            }
        }
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::CaseError::Fail(format!($($fmt)*)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {} ({:?} vs {:?})",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::CaseError::Reject);
        }
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr) $(
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
    )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                $crate::run_property(&config, stringify!($name), |rng| {
                    $(let $arg = $crate::Strategy::sample(&($strategy), rng);)*
                    $body
                    ::core::result::Result::Ok(())
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::Config::default()) $($rest)*
        );
    };
}

pub mod prelude {
    //! Mirror of `proptest::prelude` for the names this workspace imports.
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, Arbitrary, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};

    pub mod prop {
        pub use crate::{collection, option, sample};
    }
}
