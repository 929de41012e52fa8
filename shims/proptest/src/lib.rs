//! Random-input property testing with a `proptest`-compatible surface for
//! what this workspace uses: the `proptest!` macro (with
//! `#![proptest_config]`), `Strategy` + `prop_map`, numeric-range and tuple
//! strategies, `prop::collection::vec`, `any::<T>()`, and
//! `prop_assert!`/`prop_assert_eq!`.
//!
//! Unlike the real proptest there is no shrinking and no persisted failure
//! seeds: each test draws `cases` deterministic samples from an RNG seeded
//! by the test's module path + name, and assertion failures panic with the
//! ordinary assert message. That keeps the properties exercised (and
//! reproducible) without the external dependency.
//!
//! Two environment variables vary a run, as in the real crate:
//!
//! * `PROPTEST_CASES=<n>` runs `n` cases per property. Unlike the real
//!   crate, it also overrides an explicit `ProptestConfig::with_cases`, so
//!   any property can be rerun wider.
//! * `PROPTEST_SEED=<u64>` is XORed into every test's name hash before
//!   seeding its RNG. Unset (or 0) gives the default streams.
//!
//! A failing case prints its test name, case index and seed to stderr
//! before the panic unwinds, so the failure can be rerun exactly.

#![allow(clippy::all)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RNG handed to strategies by the `proptest!` runner.
pub type TestRng = StdRng;

/// Deterministic per-test RNG: FNV-1a over the test's full name, XORed
/// with `seed` (`PROPTEST_SEED`, 0 by default).
pub fn rng_for(test_name: &str, seed: u64) -> TestRng {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in test_name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(hash ^ seed)
}

fn env_u64(var: &str) -> Option<u64> {
    let value = std::env::var(var).ok()?;
    Some(
        value
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{var}={value:?} is not a non-negative integer")),
    )
}

/// `PROPTEST_SEED`, or 0 when unset.
pub fn env_seed() -> u64 {
    env_u64("PROPTEST_SEED").unwrap_or(0)
}

/// `PROPTEST_CASES` when set, else `config.cases`.
pub fn env_cases(config: &ProptestConfig) -> u32 {
    env_u64("PROPTEST_CASES").map_or(config.cases, |n| n.min(u64::from(u32::MAX)) as u32)
}

/// Lives for one case of a property; if the case panics, its drop names
/// the case and the seed that reproduces it.
pub struct CaseGuard<'a> {
    pub test: &'a str,
    pub seed: u64,
    pub case: u32,
    pub cases: u32,
}

impl Drop for CaseGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest: {} failed at case {} of {}; rerun with PROPTEST_SEED={} PROPTEST_CASES={}",
                self.test,
                self.case,
                self.cases,
                self.seed,
                self.cases
            );
        }
    }
}

/// Runner configuration; only `cases` is modelled.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, map: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, map }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    map: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.map)(self.source.generate(rng))
    }
}

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

range_strategies!(u8, u16, u32, u64, usize);

macro_rules! float_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

float_range_strategies!(f32, f64);

macro_rules! tuple_strategies {
    ($(($($s:ident),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategies!((A), (A, B), (A, B, C), (A, B, C, D));

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.random()
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.random()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.random()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.random()
    }
}

pub struct Any<A>(PhantomData<A>);

pub fn any<A: Arbitrary>() -> Any<A> {
    Any(PhantomData)
}

impl<A: Arbitrary> Strategy for Any<A> {
    type Value = A;
    fn generate(&self, rng: &mut TestRng) -> A {
        A::arbitrary(rng)
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, Arbitrary, ProptestConfig, Strategy,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{($cfg) $($rest)*}
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{($crate::ProptestConfig::default()) $($rest)*}
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let __test = concat!(module_path!(), "::", stringify!($name));
            let __seed = $crate::env_seed();
            let __cases = $crate::env_cases(&__config);
            let mut __rng = $crate::rng_for(__test, __seed);
            for __case in 0..__cases {
                let __guard = $crate::CaseGuard {
                    test: __test,
                    seed: __seed,
                    case: __case,
                    cases: __cases,
                };
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_items!{($cfg) $($rest)*}
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pairs() -> impl Strategy<Value = Vec<(u8, u64)>> {
        prop::collection::vec((0u8..4, 1u64..10), 1..6)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u32..9, y in 1usize..=4, f in 0.5f64..2.5) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((1..=4).contains(&y));
            prop_assert!((0.5..2.5).contains(&f));
        }

        #[test]
        fn vec_sizes_respected(v in arb_pairs(), flag in any::<bool>()) {
            prop_assert!(!v.is_empty() && v.len() < 6);
            for (a, b) in &v {
                prop_assert!(*a < 4);
                prop_assert!((1..10).contains(b));
            }
            let _ = flag;
        }

        #[test]
        fn prop_map_applies(total in arb_pairs().prop_map(|v| v.len())) {
            prop_assert!((1..6).contains(&total));
        }
    }

    #[test]
    fn seeds_change_the_stream() {
        let draw = |mut rng: crate::TestRng| -> Vec<u64> {
            (0..8)
                .map(|_| crate::Strategy::generate(&(0u64..1 << 40), &mut rng))
                .collect()
        };
        assert_ne!(
            draw(crate::rng_for("x::y", 0)),
            draw(crate::rng_for("x::y", 7))
        );
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::rng_for("x::y", 0);
        let mut b = crate::rng_for("x::y", 0);
        let va: Vec<u64> = (0..16)
            .map(|_| crate::Strategy::generate(&(0u64..100), &mut a))
            .collect();
        let vb: Vec<u64> = (0..16)
            .map(|_| crate::Strategy::generate(&(0u64..100), &mut b))
            .collect();
        assert_eq!(va, vb);
    }
}
