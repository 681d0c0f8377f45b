//! A seeded property-test runner for the workspace's tests.
//!
//! It keeps the subset of the proptest API the tests use, so a property
//! reads the same as it would against that crate: range, tuple, `Just`,
//! `any` and `&str` pattern strategies, `prop_map` / `prop_flat_map`,
//! `collection::{vec, btree_set}`, `sample::Index`, `bool::ANY`, weighted
//! `prop_oneof!`, `prop_assert*!` / `prop_assume!`, and the
//! `proptest! { #[test] fn f(x in strat) { .. } }` macro with
//! `#![proptest_config(ProptestConfig::with_cases(n))]`.
//!
//! What differs from proptest:
//!
//! - **Fixed seeds.** Each property's stream is seeded from a hash of its
//!   name ([`test_runner::seed_for`]), so every run, on every host, draws
//!   the same cases, and a failure in CI reproduces locally.
//! - **No shrinking.** A failure reports the property's name, the case
//!   number and the seed instead of a minimal input.
//!
//! As in proptest, the default is 256 passing cases, and a case rejected
//! by `prop_assume!` is redrawn rather than counted as a pass.
//!
//! The crate has no dependencies, so any workspace crate may take it as a
//! dev-dependency without forming a cycle.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod test_runner {
    //! Case generation and the per-property run loop.

    use std::panic::{self, AssertUnwindSafe};

    /// Deterministic RNG for case generation (SplitMix64).
    pub struct TestRng(u64);

    impl TestRng {
        /// A stream starting from `seed`.
        pub fn new(seed: u64) -> Self {
            TestRng(seed)
        }

        /// The next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A uniform draw in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A uniform draw in `[lo, hi_excl)`.
        pub fn usize_in(&mut self, lo: usize, hi_excl: usize) -> usize {
            assert!(hi_excl > lo, "empty range");
            lo + (self.next_u64() as usize) % (hi_excl - lo)
        }
    }

    /// Why a test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is redrawn.
        Reject(String),
        /// A `prop_assert*!` failed.
        Fail(String),
    }

    /// Runner configuration (`#![proptest_config(..)]`).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Passing cases a property must reach.
        pub cases: u32,
    }

    impl Config {
        /// The default configuration with `cases` passing cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// Rejected cases a property may draw before the run fails, as in
    /// proptest's default `max_global_rejects`.
    pub const MAX_REJECTS: u32 = 1024;

    /// The case-stream seed of the property named `name`.
    pub fn seed_for(name: &str) -> u64 {
        name.bytes().fold(0xC0FF_EE00u64, |seed, b| {
            seed.wrapping_mul(31).wrapping_add(b as u64)
        })
    }

    /// Runs `case` until `config.cases` draws pass, on the stream seeded by
    /// [`seed_for`]`(name)`.
    ///
    /// Panics, naming the property, the case number and the seed, when a
    /// case fails or panics, or when more than [`MAX_REJECTS`] cases are
    /// rejected.
    pub fn run(
        name: &str,
        config: &Config,
        mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    ) {
        let seed = seed_for(name);
        let mut rng = TestRng::new(seed);
        let (mut passed, mut rejected) = (0u32, 0u32);
        let mut index = 0u64;
        while passed < config.cases {
            match panic::catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
                Ok(Ok(())) => passed += 1,
                Ok(Err(TestCaseError::Reject(why))) => {
                    rejected += 1;
                    if rejected > MAX_REJECTS {
                        panic!(
                            "property {name}: {rejected} cases rejected with only {passed} \
                             passing (seed {seed:#x}); last rejection: {why}"
                        );
                    }
                }
                Ok(Err(TestCaseError::Fail(msg))) => {
                    panic!("property {name} failed at case {index} (seed {seed:#x}): {msg}")
                }
                Err(payload) => {
                    eprintln!("property {name} panicked at case {index} (seed {seed:#x})");
                    panic::resume_unwind(payload)
                }
            }
            index += 1;
        }
    }
}

pub mod strategy {
    //! Value generators and their combinators.

    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// A generator of values of type `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps each drawn value through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Draws a value, then draws from the strategy `f` builds from it.
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { inner: self, f }
        }
    }

    /// A boxed, dynamically dispatched strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    /// Boxing helper used by `prop_oneof!`.
    pub fn boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
        Box::new(s)
    }

    /// See [`Strategy::prop_map`].
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

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);
    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = self.start as i128;
                    let hi = self.end as i128;
                    assert!(hi > lo, "empty range strategy");
                    let draw = (rng.next_u64() as u128) % (hi - lo) as u128;
                    (lo + draw as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let lo = *self.start() as i128;
                    let hi = *self.end() as i128;
                    assert!(hi >= lo, "empty range strategy");
                    let draw = (rng.next_u64() as u128) % ((hi - lo) as u128 + 1);
                    (lo + draw as i128) as $t
                }
            }
        )*};
    }
    impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    /// Strings for the pattern `[a-z]{1,12}`, the only one the workspace
    /// uses: 1 to 12 lowercase letters. Other patterns panic.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            assert_eq!(*self, "[a-z]{1,12}", "unsupported string pattern");
            let len = 1 + (rng.next_u64() % 12) as usize;
            (0..len)
                .map(|_| (b'a' + (rng.next_u64() % 26) as u8) as char)
                .collect()
        }
    }

    macro_rules! impl_tuple {
        ($(($($s:ident/$idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    impl_tuple! {
        (A/0)
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
        (A/0, B/1, C/2, D/3, E/4)
        (A/0, B/1, C/2, D/3, E/4, F/5)
    }

    /// Weighted union, the expansion target of `prop_oneof!`.
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total: u64,
    }
    impl<V> Union<V> {
        /// A union drawing each arm with probability proportional to its
        /// weight.
        pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            let total = arms.iter().map(|(w, _)| *w as u64).sum::<u64>().max(1);
            Union { arms, total }
        }
    }
    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let mut draw = rng.next_u64() % self.total;
            for (w, s) in &self.arms {
                if draw < *w as u64 {
                    return s.generate(rng);
                }
                draw -= *w as u64;
            }
            self.arms[self.arms.len() - 1].1.generate(rng)
        }
    }

    /// Types with a default strategy, drawn by [`any`].
    pub trait Arbitrary: Sized {
        /// Draws one value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for super::sample::Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            super::sample::Index(rng.next_u64())
        }
    }

    /// See [`any`].
    pub struct Any<T>(PhantomData<T>);
    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The default strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::collections::BTreeSet;

    /// Size specifications accepted by [`vec()`] and [`btree_set`].
    pub trait SizeRange {
        /// Draws a size.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }
    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }
    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.usize_in(self.start, self.end)
        }
    }
    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.usize_in(*self.start(), *self.end() + 1)
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }
    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `size` elements drawn from `element`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S, R> {
        element: S,
        size: R,
    }
    impl<S: Strategy, R: SizeRange> Strategy for BTreeSetStrategy<S, R>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            let mut out = BTreeSet::new();
            for _ in 0..n * 4 {
                if out.len() >= n {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            out
        }
    }

    /// Sets of up to `size` distinct elements drawn from `element` (fewer
    /// when `4 × size` draws do not find enough distinct values).
    pub fn btree_set<S: Strategy, R: SizeRange>(element: S, size: R) -> BTreeSetStrategy<S, R>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }
}

pub mod sample {
    //! Sampling helpers.

    /// An abstract index into a collection of as-yet-unknown size.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(pub(crate) u64);

    impl Index {
        /// This index reduced into `0..size`.
        pub fn index(&self, size: usize) -> usize {
            assert!(size > 0, "Index::index on an empty collection");
            (self.0 % size as u64) as usize
        }
    }
}

pub mod bool {
    //! Boolean strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// See [`ANY`].
    #[derive(Clone, Copy, Debug)]
    pub struct BoolAny;
    impl Strategy for BoolAny {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Uniform true/false.
    pub const ANY: BoolAny = BoolAny;
}

pub mod prelude {
    //! Everything a property test imports.

    pub use super::strategy::{any, Just, Strategy};
    pub use super::test_runner::Config as ProptestConfig;
    pub use super::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
    /// The crate under its proptest name: `prop::collection::vec`,
    /// `prop::sample::Index`, `prop::bool::ANY`.
    pub use crate as prop;
}

/// Fails the case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return Err($crate::test_runner::TestCaseError::Fail(format!(
                        "assertion failed: {} == {} ({:?} vs {:?})",
                        stringify!($left),
                        stringify!($right),
                        l,
                        r
                    )));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return Err($crate::test_runner::TestCaseError::Fail(format!($($fmt)+)));
                }
            }
        }
    };
}

/// Fails the case if `left == right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return Err($crate::test_runner::TestCaseError::Fail(format!(
                        "assertion failed: {} != {} ({:?})",
                        stringify!($left),
                        stringify!($right),
                        l
                    )));
                }
            }
        }
    };
}

/// Rejects the case (it is redrawn, not counted) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// A strategy drawing from one of several, optionally weighted
/// (`3 => a, 1 => b`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::boxed($strat))),+
        ])
    };
}

/// Declares property tests: `fn name(x in strategy, ..) { body }`, each
/// run by [`test_runner::run`].
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            config = (<$crate::test_runner::Config as ::std::default::Default>::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat_param in $strat:expr),* $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run(stringify!($name), &$cfg, |rng| {
                    $(
                        let $pat = $crate::strategy::Strategy::generate(&($strat), rng);
                    )*
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                });
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::test_runner::{seed_for, Config};
    use std::panic;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// The panic message of `f`, which must panic.
    fn panic_message(f: fn()) -> String {
        let payload = panic::catch_unwind(f).expect_err("the property must fail");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload.downcast_ref::<&str>().unwrap().to_string(),
        }
    }

    proptest! {
        fn never_above_ten(x in 0u64..100) {
            prop_assert!(x <= 10, "x = {}", x);
        }
    }

    #[test]
    fn a_failing_property_names_itself_its_case_and_its_seed() {
        let msg = panic_message(never_above_ten);
        assert!(
            msg.starts_with("property never_above_ten failed at case "),
            "{msg}"
        );
        assert!(
            msg.contains(&format!("(seed {:#x})", seed_for("never_above_ten"))),
            "{msg}"
        );
        assert!(msg.contains("): x = "), "{msg}");
        // Same name, same seed, same failing case.
        assert_eq!(panic_message(never_above_ten), msg);
    }

    static EVEN_PASSES: AtomicU32 = AtomicU32::new(0);
    static EVEN_DRAWS: AtomicU32 = AtomicU32::new(0);

    proptest! {
        fn rejected_cases_are_redrawn_not_passed(x in any::<u64>()) {
            EVEN_DRAWS.fetch_add(1, Ordering::Relaxed);
            prop_assume!(x % 2 == 0);
            EVEN_PASSES.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn a_rejection_does_not_count_as_a_pass() {
        rejected_cases_are_redrawn_not_passed();
        let passes = EVEN_PASSES.load(Ordering::Relaxed);
        assert_eq!(passes, 256);
        assert!(
            EVEN_DRAWS.load(Ordering::Relaxed) > passes,
            "some odd draws were rejected"
        );
    }

    proptest! {
        fn always_rejects(x in any::<u64>()) {
            prop_assume!(x == u64::MAX && x == 0);
        }
    }

    #[test]
    fn a_property_that_rejects_everything_fails() {
        let msg = panic_message(always_rejects);
        assert!(
            msg.contains("1025 cases rejected with only 0 passing"),
            "{msg}"
        );
    }

    static DEFAULT_RUNS: AtomicU32 = AtomicU32::new(0);

    proptest! {
        fn counts_default_runs(_x in any::<bool>()) {
            DEFAULT_RUNS.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn the_default_is_256_cases() {
        assert_eq!(Config::default().cases, 256);
        counts_default_runs();
        assert_eq!(DEFAULT_RUNS.load(Ordering::Relaxed), 256);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_string_pattern_draws_lowercase_words(s in "[a-z]{1,12}") {
            prop_assert!((1..=12).contains(&s.len()), "{:?}", s);
            prop_assert!(s.bytes().all(|b| b.is_ascii_lowercase()), "{:?}", s);
        }

        #[test]
        fn weighted_unions_and_collections_stay_in_range(
            v in prop::collection::vec(prop_oneof![3 => 0u8..4, 1 => Just(9u8)], 0..20),
            set in prop::collection::btree_set(0u32..1_000, 1..8),
            i in any::<prop::sample::Index>(),
        ) {
            prop_assert!(v.len() < 20);
            prop_assert!(v.iter().all(|&x| x < 4 || x == 9));
            prop_assert!(!set.is_empty() && set.len() < 8);
            prop_assert!(i.index(7) < 7);
        }
    }
}
