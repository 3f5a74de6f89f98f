//! Offline stub of `proptest`.
//!
//! Implements the subset of the proptest API this workspace's property
//! tests use — [`Strategy`](strategy::Strategy) with `prop_map`/`boxed`, range / tuple /
//! string / collection strategies, `any::<T>()`, [`prop_oneof!`],
//! [`proptest!`], `prop_assert!`/`prop_assert_eq!`, and
//! [`test_runner::ProptestConfig`] — as a deterministic random sampler.
//!
//! Differences from the real crate, deliberately accepted for a hermetic
//! build:
//!
//! * **No shrinking.** A failing case reports the case number and seed so
//!   it can be replayed (the generator is a pure function of test name and
//!   case index), but it is not minimised.
//! * **String strategies** support the character-class-with-counts regex
//!   subset actually used in tests (e.g. `"[a-z]{1,8}"`), not full regex.
//! * Case count defaults to 64 (override with
//!   `ProptestConfig::with_cases`).

pub mod test_runner {
    //! Deterministic case generation and failure reporting.

    use std::fmt;

    /// Per-test configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// A failed property assertion.
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Creates a failure with a message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    impl std::error::Error for TestCaseError {}

    /// Deterministic RNG: xoshiro256++ seeded from the test identity and
    /// case index, so every run of a test samples the same case sequence.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Creates the RNG for case `case` of the test named `identity`.
        pub fn deterministic(identity: &str, case: u64) -> Self {
            // FNV-1a over the identity, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in identity.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            let mut state = h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut s = [0u64; 4];
            for word in &mut s {
                // SplitMix64 expansion.
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            if s == [0; 4] {
                s[0] = 1;
            }
            TestRng { s }
        }

        /// Returns the next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Unbiased draw from `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
            loop {
                let v = self.next_u64();
                if v <= zone {
                    return v % bound;
                }
            }
        }

        /// Uniform draw from `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (needed by [`crate::prop_oneof!`]).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: Rc::new(self),
            }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// A type-erased strategy.
    #[derive(Clone)]
    pub struct BoxedStrategy<T> {
        inner: Rc<dyn Strategy<Value = T>>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            self.inner.sample(rng)
        }
    }

    impl<T> std::fmt::Debug for BoxedStrategy<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("BoxedStrategy")
        }
    }

    /// Uniform choice between alternative strategies ([`crate::prop_oneof!`]).
    #[derive(Debug, Clone)]
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Creates a union over `options`.
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].sample(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                    if span == 0 {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            lo + rng.unit_f64() * (hi - lo)
        }
    }

    /// String strategies from the character-class regex subset
    /// (`"[a-z0-9]{m,n}"`, a bare class meaning `{1,1}`, or a literal).
    impl Strategy for &'static str {
        type Value = String;

        fn sample(&self, rng: &mut TestRng) -> String {
            match parse_class_pattern(self) {
                Some((chars, lo, hi)) => {
                    let len = lo + rng.below((hi - lo + 1) as u64) as usize;
                    (0..len)
                        .map(|_| chars[rng.below(chars.len() as u64) as usize])
                        .collect()
                }
                None => (*self).to_owned(),
            }
        }
    }

    /// Parses `[class]{m,n}` / `[class]{m}` / `[class]`; returns the
    /// expanded character set and length bounds.
    fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pat.strip_prefix('[')?;
        let (class, rest) = rest.split_once(']')?;
        let mut chars = Vec::new();
        let cs: Vec<char> = class.chars().collect();
        let mut i = 0;
        while i < cs.len() {
            if i + 2 < cs.len() && cs[i + 1] == '-' {
                let (a, b) = (cs[i], cs[i + 2]);
                if a > b {
                    return None;
                }
                chars.extend((a..=b).filter(|c| c.is_ascii()));
                i += 3;
            } else {
                chars.push(cs[i]);
                i += 1;
            }
        }
        if chars.is_empty() {
            return None;
        }
        if rest.is_empty() {
            return Some((chars, 1, 1));
        }
        let counts = rest.strip_prefix('{')?.strip_suffix('}')?;
        let (lo, hi) = match counts.split_once(',') {
            Some((l, h)) => (l.trim().parse().ok()?, h.trim().parse().ok()?),
            None => {
                let n = counts.trim().parse().ok()?;
                (n, n)
            }
        };
        if lo > hi {
            return None;
        }
        Some((chars, lo, hi))
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

pub mod arbitrary {
    //! `any::<T>()` — the canonical whole-domain strategy for a type.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.unit_f64()
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The whole-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty collection size range");
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

    /// Strategy returned by [`fn@vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `Vec`s of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! One-stop imports mirroring `proptest::prelude`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirrors `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over sampled cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let identity = concat!(module_path!(), "::", stringify!($name));
                for case in 0..u64::from(config.cases) {
                    let mut rng = $crate::test_runner::TestRng::deterministic(identity, case);
                    $(let $arg = $crate::strategy::Strategy::sample(&$strat, &mut rng);)+
                    let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        { $body }
                        Ok(())
                    })();
                    if let Err(e) = outcome {
                        panic!(
                            "property {} failed at case {}/{}: {}",
                            identity, case, config.cases, e
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the enclosing property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the enclosing property case unless the operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
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
}

/// Fails the enclosing property case if the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Uniform choice among alternative strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = TestRng::deterministic("t", 0);
        for _ in 0..500 {
            let v = (3u64..9).sample(&mut rng);
            assert!((3..9).contains(&v));
            let w = (1u8..=3).sample(&mut rng);
            assert!((1..=3).contains(&w));
        }
    }

    #[test]
    fn string_class_pattern_is_respected() {
        let mut rng = TestRng::deterministic("s", 1);
        for _ in 0..200 {
            let s = "[a-z]{1,8}".sample(&mut rng);
            assert!((1..=8).contains(&s.len()), "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()), "{s:?}");
            let empty_ok = "[a-c0-9]{0,2}".sample(&mut rng);
            assert!(empty_ok.len() <= 2);
        }
    }

    #[test]
    fn vec_and_tuple_strategies_compose() {
        let mut rng = TestRng::deterministic("v", 2);
        let strat =
            prop::collection::vec((0u8..16, any::<bool>(), 1u64..20), 0..50).prop_map(|v| v.len());
        for _ in 0..100 {
            assert!(strat.sample(&mut rng) < 50);
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let strat = prop_oneof![
            (0u32..1).prop_map(|_| 1u32),
            (0u32..1).prop_map(|_| 2u32),
            Just(3u32),
        ];
        let mut rng = TestRng::deterministic("o", 3);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[(strat.sample(&mut rng) - 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn deterministic_across_runs() {
        let a: Vec<u64> = {
            let mut rng = TestRng::deterministic("same", 7);
            (0..16).map(|_| (0u64..1000).sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = TestRng::deterministic("same", 7);
            (0..16).map(|_| (0u64..1000).sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(x in 0u64..100, flips in prop::collection::vec(any::<bool>(), 0..10)) {
            prop_assert!(x < 100);
            prop_assert_eq!(flips.len(), flips.iter().filter(|_| true).count());
        }
    }
}
