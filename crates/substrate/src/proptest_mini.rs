//! A small deterministic property-test harness.
//!
//! The in-tree replacement for the `proptest` surface this workspace
//! uses: composable [`Strategy`] generators, a fixed per-suite seed and
//! iteration budget, and automatic input shrinking. A property is an
//! ordinary closure that panics (via `assert!`) on violation; the
//! harness reruns it over `cases` generated inputs and, on failure,
//! shrinks to a small counterexample and reports the seed + case so the
//! exact failure replays on any machine.
//!
//! # Shrinking model
//!
//! Generation is *tape-based* (the Hypothesis approach): every random
//! draw a strategy makes is recorded on a tape of `u64`s. Shrinking
//! never needs strategy-specific inverses — it perturbs the tape
//! (truncate, zero, halve, decrement) and replays generation, so any
//! composite strategy shrinks for free, and a zeroed tape always maps
//! to the "smallest" input (range minimums, shortest vectors, first
//! `one_of` branch). Replays past the end of a truncated tape draw 0.
//!
//! # Example
//!
//! ```
//! use substrate::proptest_mini as pt;
//! use substrate::proptest_mini::Strategy;
//!
//! pt::check(
//!     pt::Config::with_cases(64),
//!     pt::vec(0u32..100, 0..10).prop_map(|v| v.len()),
//!     |len| assert!(len < 10),
//! );
//! ```

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use crate::rng::KeyedRng;

/// Harness configuration: case count, base seed, shrink budget.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of generated inputs per property.
    pub cases: u32,
    /// Base seed; case `i` draws from stream `(seed, i)`.
    pub seed: u64,
    /// Maximum property re-executions spent shrinking a failure.
    pub max_shrink_iters: u32,
}

impl Config {
    /// Default seed and shrink budget with the given case count.
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            seed: 0x7453_484D_454D_5031, // "tSHMEMP1"
            max_shrink_iters: 1024,
        }
    }

    /// Override the base seed (for replaying a reported failure).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for Config {
    fn default() -> Self {
        Self::with_cases(256)
    }
}

/// The random source handed to strategies. Records every draw on a
/// tape; in replay mode it reads the tape back (drawing 0 once the
/// tape is exhausted) so shrunk tapes regenerate deterministically.
pub struct Source {
    rng: Option<KeyedRng>,
    tape_in: Vec<u64>,
    pos: usize,
    record: Vec<u64>,
}

impl Source {
    fn fresh(seed: u64, case: u64) -> Self {
        Self {
            rng: Some(KeyedRng::new(seed, case)),
            tape_in: Vec::new(),
            pos: 0,
            record: Vec::new(),
        }
    }

    fn replay(tape: &[u64]) -> Self {
        Self {
            rng: None,
            tape_in: tape.to_vec(),
            pos: 0,
            record: Vec::new(),
        }
    }

    /// Draw the next `u64`.
    // Not an Iterator: draws are infinite and tape-recorded.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let v = if self.pos < self.tape_in.len() {
            self.tape_in[self.pos]
        } else {
            match &mut self.rng {
                Some(rng) => rng.next_u64(),
                None => 0,
            }
        };
        self.pos += 1;
        self.record.push(v);
        v
    }

    /// Draw uniform in `[0, n)` from a single tape slot, biased by
    /// simple reduction so that a zeroed slot maps to 0 (tape shrinking
    /// depends on draw → value monotonicity, and the harness does not
    /// need statistical perfection).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next() % n
    }
}

/// A generator of values for one property parameter.
pub trait Strategy {
    type Value: fmt::Debug;

    /// Produce one value, drawing randomness from `src`.
    fn generate(&self, src: &mut Source) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: fmt::Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from a strategy derived from it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erase, e.g. for [`one_of`].
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, src: &mut Source) -> S::Value {
        (**self).generate(src)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: fmt::Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, src: &mut Source) -> U {
        (self.f)(self.inner.generate(src))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, src: &mut Source) -> S2::Value {
        (self.f)(self.inner.generate(src)).generate(src)
    }
}

/// Always yields a clone of one value.
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _src: &mut Source) -> T {
        self.0.clone()
    }
}

macro_rules! impl_unsigned_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, src: &mut Source) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as u64;
                self.start + src.below(span) as $t
            }
        }
    )*};
}

impl_unsigned_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, src: &mut Source) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + src.below(span) as i128) as $t
            }
        }
    )*};
}

impl_signed_range_strategy!(i8, i16, i32, i64, isize);

/// Primitive types generable over their whole domain via [`any`].
pub trait Arbitrary: Sized + fmt::Debug {
    fn arbitrary(src: &mut Source) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(src: &mut Source) -> $t {
                src.next() as $t
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(src: &mut Source) -> $t {
                src.next() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(src: &mut Source) -> bool {
        src.next() & 1 == 1
    }
}

/// Strategy over a primitive's entire domain (a zeroed tape yields 0 /
/// `false`).
pub struct Any<T>(PhantomData<T>);

/// `any::<u64>()`-style whole-domain strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, src: &mut Source) -> T {
        T::arbitrary(src)
    }
}

/// Vectors of `elem` with a length drawn from `len` (half-open).
pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { elem, len }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    elem: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, src: &mut Source) -> Vec<S::Value> {
        let span = (self.len.end - self.len.start) as u64;
        let n = self.len.start + src.below(span) as usize;
        (0..n).map(|_| self.elem.generate(src)).collect()
    }
}

/// Choose uniformly among boxed alternatives (a zeroed tape picks the
/// first — list the simplest branch first for best shrinking).
pub fn one_of<T: fmt::Debug>(options: Vec<BoxedStrategy<T>>) -> OneOf<T> {
    assert!(!options.is_empty(), "one_of needs at least one option");
    OneOf { options }
}

/// See [`one_of`].
pub struct OneOf<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T: fmt::Debug> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, src: &mut Source) -> T {
        let i = src.below(self.options.len() as u64) as usize;
        self.options[i].generate(src)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident.$idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, src: &mut Source) -> Self::Value {
                ($(self.$idx.generate(src),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run `prop` once against the value regenerated from `tape`.
/// `Err(message)` if the property panicked.
fn run_tape<S, F>(strategy: &S, prop: &F, tape: &[u64]) -> Result<(), String>
where
    S: Strategy,
    F: Fn(S::Value),
{
    let mut src = Source::replay(tape);
    let value = strategy.generate(&mut src);
    panic::catch_unwind(AssertUnwindSafe(|| prop(value)))
        .map_err(|p| panic_message(p.as_ref()))
}

/// Greedy tape shrinking: truncate, zero, halve, decrement; restart
/// after every improvement until the budget runs out or no perturbation
/// still fails.
fn shrink<S, F>(strategy: &S, prop: &F, mut best: Vec<u64>, mut budget: u32) -> Vec<u64>
where
    S: Strategy,
    F: Fn(S::Value),
{
    'outer: loop {
        // Candidate tapes in decreasing order of aggressiveness.
        let mut candidates: Vec<Vec<u64>> = Vec::new();
        if !best.is_empty() {
            candidates.push(best[..best.len() / 2].to_vec());
            candidates.push(best[..best.len() - 1].to_vec());
        }
        for i in 0..best.len() {
            if best[i] != 0 {
                let mut t = best.clone();
                t[i] = 0;
                candidates.push(t);
            }
        }
        for i in 0..best.len() {
            if best[i] > 1 {
                let mut t = best.clone();
                t[i] /= 2;
                candidates.push(t);
            }
        }
        for i in 0..best.len() {
            if best[i] > 0 {
                let mut t = best.clone();
                t[i] -= 1;
                candidates.push(t);
            }
        }
        for cand in candidates {
            if budget == 0 {
                break 'outer;
            }
            if cand == best {
                continue;
            }
            budget -= 1;
            if run_tape(strategy, prop, &cand).is_err() {
                best = cand;
                continue 'outer; // restart from the new best
            }
        }
        break; // no candidate still fails: local minimum
    }
    best
}

/// Check `prop` against `config.cases` inputs generated from
/// `strategy`.
///
/// # Panics
/// Panics with a shrunk counterexample, the base seed, and the failing
/// case index if any generated input makes `prop` panic. Rerunning with
/// the same seed regenerates the identical failure.
pub fn check<S, F>(config: Config, strategy: S, prop: F)
where
    S: Strategy,
    F: Fn(S::Value),
{
    for case in 0..config.cases {
        let mut src = Source::fresh(config.seed, case as u64);
        let value = strategy.generate(&mut src);
        let tape = src.record;
        let first_failure = panic::catch_unwind(AssertUnwindSafe(|| prop(value)));
        let Err(payload) = first_failure else {
            continue;
        };
        let original_msg = panic_message(payload.as_ref());
        let minimal = shrink(&strategy, &prop, tape, config.max_shrink_iters);
        let minimal_value = strategy.generate(&mut Source::replay(&minimal));
        let minimal_msg = run_tape(&strategy, &prop, &minimal)
            .err()
            .unwrap_or_else(|| original_msg.clone());
        panic!(
            "proptest_mini: property failed at seed={seed:#018x} case={case}\n\
             minimal input: {minimal_value:?}\n\
             minimal panic: {minimal_msg}\n\
             original panic: {original_msg}\n\
             (replay with Config::with_cases(..).seed({seed:#018x}))",
            seed = config.seed,
        );
    }
}

/// Property-scoped assertion; identical to `assert!` (the harness
/// catches the panic), kept for `proptest` port fidelity.
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Property-scoped equality assertion; identical to `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn runs_exactly_the_configured_cases() {
        let count = Cell::new(0u32);
        check(Config::with_cases(37), 0u32..100, |_| {
            count.set(count.get() + 1);
        });
        assert_eq!(count.get(), 37);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let collect = |seed: u64| {
            let mut vals = Vec::new();
            let mut src = Source::fresh(seed, 0);
            for _ in 0..16 {
                vals.push((0u64..1_000_000).generate(&mut src));
            }
            vals
        };
        assert_eq!(collect(42), collect(42));
        assert_ne!(collect(42), collect(43));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        check(Config::with_cases(500), (5u16..9, (-3i32..4)), |(u, i)| {
            assert!((5..9).contains(&u));
            assert!((-3..4).contains(&i));
        });
    }

    #[test]
    fn vec_lengths_respect_range() {
        check(Config::with_cases(200), vec(any::<u8>(), 2..7), |v| {
            assert!((2..7).contains(&v.len()));
        });
    }

    #[test]
    fn one_of_only_picks_listed_branches() {
        let s = one_of(vec![
            Just(1u8).boxed(),
            Just(2u8).boxed(),
            (10u8..20).boxed(),
        ]);
        check(Config::with_cases(300), s, |v| {
            assert!(v == 1 || v == 2 || (10..20).contains(&v));
        });
    }

    #[test]
    fn failure_is_reported_with_seed_and_shrunk_input() {
        let result = panic::catch_unwind(|| {
            check(Config::with_cases(256), 0u64..1000, |v| {
                assert!(v < 10, "too big: {v}");
            });
        });
        let msg = panic_message(result.unwrap_err().as_ref());
        assert!(msg.contains("property failed"), "report: {msg}");
        assert!(msg.contains("seed="), "report: {msg}");
        // Greedy tape shrinking must land on the boundary value.
        assert!(msg.contains("minimal input: 10"), "report: {msg}");
    }

    #[test]
    fn shrinking_minimizes_vector_length() {
        let result = panic::catch_unwind(|| {
            check(Config::with_cases(64), vec(0u32..100, 0..40), |v| {
                assert!(v.len() < 3, "len {}", v.len());
            });
        });
        let msg = panic_message(result.unwrap_err().as_ref());
        // Minimal counterexample: 3 zeros.
        assert!(msg.contains("minimal input: [0, 0, 0]"), "report: {msg}");
    }

    #[test]
    fn flat_map_threads_the_source() {
        let s = (1usize..5).prop_flat_map(|n| vec(0u8..10, n..n + 1));
        check(Config::with_cases(200), s, |v| {
            assert!((1..5).contains(&v.len()));
        });
    }

    #[test]
    fn replay_past_truncated_tape_draws_zero() {
        let mut src = Source::replay(&[7]);
        assert_eq!(src.next(), 7);
        assert_eq!(src.next(), 0);
        assert_eq!(src.next(), 0);
    }

    #[test]
    fn prop_assert_macros_compile_and_fire() {
        prop_assert!(1 + 1 == 2);
        prop_assert_eq!(2, 2);
        let caught = panic::catch_unwind(|| prop_assert!(false, "boom"));
        assert!(caught.is_err());
    }
}
