//! Offline stand-in for the subset of the `rand` crate API this workspace
//! uses. The build environment has no network access and no vendored
//! registry, so the real `rand` cannot be fetched; this shim keeps the same
//! call sites compiling (`StdRng`, `SeedableRng`, `Rng::{gen_range,
//! gen_bool}`, `seq::SliceRandom`) on top of a from-scratch xoshiro256++
//! generator. Streams differ from upstream `rand`, but every consumer in
//! rulekit only requires seed-determinism, not upstream-identical output.

#![forbid(unsafe_code)]

pub mod distributions;
pub mod rngs;
pub mod seq;

/// Core source of randomness: 64 random bits at a time.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits (high half of [`next_u64`]).
    ///
    /// [`next_u64`]: RngCore::next_u64
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range` (`low..high` or `low..=high`).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: distributions::SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
