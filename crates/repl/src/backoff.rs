//! Jittered exponential backoff: the pacing of the follower's reconnect
//! loop ([`crate::follower`]).
//!
//! The schedule is the classic "equal jitter" variant: attempt `n` sleeps
//! `d/2 + uniform(0, d/2)` where `d = min(cap, base · 2ⁿ)` — the floor
//! keeps reconnects from stampeding instantly, the jitter de-synchronizes
//! followers that lost the leader at the same moment. The jitter source is a
//! seeded xorshift so tests are deterministic; there is no wall-clock or OS
//! entropy anywhere in the schedule.

use std::time::Duration;

/// Deterministic jittered exponential backoff schedule.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A schedule starting at `base`, doubling per attempt, capped at
    /// `cap`, jittered from `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff { base, cap, attempt: 0, rng: seed | 1 }
    }

    /// The next sleep in the schedule (advances the attempt counter).
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(20); // 2^20 × base saturates any sane cap
        self.attempt = self.attempt.saturating_add(1);
        let d = self
            .base
            .saturating_mul(1u32 << exp.min(31))
            .min(self.cap)
            .max(Duration::from_micros(1));
        let half = d / 2;
        let jitter_nanos = xorshift64(&mut self.rng) % (half.as_nanos().max(1) as u64);
        half + Duration::from_nanos(jitter_nanos)
    }

    /// Back to the first rung (call after a success).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// One step of xorshift64 — tiny, seedable, good enough for jitter.
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(100);
        let mut b = Backoff::new(base, cap, 42);
        let mut prev_floor = Duration::ZERO;
        for i in 0..10 {
            let d = b.next_delay();
            let ceiling = base.saturating_mul(1 << i.min(4)).min(cap);
            assert!(d >= ceiling / 2, "attempt {i}: {d:?} below jitter floor");
            assert!(d <= ceiling, "attempt {i}: {d:?} above {ceiling:?}");
            assert!(d >= prev_floor, "floors are monotone");
            prev_floor = ceiling / 2;
        }
    }

    #[test]
    fn reset_returns_to_the_first_rung() {
        let mut b = Backoff::new(Duration::from_millis(8), Duration::from_secs(1), 7);
        for _ in 0..5 {
            b.next_delay();
        }
        b.reset();
        assert!(b.next_delay() <= Duration::from_millis(8));
    }

    #[test]
    fn same_seed_same_schedule() {
        let mk = || Backoff::new(Duration::from_millis(3), Duration::from_millis(50), 99);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..8 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
    }
}
