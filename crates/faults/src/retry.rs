//! Transient-error classification and bounded-backoff retry.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Classifies an error as transient (retrying the same operation can
/// succeed — injected faults, stale generations) or
/// permanent (schema errors, capacity exhaustion; retrying is futile).
///
/// Every error type in the workspace taxonomy implements this, so callers
/// can drive one generic retry loop ([`with_backoff`]) across the whole
/// stack — the canonical use is the stale-generation → rehydrate → rebuild
/// cycle of churn workloads.
pub trait Transient {
    /// True when retrying the failed operation can succeed.
    fn is_transient(&self) -> bool;
}

/// Retry schedule: bounded attempts with jittered exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Must be ≥ 1.
    pub max_attempts: u32,
    /// Floor of every backoff sleep (and the whole first sleep when
    /// `jitter` is off).
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Decorrelate concurrent retriers by drawing each sleep uniformly
    /// from `[base_delay, min(max_delay, 3 · previous_sleep)]` ("decorrelated
    /// jitter"). Without it, N readers that fail on the same event — e.g. a
    /// generation sweep invalidating every held snapshot at once — sleep the
    /// identical `base_delay · 2^k` schedule and re-collide on every retry,
    /// a thundering herd against the writer. Off only for tests that need a
    /// reproducible sleep sequence.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_millis(10),
            jitter: true,
        }
    }
}

/// Process-wide seed well: every [`with_backoff`] call takes a distinct
/// value, so concurrent retriers (and successive retry loops on one thread)
/// get decorrelated schedules while the process as a whole stays
/// deterministic — no clock or OS entropy involved.
static BACKOFF_SEED: AtomicU64 = AtomicU64::new(0);

fn fresh_seed() -> u64 {
    // Weyl increment; StdRng::seed_from_u64 runs SplitMix64 on top, so
    // consecutive values yield unrelated streams.
    BACKOFF_SEED.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
}

/// The sleep sequence of one retry loop: decorrelated jitter
/// (`sleep ~ U[base, min(cap, 3 · prev)]`, per Brooker's "Exponential
/// Backoff And Jitter") when the policy asks for it, plain capped doubling
/// otherwise. Exposed so schedules can be inspected without sleeping.
#[derive(Debug, Clone)]
pub struct BackoffSchedule {
    policy: RetryPolicy,
    prev: Duration,
    rng: StdRng,
}

impl BackoffSchedule {
    /// A schedule for `policy` seeded with `seed`. [`with_backoff`] seeds
    /// from a global counter; pass explicit seeds to replay or compare
    /// schedules in tests.
    pub fn new(policy: &RetryPolicy, seed: u64) -> Self {
        BackoffSchedule {
            policy: *policy,
            prev: policy.base_delay,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Iterator for BackoffSchedule {
    type Item = Duration;

    fn next(&mut self) -> Option<Self::Item> {
        let cap = self.policy.max_delay;
        let sleep = if self.policy.jitter {
            let lo = self.policy.base_delay.min(cap).as_nanos() as u64;
            let hi = self
                .prev
                .saturating_mul(3)
                .min(cap)
                .as_nanos()
                .max(lo as u128) as u64;
            Duration::from_nanos(self.rng.gen_range(lo..=hi))
        } else {
            self.prev
        };
        self.prev = if self.policy.jitter {
            sleep
        } else {
            (self.prev * 2).min(cap)
        };
        Some(sleep)
    }
}

/// Runs `op` until it succeeds, it fails permanently, or `policy` attempts
/// are exhausted; sleeps a jittered, bounded backoff between transient
/// failures (see [`BackoffSchedule`]). `op` receives the 0-based attempt
/// number (so a retry can rehydrate/rebuild before trying again).
pub fn with_backoff<T, E, F>(policy: &RetryPolicy, op: F) -> Result<T, E>
where
    E: Transient,
    F: FnMut(u32) -> Result<T, E>,
{
    with_backoff_sleeping(policy, fresh_seed(), std::thread::sleep, op)
}

/// [`with_backoff`] with the seed and sleep function injected — the
/// deterministic core, used directly by tests that must observe the sleep
/// sequence instead of paying it.
pub fn with_backoff_sleeping<T, E, F, S>(
    policy: &RetryPolicy,
    seed: u64,
    mut sleep: S,
    mut op: F,
) -> Result<T, E>
where
    E: Transient,
    F: FnMut(u32) -> Result<T, E>,
    S: FnMut(Duration),
{
    let attempts = policy.max_attempts.max(1);
    let mut schedule = BackoffSchedule::new(policy, seed);
    let mut attempt = 0;
    loop {
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) => {
                attempt += 1;
                if attempt >= attempts || !e.is_transient() {
                    return Err(e);
                }
                let delay = schedule.next().expect("schedule is infinite");
                if !delay.is_zero() {
                    sleep(delay);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Err2 {
        transient: bool,
    }
    impl Transient for Err2 {
        fn is_transient(&self) -> bool {
            self.transient
        }
    }

    fn fast() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter: true,
        }
    }

    #[test]
    fn retries_transient_until_success() {
        let mut calls = 0;
        let out = with_backoff(&fast(), |attempt| {
            calls += 1;
            if attempt < 2 {
                Err(Err2 { transient: true })
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out, Ok(2));
        assert_eq!(calls, 3);
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let mut calls = 0;
        let out: Result<(), _> = with_backoff(&fast(), |_| {
            calls += 1;
            Err(Err2 { transient: false })
        });
        assert_eq!(out, Err(Err2 { transient: false }));
        assert_eq!(calls, 1);
    }

    #[test]
    fn attempts_are_bounded() {
        let mut calls = 0;
        let out: Result<(), _> = with_backoff(&fast(), |_| {
            calls += 1;
            Err(Err2 { transient: true })
        });
        assert!(out.is_err());
        assert_eq!(calls, 4);
    }

    #[test]
    fn unjittered_schedule_doubles_to_the_cap() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_micros(700),
            jitter: false,
        };
        let sleeps: Vec<_> = BackoffSchedule::new(&policy, 0).take(5).collect();
        assert_eq!(sleeps, [100, 200, 400, 700, 700].map(Duration::from_micros));
    }

    #[test]
    fn jittered_sleeps_stay_within_policy_bounds() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_micros(50),
            max_delay: Duration::from_millis(2),
            jitter: true,
        };
        for seed in 0..32u64 {
            let mut prev = policy.base_delay;
            for sleep in BackoffSchedule::new(&policy, seed).take(16) {
                assert!(sleep >= policy.base_delay, "sleep below base: {sleep:?}");
                assert!(sleep <= policy.max_delay, "sleep above cap: {sleep:?}");
                assert!(
                    sleep <= prev.saturating_mul(3).min(policy.max_delay),
                    "sleep {sleep:?} beyond 3× previous {prev:?}"
                );
                prev = sleep;
            }
        }
    }

    /// The thundering-herd regression: N retriers that fail on the same
    /// event must not sleep identical schedules. Simulate N concurrent
    /// `with_backoff` loops (each draws its seed from the global well, as
    /// the real entry point does) and check every pair of schedules
    /// diverges — and does so already at the first sleep for most pairs.
    #[test]
    fn concurrent_schedules_decorrelate() {
        let policy = RetryPolicy {
            max_attempts: 9,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_millis(10),
            jitter: true,
        };
        const HERD: usize = 16;
        let mut schedules: Vec<Vec<Duration>> = Vec::new();
        for _ in 0..HERD {
            let mut sleeps = Vec::new();
            let out: Result<(), _> = with_backoff_sleeping(
                &policy,
                fresh_seed(),
                |d| sleeps.push(d),
                |_| Err(Err2 { transient: true }),
            );
            assert!(out.is_err());
            assert_eq!(sleeps.len(), policy.max_attempts as usize - 1);
            schedules.push(sleeps);
        }
        let mut identical_pairs = 0;
        let mut first_sleep_collisions = 0;
        for i in 0..HERD {
            for j in (i + 1)..HERD {
                if schedules[i] == schedules[j] {
                    identical_pairs += 1;
                }
                if schedules[i][0] == schedules[j][0] {
                    first_sleep_collisions += 1;
                }
            }
        }
        assert_eq!(identical_pairs, 0, "two retriers slept in lockstep");
        // 120 pairs drawing the first sleep from ~200 distinct values:
        // a handful of collisions is expected, systematic ones are the bug.
        assert!(
            first_sleep_collisions < 10,
            "first sleeps collide too often: {first_sleep_collisions}/120"
        );
    }

    /// Same herd through the real threaded entry point: spawn the retriers
    /// on OS threads so the seed well is actually contended.
    #[test]
    fn threaded_retriers_draw_distinct_seeds() {
        let handles: Vec<_> = (0..8).map(|_| std::thread::spawn(fresh_seed)).collect();
        let mut seeds: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8, "seed well handed out a duplicate");
    }
}
