//! Budget enforcement for long enumerations and shuffles.
//!
//! Preprocessing checks its [`Budget`] at phase
//! boundaries, but an enumeration or random-permutation scan can run for
//! `|Q(D)|` steps with no natural boundary. [`Budgeted`] wraps any such
//! iterator and probes the budget between items: the stream yields
//! `Ok(item)` until a breach, then exactly one
//! `Err(CoreError::BudgetExceeded)` and fuses.
//!
//! The probe cadence is **adaptive** ([`ProbeCadence::Adaptive`], the
//! default): the adapter measures the wall time between consecutive probes
//! and rescales the probe interval toward a fixed latency target, clamped
//! to `1..=`[`CHECK_INTERVAL`] items. Cheap streams (an in-memory
//! enumeration yields in tens of nanoseconds) converge to a probe every 64
//! answers — two clock/atomic reads amortized over 64 items, preserving the
//! constant-delay guarantee — while expensive streams (a `RankedUcq` access
//! can make O(log s) probes of m rank descents each per item) converge to a
//! probe per item, bounding
//! cancellation latency by roughly one item instead of 64. A fixed cadence
//! probed every 64th item regardless, so cancelling a ranked drain could
//! take 64 × the per-item cost to surface.
//!
//! ```
//! use rae_core::{Budgeted, CoreError};
//! use rae_faults::Budget;
//! use std::sync::atomic::{AtomicBool, Ordering};
//!
//! let cancel = AtomicBool::new(false);
//! let budget = Budget::unlimited().with_cancel(&cancel);
//! let mut stream = Budgeted::new(0..1_000_000u32, &budget, "enumerate");
//! assert_eq!(stream.next(), Some(Ok(0)));
//! cancel.store(true, Ordering::Relaxed);
//! // The breach surfaces within one probe interval, then the stream ends.
//! assert!(stream.any(|r| matches!(r, Err(CoreError::BudgetExceeded(_)))));
//! ```

use crate::error::CoreError;
use rae_faults::Budget;
use std::time::{Duration, Instant};

/// The widest allowed gap between two budget probes, in items. Adaptive
/// cadence never exceeds it, so even a mis-measured stream breaches within
/// 64 items, as before the cadence became adaptive.
pub const CHECK_INTERVAL: u64 = 64;

/// Wall-time the adaptive cadence aims to keep between budget probes.
/// Well under any deadline a caller plausibly sets, and ~1000× the cost of
/// the probe itself, so metering overhead stays negligible.
const ADAPTIVE_TARGET: Duration = Duration::from_micros(50);

/// How often [`Budgeted`] probes its budget between items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeCadence {
    /// Rescale the probe interval so consecutive probes land roughly
    /// `target` apart in wall time, clamped to `1..=`[`CHECK_INTERVAL`]
    /// items (and at most doubling per adjustment, to damp oscillation).
    Adaptive {
        /// Desired wall-time between probes.
        target: Duration,
    },
    /// Probe before every item: minimal cancellation latency, one clock
    /// read per item. For streams known to be expensive per item (ranked
    /// union access).
    EveryItem,
    /// Probe every `n` items (clamped to `1..=`[`CHECK_INTERVAL`]), no
    /// clock feedback — the pre-adaptive behavior, for tests and perfectly
    /// uniform streams.
    Fixed(u64),
}

impl Default for ProbeCadence {
    fn default() -> Self {
        ProbeCadence::Adaptive {
            target: ADAPTIVE_TARGET,
        }
    }
}

/// An iterator adapter that enforces a [`Budget`] over a long-running
/// enumeration or shuffle (see the [module docs](self)).
#[derive(Debug)]
pub struct Budgeted<'b, I> {
    inner: I,
    budget: Budget<'b>,
    phase: &'static str,
    cadence: ProbeCadence,
    /// Items until the next probe (0 ⇒ probe now).
    until_probe: u64,
    /// Current adaptive interval in items.
    interval: u64,
    last_probe: Option<Instant>,
    breached: bool,
}

impl<'b, I> Budgeted<'b, I> {
    /// Wraps `inner`, probing `budget` at the default adaptive cadence and
    /// tagging any breach with `phase` (e.g. `"enumerate"`, `"shuffle"`).
    /// The first item is always probed, so a pre-breached budget fails
    /// before any work.
    pub fn new(inner: I, budget: &Budget<'b>, phase: &'static str) -> Self {
        Budgeted::with_cadence(inner, budget, phase, ProbeCadence::default())
    }

    /// [`Budgeted::new`] with an explicit [`ProbeCadence`].
    pub fn with_cadence(
        inner: I,
        budget: &Budget<'b>,
        phase: &'static str,
        cadence: ProbeCadence,
    ) -> Self {
        let interval = match cadence {
            ProbeCadence::EveryItem => 1,
            // Adaptive starts tight and relaxes as cheap items are
            // observed: the first items of an expensive stream are already
            // covered, and a cheap stream reaches CHECK_INTERVAL within a
            // handful of doublings.
            ProbeCadence::Adaptive { .. } => 1,
            ProbeCadence::Fixed(n) => n.clamp(1, CHECK_INTERVAL),
        };
        Budgeted {
            inner,
            budget: *budget,
            phase,
            cadence,
            until_probe: 0,
            interval,
            last_probe: None,
            breached: false,
        }
    }

    /// Consumes the adapter, returning the underlying iterator (e.g. to
    /// continue unmetered after a scoped budget ends).
    pub fn into_inner(self) -> I {
        self.inner
    }

    /// Probes the budget and, under adaptive cadence, rescales the probe
    /// interval toward the latency target.
    fn probe(&mut self) -> Result<(), CoreError> {
        if let ProbeCadence::Adaptive { target } = self.cadence {
            let now = Instant::now();
            if let Some(last) = self.last_probe {
                let elapsed = now.duration_since(last);
                let ideal = if elapsed.is_zero() {
                    // Too fast to measure: open up as quickly as damping
                    // allows.
                    CHECK_INTERVAL
                } else {
                    let scaled = (self.interval as u128).saturating_mul(target.as_nanos())
                        / elapsed.as_nanos();
                    u64::try_from(scaled).unwrap_or(CHECK_INTERVAL)
                };
                // Clamp growth to 2× per adjustment; shrinking can jump
                // straight down (an expensive item must tighten the cadence
                // immediately).
                self.interval = ideal.min(self.interval * 2).clamp(1, CHECK_INTERVAL);
            }
            self.last_probe = Some(now);
        }
        self.until_probe = self.interval;
        self.budget
            .check(self.phase)
            .map_err(CoreError::BudgetExceeded)
    }
}

impl<I: Iterator> Iterator for Budgeted<'_, I> {
    type Item = Result<I::Item, CoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.breached {
            return None;
        }
        if self.until_probe == 0 {
            if let Err(e) = self.probe() {
                self.breached = true;
                return Some(Err(e));
            }
        }
        match self.inner.next() {
            Some(item) => {
                self.until_probe -= 1;
                Some(Ok(item))
            }
            None => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.breached {
            return (0, Some(0));
        }
        let (lo, hi) = self.inner.size_hint();
        // A breach can cut the stream short and adds one Err item.
        (0, hi.and_then(|h| h.checked_add(1)).or(Some(lo + 1)).or(hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_faults::Breach;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn unlimited_budget_is_transparent() {
        let budget = Budget::unlimited();
        let items: Vec<u32> = Budgeted::new(0..200u32, &budget, "enumerate")
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(items, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_surfaces_within_one_interval_and_fuses() {
        let cancel = AtomicBool::new(false);
        let budget = Budget::unlimited().with_cancel(&cancel);
        let mut stream = Budgeted::new(0..10_000u32, &budget, "shuffle");
        for _ in 0..10 {
            assert!(stream.next().unwrap().is_ok());
        }
        cancel.store(true, Ordering::Relaxed);
        let mut seen_err = 0usize;
        let mut oks_after_cancel = 0usize;
        for r in stream.by_ref() {
            match r {
                Ok(_) => oks_after_cancel += 1,
                Err(CoreError::BudgetExceeded(b)) => {
                    assert_eq!(b.breach, Breach::Cancelled);
                    seen_err += 1;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert_eq!(seen_err, 1, "exactly one structured breach");
        assert!(
            oks_after_cancel < CHECK_INTERVAL as usize,
            "breach must surface within one check interval"
        );
        assert_eq!(stream.next(), None, "stream fuses after the breach");
    }

    #[test]
    fn expired_deadline_fails_before_any_item() {
        let budget = Budget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        let mut stream = Budgeted::new(0..10u32, &budget, "enumerate");
        assert!(matches!(
            stream.next(),
            Some(Err(CoreError::BudgetExceeded(_)))
        ));
        assert_eq!(stream.next(), None);
    }

    #[test]
    fn fixed_cadence_is_clamped_and_probes_on_schedule() {
        let cancel = AtomicBool::new(false);
        let budget = Budget::unlimited().with_cancel(&cancel);
        let mut stream = Budgeted::with_cadence(
            0..1_000u32,
            &budget,
            "enumerate",
            ProbeCadence::Fixed(u64::MAX),
        );
        for _ in 0..3 {
            assert!(stream.next().unwrap().is_ok());
        }
        cancel.store(true, Ordering::Relaxed);
        let oks = stream.by_ref().take_while(|r| r.is_ok()).count();
        assert!(
            oks < CHECK_INTERVAL as usize,
            "Fixed cadence must clamp to CHECK_INTERVAL, saw {oks} items"
        );
    }

    #[test]
    fn every_item_cadence_cancels_immediately() {
        let cancel = AtomicBool::new(false);
        let budget = Budget::unlimited().with_cancel(&cancel);
        let mut stream =
            Budgeted::with_cadence(0..1_000u32, &budget, "access", ProbeCadence::EveryItem);
        assert!(stream.next().unwrap().is_ok());
        cancel.store(true, Ordering::Relaxed);
        assert!(
            matches!(stream.next(), Some(Err(CoreError::BudgetExceeded(_)))),
            "per-item cadence must surface the breach before the next item"
        );
    }

    /// The cancellation-latency regression: with ~1ms items, the fixed
    /// 64-item cadence took ≥ 50ms of wasted work to notice a cancel.
    /// Adaptive cadence must tighten to (near) per-item probing and
    /// surface the breach after a handful of items.
    #[test]
    fn adaptive_cadence_bounds_cancel_latency_for_expensive_items() {
        let cancel = AtomicBool::new(false);
        let budget = Budget::unlimited().with_cancel(&cancel);
        let slow = (0..10_000u32).inspect(|_| {
            std::thread::sleep(Duration::from_millis(1));
        });
        let mut stream = Budgeted::new(slow, &budget, "ranked/access");
        for _ in 0..5 {
            assert!(stream.next().unwrap().is_ok());
        }
        cancel.store(true, Ordering::Relaxed);
        let mut oks_after_cancel = 0usize;
        for r in stream.by_ref() {
            match r {
                Ok(_) => oks_after_cancel += 1,
                Err(CoreError::BudgetExceeded(b)) => {
                    assert_eq!(b.breach, Breach::Cancelled);
                    break;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        // Each item costs ~1ms ≫ the 50µs target, so the interval must have
        // collapsed to 1 by the time the cancel lands; allow a little slack
        // for the probe that was already scheduled.
        assert!(
            oks_after_cancel <= 2,
            "cancel took {oks_after_cancel} expensive items to surface"
        );
    }

    /// Cheap items must relax the cadence back toward CHECK_INTERVAL —
    /// adaptivity may not turn every enumeration into probe-per-item.
    #[test]
    fn adaptive_cadence_relaxes_for_cheap_items() {
        let budget = Budget::unlimited();
        let mut stream = Budgeted::new(0..2_000_000u32, &budget, "enumerate");
        for _ in 0..1_000_000 {
            assert!(stream.next().unwrap().is_ok());
        }
        assert!(
            stream.interval > CHECK_INTERVAL / 2,
            "cheap stream stuck at a tight probe interval ({})",
            stream.interval
        );
    }
}
