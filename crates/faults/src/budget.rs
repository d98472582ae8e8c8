//! Resource budgets: deadline, memory envelope, and cooperative cancellation.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A resource envelope threaded through index builds and the ranked-union
/// duplicate discovery and fences. All three limits are optional; the
/// default budget is unlimited and every check on it is a pair of `Option`
/// tests.
///
/// Budgets are checked *cooperatively* at phase boundaries and chunked row
/// intervals — breaching one returns a structured [`BudgetExceeded`] naming
/// the phase, never an OOM kill or a hang. Memory accounting is by artifact
/// size estimates (the index's own tables), not allocator hooks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget<'a> {
    deadline: Option<Instant>,
    mem_bytes: Option<usize>,
    cancel: Option<&'a AtomicBool>,
}

impl Budget<'static> {
    /// The no-limit budget: every check passes.
    pub const fn unlimited() -> Self {
        Budget {
            deadline: None,
            mem_bytes: None,
            cancel: None,
        }
    }
}

impl<'a> Budget<'a> {
    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Sets a deadline `d` from now.
    pub fn with_deadline_in(self, d: Duration) -> Self {
        self.with_deadline(Instant::now() + d)
    }

    /// Caps estimated working-set bytes (scratch + artifact tables).
    pub fn with_mem_bytes(mut self, bytes: usize) -> Self {
        self.mem_bytes = Some(bytes);
        self
    }

    /// Attaches a cooperative cancellation flag; setting it makes the next
    /// check fail with [`Breach::Cancelled`].
    pub fn with_cancel(mut self, flag: &'a AtomicBool) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// True when no limit is set (every check is trivially satisfied).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.mem_bytes.is_none() && self.cancel.is_none()
    }

    /// The memory cap, if any.
    pub fn mem_limit(&self) -> Option<usize> {
        self.mem_bytes
    }

    /// True when `spent` estimated bytes still fit the memory cap. Used for
    /// degradation decisions (e.g. radix→comparison sort) where a cheaper
    /// path exists and failing would be premature.
    #[inline]
    pub fn mem_allows(&self, spent: usize) -> bool {
        match self.mem_bytes {
            Some(limit) => spent <= limit,
            None => true,
        }
    }

    /// Checks deadline and cancellation, tagging a breach with `phase`.
    #[inline]
    pub fn check(&self, phase: &'static str) -> Result<(), BudgetExceeded> {
        if let Some(flag) = self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(BudgetExceeded {
                    phase,
                    breach: Breach::Cancelled,
                });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(BudgetExceeded {
                    phase,
                    breach: Breach::Deadline,
                });
            }
        }
        Ok(())
    }

    /// [`Budget::check`] plus the memory cap against `spent` estimated bytes.
    #[inline]
    pub fn check_mem(&self, phase: &'static str, spent: usize) -> Result<(), BudgetExceeded> {
        self.check(phase)?;
        match self.mem_bytes {
            Some(limit) if spent > limit => Err(BudgetExceeded {
                phase,
                breach: Breach::Memory { spent, limit },
            }),
            _ => Ok(()),
        }
    }
}

/// Which limit of a [`Budget`] was breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Breach {
    /// The deadline passed.
    Deadline,
    /// The cancellation flag was set.
    Cancelled,
    /// Estimated working-set bytes exceeded the cap.
    Memory {
        /// Estimated bytes at the check.
        spent: usize,
        /// The configured cap.
        limit: usize,
    },
}

/// A budget breach, tagged with the phase that observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The phase that observed the breach (e.g. `"build/weights"`).
    pub phase: &'static str,
    /// Which limit was breached.
    pub breach: Breach,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.breach {
            Breach::Deadline => write!(f, "budget deadline exceeded in phase {}", self.phase),
            Breach::Cancelled => write!(f, "cancelled in phase {}", self.phase),
            Breach::Memory { spent, limit } => write!(
                f,
                "memory budget exceeded in phase {}: ~{spent} bytes estimated, limit {limit}",
                self.phase
            ),
        }
    }
}

impl std::error::Error for BudgetExceeded {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_passes_everything() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check("p").is_ok());
        assert!(b.check_mem("p", usize::MAX).is_ok());
        assert!(b.mem_allows(usize::MAX));
    }

    #[test]
    fn cancellation_flag_trips_the_next_check() {
        let flag = AtomicBool::new(false);
        let b = Budget::default().with_cancel(&flag);
        assert!(b.check("build/sort").is_ok());
        flag.store(true, Ordering::Relaxed);
        let err = b.check("build/sort").unwrap_err();
        assert_eq!(err.breach, Breach::Cancelled);
        assert_eq!(err.phase, "build/sort");
    }

    #[test]
    fn expired_deadline_breaches_with_phase() {
        let b = Budget::default().with_deadline(Instant::now() - Duration::from_millis(1));
        let err = b.check("build/weights").unwrap_err();
        assert_eq!(err.breach, Breach::Deadline);
        assert!(err.to_string().contains("build/weights"));
    }

    #[test]
    fn memory_cap_reports_spent_and_limit() {
        let b = Budget::default().with_mem_bytes(1_000);
        assert!(b.check_mem("p", 1_000).is_ok());
        assert!(b.mem_allows(1_000));
        assert!(!b.mem_allows(1_001));
        match b.check_mem("p", 4_096).unwrap_err().breach {
            Breach::Memory { spent, limit } => {
                assert_eq!((spent, limit), (4_096, 1_000));
            }
            other => panic!("expected Memory breach, got {other:?}"),
        }
    }
}
