//! Graceful-degradation counters.
//!
//! When the engine takes a cheaper fallback instead of failing (radix →
//! comparison sort when sort scratch is denied, parallel → serial build on spawn
//! denial, pairwise leapfrog → per-member merge past its cost cap), it
//! records the event here so chaos tests and operators can observe *that*
//! the degradation happened without the build APIs having to grow
//! degradation fields in their return types.
//!
//! Counters are process-global and cheap to bump; they only move on the
//! (rare) degradation events themselves, never on the fast path.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

static COUNTS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

fn lock() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, u64>> {
    COUNTS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Records one degradation at `site` (same naming convention as failpoints,
/// e.g. `"sort/scratch"`, `"build/spawn"`, `"ranked/leapfrog"`).
pub fn record(site: &'static str) {
    *lock().entry(site).or_insert(0) += 1;
}

/// How many times `site` has degraded since start (or the last [`reset`]).
pub fn count(site: &str) -> u64 {
    lock().get(site).copied().unwrap_or(0)
}

/// Snapshot of all degradation counters.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    lock().iter().map(|(s, c)| (*s, *c)).collect()
}

/// Clears all counters (test isolation).
pub fn reset() {
    lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        assert_eq!(count("sort/scratch"), 0);
        record("sort/scratch");
        record("sort/scratch");
        record("build/spawn");
        assert_eq!(count("sort/scratch"), 2);
        assert_eq!(count("build/spawn"), 1);
        let snap = snapshot();
        assert!(snap.contains(&("sort/scratch", 2)));
        reset();
        assert_eq!(count("sort/scratch"), 0);
    }
}
