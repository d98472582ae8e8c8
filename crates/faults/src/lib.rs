#![deny(missing_docs)]

//! # rae-faults — deterministic failpoints, degradation, and retry policy
//!
//! The robustness substrate of the workspace, in three parts:
//!
//! 1. **Failpoints** ([`fail_point!`]): named fault-injection sites compiled
//!    into the hot paths of `rae-data`/`rae-core`/`rae-yannakakis`/
//!    `rae-sampler`. Without the `failpoints` feature the macro expands to
//!    nothing, so a disarmed site costs nothing. With the feature, a seeded
//!    `FaultSchedule` decides deterministically which hit of which site
//!    fails and how ([`FaultKind::Error`] or [`FaultKind::Panic`]), so every
//!    chaos run is replayable from its seed.
//! 2. **Degradation** ([`degrade`]): where a cheaper path exists, the
//!    engine takes it instead of failing (radix → comparison sort when the
//!    `sort/scratch` site denies scratch, serial build when `build/spawn`
//!    denies threads, per-member merge past the `ranked/leapfrog` cost cap)
//!    and records the event, so chaos tests can observe it.
//! 3. **Retry** ([`retry`]): every workspace error classifies itself as
//!    transient or permanent ([`Transient`]), and
//!    [`retry::with_backoff`] drives the canonical
//!    stale-generation → rehydrate → rebuild loop.
//!
//! ## Failpoint naming convention
//!
//! Sites are `"<area>/<operation>"`, lower-case, stable across releases:
//! `dict/intern`, `dict/shard_write`, `dict/sweep`, `relation/rehydrate`,
//! `sort/scratch`, `build/spawn`, `build/node`, `build/weights`,
//! `yannakakis/reduce`, `ranked/leapfrog`, `sampler/attempt`,
//! `serve/apply`, `serve/publish`, `serve/fold`, `store/write`,
//! `store/fsync`, `store/torn`, `build/weighted_blocks`,
//! `build/union_fences`.

pub mod degrade;
mod failpoint;
pub mod retry;

pub use failpoint::{active_seed, eval, eval_error, FaultKind};
pub use retry::{BackoffSchedule, RetryPolicy, Transient};

#[cfg(feature = "failpoints")]
pub use failpoint::{
    fired, hit_count, install, FaultGuard, FaultSchedule, FaultSpec, FiredFault, Trigger, ALL_SITES,
};
