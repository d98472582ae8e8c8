#![deny(missing_docs)]

//! # rae-faults — deterministic failpoints, budgets, and retry policy
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
//! 2. **Budgets** ([`Budget`]): a deadline / memory / cancellation envelope
//!    threaded through index builds and the ranked-union duplicate
//!    discovery and fences. Breaching it is
//!    a structured [`BudgetExceeded`] — never an OOM or a hang — and where a
//!    cheaper path exists the engine degrades instead of failing
//!    (recorded via [`degrade`]).
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
//! `serve/apply`, `serve/publish`, `serve/fold`.

mod budget;
pub mod degrade;
mod failpoint;
pub mod retry;

pub use budget::{Breach, Budget, BudgetExceeded};
pub use failpoint::{active_seed, eval, eval_error, FaultKind};
pub use retry::{BackoffSchedule, RetryPolicy, Transient};

#[cfg(feature = "failpoints")]
pub use failpoint::{
    fired, hit_count, install, FaultGuard, FaultSchedule, FaultSpec, FiredFault, Trigger, ALL_SITES,
};
