//! Named fault-injection sites with seeded, replayable schedules.
//!
//! The design follows the `fail`-crate idiom: the [`fail_point!`] macro is
//! defined twice in *this* crate, selected by the `failpoints` feature at
//! `rae-faults` compile time. Because `cfg` on a macro definition resolves
//! in the defining crate, consuming crates never need the feature in their
//! own `[features]` table — enabling `rae-faults/failpoints` anywhere in the
//! build graph arms every instrumented site at once, and leaving it off
//! expands every site to nothing.

/// How a fired fault manifests at the instrumented site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The site's error handler runs (second macro argument), surfacing a
    /// structured error (or a domain-appropriate degradation, e.g. a
    /// rejected sampler attempt). At sites without a handler this behaves
    /// like [`FaultKind::Panic`].
    Error,
    /// The site panics, exercising the `catch_unwind` boundaries and lock
    /// poisoning recovery.
    Panic,
}

/// Injects a fault at a named site when the active [`FaultSchedule`]
/// (feature `failpoints`) says so; expands to nothing otherwise.
///
/// Two forms:
///
/// ```ignore
/// // Panic-only site (no error channel at this point in the code):
/// fail_point!("dict/sweep");
/// // Site with an error channel: the closure's return value becomes the
/// // enclosing function's return value when an Error-kind fault fires.
/// fail_point!("dict/intern", |site| Err(DataError::FaultInjected { site }));
/// ```
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        if $crate::eval($site).is_some() {
            ::std::panic!("injected fault at failpoint `{}`", $site);
        }
    };
    ($site:expr, $handler:expr) => {
        if let Some(kind) = $crate::eval($site) {
            match kind {
                $crate::FaultKind::Panic => {
                    ::std::panic!("injected fault at failpoint `{}`", $site)
                }
                $crate::FaultKind::Error => {
                    #[allow(clippy::redundant_closure_call)]
                    return ($handler)($site);
                }
            }
        }
    };
}

/// Inert expansion: the `failpoints` feature is off, so every site
/// disappears at macro-expansion time.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {};
    ($site:expr, $handler:expr) => {};
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    use super::FaultKind;

    /// Inert probe: no schedule machinery is compiled in.
    #[inline(always)]
    pub fn eval(_site: &'static str) -> Option<FaultKind> {
        None
    }

    /// Inert probe for non-`return` degradation decisions.
    #[inline(always)]
    pub fn eval_error(_site: &'static str) -> bool {
        false
    }

    /// Inert probe: no schedule, hence no seed.
    #[inline(always)]
    pub fn active_seed() -> Option<u64> {
        None
    }
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::FaultKind;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, PoisonError};

    /// When a spec decides that a hit of its site fails.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Trigger {
        /// Fire on exactly the `n`th hit of the site (0-based), once.
        Nth(u64),
        /// Fire each hit independently with probability `p`, decided
        /// deterministically from `hash(seed, site, hit)`.
        Probability(f64),
        /// Fire on every hit.
        Always,
    }

    /// One scheduled fault: a site, when it fires, and how.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FaultSpec {
        /// The failpoint site name (exact match).
        pub site: String,
        /// When the site fires.
        pub trigger: Trigger,
        /// How the fired fault manifests.
        pub kind: FaultKind,
    }

    /// A seeded, replayable set of [`FaultSpec`]s.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct FaultSchedule {
        /// Seed mixed into every probabilistic trigger decision.
        pub seed: u64,
        specs: Vec<FaultSpec>,
    }

    /// The instrumented sites of the workspace, in one place so chaos
    /// schedules can cover all of them without enumerating by hand.
    pub const ALL_SITES: &[&str] = &[
        "dict/intern",
        "dict/shard_write",
        "dict/sweep",
        "relation/rehydrate",
        "sort/scratch",
        "build/spawn",
        "build/node",
        "build/weights",
        "yannakakis/reduce",
        "ranked/leapfrog",
        "sampler/attempt",
        "serve/apply",
        "serve/publish",
        "serve/fold",
        "store/write",
        "store/fsync",
        "store/torn",
        "build/weighted_blocks",
        "build/union_fences",
    ];

    impl FaultSchedule {
        /// An empty schedule under `seed`.
        pub fn new(seed: u64) -> Self {
            FaultSchedule {
                seed,
                specs: Vec::new(),
            }
        }

        /// Adds "fail the `n`th hit (0-based) of `site` with `kind`".
        pub fn nth_hit(mut self, site: &str, n: u64, kind: FaultKind) -> Self {
            self.specs.push(FaultSpec {
                site: site.to_owned(),
                trigger: Trigger::Nth(n),
                kind,
            });
            self
        }

        /// Adds "fail each hit of `site` with probability `p` under the
        /// schedule seed, with `kind`".
        pub fn probability(mut self, site: &str, p: f64, kind: FaultKind) -> Self {
            self.specs.push(FaultSpec {
                site: site.to_owned(),
                trigger: Trigger::Probability(p),
                kind,
            });
            self
        }

        /// Adds "fail every hit of `site` with `kind`".
        pub fn always(mut self, site: &str, kind: FaultKind) -> Self {
            self.specs.push(FaultSpec {
                site: site.to_owned(),
                trigger: Trigger::Always,
                kind,
            });
            self
        }

        /// A mixed chaos schedule over every instrumented site: each site
        /// fails with probability `p` per hit; whether a fired fault errors
        /// or panics is itself derived from the seed (per site), so a single
        /// `u64` replays the entire run.
        pub fn chaos(seed: u64, p: f64) -> Self {
            let mut s = FaultSchedule::new(seed);
            for (i, site) in ALL_SITES.iter().enumerate() {
                let kind = if mix(seed, i as u64 ^ 0xC0FF_EE00, 0) & 1 == 0 {
                    FaultKind::Error
                } else {
                    FaultKind::Panic
                };
                s = s.probability(site, p, kind);
            }
            s
        }

        fn decide(&self, site: &'static str, hit: u64) -> Option<FaultKind> {
            for (i, spec) in self.specs.iter().enumerate() {
                if spec.site != site {
                    continue;
                }
                let fires = match spec.trigger {
                    Trigger::Nth(n) => hit == n,
                    Trigger::Always => true,
                    Trigger::Probability(p) => {
                        let r = mix(self.seed ^ (i as u64) << 32, site_hash(site), hit);
                        (r as f64 / u64::MAX as f64) < p
                    }
                };
                if fires {
                    return Some(spec.kind);
                }
            }
            None
        }
    }

    /// A fault that actually fired, for witness logs and replay triage.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FiredFault {
        /// The site that fired.
        pub site: &'static str,
        /// Which hit of the site fired (0-based).
        pub hit: u64,
        /// How it manifested.
        pub kind: FaultKind,
    }

    struct Active {
        schedule: FaultSchedule,
        hits: HashMap<&'static str, u64>,
        fired: Vec<FiredFault>,
    }

    static ARMED: AtomicBool = AtomicBool::new(false);
    static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);

    fn lock() -> std::sync::MutexGuard<'static, Option<Active>> {
        // The registry mutex is only held across bookkeeping (never across a
        // panic we inject — those fire after the guard drops), but recover
        // from poisoning anyway so one broken chaos test can't wedge the rest.
        ACTIVE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// SplitMix64 over (seed, site, hit): the deterministic coin behind
    /// probabilistic triggers and chaos kind selection.
    fn mix(seed: u64, site: u64, hit: u64) -> u64 {
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(site.rotate_left(17))
            .wrapping_add(hit.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn site_hash(site: &str) -> u64 {
        // FNV-1a; stable across runs and platforms.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in site.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Installs `schedule` as the process-wide active schedule, replacing
    /// any previous one, and returns a guard that deactivates it on drop.
    ///
    /// Chaos tests serialize behind their own mutex (schedules are global),
    /// matching the pattern of the lifecycle suites.
    pub fn install(schedule: FaultSchedule) -> FaultGuard {
        let mut g = lock();
        *g = Some(Active {
            schedule,
            hits: HashMap::new(),
            fired: Vec::new(),
        });
        ARMED.store(true, Ordering::SeqCst);
        FaultGuard { _priv: () }
    }

    /// Deactivates fault injection and clears hit counters.
    fn deactivate() {
        ARMED.store(false, Ordering::SeqCst);
        *lock() = None;
    }

    /// Clears the active schedule when dropped.
    #[must_use = "dropping the guard deactivates the schedule immediately"]
    pub struct FaultGuard {
        _priv: (),
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            deactivate();
        }
    }

    /// The log of faults that fired under the current schedule.
    pub fn fired() -> Vec<FiredFault> {
        lock().as_ref().map(|a| a.fired.clone()).unwrap_or_default()
    }

    /// How many times `site` has been hit under the current schedule.
    pub fn hit_count(site: &str) -> u64 {
        lock()
            .as_ref()
            .and_then(|a| a.hits.get(site).copied())
            .unwrap_or(0)
    }

    /// Records a hit of `site` and returns the fault to inject, if any.
    /// This is the macro's entry point; call it directly only from probes
    /// that cannot use `return`-based handlers (see `eval_error`).
    #[inline]
    pub fn eval(site: &'static str) -> Option<FaultKind> {
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
        let mut g = lock();
        let active = g.as_mut()?;
        let hit = {
            let h = active.hits.entry(site).or_insert(0);
            let hit = *h;
            *h += 1;
            hit
        };
        let kind = active.schedule.decide(site, hit)?;
        active.fired.push(FiredFault { site, hit, kind });
        Some(kind)
    }

    /// The seed of the currently installed schedule, if any. Sites whose
    /// fault *shape* is parameterized (e.g. the seeded truncation offset of
    /// `store/torn`) derive their parameters from this so a single `u64`
    /// still replays the entire run.
    pub fn active_seed() -> Option<u64> {
        lock().as_ref().map(|a| a.schedule.seed)
    }

    /// Direct probe for degradation decisions made mid-expression (where the
    /// macro's `return`-based handler does not fit): returns `true` when an
    /// Error-kind fault fires, panics on a Panic-kind fault.
    #[inline]
    pub fn eval_error(site: &'static str) -> bool {
        match eval(site) {
            None => false,
            Some(FaultKind::Error) => true,
            Some(FaultKind::Panic) => panic!("injected fault at failpoint `{site}`"),
        }
    }
}

pub use imp::{active_seed, eval, eval_error};

#[cfg(feature = "failpoints")]
pub use imp::{
    fired, hit_count, install, FaultGuard, FaultSchedule, FaultSpec, FiredFault, Trigger,
};

#[cfg(feature = "failpoints")]
pub use imp::ALL_SITES;

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Schedules are process-global; serialize the tests that install them.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn nth_hit_fires_exactly_once() {
        let _s = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _g = install(FaultSchedule::new(1).nth_hit("dict/intern", 2, FaultKind::Error));
        assert_eq!(eval("dict/intern"), None);
        assert_eq!(eval("dict/intern"), None);
        assert_eq!(eval("dict/intern"), Some(FaultKind::Error));
        assert_eq!(eval("dict/intern"), None);
        assert_eq!(hit_count("dict/intern"), 4);
        let log = fired();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].hit, 2);
    }

    #[test]
    fn probability_is_replayable_from_the_seed() {
        let _s = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let run = |seed: u64| -> Vec<u64> {
            let _g = install(FaultSchedule::new(seed).probability(
                "sort/scratch",
                0.3,
                FaultKind::Error,
            ));
            for _ in 0..200 {
                let _ = eval("sort/scratch");
            }
            fired().iter().map(|f| f.hit).collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must replay the same fault sequence");
        assert!(!a.is_empty(), "p=0.3 over 200 hits should fire");
        assert!(a.len() < 200, "p=0.3 must not fire on every hit");
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn guard_drop_disarms() {
        let _s = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        {
            let _g = install(FaultSchedule::new(3).always("build/spawn", FaultKind::Error));
            assert_eq!(eval("build/spawn"), Some(FaultKind::Error));
        }
        assert_eq!(eval("build/spawn"), None);
    }

    #[test]
    fn eval_error_reports_error_kind() {
        let _s = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _g = install(FaultSchedule::new(3).always("build/spawn", FaultKind::Error));
        assert!(eval_error("build/spawn"));
        drop(_g);
        assert!(!eval_error("build/spawn"));
    }

    #[test]
    fn chaos_schedule_covers_every_site() {
        let _s = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _g = install(FaultSchedule::chaos(11, 1.0));
        for site in ALL_SITES {
            // p = 1.0: every site must fire on its first hit.
            let leaked: &'static str = Box::leak(site.to_string().into_boxed_str());
            assert!(eval(leaked).is_some(), "site {site} did not fire");
        }
    }
}
