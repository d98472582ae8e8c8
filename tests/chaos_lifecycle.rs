//! Chaos lifecycle harness: the PR-2 churn workload and the ordered/union
//! query mixes, executed under seeded fault schedules (`rae-faults`).
//!
//! Invariants checked per seed:
//!
//! 1. **Structured errors only** — every failure observed across the public
//!    API is a structured workspace error; build entry points never unwind
//!    (panics convert to `BuildPanicked` at the catch boundary). The only
//!    places the harness tolerates an unwind are ingest/compaction paths
//!    whose panic-form failpoint (`dict/shard_write`) models a genuinely
//!    crashing mutator — and those must leave the dictionary recoverable
//!    (poison recovery) and the database unchanged.
//! 2. **Post-retry identical artifacts** — once a build eventually succeeds
//!    under chaos, every artifact it exposes equals a fault-free build over
//!    the same database state, including runs where the build silently
//!    degraded (radix→comparison sort, parallel→serial).
//! 3. **No stale answers** — answers after recovery match naive evaluation
//!    of the current database.
//! 4. **Zero-alloc steady state after recovery** — the access hot path is
//!    still allocation-free once the chaos guard drops.
//!
//! Each test serializes behind one mutex: fault schedules are
//! process-global. Seeds come from `CHAOS_SEEDS`
//! (comma-separated) so CI can widen the sweep without editing the test.
#![cfg(feature = "failpoints")]

use rae::prelude::*;
use rae_faults::{install, FaultKind, FaultSchedule};
use rae_tpch::churn::{self, ChurnConfig, CHURN_QUERY};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

#[path = "support/alloc_counter.rs"]
mod alloc_counter;
#[path = "support/artifacts.rs"]
mod artifacts;
use alloc_counter::{count_allocations, CountingAllocator};
use artifacts::assert_identical_artifacts;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Silences panic backtraces while injected Panic-kind faults fire; restores
/// the previous hook on drop.
#[allow(deprecated)] // PanicInfo is the only hook type namable on older toolchains
struct QuietPanics {
    #[allow(clippy::type_complexity)] // std::panic::take_hook's exact return type
    prev: Option<Box<dyn Fn(&std::panic::PanicInfo<'_>) + Sync + Send>>,
}

impl QuietPanics {
    fn new() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        // `set_hook` panics on a panicking thread, which would turn a
        // failing test into an abort of the whole binary.
        if std::thread::panicking() {
            return;
        }
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// Seeds for the chaos sweep: `CHAOS_SEEDS="1,2,3"` overrides the default
/// quartet (the CI chaos job passes 8, the nightly sweep 64).
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![11, 42, 1337, 0xC0FFEE],
    }
}

/// What one chaotic attempt of an operation produced.
enum Attempt<T> {
    Done(T),
    /// A structured error; the payload is (description, is_transient).
    Failed(String, bool),
}

/// Drives `op` until it succeeds, asserting every structured failure along
/// the way is transient (under fault injection nothing permanent may be
/// reported). An unwinding attempt — a Panic-kind fault at a site without
/// an error channel, the supervisor's restart case — also counts as
/// retryable.
fn persist<T>(what: &str, mut op: impl FnMut() -> Attempt<T>) -> T {
    for _ in 0..256 {
        match catch_unwind(AssertUnwindSafe(&mut op)) {
            Ok(Attempt::Done(v)) => return v,
            Ok(Attempt::Failed(desc, transient)) => {
                assert!(
                    transient,
                    "{what}: non-transient structured error under injected faults: {desc}"
                );
            }
            Err(_) => {}
        }
    }
    panic!("{what} did not converge within 256 chaotic attempts");
}

fn data_attempt<T>(r: Result<T, rae_data::DataError>) -> Attempt<T> {
    match r {
        Ok(v) => Attempt::Done(v),
        Err(e) => {
            let transient = e.is_transient();
            Attempt::Failed(e.to_string(), transient)
        }
    }
}

fn core_attempt<T>(r: Result<T, rae_core::CoreError>) -> Attempt<T> {
    match r {
        Ok(v) => Attempt::Done(v),
        Err(e) => {
            let transient = e.is_transient();
            Attempt::Failed(e.to_string(), transient)
        }
    }
}

fn serve_attempt<T>(r: Result<T, ServeError>) -> Attempt<T> {
    match r {
        Ok(v) => Attempt::Done(v),
        Err(e) => {
            let transient = e.is_transient();
            Attempt::Failed(e.to_string(), transient)
        }
    }
}

fn churn_config(seed: u64) -> ChurnConfig {
    ChurnConfig {
        cycles: 3,
        orders_per_cycle: 64,
        seed,
        threads: 2,
    }
}

/// The full churn lifecycle (drop → compact → ingest → build → query) under a
/// mixed Error/Panic chaos schedule, one run per seed. Checks invariants
/// 1–4 of the module docs.
#[test]
fn chaos_churn_lifecycle_recovers_with_identical_artifacts() {
    let _s = serial();
    let q: ConjunctiveQuery = CHURN_QUERY.parse().unwrap();
    let mut total_fired = 0usize;

    for seed in chaos_seeds() {
        let _quiet = QuietPanics::new();
        let cfg = churn_config(seed);
        let mut db = Database::new();
        // Per-hit probability low enough that ingest (hundreds of intern
        // hits per attempt) converges fast, high enough that faults fire.
        let guard = install(FaultSchedule::chaos(seed, 0.002));

        let mut chaotic_index: Option<CqIndex> = None;
        for cycle in 0..cfg.cycles {
            persist("drop_and_reclaim", || {
                data_attempt(churn::drop_and_reclaim(&mut db))
            });
            persist("ingest_cycle", || {
                data_attempt(churn::ingest_cycle(&mut db, cycle, &cfg))
            });
            // Builds must never unwind: no catch_unwind here — a panic
            // escaping `CqIndex::build` fails the whole test (invariant 1).
            let idx = persist("CqIndex::build", || core_attempt(CqIndex::build(&q, &db)));
            chaotic_index = Some(idx);
        }
        total_fired += rae_faults::fired().len();
        drop(guard);

        // Invariant 2: the eventually-successful chaotic build is
        // artifact-identical to a fault-free build of the same state.
        let idx = chaotic_index.unwrap();
        let clean = CqIndex::build(&q, &db).unwrap();
        assert_identical_artifacts(&format!("seed {seed}: post-retry build"), &clean, &idx);

        // Invariant 3: no stale answers — the chaotic index agrees with
        // naive evaluation of the database as it stands now.
        let expected = naive_eval(&q, &db).unwrap();
        assert_eq!(idx.count(), expected.len() as u128, "seed {seed}");
        for row in expected.rows() {
            assert!(
                idx.inverted_access(row).is_some(),
                "seed {seed}: answer {row:?} missing after recovery"
            );
        }

        // Invariant 4: zero-alloc steady state after recovery.
        let mut scratch = AccessScratch::new();
        idx.access_into(0, &mut scratch).unwrap(); // warm-up
        let n = idx.count();
        let ((), allocs) = count_allocations(|| {
            for j in 0..n.min(512) {
                std::hint::black_box(idx.access_into(j, &mut scratch).unwrap());
            }
        });
        assert_eq!(
            allocs, 0,
            "seed {seed}: access hot path must stay allocation-free after chaos"
        );
    }
    assert!(
        total_fired > 0,
        "the chaos schedules never fired a single fault — the sweep is vacuous"
    );
}

/// Every build entry point forced to fail — by an Error fault and by a
/// Panic fault at `build/node` — must return the structured error from its
/// catch boundary and leave the `Database` and its dictionary observably
/// unchanged (the same dictionary, its value count, relation contents), and
/// a retry after disarming must succeed.
#[test]
fn mid_build_fault_leaves_database_and_dict_unchanged() {
    let _s = serial();
    let _quiet = QuietPanics::new();
    let q: ConjunctiveQuery = CHURN_QUERY.parse().unwrap();
    // The churn query twice under two names: one shared join-tree template,
    // so both union builders accept it.
    let union: UnionQuery = format!("{CHURN_QUERY}. Q2{}.", &CHURN_QUERY[1..])
        .parse()
        .unwrap();
    let order = q.head().to_vec();
    let mut weights = VarWeights::new();
    weights.set("o", Value::Int(1), 7);
    let cfg = churn_config(7);
    let mut db = Database::new();
    churn::ingest_cycle(&mut db, 0, &cfg).unwrap();
    let fj = reduce_to_full_acyclic(&q, &db).unwrap();

    type Builder<'a> = Box<dyn Fn(&Database) -> rae_core::Result<Weight> + 'a>;
    let builders: Vec<(&str, Builder<'_>)> = vec![
        (
            "CqIndex::build",
            Box::new(|db| CqIndex::build(&q, db).map(|i| i.count())),
        ),
        (
            "CqIndex::from_parts_with",
            Box::new(|_| {
                let (plan, rels, head) = (fj.plan.clone(), fj.relations.clone(), fj.head.clone());
                CqIndex::from_parts_with(plan, rels, head, rae_core::BuildOptions::default())
                    .map(|i| i.count())
            }),
        ),
        (
            "OrderedCqIndex::build",
            Box::new(|db| OrderedCqIndex::build(&q, db, &order).map(|i| i.count())),
        ),
        (
            "WeightedCqIndex::build",
            Box::new(|db| WeightedCqIndex::build(&q, db, &order, &weights).map(|i| i.count())),
        ),
        (
            "RankedUcq::build",
            Box::new(|db| RankedUcq::build(&union, db, &order).map(|i| i.count())),
        ),
        (
            "McUcqIndex::build",
            Box::new(|db| McUcqIndex::build(&union, db).map(|i| i.count())),
        ),
    ];

    for (name, build) in &builders {
        for kind in [FaultKind::Error, FaultKind::Panic] {
            let snapshot = (
                std::sync::Arc::as_ptr(db.dictionary()),
                db.dictionary().len(),
                db.relation("churn_orders").unwrap().len(),
                db.relation("churn_lineitem").unwrap().len(),
            );
            let _g = install(FaultSchedule::new(1).always("build/node", kind));
            let err = build(&db).expect_err("the forced fault must fail the build");
            match (kind, &err) {
                (FaultKind::Error, rae_core::CoreError::FaultInjected { site }) => {
                    assert_eq!(*site, "build/node", "{name}");
                }
                (FaultKind::Panic, rae_core::CoreError::BuildPanicked { .. }) => {}
                other => panic!("{name}: unexpected error shape for {kind:?}: {other:?}"),
            }
            assert!(
                err.is_transient(),
                "{name}: forced-fault build errors are retryable"
            );
            let after = (
                std::sync::Arc::as_ptr(db.dictionary()),
                db.dictionary().len(),
                db.relation("churn_orders").unwrap().len(),
                db.relation("churn_lineitem").unwrap().len(),
            );
            assert_eq!(
                snapshot, after,
                "{name}, {kind:?}: a failed build must not disturb the database or dictionary"
            );
        }

        // Disarmed retry succeeds — the canonical with_backoff use.
        let count =
            rae_faults::retry::with_backoff(&rae_faults::retry::RetryPolicy::default(), |_| {
                build(&db)
            })
            .unwrap();
        assert!(count > 0, "{name}");
    }
}

/// Faults in the phases that run after the member indexes are built —
/// `WeightedCqIndex`'s block directory (`build/weighted_blocks`) and
/// `RankedUcq`'s duplicate discovery and fences (`build/union_fences`) —
/// fire outside every inner `CqIndex` boundary, so only the builders' own
/// outer `catch_build` turns a Panic into `BuildPanicked`. A disarmed
/// retry succeeds.
#[test]
fn faults_after_the_member_builds_are_caught_by_the_outer_boundary() {
    let _s = serial();
    let _quiet = QuietPanics::new();
    let q: ConjunctiveQuery = CHURN_QUERY.parse().unwrap();
    let union: UnionQuery = format!("{CHURN_QUERY}. Q2{}.", &CHURN_QUERY[1..])
        .parse()
        .unwrap();
    let order = q.head().to_vec();
    let mut weights = VarWeights::new();
    weights.set("o", Value::Int(1), 7);
    let mut db = Database::new();
    churn::ingest_cycle(&mut db, 0, &churn_config(9)).unwrap();
    let members: Vec<std::sync::Arc<OrderedCqIndex>> = union
        .disjuncts()
        .iter()
        .map(|d| std::sync::Arc::new(OrderedCqIndex::build(d, &db, &order).unwrap()))
        .collect();

    type Builder<'a> = Box<dyn Fn() -> rae_core::Result<Weight> + 'a>;
    let cases: Vec<(&str, &str, Builder<'_>)> = vec![
        (
            "build/weighted_blocks",
            "WeightedCqIndex::build",
            Box::new(|| WeightedCqIndex::build(&q, &db, &order, &weights).map(|i| i.count())),
        ),
        (
            "build/union_fences",
            "RankedUcq::build",
            Box::new(|| RankedUcq::build(&union, &db, &order).map(|i| i.count())),
        ),
        (
            "build/union_fences",
            "RankedUcq::from_shared_members",
            Box::new(|| RankedUcq::from_shared_members(members.clone()).map(|i| i.count())),
        ),
    ];
    for (site, name, build) in &cases {
        for kind in [FaultKind::Error, FaultKind::Panic] {
            let _g = install(FaultSchedule::new(10).always(site, kind));
            let err = build().expect_err("the forced fault must fail the build");
            match (kind, &err) {
                (FaultKind::Error, rae_core::CoreError::FaultInjected { site: fired }) => {
                    assert_eq!(fired, site, "{name}");
                }
                (FaultKind::Panic, rae_core::CoreError::BuildPanicked { .. }) => {}
                other => panic!("{name}: unexpected error shape for {kind:?}: {other:?}"),
            }
            assert!(err.is_transient(), "{name}");
            assert!(
                rae_faults::fired().iter().any(|f| f.site == *site),
                "{name}: {site} never fired"
            );
        }
        assert!(build().unwrap() > 0, "{name}: disarmed retry");
    }
}

/// With `with_backoff` driving retries *while the schedule stays armed*, a
/// first-hit fault (fail the 0th hit of `build/node`) is absorbed: attempt
/// zero fails with a transient error, attempt one succeeds.
/// An index build over a reduction's output runs no second reduction: with
/// `yannakakis/reduce` armed only after `reduce_to_full_acyclic` returns,
/// `CqIndex::from_parts_with` on the witnessed relations succeeds, while the
/// same relations without their witness reach the failpoint. Deterministic:
/// the schedule fires on every hit.
#[test]
fn witnessed_build_skips_the_second_reduction() {
    let _s = serial();
    let q: ConjunctiveQuery = CHURN_QUERY.parse().unwrap();
    let mut db = Database::new();
    churn::ingest_cycle(&mut db, 0, &churn_config(5)).unwrap();
    let expected = naive_eval(&q, &db).unwrap();
    let fj = reduce_to_full_acyclic(&q, &db).unwrap();
    let mut unwitnessed = fj.relations.clone();
    for rel in &mut unwitnessed {
        rel.clear_consistency_witness();
    }
    let options = rae_core::BuildOptions::default();

    let guard = install(FaultSchedule::new(1).always("yannakakis/reduce", FaultKind::Error));
    let built = CqIndex::from_parts_with(fj.plan.clone(), fj.relations, fj.head.clone(), options);
    let refused = CqIndex::from_parts_with(fj.plan, unwitnessed, fj.head, options);
    drop(guard);

    let idx = built.expect("witnessed relations must not be reduced again");
    match refused {
        Err(rae_core::CoreError::Query(rae_query::QueryError::Data(
            rae_data::DataError::FaultInjected { site },
        ))) => assert_eq!(site, "yannakakis/reduce"),
        other => panic!("unwitnessed relations must be reduced: {other:?}"),
    }
    assert!(idx.count() > 0);
    assert_eq!(idx.count() as usize, expected.len());
    let mut answers: Vec<Vec<Value>> = (0..idx.count())
        .map(|j| idx.access(j).expect("in range"))
        .collect();
    assert!(answers.iter().all(|a| expected.contains_row(a)));
    answers.sort();
    answers.dedup();
    assert_eq!(answers.len(), expected.len(), "answers are distinct");
}

#[test]
fn with_backoff_absorbs_first_hit_faults() {
    let _s = serial();
    let _quiet = QuietPanics::new();
    let q: ConjunctiveQuery = CHURN_QUERY.parse().unwrap();
    let mut db = Database::new();
    churn::ingest_cycle(&mut db, 0, &churn_config(9)).unwrap();

    for kind in [FaultKind::Error, FaultKind::Panic] {
        let _g = install(FaultSchedule::new(2).nth_hit("build/node", 0, kind));
        let idx =
            rae_faults::retry::with_backoff(&rae_faults::retry::RetryPolicy::default(), |_| {
                CqIndex::build(&q, &db)
            })
            .unwrap_or_else(|e| panic!("{kind:?}: retry should have absorbed the fault: {e}"));
        assert!(idx.count() > 0);
        let fired = rae_faults::fired();
        assert_eq!(
            fired.len(),
            1,
            "{kind:?}: exactly the scheduled fault fires"
        );
        assert_eq!(fired[0].site, "build/node");
    }
}

/// A panicking interner poisons its shard lock pre-mutation; the next
/// intern of the same shard must recover the guard and succeed with a
/// correct mapping (satellite: shard-lock poisoning fix).
#[test]
fn shard_lock_poisoning_recovers() {
    let _s = serial();
    let _quiet = QuietPanics::new();
    let dict = rae_data::Dictionary::new();
    let probe = Value::str("chaos-poison-probe");
    {
        let _g = install(FaultSchedule::new(3).always("dict/shard_write", FaultKind::Panic));
        let unwound = catch_unwind(AssertUnwindSafe(|| dict.intern(&probe))).is_err();
        assert!(unwound, "the shard-write fault must panic inside intern");
    }
    assert!(dict.is_empty(), "the panic fired before any insert");
    // Disarmed: the poisoned shard must serve reads and writes again.
    let code = dict.intern(&probe).expect("poisoned shard must recover");
    assert_eq!(dict.code_of(&probe), Some(code));
    let again = dict.intern(&probe).unwrap();
    assert_eq!(
        code, again,
        "recovered shard must keep a consistent mapping"
    );
}

/// Forced degradations (radix→comparison sort, parallel→serial build) must
/// be observable in the degrade counters and *artifact-invisible*: the
/// degraded build's artifacts equal the unfaulted one's.
#[test]
fn forced_degradations_are_artifact_invisible() {
    let _s = serial();
    let _quiet = QuietPanics::new();
    let q: ConjunctiveQuery = CHURN_QUERY.parse().unwrap();
    let mut db = Database::new();
    churn::ingest_cycle(&mut db, 0, &churn_config(21)).unwrap();
    let clean = CqIndex::build(&q, &db).unwrap();

    rae_faults::degrade::reset();
    {
        let _g = install(
            FaultSchedule::new(5)
                .always("sort/scratch", FaultKind::Error)
                .always("build/spawn", FaultKind::Error),
        );
        let degraded = CqIndex::build(&q, &db).unwrap();
        assert_identical_artifacts("degraded build", &clean, &degraded);
    }
    assert!(
        rae_faults::degrade::count("sort/scratch") > 0,
        "the sort degradation must be recorded"
    );
}

/// Error-kind faults on the union rank structure's leapfrog walk force the
/// per-member merge fallback; the answers must be unchanged.
#[test]
fn leapfrog_degradation_preserves_union_answers() {
    let _s = serial();
    let _quiet = QuietPanics::new();
    let mut db = Database::new();
    let rel = |rows: &[[i64; 2]]| {
        Relation::from_rows(
            Schema::new(["a", "b"]).unwrap(),
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect()),
        )
        .unwrap()
    };
    let shared: Vec<[i64; 2]> = (0..60).map(|i| [i, i % 5]).collect();
    let mut r_rows = shared.clone();
    r_rows.push([100, 0]);
    let mut s_rows = shared;
    s_rows.push([200, 1]);
    db.add_relation("R", rel(&r_rows)).unwrap();
    db.add_relation("S", rel(&s_rows)).unwrap();
    let u: UnionQuery = "Q1(x, y) :- R(x, y). Q2(x, y) :- S(x, y).".parse().unwrap();
    let order = [Symbol::new("x"), Symbol::new("y")];

    let baseline = RankedUcq::build(&u, &db, &order).unwrap();
    let expected: Vec<Vec<Value>> = baseline.enumerate().collect();

    rae_faults::degrade::reset();
    let _g = install(FaultSchedule::new(6).always("ranked/leapfrog", FaultKind::Error));
    let degraded = RankedUcq::build(&u, &db, &order).unwrap();
    assert!(
        rae_faults::degrade::count("ranked/leapfrog") > 0,
        "the forced merge fallback must be recorded"
    );
    assert_eq!(degraded.count(), baseline.count());
    let got: Vec<Vec<Value>> = degraded.enumerate().collect();
    assert_eq!(got, expected, "merge fallback must not change any answer");
}

/// The concurrent serving lifecycle under chaos: a `ServeWriter` drives
/// apply/publish/fold rounds with a seeded fault schedule armed while
/// reader threads hammer the published snapshots. Invariants:
///
/// * every structured writer failure is **transient** (the `persist`
///   driver panics on any permanent error under injection);
/// * readers never observe a **torn snapshot** — per refreshed snapshot
///   the access↔inverted-access bijection holds at probe ranks, and the
///   publication epoch is monotone per reader;
/// * after the schedule disarms, the chaotically-published overlay
///   snapshot and a clean fold both digest identically to a fault-free
///   fold-and-rebuild oracle over the same logical rows — retried
///   commits/folds are idempotent, so chaos may cost time but never
///   answers.
#[test]
fn chaos_concurrent_serving_recovers_digest_identical() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let _s = serial();
    let q: ConjunctiveQuery = CHURN_QUERY.parse().unwrap();
    let order: Vec<Symbol> = ["o", "t", "p"].into_iter().map(Symbol::new).collect();
    let mut total_fired = 0usize;

    for seed in chaos_seeds() {
        let _quiet = QuietPanics::new();
        // Fault-free base: one churn cohort.
        let mut db = Database::new();
        churn::ingest_cycle(&mut db, 0, &churn_config(seed)).unwrap();
        let (mut w, idx) =
            ServeWriter::new(q.clone(), &db, &order, AdmissionPolicy::default()).unwrap();
        assert!(
            w.is_delta_overlay(),
            "the churn query is full and self-join-free"
        );

        // Mirror of the logical rows. It advances once per round, before
        // the chaotic commit: retried commits are idempotent set
        // mutations, so however many attempts a round takes, the served
        // state converges to the mirror. Deduped at init — the serving
        // row state is set-semantic, while the churn generator can emit
        // duplicate lineitem rows.
        let dedup = |mut rows: Vec<Vec<Value>>| {
            rows.sort_unstable();
            rows.dedup();
            rows
        };
        let mut orders: Vec<Vec<Value>> = dedup(
            db.relation("churn_orders")
                .unwrap()
                .rows()
                .map(<[Value]>::to_vec)
                .collect(),
        );
        let mut lines: Vec<Vec<Value>> = dedup(
            db.relation("churn_lineitem")
                .unwrap()
                .rows()
                .map(<[Value]>::to_vec)
                .collect(),
        );

        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for r in 0..3 {
            let stop = Arc::clone(&stop);
            let idx = idx.clone();
            readers.push(
                std::thread::Builder::new()
                    .name(format!("chaos-serve-reader-{r}"))
                    .spawn(move || {
                        let mut reader = idx.reader();
                        let mut last_epoch = 0u64;
                        let mut checks = 0usize;
                        while !stop.load(Ordering::Relaxed) {
                            let snap = reader.refresh();
                            let e = snap.epoch();
                            assert!(e >= last_epoch, "publication epochs must be monotone");
                            last_epoch = e;
                            let n = snap.count();
                            for k in [0, n / 2, n.saturating_sub(1)] {
                                if k >= n {
                                    continue;
                                }
                                let row = snap
                                    .ordered_access(k)
                                    .expect("rank below count must resolve");
                                assert_eq!(
                                    snap.ordered_inverted_access(&row),
                                    Some(k),
                                    "torn snapshot: rank {k} does not round-trip"
                                );
                                checks += 1;
                            }
                            std::thread::yield_now();
                        }
                        checks
                    })
                    .unwrap(),
            );
        }

        let guard = install(FaultSchedule::chaos(seed, 0.002));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut fresh = 0i64;
        for round in 0..12usize {
            let mut batch = Batch::new();
            for _ in 0..2 {
                if orders.len() > 8 {
                    let i = rng.gen_range(0..orders.len());
                    batch.delete("churn_orders", orders.swap_remove(i));
                }
                if lines.len() > 8 {
                    let i = rng.gen_range(0..lines.len());
                    batch.delete("churn_lineitem", lines.swap_remove(i));
                }
            }
            for _ in 0..3 {
                fresh += 1;
                let o = Value::Int(7_000_000_000 + fresh);
                let orow = vec![o.clone(), Value::str(format!("chaos-{seed}-{fresh}"))];
                batch.insert("churn_orders", orow.clone());
                orders.push(orow);
                let lrow = vec![o, Value::Int(fresh)];
                batch.insert("churn_lineitem", lrow.clone());
                lines.push(lrow);
            }
            persist("serve commit", || serve_attempt(w.commit(&batch)));
            if round % 5 == 4 {
                persist("serve fold", || serve_attempt(w.fold_now()));
            }
        }
        total_fired += rae_faults::fired().len();
        drop(guard);

        // The last rounds after the final fold left a pending overlay, so
        // the digest comparison below covers base ⊎ delta ∖ T, not just a
        // freshly folded base.
        let chaotic = idx.snapshot();
        assert!(
            chaotic.delta_count() > 0,
            "seed {seed}: the final chaotic snapshot must be serving a live overlay"
        );

        // Fault-free fold-and-rebuild oracle over the mirrored rows.
        let oracle = {
            let mut odb = Database::new();
            odb.add_relation(
                "churn_orders",
                Relation::from_rows(
                    Schema::new(["co_orderkey", "co_custtag"]).unwrap(),
                    orders.iter().cloned(),
                )
                .unwrap(),
            )
            .unwrap();
            odb.add_relation(
                "churn_lineitem",
                Relation::from_rows(
                    Schema::new(["cl_orderkey", "cl_partkey"]).unwrap(),
                    lines.iter().cloned(),
                )
                .unwrap(),
            )
            .unwrap();
            let oidx = OrderedCqIndex::build(&q, &odb, w.order()).unwrap();
            let mut rows: Vec<Vec<Value>> = Vec::new();
            let mut e = oidx.enumerate();
            while let Some(row) = e.next_ref() {
                rows.push(row.to_vec());
            }
            enumeration_digest(rows.iter().map(Vec::as_slice))
        };
        assert_eq!(
            chaotic.digest(),
            oracle,
            "seed {seed}: the chaotically-published overlay must equal the oracle"
        );

        // A clean fold drains the overlay and must serve the identical
        // answer sequence.
        w.fold_now().unwrap();
        let folded = idx.snapshot();
        assert_eq!(
            folded.digest(),
            oracle,
            "seed {seed}: folded snapshot digest"
        );
        assert_eq!(folded.tombstone_count(), 0, "seed {seed}");
        assert_eq!(folded.delta_count(), 0, "seed {seed}");

        stop.store(true, Ordering::Relaxed);
        let mut checks = 0usize;
        for h in readers {
            checks += h
                .join()
                .expect("a reader thread panicked — torn snapshot observed");
        }
        assert!(
            checks > 0,
            "seed {seed}: readers validated no snapshot at all"
        );
    }
    assert!(
        total_fired > 0,
        "the serving chaos sweep never fired a single fault — the sweep is vacuous"
    );
}

/// Injected sampler faults read as rejected attempts: `sample()` still
/// terminates with a correct answer and `attempt_into` faults are `None`,
/// never a panic or a wrong tuple.
#[test]
fn sampler_faults_read_as_rejected_attempts() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let _s = serial();
    let _quiet = QuietPanics::new();
    let q: ConjunctiveQuery = CHURN_QUERY.parse().unwrap();
    let mut db = Database::new();
    churn::ingest_cycle(&mut db, 0, &churn_config(31)).unwrap();
    let idx = CqIndex::build(&q, &db).unwrap();
    let sampler = EwSampler::new(&idx);
    let mut rng = StdRng::seed_from_u64(99);
    let mut scratch = AccessScratch::new();

    let _g = install(FaultSchedule::new(8).probability("sampler/attempt", 0.5, FaultKind::Error));
    let mut rejected = 0usize;
    let mut accepted = 0usize;
    for _ in 0..200 {
        match sampler.attempt_into(&mut rng, &mut scratch) {
            Some(t) => {
                accepted += 1;
                assert!(idx.inverted_access(t).is_some(), "sampled a non-answer");
            }
            None => rejected += 1,
        }
    }
    assert!(rejected > 0, "p=0.5 over 200 attempts must reject some");
    assert!(accepted > 0, "p=0.5 over 200 attempts must accept some");
}
