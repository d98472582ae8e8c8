//! Determinism suite for the level-synchronous parallel build (DESIGN.md
//! §10): for every thread count and sort algorithm, `CqIndex` preprocessing
//! must produce **byte-identical** artifacts — node row orders, weights,
//! startIndexes, buckets, bucket-of-row tables, and child-bucket tables.
//!
//! This is what makes `RAE_BUILD_THREADS` a pure wall-clock knob: answers,
//! enumeration orders, and sampler behavior cannot depend on how the build
//! was scheduled.

use rae::prelude::*;
use rae_core::{BuildOptions, SortAlgorithm};
use rae_tpch::{generate, queries, TpchScale};
use rae_yannakakis::FullAcyclicJoin;

#[path = "support/artifacts.rs"]
mod artifacts;
use artifacts::assert_identical_artifacts;

fn full_join_of(cq: &ConjunctiveQuery, db: &Database) -> FullAcyclicJoin {
    reduce_to_full_acyclic(cq, db).expect("benchmark query reduces")
}

fn build(fj: &FullAcyclicJoin, options: BuildOptions) -> CqIndex {
    CqIndex::from_parts_with(
        fj.plan.clone(),
        fj.relations.clone(),
        fj.head.clone(),
        options,
    )
    .expect("index builds")
}

#[test]
fn thread_counts_produce_byte_identical_indexes() {
    // Large enough that the parallel paths (per-relation fan-out and row
    // chunking) actually engage, per MIN_PARALLEL_TUPLES/MIN_PARALLEL_ROWS.
    let db = generate(&TpchScale::from_sf(0.002), 42);
    for (name, cq) in queries::all_cqs() {
        let fj = full_join_of(&cq, &db);
        let serial = build(&fj, BuildOptions::serial());
        for threads in [2usize, 8] {
            let parallel = build(&fj, BuildOptions::with_threads(threads));
            assert_identical_artifacts(&format!("{name} @ {threads} threads"), &serial, &parallel);
        }
    }
}

#[test]
fn sort_algorithms_produce_byte_identical_indexes() {
    let db = generate(&TpchScale::from_sf(0.002), 42);
    let q3 = queries::q3();
    let fj = full_join_of(&q3, &db);
    let radix = build(
        &fj,
        BuildOptions {
            threads: 1,
            sort: SortAlgorithm::Radix,
        },
    );
    let comparison = build(
        &fj,
        BuildOptions {
            threads: 1,
            sort: SortAlgorithm::Comparison,
        },
    );
    assert_identical_artifacts("q3 radix vs comparison", &radix, &comparison);
    // And the combined case: parallel radix vs serial comparison.
    let parallel_radix = build(
        &fj,
        BuildOptions {
            threads: 8,
            sort: SortAlgorithm::Radix,
        },
    );
    assert_identical_artifacts("q3 parallel radix", &comparison, &parallel_radix);
}

/// The comparison is a gate only if it can fail: two different indexes
/// over one database must not pass as identical.
#[test]
#[should_panic(expected = "q3 vs q0")]
fn artifact_comparison_rejects_a_different_index() {
    let db = generate(&TpchScale::from_sf(0.0005), 42);
    let q3 = full_join_of(&queries::q3(), &db);
    let q0 = full_join_of(&queries::q0(), &db);
    assert_identical_artifacts(
        "q3 vs q0",
        &build(&q3, BuildOptions::serial()),
        &build(&q0, BuildOptions::serial()),
    );
}

#[test]
fn parallel_build_answers_match_serial_enumeration() {
    let db = generate(&TpchScale::from_sf(0.001), 7);
    let q10 = queries::q10();
    let fj = full_join_of(&q10, &db);
    let serial = build(&fj, BuildOptions::serial());
    let parallel = build(&fj, BuildOptions::with_threads(8));
    serial.prepare_inverted_access();
    let n = serial.count();
    assert_eq!(parallel.count(), n);
    let step = (n / 512).max(1);
    let mut j = 0;
    while j < n {
        let a = serial.access(j).expect("in range");
        let b = parallel.access(j).expect("in range");
        assert_eq!(a, b, "answer {j} diverged");
        assert_eq!(serial.inverted_access(&b), Some(j));
        j += step;
    }
}

#[test]
fn build_threads_env_var_controls_default_options() {
    // Serialized within this test: no other test in this binary touches the
    // environment variable.
    std::env::set_var(rae_core::BUILD_THREADS_ENV, "3");
    assert_eq!(BuildOptions::default().resolved_threads(), 3);
    std::env::set_var(rae_core::BUILD_THREADS_ENV, "not-a-number");
    let fallback = BuildOptions::default().resolved_threads();
    assert!(fallback >= 1, "garbage env falls back to a sane default");
    std::env::remove_var(rae_core::BUILD_THREADS_ENV);
    // Explicit thread counts always win over the environment.
    std::env::set_var(rae_core::BUILD_THREADS_ENV, "7");
    assert_eq!(BuildOptions::with_threads(2).resolved_threads(), 2);
    std::env::remove_var(rae_core::BUILD_THREADS_ENV);
}
