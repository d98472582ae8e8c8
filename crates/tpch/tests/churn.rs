//! Churn lifecycle integration: drop/re-ingest cycles must keep dictionary
//! memory bounded, keep per-cycle indexes correct, and stale out old ones.
//!
//! Every test here advances the process-wide dictionary generation, so the
//! whole file serializes behind one mutex (this binary is its own process;
//! other test binaries are unaffected).

use rae_core::CqIndex;
use rae_data::{dict, Value};
use rae_tpch::churn::{
    drop_and_reclaim, ingest_cycle, run_churn, ChurnConfig, CHURN_QUERY, CHURN_RELATIONS,
};
use rae_tpch::TpchScale;
use std::sync::{Mutex, MutexGuard};

fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small_cfg(cycles: usize) -> ChurnConfig {
    ChurnConfig {
        cycles,
        orders_per_cycle: 300,
        seed: 7,
        threads: 4,
    }
}

#[test]
fn dictionary_memory_is_bounded_across_ten_plus_cycles() {
    let _guard = serialized();
    let cfg = small_cfg(11);
    let mut db = rae_tpch::churn::base_database(&TpchScale::tiny(), 7);
    let stats = run_churn(&mut db, &cfg).unwrap();
    assert_eq!(stats.len(), 11);

    // Generations advance once per cycle.
    for pair in stats.windows(2) {
        assert_eq!(pair[1].generation, pair[0].generation + 1);
    }
    // Boundedness: after the free lists warm up (cycle 1), the slot
    // high-water mark must plateau — later cycles reuse reclaimed codes
    // instead of minting fresh ones.
    let warm = stats[1].allocated_slots;
    let last = stats.last().unwrap().allocated_slots;
    assert!(
        last < warm + warm / 2,
        "slot high-water mark kept growing: warm {warm}, final {last}"
    );
    // Meanwhile every cycle really did ingest a fresh cohort.
    let total_rows: usize = stats.iter().map(|s| s.rows_ingested).sum();
    assert!(total_rows > 11 * cfg.orders_per_cycle);
    // Live values stay near one cohort, far below the cumulative count.
    let live = stats.last().unwrap().live_values;
    assert!(
        live < 2 * warm,
        "live values {live} should stay near one cohort ({warm} slots)"
    );
}

#[test]
fn per_cycle_index_matches_naive_evaluation() {
    let _guard = serialized();
    let cfg = small_cfg(4);
    let mut db = rae_tpch::churn::base_database(&TpchScale::tiny(), 13);
    let query = CHURN_QUERY.parse().unwrap();
    for cycle in 0..cfg.cycles {
        drop_and_reclaim(&mut db).unwrap();
        ingest_cycle(&mut db, cycle, &cfg).unwrap();
        let idx = CqIndex::build(&query, &db).unwrap();
        let expected = rae_query::naive_eval(&query, &db).unwrap();
        assert_eq!(idx.count() as usize, expected.len(), "cycle {cycle}");
        for j in 0..idx.count().min(200) {
            let ans = idx.access(j).unwrap();
            assert!(expected.contains_row(&ans), "cycle {cycle}, answer {j}");
            assert_eq!(idx.inverted_access(&ans), Some(j));
        }
    }
}

#[test]
fn sweep_leaves_the_previous_cycle_index_answering() {
    let _guard = serialized();
    let cfg = small_cfg(2);
    let mut db = rae_tpch::churn::base_database(&TpchScale::tiny(), 21);
    let query = CHURN_QUERY.parse().unwrap();

    drop_and_reclaim(&mut db).unwrap();
    ingest_cycle(&mut db, 0, &cfg).unwrap();
    let old = CqIndex::build(&query, &db).unwrap();
    let answers: Vec<Vec<Value>> = old.enumerate().take(200).collect();
    assert!(!answers.is_empty());

    // Next cycle: drop + sweep + fresh cohort. The sweep recycles the
    // dropped cohort's codes, which the old index never holds: it keeps
    // serving its own cycle's answers at the same ranks.
    drop_and_reclaim(&mut db).unwrap();
    ingest_cycle(&mut db, 1, &cfg).unwrap();
    for (j, answer) in answers.iter().enumerate() {
        assert_eq!(old.access(j as u128).as_ref(), Some(answer));
        assert_eq!(old.inverted_access(answer), Some(j as u128));
    }
    // The rebuilt index over the new cohort is non-trivial.
    let fresh = CqIndex::build(&query, &db).unwrap();
    assert!(fresh.access(0).is_some());
}

#[test]
fn dropped_cohort_values_leave_the_dictionary() {
    let _guard = serialized();
    let cfg = small_cfg(2);
    let mut db = rae_tpch::churn::base_database(&TpchScale::tiny(), 33);
    drop_and_reclaim(&mut db).unwrap();
    ingest_cycle(&mut db, 0, &cfg).unwrap();
    // A value from cohort 0 (orderkey stride 1e9).
    let cohort0_value = db.relation(CHURN_RELATIONS[0]).unwrap().row(0)[0].clone();
    assert!(dict::code_of(&cohort0_value).is_some());

    drop_and_reclaim(&mut db).unwrap();
    assert_eq!(
        dict::code_of(&cohort0_value),
        None,
        "dropped cohort value should be swept"
    );
}
