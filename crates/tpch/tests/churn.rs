//! Churn lifecycle integration: drop/re-ingest cycles must keep the
//! database's dictionary bounded, keep per-cycle indexes correct, and
//! leave indexes of earlier cycles answering.
//!
//! Each test churns its own database, whose dictionary no other test sees,
//! so the tests run in parallel.

use rae_core::CqIndex;
use rae_data::Value;
use rae_tpch::churn::{
    drop_and_reclaim, ingest_cycle, run_churn, ChurnConfig, CHURN_QUERY, CHURN_RELATIONS,
};
use rae_tpch::TpchScale;

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
    let cfg = small_cfg(11);
    let mut db = rae_tpch::churn::base_database(&TpchScale::tiny(), 7);
    let stats = run_churn(&mut db, &cfg).unwrap();
    assert_eq!(stats.len(), 11);

    // Boundedness: each cycle compacts the dropped cohort away, so the
    // dictionary's high-water mark plateaus after the first cycle instead
    // of growing by a cohort per cycle.
    let first = stats[0].allocated_slots;
    let last = stats.last().unwrap().allocated_slots;
    assert!(
        last < first + first / 2,
        "dictionary high-water mark kept growing: first {first}, final {last}"
    );
    // Meanwhile every cycle really did ingest a fresh cohort.
    let total_rows: usize = stats.iter().map(|s| s.rows_ingested).sum();
    assert!(total_rows > 11 * cfg.orders_per_cycle);
    // The dictionary holds about one cohort plus the dimension tables,
    // far below the values ingested over all cycles.
    let live = stats.last().unwrap().live_values;
    assert_eq!(live, db.dictionary().len());
    assert!(
        live < first + first / 2,
        "live values {live} should stay near one cohort ({first} after cycle 0)"
    );
    let base = rae_tpch::churn::base_database(&TpchScale::tiny(), 7)
        .dictionary()
        .len();
    assert!(stats.iter().all(|s| s.live_values > base));
    let cohorts: usize = stats.iter().map(|s| s.live_values - base).sum();
    assert!(
        (live - base) * 5 < cohorts,
        "the dictionary holds {} cohort values of {cohorts} ingested",
        live - base
    );
}

#[test]
fn per_cycle_index_matches_naive_evaluation() {
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
fn compaction_leaves_the_previous_cycle_index_answering() {
    let cfg = small_cfg(2);
    let mut db = rae_tpch::churn::base_database(&TpchScale::tiny(), 21);
    let query = CHURN_QUERY.parse().unwrap();

    drop_and_reclaim(&mut db).unwrap();
    ingest_cycle(&mut db, 0, &cfg).unwrap();
    let old = CqIndex::build(&query, &db).unwrap();
    let answers: Vec<Vec<Value>> = old.enumerate().take(200).collect();
    assert!(!answers.is_empty());

    // Next cycle: drop + compaction + fresh cohort. The old index holds
    // ranks into its own value table, never dictionary codes: it keeps
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
    let cfg = small_cfg(2);
    let mut db = rae_tpch::churn::base_database(&TpchScale::tiny(), 33);
    drop_and_reclaim(&mut db).unwrap();
    ingest_cycle(&mut db, 0, &cfg).unwrap();
    // A value from cohort 0 (orderkey stride 1e9).
    let cohort0_value = db.relation(CHURN_RELATIONS[0]).unwrap().row(0)[0].clone();
    assert!(db.dictionary().code_of(&cohort0_value).is_some());
    let before = db.dictionary().len();

    drop_and_reclaim(&mut db).unwrap();
    assert_eq!(
        db.dictionary().code_of(&cohort0_value),
        None,
        "dropped cohort value should be compacted away"
    );
    assert!(db.dictionary().len() < before);
}
