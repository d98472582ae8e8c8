//! Index invalidation across dictionary generations: stale detection on
//! every checked entry point, correct rebuilds with **reused scratch**, and
//! differential checks (CqIndex / McUcqIndex / UcqShuffle vs. the naive
//! evaluator) across drop/re-ingest + sweep cycles.
//!
//! Every test may advance the process-wide dictionary generation, so the
//! file serializes behind one mutex (own process; other binaries are
//! unaffected).

use rae_core::{AccessScratch, BuildOptions, CoreError, CqIndex, McUcqIndex, UcqShuffle};
use rae_data::{dict, Database, Relation, Schema, Value};
use rae_query::{naive_eval, naive_eval_union, UnionQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn edge_rel(prefix: &str, edges: &[(i64, i64)]) -> Relation {
    Relation::from_rows(
        Schema::new(["a", "b"]).unwrap(),
        edges.iter().map(|&(u, v)| {
            vec![
                Value::str(format!("{prefix}{u}")),
                Value::str(format!("{prefix}{v}")),
            ]
        }),
    )
    .unwrap()
}

fn two_rel_db(prefix: &str, r: &[(i64, i64)], s: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.add_relation("R", edge_rel(prefix, r)).unwrap();
    db.add_relation("S", edge_rel(prefix, s)).unwrap();
    db
}

const R0: &[(i64, i64)] = &[(1, 10), (2, 10), (3, 11), (4, 12), (5, 12)];
const S0: &[(i64, i64)] = &[(10, 7), (10, 8), (11, 7), (12, 9)];
const R1: &[(i64, i64)] = &[(6, 13), (7, 13), (8, 14)];
const S1: &[(i64, i64)] = &[(13, 5), (14, 5), (14, 6)];

#[test]
fn sweep_invalidates_index_and_rebuild_reuses_scratch() {
    let _guard = serialized();
    let cq = rae_query::parser::parse_cq("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let mut db = two_rel_db("gl-a-", R0, S0);
    let mut scratch = AccessScratch::new();

    let idx = CqIndex::build(&cq, &db).unwrap();
    let built_at = idx.generation();
    let expected = naive_eval(&cq, &db).unwrap();
    assert_eq!(idx.count() as usize, expected.len());
    for j in 0..idx.count() {
        let ans = idx.try_access_into(j, &mut scratch).unwrap().unwrap();
        assert!(expected.contains_row(ans));
    }

    // Drop + re-ingest a fresh cohort, then sweep.
    db.remove_relation("R").unwrap();
    db.remove_relation("S").unwrap();
    db.add_relation("R", edge_rel("gl-a2-", R1)).unwrap();
    db.add_relation("S", edge_rel("gl-a2-", S1)).unwrap();
    let generation = db.advance_generation().unwrap();
    assert!(generation > built_at);

    // Every checked entry point reports stale, with both generations.
    assert!(!idx.is_current());
    match idx.try_access(0) {
        Err(CoreError::StaleGeneration { built, current }) => {
            assert_eq!(built, built_at);
            assert_eq!(current, generation);
        }
        other => panic!("expected StaleGeneration, got {other:?}"),
    }
    assert!(matches!(
        idx.try_access_into(0, &mut scratch),
        Err(CoreError::StaleGeneration { .. })
    ));
    assert!(matches!(
        idx.try_inverted_access(&[]),
        Err(CoreError::StaleGeneration { .. })
    ));

    // Rebuild over the new cohort; the SAME scratch keeps working and the
    // answers match naive evaluation of the new instance.
    let fresh = CqIndex::build(&cq, &db).unwrap();
    assert_eq!(fresh.generation(), generation);
    let expected = naive_eval(&cq, &db).unwrap();
    assert_eq!(fresh.count() as usize, expected.len());
    for j in 0..fresh.count() {
        let borrowed = fresh
            .try_access_into(j, &mut scratch)
            .unwrap()
            .unwrap()
            .to_vec();
        assert!(expected.contains_row(&borrowed));
        assert_eq!(fresh.inverted_access(&borrowed), Some(j));
        assert_eq!(fresh.access(j).unwrap(), borrowed, "scratch vs allocating");
    }
}

#[test]
fn from_parts_refuses_stale_pre_encoded_relations() {
    let _guard = serialized();
    let cq = rae_query::parser::parse_cq("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let db = two_rel_db("gl-b-", R0, S0);
    // A reduced full join carries pre-encoded node relations (this is the
    // path the mc-UCQ builder feeds with intersected relations).
    let fj = rae_yannakakis::reduce_to_full_acyclic(&cq, &db).unwrap();
    // An outside sweep stales those mirrors before the index is built.
    dict::advance_generation(std::iter::empty());
    assert!(matches!(
        CqIndex::from_parts_with(fj.plan, fj.relations, fj.head, BuildOptions::default()),
        Err(CoreError::StaleGeneration { .. })
    ));

    // `CqIndex::build`, by contrast, re-encodes values during instantiation
    // and therefore produces a *current* index even from a stale database —
    // stale codes never flow into the lookup tables.
    let idx = CqIndex::build(&cq, &db).unwrap();
    assert!(idx.is_current());
    let expected = naive_eval(&cq, &db).unwrap();
    assert_eq!(idx.count() as usize, expected.len());
}

#[test]
fn mc_ucq_differential_across_generations() {
    let _guard = serialized();
    let mut db = two_rel_db("gl-c-", R0, S0);
    db.derive_selection("R", "R_sel", |row| {
        row[0].as_str().is_some_and(|s| !s.ends_with('2'))
    })
    .unwrap();
    let u: UnionQuery = "Q1(x, y) :- R(x, y). Q2(x, y) :- R_sel(x, y)."
        .parse()
        .unwrap();

    let check = |db: &Database| {
        let mc = McUcqIndex::build(&u, db).unwrap();
        let expected = naive_eval_union(&u, db).unwrap();
        assert_eq!(mc.count() as usize, expected.len());
        let mut got: Vec<Vec<Value>> = mc.enumerate().collect();
        got.sort();
        got.dedup();
        assert_eq!(got.len() as u128, mc.count(), "mc-UCQ emitted duplicates");
        for ans in &got {
            assert!(expected.contains_row(ans));
        }
        // UcqShuffle over the same union: a permutation of the same set.
        let shuffled: Vec<Vec<Value>> = UcqShuffle::build(&u, db, StdRng::seed_from_u64(5))
            .unwrap()
            .collect();
        let mut sorted = shuffled.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), expected.len());
        assert_eq!(shuffled.len(), expected.len());
    };
    check(&db);

    // Drop/re-ingest R with a fresh cohort, refresh the selection, sweep.
    db.remove_relation("R").unwrap();
    db.remove_relation("R_sel").unwrap();
    db.add_relation("R", edge_rel("gl-c2-", R1)).unwrap();
    db.derive_selection("R", "R_sel", |row| {
        row[0].as_str().is_some_and(|s| !s.ends_with('7'))
    })
    .unwrap();
    db.advance_generation().unwrap();
    check(&db);
}

#[test]
fn unchecked_hot_path_is_still_coherent_for_current_indexes() {
    let _guard = serialized();
    // The unchecked methods skip the generation probe; for a current index
    // they must agree with the checked ones (the zero-alloc contract keeps
    // the probe off the steady-state path).
    let cq = rae_query::parser::parse_cq("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let mut db = two_rel_db("gl-d-", R0, S0);
    db.advance_generation().unwrap();
    let idx = CqIndex::build(&cq, &db).unwrap();
    let mut scratch = AccessScratch::new();
    for j in 0..idx.count() {
        let checked = idx.try_access(j).unwrap().unwrap();
        let unchecked = idx.access_into(j, &mut scratch).unwrap();
        assert_eq!(checked.as_slice(), unchecked);
    }
}
