//! Indexes across dictionary generations: built and loaded indexes keep
//! answering through sweeps that recycle codes, stale *input* relations
//! are refused by the build, rebuilds reuse scratch, and differential
//! checks (CqIndex / McUcqIndex / UcqShuffle vs. the naive evaluator) hold
//! across drop/re-ingest + sweep cycles.
//!
//! Every test may advance the process-wide dictionary generation, so the
//! file serializes behind one mutex (own process; other binaries are
//! unaffected).

#[path = "support/borrow.rs"]
mod borrow;

use borrow::borrowed_ordered;
use rae_core::{
    AccessScratch, BuildOptions, CoreError, CqIndex, McUcqIndex, OrderedCqIndex, UcqShuffle,
};
use rae_data::{dict, Database, Relation, Schema, Symbol, Value};
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

/// Every access, inverted access and order-prefix range of `ordered`,
/// plus every access of `plain`, as plain values.
type Observed = (Vec<Vec<Value>>, Vec<Option<u128>>, Vec<(u128, u128)>);

fn observe(plain: &CqIndex, ordered: &OrderedCqIndex, scratch: &mut AccessScratch) -> Observed {
    let mut answers = Vec::new();
    let mut ranks = Vec::new();
    let mut ranges = Vec::new();
    for j in 0..plain.count() {
        let answer = plain.access_into(j, scratch).unwrap().to_vec();
        ranks.push(plain.inverted_access_of(&answer, scratch));
        answers.push(answer);
    }
    for k in 0..ordered.count() {
        let answer = ordered.ordered_access(k).unwrap();
        ranks.push(ordered.ordered_inverted_access(&answer));
        for p in 0..=ordered.order().len() {
            let prefix: Vec<Value> = ordered.order_to_head()[..p]
                .iter()
                .map(|&h| answer[h].clone())
                .collect();
            ranges.push(ordered.prefix_bounds(&prefix).unwrap());
        }
        answers.push(answer);
    }
    (answers, ranks, ranges)
}

#[test]
fn sweep_keeps_indexes_answering_and_rebuild_reuses_scratch() {
    let _guard = serialized();
    let cq = rae_query::parser::parse_cq("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let mut db = two_rel_db("gl-a-", R0, S0);
    let mut scratch = AccessScratch::new();

    let idx = CqIndex::build(&cq, &db).unwrap();
    let order = [Symbol::new("y"), Symbol::new("z"), Symbol::new("x")];
    let ordered = OrderedCqIndex::build(&cq, &db, &order).unwrap();
    let loaded = OrderedCqIndex::from_archive(borrowed_ordered(&ordered.to_archive())).unwrap();
    assert!(loaded.index().storage_is_borrowed());
    let expected = naive_eval(&cq, &db).unwrap();
    assert_eq!(idx.count() as usize, expected.len());
    for j in 0..idx.count() {
        let ans = idx.access_into(j, &mut scratch).unwrap();
        assert!(expected.contains_row(ans));
    }
    let before = observe(&idx, &ordered, &mut scratch);
    assert_eq!(observe(&idx, &loaded, &mut scratch), before);
    let old_codes: Vec<u32> = db
        .relation("R")
        .unwrap()
        .rows()
        .flatten()
        .map(|v| dict::code_of(v).unwrap())
        .collect();

    // Drop the cohort and sweep, so its codes are freed; the fresh cohort
    // then reuses them for other values.
    db.remove_relation("R").unwrap();
    db.remove_relation("S").unwrap();
    db.advance_generation().unwrap();
    db.add_relation("R", edge_rel("gl-a2-", R1)).unwrap();
    db.add_relation("S", edge_rel("gl-a2-", S1)).unwrap();
    db.advance_generation().unwrap();
    let new_codes: Vec<u32> = db
        .relation("R")
        .unwrap()
        .rows()
        .flatten()
        .map(|v| dict::code_of(v).unwrap())
        .collect();
    assert!(
        new_codes.iter().any(|c| old_codes.contains(c)),
        "the fresh cohort must reuse a swept code"
    );

    // Indexes hold ranks into their own value tables, never dictionary
    // codes: the built and the borrowed-loaded index answer exactly as
    // before the sweep.
    assert_eq!(observe(&idx, &ordered, &mut scratch), before);
    assert_eq!(observe(&idx, &loaded, &mut scratch), before);

    // Rebuild over the new cohort; the SAME scratch keeps working and the
    // answers match naive evaluation of the new instance.
    let fresh = CqIndex::build(&cq, &db).unwrap();
    let expected = naive_eval(&cq, &db).unwrap();
    assert_eq!(fresh.count() as usize, expected.len());
    for j in 0..fresh.count() {
        let borrowed = fresh.access_into(j, &mut scratch).unwrap().to_vec();
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
    // and therefore builds a correct index even from a stale database —
    // stale codes never reach the build.
    let idx = CqIndex::build(&cq, &db).unwrap();
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
    // The scratch paths and the allocating wrappers agree on an index built
    // after a sweep, and keep agreeing after another one.
    let cq = rae_query::parser::parse_cq("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let mut db = two_rel_db("gl-d-", R0, S0);
    db.advance_generation().unwrap();
    let idx = CqIndex::build(&cq, &db).unwrap();
    let mut scratch = AccessScratch::new();
    for sweep in 0..2 {
        for j in 0..idx.count() {
            let owned = idx.access(j).unwrap();
            let unchecked = idx.access_into(j, &mut scratch).unwrap();
            assert_eq!(owned.as_slice(), unchecked, "sweep {sweep}");
            assert_eq!(idx.inverted_access_of(&owned, &mut scratch), Some(j));
        }
        db.advance_generation().unwrap();
    }
}
