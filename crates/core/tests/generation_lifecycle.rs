//! Indexes across dictionaries. Every database owns its dictionary, so
//! churning one database — dropping and re-ingesting cohorts and
//! compacting its dictionary — cannot change another database's
//! dictionary, indexes or served snapshots. Builds over relations from two
//! dictionaries re-encode them first, and differential checks (CqIndex /
//! McUcqIndex / UcqShuffle vs. the naive evaluator) hold across
//! compaction.
//!
//! No two tests share a database, so the tests run in parallel.

#[path = "support/borrow.rs"]
mod borrow;

use borrow::borrowed_ordered;
use rae_core::{AccessScratch, BuildOptions, CqIndex, McUcqIndex, OrderedCqIndex, UcqShuffle};
use rae_data::{Database, Dictionary, Relation, Schema, Symbol, Value};
use rae_query::{naive_eval, naive_eval_union, ConjunctiveQuery, UnionQuery};
use rae_serve::{AdmissionPolicy, ServeWriter, Snapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

fn path_query() -> ConjunctiveQuery {
    rae_query::parser::parse_cq("Q(x, y, z) :- R(x, y), S(y, z)").unwrap()
}

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

/// Every access, inverted access and order-prefix count of a served
/// snapshot.
fn observe_snapshot(snap: &Snapshot) -> (Vec<Vec<Value>>, Vec<Option<u128>>, Vec<u128>) {
    let order_to_head: Vec<usize> = snap
        .order()
        .iter()
        .map(|v| snap.head().iter().position(|h| h == v).unwrap())
        .collect();
    let (mut answers, mut ranks, mut counts) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..snap.count() {
        let answer = snap.ordered_access(k).unwrap();
        ranks.push(snap.ordered_inverted_access(&answer));
        for p in 0..=order_to_head.len() {
            let prefix: Vec<Value> = order_to_head[..p]
                .iter()
                .map(|&h| answer[h].clone())
                .collect();
            counts.push(snap.range_count(&prefix).unwrap());
        }
        answers.push(answer);
    }
    (answers, ranks, counts)
}

/// All answers of `idx`, sorted.
fn sorted_answers(idx: &CqIndex) -> Vec<Vec<Value>> {
    let mut got: Vec<Vec<Value>> = (0..idx.count()).map(|j| idx.access(j).unwrap()).collect();
    got.sort();
    got
}

fn assert_matches_naive(idx: &CqIndex, cq: &ConjunctiveQuery, db: &Database) {
    let expected = naive_eval(cq, db).unwrap();
    let expected: Vec<Vec<Value>> = expected.rows().map(<[Value]>::to_vec).collect();
    assert_eq!(sorted_answers(idx), expected);
}

#[test]
fn churning_one_database_leaves_another_databases_indexes_and_snapshots_untouched() {
    let cq = path_query();
    let order = [Symbol::new("y"), Symbol::new("z"), Symbol::new("x")];
    // Database B: its indexes, a borrowed-loaded copy and a served snapshot.
    let db_b = two_rel_db("iso-", R0, S0);
    let idx = CqIndex::build(&cq, &db_b).unwrap();
    let ordered = OrderedCqIndex::build(&cq, &db_b, &order).unwrap();
    let loaded = OrderedCqIndex::from_archive(borrowed_ordered(&ordered.to_archive())).unwrap();
    assert!(loaded.index().storage_is_borrowed());
    assert_matches_naive(&idx, &cq, &db_b);
    let (mut writer, serving) =
        ServeWriter::new(cq.clone(), &db_b, &order, AdmissionPolicy::default()).unwrap();
    let held = serving.snapshot();
    let b_values = db_b.dictionary().len();

    let mut scratch = AccessScratch::new();
    let before = observe(&idx, &ordered, &mut scratch);
    assert_eq!(observe(&idx, &loaded, &mut scratch), before);
    let served = observe_snapshot(&held);
    assert_eq!(served.0.len(), idx.count() as usize);

    // Database A churns on another thread while B is read: every cycle
    // drops the cohort, re-ingests a fresh one (the same values as B's in
    // even cycles), compacts and rebuilds.
    let churning = AtomicBool::new(true);
    let mut reads = 0;
    std::thread::scope(|scope| {
        let churn = scope.spawn(|| {
            let mut db_a = two_rel_db("iso-", R0, S0);
            for cycle in 1..=11 {
                db_a.remove_relation("R").unwrap();
                db_a.remove_relation("S").unwrap();
                db_a.compact_dictionary().unwrap();
                assert!(db_a.dictionary().is_empty(), "cycle {cycle}");
                let (prefix, r, s) = match cycle % 2 {
                    0 => ("iso-".to_string(), R0, S0),
                    _ => (format!("iso-a{cycle}-"), R1, S1),
                };
                db_a.add_relation("R", edge_rel(&prefix, r)).unwrap();
                db_a.add_relation("S", edge_rel(&prefix, s)).unwrap();
                let fresh = CqIndex::build(&cq, &db_a).unwrap();
                assert_matches_naive(&fresh, &cq, &db_a);
            }
            churning.store(false, Ordering::Release);
        });
        while churning.load(Ordering::Acquire) || reads < 11 {
            assert_eq!(observe(&idx, &ordered, &mut scratch), before);
            assert_eq!(observe(&idx, &loaded, &mut scratch), before);
            assert_eq!(observe_snapshot(&held), served);
            assert_eq!(db_b.dictionary().len(), b_values);
            // B's writer folds too; the held snapshot is untouched by it.
            writer.fold_now().unwrap();
            reads += 1;
        }
        churn.join().unwrap();
    });
    assert_eq!(observe_snapshot(&serving.snapshot()), served);

    // A rebuild over B reuses the same scratch.
    let rebuilt = CqIndex::build(&cq, &db_b).unwrap();
    for j in 0..rebuilt.count() {
        let borrowed = rebuilt.access_into(j, &mut scratch).unwrap().to_vec();
        assert_eq!(rebuilt.inverted_access(&borrowed), Some(j));
        assert_eq!(
            rebuilt.access(j).unwrap(),
            borrowed,
            "scratch vs allocating"
        );
    }
}

#[test]
fn from_parts_over_two_dictionaries_matches_naive_eval() {
    let cq = path_query();
    let db = two_rel_db("fp-", R0, S0);
    let fj = rae_yannakakis::reduce_to_full_acyclic(&cq, &db).unwrap();
    // A dictionary whose codes for these values differ from db's.
    let other = Arc::new(Dictionary::new());
    for i in 0..64 {
        other.intern(&Value::str(format!("fp-noise-{i}"))).unwrap();
    }

    // Reduced node relations, one moved to the other dictionary (it keeps
    // the consistency witness, so the build skips its reduction).
    let mut relations = fj.relations.clone();
    relations[0].encode_into(&other).unwrap();
    assert!(!relations[0].shares_dictionary_with(&relations[1]));
    let idx = CqIndex::from_parts_with(
        fj.plan.clone(),
        relations,
        fj.head.clone(),
        BuildOptions::default(),
    )
    .unwrap();
    assert_matches_naive(&idx, &cq, &db);

    // Caller-assembled relations, each in a dictionary of its own and with
    // no witness, so the build reduces them.
    let relations: Vec<Relation> = fj
        .relations
        .iter()
        .map(|rel| Relation::from_rows(rel.schema().clone(), rel.rows().map(<[Value]>::to_vec)))
        .collect::<Result<_, _>>()
        .unwrap();
    let idx =
        CqIndex::from_parts_with(fj.plan, relations, fj.head, BuildOptions::default()).unwrap();
    assert_matches_naive(&idx, &cq, &db);
}

#[test]
fn mc_ucq_differential_across_compaction() {
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

    // Drop/re-ingest R with a fresh cohort, refresh the selection, compact.
    db.remove_relation("R").unwrap();
    db.remove_relation("R_sel").unwrap();
    db.add_relation("R", edge_rel("gl-c2-", R1)).unwrap();
    db.derive_selection("R", "R_sel", |row| {
        row[0].as_str().is_some_and(|s| !s.ends_with('7'))
    })
    .unwrap();
    check(&db);
    db.compact_dictionary().unwrap();
    check(&db);
}

#[test]
fn unchecked_hot_path_is_still_coherent_for_current_indexes() {
    // The scratch paths and the allocating wrappers agree on an index built
    // after a compaction, and keep agreeing after further ones.
    let cq = path_query();
    let mut db = two_rel_db("gl-d-", R0, S0);
    db.compact_dictionary().unwrap();
    let idx = CqIndex::build(&cq, &db).unwrap();
    let mut scratch = AccessScratch::new();
    for round in 0..2 {
        for j in 0..idx.count() {
            let owned = idx.access(j).unwrap();
            let unchecked = idx.access_into(j, &mut scratch).unwrap();
            assert_eq!(owned.as_slice(), unchecked, "round {round}");
            assert_eq!(idx.inverted_access_of(&owned, &mut scratch), Some(j));
        }
        db.compact_dictionary().unwrap();
    }
}
