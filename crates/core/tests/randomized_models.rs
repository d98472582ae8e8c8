//! Model-based randomized tests: [`DeletableSet`] against a `BTreeSet`
//! model, [`LazyShuffle`] permutation properties across sizes, the
//! zero-allocation access paths (`access_into`, `inverted_access_of`,
//! `CqSequential::next_ref`) against their allocating counterparts over
//! randomized acyclic instances, and differential checks of `CqIndex` /
//! `McUcqIndex` / `UcqShuffle` against the naive evaluator across relation
//! drop/re-ingest cycles. Compaction-crossing differentials live in the
//! `generation_lifecycle` suite.

use proptest::prelude::*;
use rae_core::{AccessScratch, CqIndex, DeletableSet, LazyShuffle, McUcqIndex, UcqShuffle, Weight};
use rae_data::{Database, Relation, Schema, Value};
use rae_query::{naive_eval, naive_eval_union, UnionQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Operations driven against both the structure and the model.
#[derive(Debug, Clone)]
enum Op {
    Delete(Weight),
    Contains(Weight),
    Sample(u64),
}

fn ops_strategy(universe: Weight) -> impl Strategy<Value = Vec<Op>> {
    let u = universe.max(1) as u64;
    prop::collection::vec(
        prop_oneof![
            (0..u * 2).prop_map(|v| Op::Delete(v as Weight)),
            (0..u * 2).prop_map(|v| Op::Contains(v as Weight)),
            any::<u64>().prop_map(Op::Sample),
        ],
        0..60,
    )
}

type Edges = Vec<(i64, i64)>;

fn edge_relation(edges: &Edges) -> Relation {
    Relation::from_rows(
        Schema::new(["a", "b"]).unwrap(),
        edges
            .iter()
            .map(|&(u, v)| vec![Value::Int(u), Value::Int(v)]),
    )
    .unwrap()
}

fn db_from(r: &Edges, s: &Edges) -> Database {
    let mut db = Database::new();
    db.add_relation("R", edge_relation(r)).unwrap();
    db.add_relation("S", edge_relation(s)).unwrap();
    db
}

/// Free-connex shapes of varying head arity and tree depth, so one scratch
/// is reused across differently-shaped queries inside each case.
fn shape_portfolio(db: &Database) -> Vec<CqIndex> {
    [
        "Q(x, y, z) :- R(x, y), S(y, z)",
        "Q(x, y) :- R(x, y), S(y, z)",
        "Q(x) :- R(x, y)",
        "Q(x, y, u, v) :- R(x, y), S(u, v)",
        "Q(x, y, z) :- R(x, y), R(y, z)",
    ]
    .iter()
    .map(|text| {
        let cq = rae_query::parser::parse_cq(text).unwrap();
        CqIndex::build(&cq, db).unwrap()
    })
    .collect()
}

fn edges_strategy() -> impl Strategy<Value = Edges> {
    prop::collection::vec((0..5i64, 0..5i64), 0..15)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn deletable_set_matches_btreeset_model(
        universe in 0u128..40,
        ops in ops_strategy(40),
    ) {
        let mut sut = DeletableSet::new(universe);
        let mut model: BTreeSet<Weight> = (0..universe).collect();
        for op in ops {
            match op {
                Op::Delete(v) => {
                    let expected = model.remove(&v);
                    prop_assert_eq!(sut.delete(v), expected, "delete({})", v);
                }
                Op::Contains(v) => {
                    prop_assert_eq!(sut.contains(v), model.contains(&v), "contains({})", v);
                }
                Op::Sample(seed) => {
                    let mut rng = StdRng::seed_from_u64(seed);
                    match sut.sample(&mut rng) {
                        None => prop_assert!(model.is_empty(), "sample() = None on non-empty set"),
                        Some(v) => prop_assert!(
                            model.contains(&v),
                            "sampled deleted/out-of-range value {}", v
                        ),
                    }
                }
            }
            prop_assert_eq!(sut.remaining() as usize, model.len());
        }
    }

    #[test]
    fn lazy_shuffle_is_always_a_permutation(n in 0u128..300, seed in any::<u64>()) {
        let shuffle = LazyShuffle::new(n, StdRng::seed_from_u64(seed));
        let mut seen: Vec<Weight> = shuffle.collect();
        prop_assert_eq!(seen.len() as Weight, n);
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len() as Weight, n, "duplicates in permutation");
        if n > 0 {
            prop_assert_eq!(*seen.first().unwrap(), 0);
            prop_assert_eq!(*seen.last().unwrap(), n - 1);
        }
    }

    #[test]
    fn access_into_matches_allocating_access(
        r in edges_strategy(),
        s in edges_strategy(),
    ) {
        let db = db_from(&r, &s);
        // ONE scratch deliberately shared across every index and position:
        // reuse across differently-shaped queries must never leak state.
        let mut scratch = AccessScratch::new();
        for idx in shape_portfolio(&db) {
            for j in 0..idx.count() {
                let allocating = idx.access(j).expect("j < count");
                let borrowed = idx.access_into(j, &mut scratch).expect("j < count");
                prop_assert_eq!(
                    allocating.as_slice(), borrowed,
                    "access mismatch at {}", j
                );
            }
            prop_assert!(idx.access_into(idx.count(), &mut scratch).is_none());
        }
    }

    #[test]
    fn inverted_access_of_matches_allocating_inverted_access(
        r in edges_strategy(),
        s in edges_strategy(),
    ) {
        let db = db_from(&r, &s);
        let mut scratch = AccessScratch::new();
        for idx in shape_portfolio(&db) {
            for j in 0..idx.count() {
                let answer = idx.access(j).expect("j < count");
                prop_assert_eq!(idx.inverted_access(&answer), Some(j));
                prop_assert_eq!(idx.inverted_access_of(&answer, &mut scratch), Some(j));
            }
            // Non-answers (including never-interned values) are rejected.
            let bogus = vec![Value::Int(-999_999); idx.arity()];
            prop_assert_eq!(
                idx.inverted_access_of(&bogus, &mut scratch),
                idx.inverted_access(&bogus)
            );
        }
    }

    #[test]
    fn sequential_next_ref_matches_iterator(
        r in edges_strategy(),
        s in edges_strategy(),
    ) {
        let db = db_from(&r, &s);
        for idx in shape_portfolio(&db) {
            let via_iter: Vec<Vec<Value>> = idx.sequential().collect();
            let mut via_ref: Vec<Vec<Value>> = Vec::new();
            let mut cursor = idx.sequential();
            while let Some(answer) = cursor.next_ref() {
                via_ref.push(answer.to_vec());
            }
            prop_assert_eq!(&via_iter, &via_ref);
            prop_assert_eq!(via_iter.len() as Weight, idx.count());
        }
    }

    #[test]
    fn drop_reingest_differential_vs_naive(
        r1 in edges_strategy(),
        s1 in edges_strategy(),
        r2 in edges_strategy(),
        s2 in edges_strategy(),
    ) {
        // One database living through a drop/re-ingest cycle; the full
        // portfolio of index shapes must agree with the naive evaluator in
        // BOTH phases, and scratch state must carry over soundly.
        let mut db = db_from(&r1, &s1);
        let mut scratch = AccessScratch::new();
        for phase in 0..2 {
            for text in [
                "Q(x, y, z) :- R(x, y), S(y, z)",
                "Q(x, y) :- R(x, y), S(y, z)",
                "Q(x) :- R(x, y)",
            ] {
                let cq = rae_query::parser::parse_cq(text).unwrap();
                let idx = CqIndex::build(&cq, &db).unwrap();
                let expected = naive_eval(&cq, &db).unwrap();
                prop_assert_eq!(
                    idx.count() as usize, expected.len(),
                    "phase {}: count mismatch", phase
                );
                for j in 0..idx.count() {
                    let ans = idx.access_into(j, &mut scratch).expect("j < count").to_vec();
                    prop_assert!(
                        expected.contains_row(&ans),
                        "phase {}: access({}) not a naive answer", phase, j
                    );
                    prop_assert_eq!(
                        idx.inverted_access_of(&ans, &mut scratch), Some(j),
                        "phase {}: inverted access mismatch at {}", phase, j
                    );
                }
            }

            // mc-UCQ + UcqShuffle over an overlapping union vs. naive.
            let u: UnionQuery = "Q1(x, y) :- R(x, y). Q2(x, y) :- S(x, y)."
                .parse()
                .unwrap();
            let expected = naive_eval_union(&u, &db).unwrap();
            let mc = McUcqIndex::build(&u, &db).unwrap();
            prop_assert_eq!(mc.count() as usize, expected.len(), "phase {}", phase);
            let mut got: Vec<Vec<Value>> = mc.enumerate().collect();
            got.sort();
            got.dedup();
            prop_assert_eq!(got.len(), expected.len(), "phase {}: mc-UCQ duplicates", phase);
            for ans in &got {
                prop_assert!(expected.contains_row(ans), "phase {}", phase);
            }
            let shuffled: Vec<Vec<Value>> =
                UcqShuffle::build(&u, &db, StdRng::seed_from_u64(17)).unwrap().collect();
            let mut sorted = shuffled;
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), expected.len(), "phase {}: UcqShuffle set", phase);

            // Drop both relations and re-ingest the second cohort.
            db.remove_relation("R").unwrap();
            db.remove_relation("S").unwrap();
            db.add_relation("R", edge_relation(&r2)).unwrap();
            db.add_relation("S", edge_relation(&s2)).unwrap();
        }
    }

    #[test]
    fn delete_all_then_empty(universe in 1u128..30, seed in any::<u64>()) {
        let mut sut = DeletableSet::new(universe);
        // Delete in a shuffled order to exercise the swap bookkeeping.
        let order: Vec<Weight> =
            LazyShuffle::new(universe, StdRng::seed_from_u64(seed)).collect();
        for (i, v) in order.iter().enumerate() {
            prop_assert!(sut.delete(*v));
            prop_assert_eq!(sut.remaining(), universe - i as Weight - 1);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(sut.sample(&mut rng), None);
        // Every index reports deleted.
        for v in 0..universe {
            prop_assert!(!sut.contains(v));
        }
    }
}
