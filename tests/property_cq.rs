//! Property-based tests: for random small databases, the Theorem 4.3 index
//! must agree exactly with naive evaluation on a portfolio of free-connex
//! query shapes (paths, stars, projections, cross products, self-joins).

use proptest::prelude::*;
use rae::prelude::*;
use rae::rae_query::RootPreference;
use rae::rae_yannakakis::reduce::is_globally_consistent;
use rae::rae_yannakakis::{reduce_to_full_acyclic_with, ReduceOptions};
use rae_tpch::{generate, prepare_selections, TpchScale};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn db_from(r: &Edges, s: &Edges, t: &Edges) -> Database {
    let mut db = Database::new();
    db.add_relation("R", edge_relation(r)).unwrap();
    db.add_relation("S", edge_relation(s)).unwrap();
    db.add_relation("T", edge_relation(t)).unwrap();
    db
}

/// The free-connex query portfolio exercised against every random database.
fn portfolio() -> Vec<ConjunctiveQuery> {
    [
        // Full path join.
        "Q(x, y, z) :- R(x, y), S(y, z)",
        // Projection keeping a connected prefix (free-connex).
        "Q(x, y) :- R(x, y), S(y, z)",
        // Single-atom projection.
        "Q(x) :- R(x, y)",
        // Star with the center kept.
        "Q(x, y, w) :- R(x, y), S(y, z), T(y, w)",
        // Cross product of disconnected components.
        "Q(x, u, v) :- R(x, y), T(u, v)",
        // Self-join (two-step paths).
        "Q(x, y, z) :- R(x, y), R(y, z)",
        // Constant selection plus join.
        "Q(x, z) :- R(x, 1), S(x, z)",
        // Repeated variable (loops) joined further.
        "Q(x, z) :- R(x, x), S(x, z)",
        // Deeper existential chain hanging off a kept variable.
        "Q(x, y) :- R(x, y), S(y, z), T(z, w)",
    ]
    .into_iter()
    .map(|text| text.parse().expect("portfolio query parses"))
    .collect()
}

/// Every layout of the Proposition 4.2 pipeline: both root preferences,
/// with and without subset folding.
fn layouts() -> Vec<ReduceOptions> {
    let mut out = Vec::new();
    for root_preference in [RootPreference::LargestAtom, RootPreference::SmallestAtom] {
        for fold_subset_nodes in [true, false] {
            out.push(ReduceOptions {
                root_preference,
                fold_subset_nodes,
            });
        }
    }
    out
}

/// The pipeline's output must be globally consistent and materialize to
/// the naive answers under every layout — in particular with subset folds,
/// which drop a contained node with no semijoin and no second full
/// reduction.
fn check_consistent_reduction(cq: &ConjunctiveQuery, db: &Database, expected: &Relation) {
    for options in layouts() {
        let fj = reduce_to_full_acyclic_with(cq, db, options).expect("reduces");
        assert!(
            is_globally_consistent(&fj.plan, &fj.relations).unwrap(),
            "{cq} under {options:?} is not globally consistent"
        );
        assert_eq!(
            &fj.materialize().expect("materializes"),
            expected,
            "{cq} under {options:?}"
        );
    }
}

#[test]
fn tpch_reductions_are_consistent_under_every_layout() {
    let mut db = generate(&TpchScale::tiny(), 0xC0DE);
    prepare_selections(&mut db).unwrap();
    let mut cqs: Vec<ConjunctiveQuery> = rae_tpch::queries::all_cqs()
        .into_iter()
        .map(|(_, cq)| cq)
        .collect();
    for (_, ucq) in rae_tpch::queries::all_ucqs() {
        cqs.extend(ucq.disjuncts().iter().cloned());
    }
    for cq in &cqs {
        // Some union members are empty on the tiny instance: that checks
        // the pipeline's empty path.
        let expected = naive_eval(cq, &db).unwrap();
        check_consistent_reduction(cq, &db, &expected);
    }
}

fn edges_strategy() -> impl Strategy<Value = Edges> {
    prop::collection::vec((0..5i64, 0..5i64), 0..18)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_agrees_with_naive_evaluation(
        r in edges_strategy(),
        s in edges_strategy(),
        t in edges_strategy(),
    ) {
        let db = db_from(&r, &s, &t);
        for cq in portfolio() {
            prop_assert_eq!(classify(&cq), CqClass::FreeConnex);
            let idx = CqIndex::build(&cq, &db).expect("portfolio builds");
            let expected = naive_eval(&cq, &db).expect("naive evaluates");

            // Counting (Theorem 4.3).
            prop_assert_eq!(
                idx.count() as usize,
                expected.len(),
                "count mismatch for {}", cq
            );

            // Access hits exactly the answer set, in a duplicate-free order,
            // and inverted access is its inverse (Algorithms 3 + 4).
            let mut seen = Vec::with_capacity(expected.len());
            for j in 0..idx.count() {
                let ans = idx.access(j).expect("in range");
                prop_assert!(
                    expected.contains_row(&ans),
                    "access({}) produced non-answer {:?} for {}", j, ans, cq
                );
                prop_assert_eq!(idx.inverted_access(&ans), Some(j));
                seen.push(ans);
            }
            seen.sort();
            seen.dedup();
            prop_assert_eq!(seen.len(), expected.len(), "duplicates for {}", cq);

            // Out-of-bounds access errors out.
            prop_assert!(idx.access(idx.count()).is_none());
        }
    }

    #[test]
    fn inverted_access_rejects_non_answers(
        r in edges_strategy(),
        s in edges_strategy(),
        probe in (0..5i64, 0..5i64, 0..5i64),
    ) {
        let db = db_from(&r, &s, &Vec::new());
        let cq: ConjunctiveQuery = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
        let idx = CqIndex::build(&cq, &db).unwrap();
        let expected = naive_eval(&cq, &db).unwrap();
        let answer = vec![Value::Int(probe.0), Value::Int(probe.1), Value::Int(probe.2)];
        let position = idx.inverted_access(&answer);
        prop_assert_eq!(
            position.is_some(),
            expected.contains_row(&answer),
            "membership disagreement on {:?}", answer
        );
        if let Some(j) = position {
            prop_assert_eq!(idx.access(j), Some(answer));
        }
    }

    #[test]
    fn random_permutation_is_complete_and_duplicate_free(
        r in edges_strategy(),
        s in edges_strategy(),
        seed in 0u64..1000,
    ) {
        let db = db_from(&r, &s, &Vec::new());
        let cq: ConjunctiveQuery = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
        let idx = CqIndex::build(&cq, &db).unwrap();
        let mut got: Vec<Vec<Value>> = idx
            .random_permutation(StdRng::seed_from_u64(seed))
            .collect();
        prop_assert_eq!(got.len() as u128, idx.count());
        got.sort();
        got.dedup();
        prop_assert_eq!(got.len() as u128, idx.count());
    }

    #[test]
    fn full_reduction_preserves_answers(
        r in edges_strategy(),
        s in edges_strategy(),
        t in edges_strategy(),
    ) {
        // The Proposition 4.2 full acyclic join materializes to exactly the
        // naive answers (the projection-based reduction is lossless).
        let db = db_from(&r, &s, &t);
        for cq in portfolio() {
            let fj = reduce_to_full_acyclic(&cq, &db).expect("reduces");
            let materialized = fj.materialize().expect("materializes");
            let expected = naive_eval(&cq, &db).expect("naive evaluates");
            prop_assert_eq!(
                materialized, expected,
                "Proposition 4.2 mismatch for {}", cq
            );
        }
    }

    #[test]
    fn reduction_is_consistent_under_every_layout(
        r in edges_strategy(),
        s in edges_strategy(),
        t in edges_strategy(),
    ) {
        let db = db_from(&r, &s, &t);
        for cq in portfolio() {
            let expected = naive_eval(&cq, &db).expect("naive evaluates");
            check_consistent_reduction(&cq, &db, &expected);
        }
    }
}
