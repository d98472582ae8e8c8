//! Edge cases of code-based atom instantiation, each checked end to end
//! against naive evaluation: relations encoded in another database's
//! dictionary, constants the dictionary has never seen, repeated
//! variables, self-joins and all-constant (arity-0) atoms.
//!
//! Every database owns its dictionary, so these tests run in parallel.

use rae_data::{Database, Relation, Schema, Value};
use rae_query::{naive_eval, parser::parse_cq};
use rae_yannakakis::reduce_to_full_acyclic;
use std::sync::Arc;

fn relation(attrs: &[&str], rows: Vec<Vec<Value>>) -> Relation {
    Relation::from_rows(Schema::new(attrs.iter().copied()).unwrap(), rows).unwrap()
}

fn ints(rows: &[&[i64]]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
        .collect()
}

/// Edges with loops and a two-cycle, plus a string-valued relation.
fn graph_db(offset: i64) -> Database {
    let mut db = Database::new();
    let o = offset;
    db.add_relation(
        "E",
        relation(
            &["a", "b"],
            ints(&[
                &[o + 1, o + 2],
                &[o + 2, o + 1],
                &[o + 2, o + 3],
                &[o + 3, o + 3],
                &[o + 3, o + 4],
                &[o + 4, o + 4],
            ]),
        ),
    )
    .unwrap();
    db.add_relation(
        "L",
        relation(
            &["k", "name", "alias"],
            vec![
                vec![Value::Int(o + 1), Value::str("ann"), Value::str("ann")],
                vec![Value::Int(o + 2), Value::str("bob"), Value::str("rob")],
                vec![Value::Int(o + 3), Value::str("cy"), Value::str("cy")],
                vec![Value::Int(o + 3), Value::str("dee"), Value::str("dee")],
            ],
        ),
    )
    .unwrap();
    db
}

fn assert_matches_naive(query: &str, db: &Database) -> Relation {
    let cq = parse_cq(query).unwrap();
    let expected = naive_eval(&cq, db).unwrap();
    let fj = reduce_to_full_acyclic(&cq, db)
        .unwrap_or_else(|e| panic!("{query}: the reduction failed: {e}"));
    assert_eq!(fj.materialize().unwrap(), expected, "{query}");
    expected
}

#[test]
fn relations_from_another_databases_dictionary_still_reduce() {
    let mut db = graph_db(7_100_000);
    let other = graph_db(7_200_000);
    // Built in the other database's dictionary, where these values have
    // codes that mean other values in `db`'s: registering re-encodes it.
    let mut f = Relation::new_in(Schema::new(["b"]).unwrap(), other.dictionary());
    for v in [7_100_002, 7_100_004] {
        f.push_row(vec![Value::Int(v)]).unwrap();
    }
    db.add_relation("F", f).unwrap();
    let registered = db.relation("F").unwrap().dictionary().unwrap();
    assert!(Arc::ptr_eq(registered, db.dictionary()));
    assert!(!Arc::ptr_eq(db.dictionary(), other.dictionary()));
    let queries = [
        "Q(x, y) :- E(x, y), F(y)",
        "Q(x, y, z) :- E(x, y), E(y, z)",
        "Q(x, z) :- E(x, x), E(x, z)",
        "Q(x) :- E(x, 7100003)",
        "Q(k, n) :- L(k, n, n), E(k, k)",
    ];
    for query in queries {
        assert!(!assert_matches_naive(query, &db).is_empty(), "{query}");
    }
}

#[test]
fn a_constant_absent_from_the_dictionary_matches_nothing_and_is_not_interned() {
    let db = graph_db(0);
    let absent = Value::str("a constant no relation holds");
    let dict = db.dictionary();
    assert_eq!(dict.code_of(&absent), None);
    for query in [
        "Q(k, a) :- L(k, \"a constant no relation holds\", a)",
        "Q(x, y) :- E(x, y), L(k, \"a constant no relation holds\", a)",
        "Q(x, y) :- E(x, y), L(1, \"a constant no relation holds\", \"ann\")",
    ] {
        let cq = parse_cq(query).unwrap();
        assert!(naive_eval(&cq, &db).unwrap().is_empty());
        let before = dict.len();
        let fj = reduce_to_full_acyclic(&cq, &db).unwrap();
        assert_eq!(dict.len(), before, "{query} interned a value");
        assert!(fj.materialize().unwrap().is_empty(), "{query}");
        assert!(fj.relations.iter().all(Relation::is_empty), "{query}");
    }
    assert_eq!(dict.code_of(&absent), None);
}

#[test]
fn repeated_variables_compare_codes() {
    let db = graph_db(0);
    let loops = assert_matches_naive("Q(x) :- E(x, x)", &db);
    assert_eq!(loops.len(), 2);
    assert_matches_naive("Q(x, z) :- E(x, x), E(x, z)", &db);
    assert_matches_naive("Q(k, n) :- L(k, n, n)", &db);
    assert_matches_naive("Q(k) :- L(k, n, n), E(k, k)", &db);
}

#[test]
fn self_joins_instantiate_each_atom_separately() {
    let db = graph_db(0);
    assert_matches_naive("Q(x, y, z) :- E(x, y), E(y, z)", &db);
    assert_matches_naive("Q(x, y) :- E(x, y), E(y, x)", &db);
    assert_matches_naive("Q(x, y) :- E(x, y), E(y, z), E(z, w)", &db);
    assert_matches_naive("Q(x, y, n) :- E(x, y), E(y, 3), L(x, n, a)", &db);
}

#[test]
fn all_constant_atoms_gate_the_whole_query() {
    let db = graph_db(0);
    let kept = assert_matches_naive("Q(x, y) :- E(x, y), E(3, 3)", &db);
    assert_eq!(kept.len(), 6);
    let kept = assert_matches_naive("Q(x, y) :- E(x, y), L(2, \"bob\", \"rob\")", &db);
    assert_eq!(kept.len(), 6);
    assert!(assert_matches_naive("Q(x, y) :- E(x, y), E(1, 1)", &db).is_empty());
    assert!(assert_matches_naive("Q(x, y) :- E(x, y), L(2, \"bob\", \"bob\")", &db).is_empty());
    // Boolean queries over constants only.
    assert_eq!(assert_matches_naive("Q() :- E(2, 3)", &db).len(), 1);
    assert!(assert_matches_naive("Q() :- E(3, 2)", &db).is_empty());
}
