//! Edge cases of code-based atom instantiation, each checked end to end
//! against naive evaluation: sources made stale by another database's
//! dictionary sweep, constants the dictionary has never seen, repeated
//! variables, self-joins and all-constant (arity-0) atoms.
//!
//! The dictionary is process-wide and one test sweeps it, another counts
//! its entries, so the tests of this binary run one at a time.

use rae_data::{dict, Database, Relation, Schema, Value};
use rae_query::{naive_eval, parser::parse_cq};
use rae_yannakakis::reduce_to_full_acyclic;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
fn sources_made_stale_by_another_databases_sweep_still_reduce() {
    let _serial = serial();
    // Values unique to this test, so the sweep below frees their codes.
    let mut stale = graph_db(7_100_000);
    let mut other = graph_db(7_200_000);
    other.advance_generation().unwrap();
    assert!(
        !stale.relation("E").unwrap().is_current(),
        "the other database's sweep must leave this one stale"
    );
    // Refill the freed slots with unrelated values, so a stale code that
    // leaked through would now name a different value.
    for i in 0..64 {
        dict::intern(&Value::Int(7_300_000 + i)).unwrap();
    }
    // A relation added after the sweep is current: joining it with the
    // stale ones needs both sides' codes in one generation.
    stale
        .add_relation("F", relation(&["b"], ints(&[&[7_100_002], &[7_100_004]])))
        .unwrap();
    let queries = [
        "Q(x, y) :- E(x, y), F(y)",
        "Q(x, y, z) :- E(x, y), E(y, z)",
        "Q(x, z) :- E(x, x), E(x, z)",
        "Q(x) :- E(x, 7100003)",
        "Q(k, n) :- L(k, n, n), E(k, k)",
    ];
    for query in queries {
        assert!(!assert_matches_naive(query, &stale).is_empty(), "{query}");
    }
    assert!(
        !stale.relation("E").unwrap().is_current(),
        "rehydration works on a copy, never on the stored relation"
    );
}

#[test]
fn a_constant_absent_from_the_dictionary_matches_nothing_and_is_not_interned() {
    let _serial = serial();
    let db = graph_db(0);
    let absent = Value::str("a constant no relation holds");
    assert_eq!(dict::code_of(&absent), None);
    for query in [
        "Q(k, a) :- L(k, \"a constant no relation holds\", a)",
        "Q(x, y) :- E(x, y), L(k, \"a constant no relation holds\", a)",
        "Q(x, y) :- E(x, y), L(1, \"a constant no relation holds\", \"ann\")",
    ] {
        let cq = parse_cq(query).unwrap();
        assert!(naive_eval(&cq, &db).unwrap().is_empty());
        let before = dict::interned_count();
        let fj = reduce_to_full_acyclic(&cq, &db).unwrap();
        assert_eq!(dict::interned_count(), before, "{query} interned a value");
        assert!(fj.materialize().unwrap().is_empty(), "{query}");
        assert!(fj.relations.iter().all(Relation::is_empty), "{query}");
    }
    assert_eq!(dict::code_of(&absent), None);
}

#[test]
fn repeated_variables_compare_codes() {
    let _serial = serial();
    let db = graph_db(0);
    let loops = assert_matches_naive("Q(x) :- E(x, x)", &db);
    assert_eq!(loops.len(), 2);
    assert_matches_naive("Q(x, z) :- E(x, x), E(x, z)", &db);
    assert_matches_naive("Q(k, n) :- L(k, n, n)", &db);
    assert_matches_naive("Q(k) :- L(k, n, n), E(k, k)", &db);
}

#[test]
fn self_joins_instantiate_each_atom_separately() {
    let _serial = serial();
    let db = graph_db(0);
    assert_matches_naive("Q(x, y, z) :- E(x, y), E(y, z)", &db);
    assert_matches_naive("Q(x, y) :- E(x, y), E(y, x)", &db);
    assert_matches_naive("Q(x, y) :- E(x, y), E(y, z), E(z, w)", &db);
    assert_matches_naive("Q(x, y, n) :- E(x, y), E(y, 3), L(x, n, a)", &db);
}

#[test]
fn all_constant_atoms_gate_the_whole_query() {
    let _serial = serial();
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
