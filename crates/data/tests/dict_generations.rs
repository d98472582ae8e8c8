//! One dictionary per database: compaction under churn, relations that
//! keep an old dictionary alive, re-encoding where relations from two
//! dictionaries meet, and derived relations inheriting their source's
//! dictionary.
//!
//! Every test owns its databases and dictionaries, so the tests run in
//! parallel.

use rae_data::{dict, Database, Dictionary, Relation, Schema, Value};
use std::sync::Arc;

fn rel_of(attrs: &[&str], rows: &[&[Value]]) -> Relation {
    Relation::from_rows(
        Schema::new(attrs.iter().copied()).unwrap(),
        rows.iter().map(|r| r.to_vec()),
    )
    .unwrap()
}

fn vals(prefix: &str, n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| Value::str(format!("{prefix}-{i}")))
        .collect()
}

fn column(values: &[Value]) -> Relation {
    rel_of(
        &["a"],
        &values.iter().map(std::slice::from_ref).collect::<Vec<_>>(),
    )
}

/// Every code of `rel` names its value in `rel`'s own dictionary.
fn assert_codes_match_values(rel: &Relation) {
    let dict = rel.dictionary().expect("a coded relation has a dictionary");
    for i in 0..rel.len() {
        for (value, &code) in rel.row(i).iter().zip(rel.row_codes(i)) {
            assert_eq!(dict.code_of(value), Some(code));
        }
    }
}

#[test]
fn compaction_keeps_live_values_and_drops_dead_ones() {
    let live = vals("live", 50);
    let dead = vals("dead", 200);
    let mut db = Database::new();
    db.add_relation("live", column(&live)).unwrap();
    db.add_relation("dead", column(&dead)).unwrap();
    assert_eq!(db.dictionary().len(), 250);

    db.remove_relation("dead").unwrap();
    let old = Arc::clone(db.dictionary());
    db.compact_dictionary().unwrap();

    assert!(!Arc::ptr_eq(&old, db.dictionary()));
    assert_eq!(db.dictionary().len(), live.len());
    for v in &dead {
        assert_eq!(db.dictionary().code_of(v), None, "dead value survived");
    }
    let kept = db.relation("live").unwrap();
    assert!(Arc::ptr_eq(kept.dictionary().unwrap(), db.dictionary()));
    assert_eq!(kept, &column(&live));
    assert_codes_match_values(kept);
    // The old dictionary is untouched: nothing is ever recycled.
    assert_eq!(old.len(), 250);
}

#[test]
fn compaction_leaves_held_relations_and_clones_valid() {
    let values = vals("held", 40);
    let mut db = Database::new();
    db.add_relation("r", column(&values)).unwrap();
    let held = db.relation("r").unwrap().clone();
    let snapshot = db.clone();

    db.remove_relation("r").unwrap();
    db.compact_dictionary().unwrap();
    db.add_relation("s", column(&vals("after", 40))).unwrap();

    // The clones keep the old dictionary alive, and its codes still name
    // their values.
    assert!(Arc::ptr_eq(
        held.dictionary().unwrap(),
        snapshot.dictionary()
    ));
    assert!(!Arc::ptr_eq(held.dictionary().unwrap(), db.dictionary()));
    assert_codes_match_values(&held);
    assert_eq!(snapshot.relation("r").unwrap(), &held);
    // Re-registering the held relation re-encodes it in the live dictionary.
    db.add_relation("r", held.clone()).unwrap();
    let back = db.relation("r").unwrap();
    assert!(Arc::ptr_eq(back.dictionary().unwrap(), db.dictionary()));
    assert_eq!(back, &held);
    assert_codes_match_values(back);
}

#[test]
fn relations_from_two_dictionaries_intersect_by_value() {
    let shared = vals("both", 8);
    let mut left = shared.clone();
    left.extend(vals("left-only", 8));
    let mut right = vals("right-only", 16);
    right.extend(shared.iter().cloned());
    let (a, b) = (column(&left), column(&right));
    assert!(!a.shares_dictionary_with(&b));

    for (x, y) in [(&a, &b), (&b, &a)] {
        let mut both = x.intersect(y).unwrap();
        both.sort_dedup();
        let mut expected = column(&shared);
        expected.sort_dedup();
        assert_eq!(both, expected);
        assert!(Arc::ptr_eq(
            both.dictionary().unwrap(),
            x.dictionary().unwrap()
        ));
        assert_codes_match_values(&both);
    }

    let mut rels = [a.clone(), b.clone()];
    Relation::share_dictionary(&mut rels).unwrap();
    assert!(rels[0].shares_dictionary_with(&rels[1]));
    assert_eq!(rels, [a, b], "re-encoding changes no value");
    assert_codes_match_values(&rels[0]);
    assert_codes_match_values(&rels[1]);
}

#[test]
fn derived_relations_share_the_source_dictionary() {
    let v = vals("derived", 6);
    let rel = rel_of(
        &["a", "b"],
        &[&[v[0].clone(), v[1].clone()], &[v[2].clone(), v[3].clone()]],
    );
    let dict = rel.dictionary().unwrap();
    let p = rel.project(&[1], Schema::new(["b"]).unwrap()).unwrap();
    assert!(Arc::ptr_eq(p.dictionary().unwrap(), dict));
    assert_codes_match_values(&p);
    let code = dict.code_of(&v[0]).unwrap();
    let selected = rel
        .select_project(&[(0, code)], &[], &[1], Schema::new(["b"]).unwrap())
        .unwrap();
    assert_eq!(selected.len(), 1);
    assert!(Arc::ptr_eq(selected.dictionary().unwrap(), dict));

    let mut db = Database::new();
    db.add_relation("r", rel.clone()).unwrap();
    db.derive_selection("r", "r_first", |row| row[0] == v[0])
        .unwrap();
    let derived = db.relation("r_first").unwrap();
    assert!(Arc::ptr_eq(derived.dictionary().unwrap(), db.dictionary()));
}

#[test]
fn empty_and_arity_zero_relations_hold_no_dictionary() {
    assert!(Relation::default().dictionary().is_none());
    let mut nullary = Relation::with_attrs(Vec::<&str>::new()).unwrap();
    nullary.push_row(vec![]).unwrap();
    assert!(nullary.dictionary().is_none(), "arity-0 rows are sentinels");
    let mut empty = Relation::with_attrs(["a", "b"]).unwrap();
    assert!(empty.dictionary().is_none());
    assert!(empty.shares_dictionary_with(&column(&vals("any", 2))));

    // The first coded row brings a dictionary of its own …
    empty.push_row(vec![Value::Int(1), Value::Int(2)]).unwrap();
    assert_eq!(empty.dictionary().unwrap().len(), 2);
    // … unless the relation was built into one.
    let target = Arc::new(Dictionary::new());
    let mut into = Relation::new_in(Schema::new(["a"]).unwrap(), &target);
    into.push_row(vec![Value::Int(9)]).unwrap();
    assert!(Arc::ptr_eq(into.dictionary().unwrap(), &target));
    assert_eq!(target.len(), 1);
}

#[test]
fn process_counters_cover_every_live_dictionary() {
    // Other tests intern and drop concurrently, but a live dictionary's
    // values are always part of the process-wide count.
    let dict = Dictionary::new();
    dict.intern_all(&vals("counted", 500), 1).unwrap();
    assert!(dict::interned_count() >= 500);
    assert!(dict::allocated_slot_count() >= 500);
}

#[test]
fn bounded_growth_across_many_drop_reingest_cycles() {
    let mut db = Database::new();
    db.add_relation("dim", column(&vals("dim", 100))).unwrap();
    let mut high_water = 0usize;
    for cycle in 0..12 {
        db.add_relation("r", column(&vals(&format!("bound-{cycle}"), 300)))
            .unwrap();
        high_water = high_water.max(db.dictionary().len());
        // Drop the cohort and compact: its values leave the dictionary.
        db.remove_relation("r").unwrap();
        db.compact_dictionary().unwrap();
        assert_eq!(db.dictionary().len(), 100, "cycle {cycle}");
    }
    assert_eq!(
        high_water, 400,
        "the dictionary holds the dimension and at most one cohort"
    );
}
