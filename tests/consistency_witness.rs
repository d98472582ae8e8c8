//! Soundness of the consistency witness (`Relation::mark_consistent`).
//!
//! `CqIndex`'s build skips its full reduction when every input relation
//! carries one shared witness. These tests pin both directions: a witnessed
//! reduction builds exactly the artifacts of the same relations with the
//! witness cleared (which the build reduces again), and every way of
//! breaking consistency — editing rows, mixing two reductions, instantiating
//! a stored reduction under renamed variables — leaves no shared witness,
//! so the build reduces and still answers as naive evaluation does.

use rae::prelude::*;
use rae::rae_core::BuildOptions;
use rae::rae_query::{realize_order, TreePlan};
use rae::rae_yannakakis::reduce::is_globally_consistent;
use rae::rae_yannakakis::{instantiate_atom, FullAcyclicJoin};
use rae_tpch::{generate, prepare_selections, TpchScale};
use std::collections::BTreeSet;

#[path = "support/artifacts.rs"]
mod artifacts;
use artifacts::assert_identical_artifacts;

/// A `CqIndex` over raw parts under the default build options.
fn from_parts(plan: TreePlan, relations: Vec<Relation>, head: Vec<Symbol>) -> CqIndex {
    CqIndex::from_parts_with(plan, relations, head, BuildOptions::default()).unwrap()
}

fn rel(attrs: &[&str], rows: &[&[i64]]) -> Relation {
    Relation::from_rows(
        Schema::new(attrs.iter().copied()).unwrap(),
        rows.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect()),
    )
    .unwrap()
}

fn bag(vs: &[&str]) -> BTreeSet<Symbol> {
    vs.iter().map(Symbol::new).collect()
}

fn cleared(rels: &[Relation]) -> Vec<Relation> {
    let mut rels = rels.to_vec();
    for r in &mut rels {
        r.clear_consistency_witness();
    }
    rels
}

/// Asserts the index answers exactly `expected` (a naive evaluation over
/// the index's head), each answer once.
fn assert_answers(label: &str, idx: &CqIndex, expected: &Relation) {
    assert_eq!(idx.count() as usize, expected.len(), "{label}: count");
    let answers = (0..idx.count()).map(|j| idx.access(j).expect("in range"));
    let mut got = Relation::from_rows(expected.schema().clone(), answers).unwrap();
    got.sort_dedup();
    assert_eq!(got.len(), expected.len(), "{label}: duplicate answers");
    let mut want = expected.clone();
    want.sort_dedup();
    assert_eq!(got, want, "{label}: answers differ from naive evaluation");
}

/// Builds from `rels` as they are and from a copy without witnesses (which
/// the build always reduces): the artifacts must be identical and the
/// answers those of naive evaluation over `rels`. A witness that survived
/// an edit would skip the reduction and keep dangling rows, which shows up
/// as an artifact difference.
fn check_build(label: &str, plan: &TreePlan, rels: Vec<Relation>, head: &[Symbol]) {
    let fj = FullAcyclicJoin {
        plan: plan.clone(),
        relations: rels,
        head: head.to_vec(),
    };
    // Naive evaluation over one stored relation per plan node.
    let expected = fj.materialize().unwrap();
    let unwitnessed = cleared(&fj.relations);
    let built = from_parts(fj.plan.clone(), fj.relations, fj.head.clone());
    let reduced = from_parts(fj.plan, unwitnessed, fj.head);
    assert_identical_artifacts(label, &built, &reduced);
    assert_answers(label, &built, &expected);
}

#[test]
fn tpch_witnessed_builds_equal_reduced_builds() {
    let mut db = generate(&TpchScale::tiny(), 0xC0DE);
    prepare_selections(&mut db).unwrap();
    let mut ordered_layouts = 0;
    for (name, cq) in rae_tpch::queries::all_cqs() {
        let expected = naive_eval(&cq, &db).unwrap();
        let fj = reduce_to_full_acyclic(&cq, &db).unwrap();
        assert!(
            Relation::share_consistency_witness(&fj.relations),
            "{name}: the reduction marks its output"
        );
        assert!(is_globally_consistent(&fj.plan, &fj.relations), "{name}");

        let witnessed = from_parts(fj.plan.clone(), fj.relations.clone(), fj.head.clone());
        let reduced = from_parts(fj.plan.clone(), cleared(&fj.relations), fj.head.clone());
        assert_identical_artifacts(name, &witnessed, &reduced);
        assert_answers(name, &witnessed, &expected);

        // Ordered layouts derive projection nodes from the reduced
        // relations (plain projections keep the witness).
        let dfs = witnessed.plan().attrs_dfs();
        let reversed: Vec<Symbol> = dfs.iter().rev().cloned().collect();
        for order in [dfs, reversed] {
            if realize_order(&fj.plan, &order).is_err() {
                continue;
            }
            let label = format!("{name} ordered by {order:?}");
            let unwitnessed = FullAcyclicJoin {
                relations: cleared(&fj.relations),
                ..fj.clone()
            };
            let a = OrderedCqIndex::from_full_join(fj.clone(), &order).unwrap();
            let b = OrderedCqIndex::from_full_join(unwitnessed, &order).unwrap();
            assert_identical_artifacts(&label, a.index(), b.index());
            assert_answers(&label, a.index(), &expected);
            ordered_layouts += 1;
        }
    }
    assert!(ordered_layouts >= rae_tpch::queries::all_cqs().len());
}

fn path_db(s_rows: &[&[i64]]) -> Database {
    let mut db = Database::new();
    db.add_relation("R", rel(&["a", "b"], &[&[1, 10], &[2, 20], &[3, 30]]))
        .unwrap();
    db.add_relation("S", rel(&["b", "c"], s_rows)).unwrap();
    db
}

fn path_query() -> ConjunctiveQuery {
    "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap()
}

#[test]
fn push_row_and_retain_rows_clear_the_witness() {
    let db = path_db(&[&[10, 100], &[20, 200], &[20, 201]]);
    let fj = reduce_to_full_acyclic(&path_query(), &db).unwrap();
    assert_eq!(fj.plan.node_count(), 2);
    check_build("as reduced", &fj.plan, fj.relations.clone(), &fj.head);

    // A row with no partner in the other node.
    let mut pushed = fj.relations.clone();
    let arity = pushed[0].arity();
    pushed[0].push_row(vec![Value::Int(99); arity]).unwrap();
    assert!(!Relation::share_consistency_witness(&pushed));
    check_build("push_row", &fj.plan, pushed, &fj.head);

    // Removing rows of one node leaves partners dangling in the other.
    for node in 0..2 {
        let mut retained = fj.relations.clone();
        let first = retained[node].row(0).to_vec();
        retained[node].retain_rows(|row| row != first.as_slice());
        assert!(!Relation::share_consistency_witness(&retained));
        check_build("retain_rows", &fj.plan, retained, &fj.head);
    }
}

#[test]
fn reductions_over_two_databases_never_share_a_witness() {
    let q = path_query();
    let fj1 = reduce_to_full_acyclic(&q, &path_db(&[&[10, 100], &[20, 200]])).unwrap();
    let fj2 = reduce_to_full_acyclic(&q, &path_db(&[&[20, 200], &[30, 300]])).unwrap();
    assert_eq!(fj1.plan.node_count(), fj2.plan.node_count());
    for node in 0..fj1.plan.node_count() {
        assert_eq!(fj1.plan.bag(node), fj2.plan.bag(node));
    }
    // The same query over the same database, reduced twice, differs too.
    let again = reduce_to_full_acyclic(&q, &path_db(&[&[10, 100], &[20, 200]])).unwrap();
    let twice = vec![fj1.relations[0].clone(), again.relations[1].clone()];
    assert!(!Relation::share_consistency_witness(&twice));

    for (left, right) in [(&fj1, &fj2), (&fj2, &fj1)] {
        let mixed = vec![left.relations[0].clone(), right.relations[1].clone()];
        assert!(!Relation::share_consistency_witness(&mixed));
        check_build("mixed reductions", &fj1.plan, mixed, &fj1.head);
    }
}

#[test]
fn stored_reduction_in_a_swapped_self_join_is_reduced_again() {
    // A reduced relation over (x, y), stored back as E, where E is not
    // symmetric: E(x, y) ⋈ E(y, x) keeps only the symmetric pairs.
    let mut src = Database::new();
    src.add_relation("R", rel(&["a", "b"], &[&[1, 2], &[2, 1], &[1, 3], &[4, 4]]))
        .unwrap();
    let q: ConjunctiveQuery = "Q(x, y) :- R(x, y)".parse().unwrap();
    let fj = reduce_to_full_acyclic(&q, &src).unwrap();
    let stored = fj.relations[0].clone();
    assert!(Relation::share_consistency_witness(std::slice::from_ref(
        &stored
    )));
    let mut db = Database::new();
    db.add_relation("E", stored.clone()).unwrap();

    let plain = instantiate_atom(&Atom::new("E", ["x", "y"]), &db).unwrap();
    let swapped = instantiate_atom(&Atom::new("E", ["y", "x"]), &db).unwrap();
    // Same names, no selection: the plain instance is a plain projection.
    assert!(Relation::share_consistency_witness(&[
        stored,
        plain.clone()
    ]));
    let rels = vec![plain, swapped];
    assert!(!Relation::share_consistency_witness(&rels));

    let plan = TreePlan::new(
        vec![bag(&["x", "y"]), bag(&["x", "y"])],
        vec![None, Some(0)],
    )
    .unwrap();
    let head = vec![Symbol::new("x"), Symbol::new("y")];
    check_build("swapped self-join", &plan, rels.clone(), &head);
    let self_join: ConjunctiveQuery = "Q(x, y) :- E(x, y), E(y, x)".parse().unwrap();
    let expected = naive_eval(&self_join, &db).unwrap();
    assert_eq!(expected.len(), 3, "(1,2), (2,1) and (4,4)");
    let idx = from_parts(plan, rels, head);
    assert_answers("swapped self-join", &idx, &expected);
}
