//! Proposition 4.2: reducing a free-connex CQ to a full acyclic join.
//!
//! Given a free-connex CQ `Q` and a database `D`, compute in (near-)linear
//! time a full acyclic join `Q'` and database `D'` such that
//! `Q(D) = Q'(D')` and `D'` is globally consistent w.r.t. `Q'`:
//!
//! 1. instantiate every atom (constants, repeated variables, self-joins);
//! 2. full-reduce over a GYO join tree of the body (remove dangling tuples);
//! 3. project every atom onto its free variables (free-connexity makes this
//!    lossless — see DESIGN.md §3 for the argument);
//! 4. build a GYO join tree of the projected hypergraph (free-connexity
//!    guarantees acyclicity; re-verified defensively);
//! 5. fold nodes whose bag is contained in their parent's bag into the
//!    parent: the projected relations are globally consistent, so such a
//!    node filters nothing and is simply dropped (DESIGN.md §3);
//! 6. stamp one consistency witness on the output relations
//!    ([`Relation::mark_consistent`]), so an index build over them can skip
//!    its own reduction.
//!
//! Every step works on the relations' dictionary codes: instantiation
//! selects and copies codes, a projection keeping every column reuses its
//! relation, and the one full reduction merges sorted code keys.

use crate::instantiate::instantiate_atom;
use crate::reduce::full_reduce;
use crate::Result;
use rae_data::{Database, Relation, Schema, Symbol};
use rae_query::{
    classify, gyo_reduce, gyo_reduce_with, Atom, ConjunctiveQuery, CqClass, Hypergraph, QueryError,
    RootPreference, TreePlan,
};
use std::collections::BTreeSet;

/// A full acyclic join equivalent to a free-connex CQ over a database.
///
/// `relations[i]` has schema exactly `plan.bag(i)` and the natural join over
/// the plan's nodes (cross product across forest components) equals the
/// original `Q(D)`, projected/ordered by `head`.
///
/// The relations leave [`reduce_to_full_acyclic_with`] sharing one
/// consistency witness ([`Relation::mark_consistent`]): `CqIndex`'s build
/// trusts them and skips its own full reduction. Cloning, sorting and
/// plain projections keep the witness; editing a relation's rows drops it,
/// and the build then reduces again.
#[derive(Debug, Clone)]
pub struct FullAcyclicJoin {
    /// The join-tree plan (a forest; components are cross-producted).
    pub plan: TreePlan,
    /// One globally consistent relation per plan node.
    pub relations: Vec<Relation>,
    /// The original head variables, in output order.
    pub head: Vec<Symbol>,
}

impl FullAcyclicJoin {
    /// Materializes the full answer set (over `head`, sorted, set semantics).
    ///
    /// Exponential output in the worst case — intended for tests and small
    /// examples, not for the enumeration path.
    pub fn materialize(&self) -> Result<Relation> {
        let mut db = Database::new();
        let mut atoms = Vec::new();
        for i in 0..self.plan.node_count() {
            let name = format!("__node{i}");
            db.set_relation(name.as_str(), self.relations[i].clone());
            atoms.push(Atom::new(name.as_str(), self.plan.bag(i).iter().cloned()));
        }
        if self.head.is_empty() {
            // Boolean query: answers are {()} iff the join is non-empty.
            let schema = Schema::new(Vec::<Symbol>::new())?;
            let mut out = Relation::new(schema);
            if self.relations.iter().all(|r| !r.is_empty()) {
                out.push_row(vec![])?;
            }
            return Ok(out);
        }
        let cq = ConjunctiveQuery::new("__materialize", self.head.iter().cloned(), atoms)?;
        rae_query::naive_eval(&cq, &db)
    }
}

/// Tuning knobs for the Proposition 4.2 pipeline. The defaults give the
/// layout the enumeration structures want; the benchmark harness builds its
/// sampling baselines with `SmallestAtom` + `fold_subset_nodes: false` to
/// mirror the fan-out walk of Zhao-et-al-style join samplers (DESIGN.md §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceOptions {
    /// Join-tree orientation (see [`RootPreference`]).
    pub root_preference: RootPreference,
    /// Fold nodes whose bag is contained in the parent's bag into the
    /// parent (they only filter). Shrinks trees and speeds up every
    /// operation; disable to keep one node per atom.
    pub fold_subset_nodes: bool,
}

impl Default for ReduceOptions {
    fn default() -> Self {
        ReduceOptions {
            root_preference: RootPreference::LargestAtom,
            fold_subset_nodes: true,
        }
    }
}

/// Runs the Proposition 4.2 pipeline with default options. Fails with
/// [`QueryError::NotAcyclic`] / [`QueryError::NotFreeConnex`] when the query
/// is outside the tractable class.
pub fn reduce_to_full_acyclic(cq: &ConjunctiveQuery, db: &Database) -> Result<FullAcyclicJoin> {
    reduce_to_full_acyclic_with(cq, db, ReduceOptions::default())
}

/// [`reduce_to_full_acyclic`] with explicit layout options.
pub fn reduce_to_full_acyclic_with(
    cq: &ConjunctiveQuery,
    db: &Database,
    options: ReduceOptions,
) -> Result<FullAcyclicJoin> {
    match classify(cq) {
        CqClass::FreeConnex => {}
        CqClass::AcyclicNonFreeConnex => return Err(QueryError::NotFreeConnex(cq.name().clone())),
        CqClass::Cyclic => return Err(QueryError::NotAcyclic(cq.name().clone())),
    }

    // 1. Instantiate atoms.
    let mut rels: Vec<Relation> = cq
        .body()
        .iter()
        .map(|a| instantiate_atom(a, db))
        .collect::<Result<_>>()?;

    // 2. Full reduction over the body join tree. Atoms with no variables
    //    (all-constant) have empty bags and cannot be plan nodes with other
    //    atoms; treat an unsatisfied one as a global "no answers".
    let body_bags: Vec<BTreeSet<Symbol>> = cq.body().iter().map(|a| a.var_set()).collect();
    let body_h = Hypergraph::new(body_bags.clone());
    let body_forest = gyo_reduce(&body_h).expect("classified acyclic");
    let body_plan = TreePlan::from_forest(&body_h, &body_forest)?;
    full_reduce(&body_plan, &mut rels)?;

    let head: Vec<Symbol> = cq.head().to_vec();
    let head_set: BTreeSet<Symbol> = head.iter().cloned().collect();

    // Boolean query: a single empty-bag node holding the empty tuple iff the
    // reduced join is non-empty.
    if head.is_empty() {
        let nonempty = !rels.is_empty() && rels.iter().all(|r| !r.is_empty());
        let mut rel = Relation::new(Schema::new(Vec::<Symbol>::new())?);
        if nonempty {
            rel.push_row(vec![])?;
        }
        let plan = TreePlan::new(vec![BTreeSet::new()], vec![None])?;
        let mut relations = vec![rel];
        Relation::mark_consistent(&mut relations);
        return Ok(FullAcyclicJoin {
            plan,
            relations,
            head,
        });
    }

    // 3. Project every atom onto its free variables; drop atoms whose free
    //    bag is empty (after reduction they are pure filters, already
    //    accounted for — including the all-empty case `full_reduce` enforces). An
    //    atom whose variables are all free keeps its relation as it is:
    //    already in bag order, sorted and duplicate-free.
    let mut proj_bags: Vec<BTreeSet<Symbol>> = Vec::new();
    let mut proj_rels: Vec<Relation> = Vec::new();
    for (bag, rel) in body_bags.iter().zip(rels) {
        let free_bag: BTreeSet<Symbol> = bag.intersection(&head_set).cloned().collect();
        if free_bag.is_empty() {
            continue;
        }
        let projected = if free_bag.len() == bag.len() {
            rel
        } else {
            let schema = Schema::new(free_bag.iter().cloned())?;
            let cols = rel.schema().positions(schema.attrs())?;
            let mut projected = rel.project(&cols, schema)?;
            projected.sort_dedup();
            projected
        };
        proj_bags.push(free_bag);
        proj_rels.push(projected);
    }
    debug_assert!(
        head_set
            .iter()
            .all(|v| proj_bags.iter().any(|b| b.contains(v))),
        "safety guarantees every head variable survives projection"
    );

    // 4. Join tree of the projected hypergraph.
    let proj_h = Hypergraph::new(proj_bags.clone());
    let proj_forest = gyo_reduce_with(&proj_h, options.root_preference)
        .ok_or_else(|| QueryError::NotFreeConnex(cq.name().clone()))?;
    let mut parent = proj_forest.parent;

    // 5. Fold subset nodes into their parents: if bag(i) ⊆ bag(parent(i)),
    //    node i could only filter the parent, and the projected relations
    //    are globally consistent, so it filters nothing (DESIGN.md §3).
    //    Reattach i's children to p and drop i.
    let n = proj_bags.len();
    let mut removed = vec![false; n];
    let mut changed = options.fold_subset_nodes;
    while changed {
        changed = false;
        for i in 0..n {
            if removed[i] {
                continue;
            }
            let Some(p) = parent[i] else { continue };
            debug_assert!(!removed[p]);
            if proj_bags[i].is_subset(&proj_bags[p]) {
                for q in parent.iter_mut() {
                    if *q == Some(i) {
                        *q = Some(p);
                    }
                }
                removed[i] = true;
                changed = true;
            }
        }
    }

    // Compact the surviving nodes.
    let mut remap = vec![usize::MAX; n];
    let mut bags = Vec::new();
    let mut relations = Vec::new();
    for (i, (bag, rel)) in proj_bags.into_iter().zip(proj_rels).enumerate() {
        if !removed[i] {
            remap[i] = bags.len();
            bags.push(bag);
            relations.push(rel);
        }
    }
    let parent: Vec<Option<usize>> = (0..n)
        .filter(|&i| !removed[i])
        .map(|i| parent[i].map(|p| remap[p]))
        .collect();

    // The surviving nodes are projections of the reduced body relations,
    // so they are globally consistent as they stand (DESIGN.md §3).
    Relation::mark_consistent(&mut relations);
    Ok(FullAcyclicJoin {
        plan: TreePlan::new(bags, parent)?,
        relations,
        head,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_data::Value;
    use rae_query::{naive_eval, parser::parse_cq};

    fn rel(attrs: &[&str], rows: &[&[i64]]) -> Relation {
        Relation::from_rows(
            Schema::new(attrs.iter().copied()).unwrap(),
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect()),
        )
        .unwrap()
    }

    fn check_equals_naive(q: &str, db: &Database) {
        let cq = parse_cq(q).unwrap();
        let fj = reduce_to_full_acyclic(&cq, db).unwrap();
        let expected = naive_eval(&cq, db).unwrap();
        let got = fj.materialize().unwrap();
        assert_eq!(
            got, expected,
            "full-join materialization must match naive evaluation for {q}"
        );
    }

    fn db_paths() -> Database {
        let mut db = Database::new();
        db.add_relation(
            "R",
            rel(&["a", "b"], &[&[1, 10], &[1, 11], &[2, 10], &[3, 12]]),
        )
        .unwrap();
        db.add_relation(
            "S",
            rel(
                &["a", "b"],
                &[&[10, 100], &[11, 100], &[12, 101], &[13, 101]],
            ),
        )
        .unwrap();
        db.add_relation("T", rel(&["a"], &[&[100], &[102]]))
            .unwrap();
        db
    }

    #[test]
    fn full_join_query_matches_naive() {
        check_equals_naive("Q(x, y, z) :- R(x, y), S(y, z)", &db_paths());
    }

    #[test]
    fn projected_free_connex_matches_naive() {
        // Project away the tail of the path: Q(x,y) :- R(x,y), S(y,z).
        check_equals_naive("Q(x, y) :- R(x, y), S(y, z)", &db_paths());
    }

    #[test]
    fn deeper_existential_subtree_matches_naive() {
        check_equals_naive("Q(x, y) :- R(x, y), S(y, z), T(z)", &db_paths());
    }

    #[test]
    fn single_atom_projection_matches_naive() {
        check_equals_naive("Q(x) :- R(x, y)", &db_paths());
    }

    #[test]
    fn cross_product_matches_naive() {
        check_equals_naive("Q(x, u) :- R(x, y), T(u)", &db_paths());
    }

    #[test]
    fn boolean_query_nonempty() {
        let cq = parse_cq("Q() :- R(x, y), S(y, z)").unwrap();
        let fj = reduce_to_full_acyclic(&cq, &db_paths()).unwrap();
        assert_eq!(fj.materialize().unwrap().len(), 1);
    }

    #[test]
    fn boolean_query_empty() {
        let cq = parse_cq("Q() :- R(x, y), S(y, z), T(z)").unwrap();
        let mut db = db_paths();
        db.set_relation("T", rel(&["a"], &[&[9999]]));
        let fj = reduce_to_full_acyclic(&cq, &db).unwrap();
        assert!(fj.materialize().unwrap().is_empty());
    }

    #[test]
    fn empty_component_empties_everything() {
        // T is in a separate component; making it empty must kill all answers.
        let mut db = db_paths();
        db.set_relation("T", rel(&["a"], &[]));
        let cq = parse_cq("Q(x, u) :- R(x, y), T(u)").unwrap();
        let fj = reduce_to_full_acyclic(&cq, &db).unwrap();
        assert!(fj.materialize().unwrap().is_empty());
        assert!(fj.relations.iter().all(Relation::is_empty));
    }

    #[test]
    fn non_free_connex_is_rejected() {
        let cq = parse_cq("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        assert!(matches!(
            reduce_to_full_acyclic(&cq, &db_paths()),
            Err(QueryError::NotFreeConnex(_))
        ));
    }

    #[test]
    fn cyclic_is_rejected() {
        let mut db = db_paths();
        db.add_relation("U", rel(&["a", "b"], &[&[1, 100]]))
            .unwrap();
        let cq = parse_cq("Q(x, y, z) :- R(x, y), S(y, z), U(x, z)").unwrap();
        assert!(matches!(
            reduce_to_full_acyclic(&cq, &db),
            Err(QueryError::NotAcyclic(_))
        ));
    }

    #[test]
    fn relations_are_globally_consistent_after_pipeline() {
        let cq = parse_cq("Q(x, y) :- R(x, y), S(y, z)").unwrap();
        let fj = reduce_to_full_acyclic(&cq, &db_paths()).unwrap();
        assert!(crate::reduce::is_globally_consistent(
            &fj.plan,
            &fj.relations
        ));
    }

    #[test]
    fn subset_bags_are_folded() {
        // Q(x,y) :- R(x,y), S2(x,y), with S2 having the same variables: the
        // plan should fold to a single node whose relation is the
        // intersection the body reduction left.
        let mut db = Database::new();
        db.add_relation("R", rel(&["a", "b"], &[&[1, 2], &[3, 4]]))
            .unwrap();
        db.add_relation("S2", rel(&["a", "b"], &[&[1, 2], &[5, 6]]))
            .unwrap();
        let cq = parse_cq("Q(x, y) :- R(x, y), S2(x, y)").unwrap();
        let fj = reduce_to_full_acyclic(&cq, &db).unwrap();
        assert_eq!(fj.plan.node_count(), 1);
        assert_eq!(fj.relations[0].len(), 1);
        check_equals_naive("Q(x, y) :- R(x, y), S2(x, y)", &db);
    }

    #[test]
    fn constants_and_self_joins_match_naive() {
        let mut db = Database::new();
        db.add_relation("E", rel(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 1], &[2, 2]]))
            .unwrap();
        // Two-step reachability (self-join), full head.
        check_equals_naive("Q(x, y, z) :- E(x, y), E(y, z)", &db);
        // With a constant selection.
        check_equals_naive("Q(x, y) :- E(x, y), E(y, 2)", &db);
    }

    #[test]
    fn example_4_4_shape_and_count() {
        // The worked example from the paper, Section 4.
        let mut db = Database::new();
        db.add_relation(
            "R1",
            Relation::from_rows(
                Schema::new(["v", "w", "x"]).unwrap(),
                vec![
                    vec![Value::str("a1"), Value::str("b1"), Value::str("c1")],
                    vec![Value::str("a1"), Value::str("b1"), Value::str("c2")],
                    vec![Value::str("a2"), Value::str("b2"), Value::str("c1")],
                    vec![Value::str("a2"), Value::str("b2"), Value::str("c2")],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            "R2",
            Relation::from_rows(
                Schema::new(["v", "y"]).unwrap(),
                vec![
                    vec![Value::str("b1"), Value::str("d1")],
                    vec![Value::str("b1"), Value::str("d2")],
                    vec![Value::str("b2"), Value::str("d2")],
                    vec![Value::str("b2"), Value::str("d3")],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            "R3",
            Relation::from_rows(
                Schema::new(["w", "z"]).unwrap(),
                vec![
                    vec![Value::str("c1"), Value::str("e1")],
                    vec![Value::str("c1"), Value::str("e2")],
                    vec![Value::str("c1"), Value::str("e3")],
                    vec![Value::str("c2"), Value::str("e4")],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        // Note: in the paper R2 joins on w (the b-values) and R3 on x (the
        // c-values) of R1.
        let cq = parse_cq("Q(v, w, x, y, z) :- R1(v, w, x), R2(w, y), R3(x, z)").unwrap();
        let fj = reduce_to_full_acyclic(&cq, &db).unwrap();
        let ans = fj.materialize().unwrap();
        assert_eq!(ans.len(), 16, "the example has 16 answers");
        check_equals_naive("Q(v, w, x, y, z) :- R1(v, w, x), R2(w, y), R3(x, z)", &db);
    }
}
