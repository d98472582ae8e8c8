//! Yannakakis full reduction over a join-tree plan.

use crate::merge::merge_semijoin_filter;
use crate::Result;
use rae_data::{Relation, Symbol};
use rae_query::TreePlan;

/// Removes all dangling tuples from `rels` (one relation per plan node, with
/// schema equal to the node's bag) by a bottom-up followed by a top-down
/// semijoin pass along the tree edges — Yannakakis' *full reduction*.
///
/// After this call the relations are **globally consistent**: every remaining
/// tuple participates in at least one answer of the full join over the plan.
/// Semijoins cannot carry emptiness between the components of a forest, so
/// an empty relation anywhere then empties every relation (the join over a
/// forest is the cross product of its components). Runs in time linear in
/// the total number of tuples (two semijoins per edge).
pub fn full_reduce(plan: &TreePlan, rels: &mut [Relation]) -> Result<()> {
    // Chaos site: fails the reduction before it filters anything, so the
    // caller sees a transient error with the relations untouched.
    rae_faults::fail_point!("yannakakis/reduce", |site| Err(
        rae_query::QueryError::Data(rae_data::DataError::FaultInjected { site })
    ));
    assert_eq!(
        plan.node_count(),
        rels.len(),
        "one relation per plan node required"
    );
    for (i, rel) in rels.iter().enumerate() {
        debug_assert_eq!(
            rel.schema().attrs(),
            plan.bag(i),
            "relation schema must equal the node bag"
        );
    }

    // Shared columns per edge, computed once.
    let shared: Vec<Option<(Vec<usize>, Vec<usize>)>> = (0..plan.node_count())
        .map(|i| {
            plan.parent(i).map(|p| {
                let child_cols = plan.parent_shared_cols(i);
                let attrs: Vec<Symbol> =
                    child_cols.iter().map(|&c| plan.bag(i)[c].clone()).collect();
                let parent_cols: Vec<usize> = attrs
                    .iter()
                    .map(|a| {
                        plan.bag(p)
                            .binary_search(a)
                            .expect("shared attribute occurs in parent bag")
                    })
                    .collect();
                (child_cols, parent_cols)
            })
        })
        .collect();

    // Bottom-up: reduce each parent by its children. Sort-merge semijoins
    // (DESIGN.md §10): sequential passes instead of per-row hash probes.
    for &node in plan.leaf_to_root() {
        if let (Some(p), Some((child_cols, parent_cols))) = (plan.parent(node), &shared[node]) {
            let (child_rel, parent_rel) = borrow_two(rels, node, p);
            merge_semijoin_filter(parent_rel, parent_cols, child_rel, child_cols);
        }
    }

    // Top-down: reduce each child by its parent.
    for &node in plan.leaf_to_root().iter().rev() {
        if let (Some(p), Some((child_cols, parent_cols))) = (plan.parent(node), &shared[node]) {
            let (child_rel, parent_rel) = borrow_two(rels, node, p);
            merge_semijoin_filter(child_rel, child_cols, parent_rel, parent_cols);
        }
    }

    if rels.iter().any(Relation::is_empty) {
        for rel in rels.iter_mut() {
            rel.retain_rows(|_| false);
        }
    }
    Ok(())
}

/// Splits `rels` into disjoint mutable/shared references at indices `a`, `b`.
fn borrow_two(rels: &mut [Relation], a: usize, b: usize) -> (&mut Relation, &mut Relation) {
    assert_ne!(a, b);
    if a < b {
        let (left, right) = rels.split_at_mut(b);
        (&mut left[a], &mut right[0])
    } else {
        let (left, right) = rels.split_at_mut(a);
        (&mut right[0], &mut left[b])
    }
}

/// Checks global consistency: every tuple of every relation extends to a full
/// answer of the join over the plan. On a join tree that is pairwise
/// consistency of every edge, checked with two merge semijoins per edge on
/// copies of the relations; across the components of a forest it also
/// requires that the relations are all empty or all non-empty. Meant for
/// tests and assertions: the copies cost a full pass over the data.
pub fn is_globally_consistent(plan: &TreePlan, rels: &[Relation]) -> bool {
    // Components share no attribute, so one empty component leaves the
    // cross product empty and every tuple elsewhere dangling.
    if rels.iter().any(Relation::is_empty) && !rels.iter().all(Relation::is_empty) {
        return false;
    }
    for i in 0..plan.node_count() {
        if let Some(p) = plan.parent(i) {
            let child_cols = plan.parent_shared_cols(i);
            let attrs: Vec<Symbol> = child_cols.iter().map(|&c| plan.bag(i)[c].clone()).collect();
            let parent_cols: Vec<usize> = attrs
                .iter()
                .map(|a| plan.bag(p).binary_search(a).expect("shared attr"))
                .collect();
            // Every child tuple must have a matching parent tuple and vice
            // versa (pairwise consistency in both directions).
            let mut child = rels[i].clone();
            merge_semijoin_filter(&mut child, &child_cols, &rels[p], &parent_cols);
            if child.len() != rels[i].len() {
                return false;
            }
            let mut parent = rels[p].clone();
            merge_semijoin_filter(&mut parent, &parent_cols, &rels[i], &child_cols);
            if parent.len() != rels[p].len() {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_data::{Schema, Value};
    use std::collections::BTreeSet;

    fn rel(attrs: &[&str], rows: &[&[i64]]) -> Relation {
        Relation::from_rows(
            Schema::new(attrs.iter().copied()).unwrap(),
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect()),
        )
        .unwrap()
    }

    fn bag(vs: &[&str]) -> BTreeSet<rae_data::Symbol> {
        vs.iter().map(rae_data::Symbol::new).collect()
    }

    #[test]
    fn path_reduction_removes_dangling() {
        // R(a,b) — S(b,c) — T(c,d), chain join tree rooted at R.
        let plan = TreePlan::new(
            vec![bag(&["a", "b"]), bag(&["b", "c"]), bag(&["c", "d"])],
            vec![None, Some(0), Some(1)],
        )
        .unwrap();
        let mut rels = vec![
            rel(&["a", "b"], &[&[1, 10], &[2, 20], &[3, 30]]),
            rel(&["b", "c"], &[&[10, 100], &[20, 200], &[40, 400]]),
            rel(&["c", "d"], &[&[100, 7], &[300, 7]]),
        ];
        full_reduce(&plan, &mut rels).unwrap();
        // Only the a=1 chain survives: (1,10)-(10,100)-(100,7).
        assert_eq!(rels[0].len(), 1);
        assert_eq!(rels[1].len(), 1);
        assert_eq!(rels[2].len(), 1);
        assert!(is_globally_consistent(&plan, &rels));
    }

    #[test]
    fn empty_leaf_propagates_everywhere() {
        let plan = TreePlan::new(
            vec![bag(&["a", "b"]), bag(&["b", "c"])],
            vec![None, Some(0)],
        )
        .unwrap();
        let mut rels = vec![rel(&["a", "b"], &[&[1, 10]]), rel(&["b", "c"], &[])];
        full_reduce(&plan, &mut rels).unwrap();
        assert!(rels[0].is_empty());
        assert!(rels[1].is_empty());
    }

    #[test]
    fn star_reduction() {
        // Root R(v,w) with children S(v,x), T(w,y).
        let plan = TreePlan::new(
            vec![bag(&["v", "w"]), bag(&["v", "x"]), bag(&["w", "y"])],
            vec![None, Some(0), Some(0)],
        )
        .unwrap();
        let mut rels = vec![
            rel(&["v", "w"], &[&[1, 1], &[1, 2], &[2, 1]]),
            rel(&["v", "x"], &[&[1, 5]]),
            rel(&["w", "y"], &[&[1, 6], &[2, 6]]),
        ];
        full_reduce(&plan, &mut rels).unwrap();
        // v must be 1; w may be 1 or 2.
        assert_eq!(rels[0].len(), 2);
        assert!(is_globally_consistent(&plan, &rels));
    }

    #[test]
    fn forest_components_reduce_independently() {
        let plan = TreePlan::new(vec![bag(&["a"]), bag(&["b"])], vec![None, None]).unwrap();
        let mut rels = vec![rel(&["a"], &[&[1]]), rel(&["b"], &[])];
        full_reduce(&plan, &mut rels).unwrap();
        // No shared variables, so no semijoin carries the emptiness across;
        // the empty component still empties the cross product.
        assert!(rels[0].is_empty());
        assert!(rels[1].is_empty());
        assert!(is_globally_consistent(&plan, &rels));
    }

    #[test]
    fn forest_with_one_empty_component_is_inconsistent() {
        let plan = TreePlan::new(vec![bag(&["a"]), bag(&["b"])], vec![None, None]).unwrap();
        let rels = vec![rel(&["a"], &[&[1]]), rel(&["b"], &[])];
        assert!(!is_globally_consistent(&plan, &rels));
        let rels = vec![rel(&["a"], &[&[1]]), rel(&["b"], &[&[2]])];
        assert!(is_globally_consistent(&plan, &rels));
    }

    #[test]
    fn already_consistent_input_is_untouched() {
        let plan = TreePlan::new(
            vec![bag(&["a", "b"]), bag(&["b", "c"])],
            vec![None, Some(0)],
        )
        .unwrap();
        let mut rels = vec![
            rel(&["a", "b"], &[&[1, 10], &[2, 10]]),
            rel(&["b", "c"], &[&[10, 0], &[10, 1]]),
        ];
        let before = rels.clone();
        full_reduce(&plan, &mut rels).unwrap();
        assert_eq!(rels, before);
    }
}
