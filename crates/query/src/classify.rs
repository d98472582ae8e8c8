//! Acyclicity and free-connexity classification (Section 2 of the paper).

use crate::ast::ConjunctiveQuery;
use crate::gyo::gyo_reduce;
use crate::hypergraph::Hypergraph;
use std::collections::BTreeSet;

/// The complexity class of a CQ with respect to the paper's dichotomy
/// (Theorem 4.1 / Corollary 4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqClass {
    /// Acyclic and the hypergraph extended with the head edge is acyclic:
    /// tractable for enumeration, random access, and random permutation.
    FreeConnex,
    /// Acyclic but not free-connex: intractable (under sparse-BMM) for all
    /// three tasks when self-join-free.
    AcyclicNonFreeConnex,
    /// Cyclic: intractable (under Triangle/Hyperclique) when self-join-free.
    Cyclic,
}

/// The body hypergraph of a CQ: one edge per atom (atom order preserved).
pub fn body_hypergraph(cq: &ConjunctiveQuery) -> Hypergraph {
    Hypergraph::new(cq.body().iter().map(|a| a.var_set()).collect())
}

/// The extended hypergraph: body edges plus the head hyperedge.
pub fn extended_hypergraph(cq: &ConjunctiveQuery) -> Hypergraph {
    let head: BTreeSet<_> = cq.head().iter().cloned().collect();
    body_hypergraph(cq).with_extra_edge(head)
}

/// Classifies a CQ as free-connex / acyclic / cyclic.
pub fn classify(cq: &ConjunctiveQuery) -> CqClass {
    if gyo_reduce(&body_hypergraph(cq)).is_none() {
        return CqClass::Cyclic;
    }
    if gyo_reduce(&extended_hypergraph(cq)).is_some() {
        CqClass::FreeConnex
    } else {
        CqClass::AcyclicNonFreeConnex
    }
}

/// Convenience: whether the CQ is acyclic.
pub fn is_acyclic(cq: &ConjunctiveQuery) -> bool {
    classify(cq) != CqClass::Cyclic
}

/// Convenience: whether the CQ is free-connex.
pub fn is_free_connex(cq: &ConjunctiveQuery) -> bool {
    classify(cq) == CqClass::FreeConnex
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;

    fn cq(head: &[&str], body: Vec<Atom>) -> ConjunctiveQuery {
        ConjunctiveQuery::new("Q", head.iter().copied(), body).unwrap()
    }

    #[test]
    fn full_path_join_is_free_connex() {
        let q = cq(
            &["x", "y", "z"],
            vec![Atom::new("R", ["x", "y"]), Atom::new("S", ["y", "z"])],
        );
        assert_eq!(classify(&q), CqClass::FreeConnex);
    }

    #[test]
    fn projected_path_is_acyclic_but_not_free_connex() {
        // Q(x,z) :- R(x,y), S(y,z): the classic matrix-multiplication query.
        let q = cq(
            &["x", "z"],
            vec![Atom::new("R", ["x", "y"]), Atom::new("S", ["y", "z"])],
        );
        assert_eq!(classify(&q), CqClass::AcyclicNonFreeConnex);
        assert!(is_acyclic(&q));
        assert!(!is_free_connex(&q));
    }

    #[test]
    fn triangle_is_cyclic() {
        let q = cq(
            &["x", "y", "z"],
            vec![
                Atom::new("R", ["x", "y"]),
                Atom::new("S", ["y", "z"]),
                Atom::new("T", ["x", "z"]),
            ],
        );
        assert_eq!(classify(&q), CqClass::Cyclic);
    }

    #[test]
    fn projection_keeping_one_endpoint_is_free_connex() {
        // Q(x,y) :- R(x,y), S(y,z): project away the tail of a path.
        let q = cq(
            &["x", "y"],
            vec![Atom::new("R", ["x", "y"]), Atom::new("S", ["y", "z"])],
        );
        assert_eq!(classify(&q), CqClass::FreeConnex);
    }

    #[test]
    fn example_5_1_components_are_free_connex() {
        // Q1(x,y,z) :- R(x,y), S(y,z) (full) and Q2(x,y,z) :- S(y,z), T(x,z).
        let q1 = cq(
            &["x", "y", "z"],
            vec![Atom::new("R", ["x", "y"]), Atom::new("S", ["y", "z"])],
        );
        let q2 = cq(
            &["x", "y", "z"],
            vec![Atom::new("S", ["y", "z"]), Atom::new("T", ["x", "z"])],
        );
        assert_eq!(classify(&q1), CqClass::FreeConnex);
        assert_eq!(classify(&q2), CqClass::FreeConnex);
    }

    #[test]
    fn free_connex_with_existential_subtree() {
        // Q(x,y) :- R(x,y), S(y,z), T(z): existential tail hangs off y.
        let q = cq(
            &["x", "y"],
            vec![
                Atom::new("R", ["x", "y"]),
                Atom::new("S", ["y", "z"]),
                Atom::new("T", ["z"]),
            ],
        );
        assert_eq!(classify(&q), CqClass::FreeConnex);
    }

    #[test]
    fn linked_free_vars_through_existential_are_rejected() {
        // Q(x1,x2) :- R(x1,y), S(x2,y): the head edge closes a cycle.
        let q = cq(
            &["x1", "x2"],
            vec![Atom::new("R", ["x1", "y"]), Atom::new("S", ["x2", "y"])],
        );
        assert_eq!(classify(&q), CqClass::AcyclicNonFreeConnex);
    }

    #[test]
    fn cartesian_product_is_free_connex() {
        let q = cq(
            &["x", "y"],
            vec![Atom::new("R", ["x"]), Atom::new("S", ["y"])],
        );
        assert_eq!(classify(&q), CqClass::FreeConnex);
    }

    #[test]
    fn self_join_classification_uses_structure_only() {
        // Q(x,y) :- R(x,y), R(y,x) is acyclic (two edges over {x,y}).
        let q = cq(
            &["x", "y"],
            vec![Atom::new("R", ["x", "y"]), Atom::new("R", ["y", "x"])],
        );
        assert_eq!(classify(&q), CqClass::FreeConnex);
        assert!(q.has_self_join());
    }
}
