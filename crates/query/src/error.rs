//! Error type for query construction, parsing, and classification.

use rae_data::{DataError, Symbol};
use std::fmt;

/// Errors raised while constructing, parsing, or analysing queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// An underlying data-layer error.
    Data(DataError),
    /// A head variable does not occur in the body (violates safety).
    UnsafeHeadVariable(Symbol),
    /// The same variable occurs twice in the head.
    DuplicateHeadVariable(Symbol),
    /// A CQ has an empty body.
    EmptyBody,
    /// A union whose disjuncts do not share the same head-variable sequence.
    MismatchedUnionHeads {
        /// Head of the first disjunct.
        expected: Vec<Symbol>,
        /// Head of the offending disjunct.
        actual: Vec<Symbol>,
    },
    /// A union with no disjuncts.
    EmptyUnion,
    /// Text could not be parsed.
    Parse {
        /// Human-readable description.
        message: String,
        /// Byte offset into the input.
        offset: usize,
    },
    /// An operation required an acyclic CQ.
    NotAcyclic(Symbol),
    /// An operation required a free-connex CQ.
    NotFreeConnex(Symbol),
    /// A requested lexicographic variable order is not a permutation of the
    /// free variables.
    OrderVariableMismatch {
        /// The duplicated, unknown, or missing variable.
        variable: Symbol,
        /// The free variables the order must permute.
        expected: Vec<Symbol>,
    },
    /// A requested lexicographic variable order cannot be realized by any
    /// reorientation of the query's free-connex join tree (PODS 2021
    /// tractability; see `rae_query::order`).
    UnrealizableOrder {
        /// The earlier variable of the offending pair.
        earlier: Symbol,
        /// The later variable of the offending pair.
        later: Symbol,
        /// A disruptive-trio witness: a variable ordered after both that
        /// shares an atom with each, while the pair shares none.
        witness: Option<Symbol>,
    },
    /// A weighted (sum-of-weights) order assigns a weight to an existential
    /// variable; weights must range over free variables only.
    WeightedExistentialVariable {
        /// The weighted variable that is not in the head.
        variable: Symbol,
    },
    /// A weighted order interleaves weighted and unweighted variables: the
    /// weighted variables must form a prefix of the requested order, else
    /// the weighted blocks do not nest inside lexicographic buckets.
    WeightedOrderInterleaved {
        /// The unweighted order variable that precedes a weighted one.
        unweighted: Symbol,
        /// The weighted variable ordered after it.
        weighted: Symbol,
    },
    /// A weighted order over variables no single atom covers: ranked direct
    /// access under such an order is at least as hard as X+Y sorting
    /// (Carmeli et al., arXiv:2012.11965), so it is rejected with a witness
    /// pair of weighted variables that co-occur in no atom.
    IntractableWeightedOrder {
        /// One weighted variable of the witness pair.
        left: Symbol,
        /// The other weighted variable; no atom contains both.
        right: Symbol,
    },
    /// An atom's arity does not match its relation's arity.
    AtomArityMismatch {
        /// The relation symbol.
        relation: Symbol,
        /// Arity of the stored relation.
        relation_arity: usize,
        /// Arity of the atom.
        atom_arity: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Data(e) => write!(f, "data error: {e}"),
            QueryError::UnsafeHeadVariable(v) => {
                write!(f, "head variable {v} does not occur in the body")
            }
            QueryError::DuplicateHeadVariable(v) => {
                write!(f, "head variable {v} occurs more than once")
            }
            QueryError::EmptyBody => write!(f, "conjunctive query has an empty body"),
            QueryError::MismatchedUnionHeads { expected, actual } => write!(
                f,
                "all disjuncts of a union must share the head variables {expected:?}, got {actual:?}"
            ),
            QueryError::EmptyUnion => write!(f, "union of conjunctive queries has no disjuncts"),
            QueryError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            QueryError::OrderVariableMismatch { variable, expected } => write!(
                f,
                "order variable {variable} is duplicated, unknown, or missing; \
                 the order must be a permutation of {expected:?}"
            ),
            QueryError::UnrealizableOrder {
                earlier,
                later,
                witness,
            } => {
                write!(
                    f,
                    "lexicographic order is not realizable by any free-connex \
                     join-tree orientation: variables {earlier} and {later} cannot \
                     be ordered this way"
                )?;
                if let Some(w) = witness {
                    write!(
                        f,
                        " ({w} follows both but joins each of them, while they do \
                         not join each other — a disruptive trio)"
                    )?;
                }
                Ok(())
            }
            QueryError::WeightedExistentialVariable { variable } => write!(
                f,
                "weighted order assigns a weight to existential variable {variable}; \
                 only free (head) variables may carry weights"
            ),
            QueryError::WeightedOrderInterleaved {
                unweighted,
                weighted,
            } => write!(
                f,
                "weighted variables must form a prefix of the order, but unweighted \
                 {unweighted} is ordered before weighted {weighted}"
            ),
            QueryError::IntractableWeightedOrder { left, right } => write!(
                f,
                "weighted order is intractable: weighted variables {left} and {right} \
                 co-occur in no atom, so ranked access embeds X+Y sorting"
            ),
            QueryError::NotAcyclic(q) => write!(f, "query {q} is not acyclic"),
            QueryError::NotFreeConnex(q) => write!(f, "query {q} is not free-connex"),
            QueryError::AtomArityMismatch {
                relation,
                relation_arity,
                atom_arity,
            } => write!(
                f,
                "atom over {relation} has arity {atom_arity} but the relation has arity {relation_arity}"
            ),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for QueryError {
    fn from(e: DataError) -> Self {
        QueryError::Data(e)
    }
}

impl rae_faults::Transient for QueryError {
    fn is_transient(&self) -> bool {
        match self {
            // Data-layer failures carry their own classification (injected
            // faults and worker panics are retryable).
            QueryError::Data(e) => e.is_transient(),
            // Everything else is structural: the query text or shape is
            // wrong and will stay wrong on retry.
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<QueryError> = vec![
            QueryError::UnsafeHeadVariable(Symbol::new("x")),
            QueryError::DuplicateHeadVariable(Symbol::new("x")),
            QueryError::EmptyBody,
            QueryError::EmptyUnion,
            QueryError::Parse {
                message: "unexpected token".into(),
                offset: 3,
            },
            QueryError::NotAcyclic(Symbol::new("Q")),
            QueryError::NotFreeConnex(Symbol::new("Q")),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn data_error_converts_and_chains() {
        let e: QueryError = DataError::UnknownRelation(Symbol::new("R")).into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
