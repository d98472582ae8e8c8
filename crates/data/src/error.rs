//! Error type for the data layer.

use crate::symbol::Symbol;
use std::fmt;

/// Errors raised by relation and database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A row's length does not match the relation's arity.
    ArityMismatch {
        /// Relation or context name.
        context: String,
        /// Arity expected by the schema.
        expected: usize,
        /// Length of the offending row.
        actual: usize,
    },
    /// A schema declared the same attribute twice.
    DuplicateAttribute(Symbol),
    /// A lookup referenced a relation absent from the database.
    UnknownRelation(Symbol),
    /// A lookup referenced an attribute absent from a schema.
    UnknownAttribute {
        /// The missing attribute.
        attribute: Symbol,
        /// The schema's attributes, for the message.
        schema: Vec<Symbol>,
    },
    /// Registering a relation under a name already in use.
    DuplicateRelation(Symbol),
    /// The global value dictionary ran out of `u32` codes (a shard exhausted
    /// its slot space of 2^28 − 1 simultaneously live values).
    DictionaryFull,
    /// A relation's code mirror was encoded against an older dictionary
    /// generation than the current one; a sweep may have recycled its codes,
    /// so code-based operations would be unsound. Rehydrate first
    /// ([`crate::Relation::rehydrate`]).
    StaleGeneration {
        /// Generation the relation's mirror was encoded against.
        relation: u64,
        /// The dictionary's current generation.
        dictionary: u64,
    },
    /// Two relations encoded against different dictionary generations were
    /// combined in a code-based operation (their codes are incomparable).
    GenerationMismatch {
        /// Generation of the left operand.
        left: u64,
        /// Generation of the right operand.
        right: u64,
    },
    /// A deterministic fault fired at the named failpoint (only reachable
    /// under the `failpoints` feature of `rae-faults`). Always transient:
    /// the chaos harness retries these.
    FaultInjected {
        /// The failpoint site, e.g. `"dict/intern"`.
        site: &'static str,
    },
    /// A flat row column referenced a position past the end of its value
    /// table (snapshot-load bulk construction,
    /// [`crate::Relation::from_value_table`]).
    ValueRefOutOfRange {
        /// The offending table reference.
        reference: u32,
        /// Length of the value table.
        table: usize,
    },
    /// A column index passed to a relation operation is not below the
    /// relation's arity ([`crate::Relation::select_project`]).
    ColumnOutOfRange {
        /// Which argument named the column, e.g. `"projection column"`.
        context: &'static str,
        /// The offending column index.
        column: usize,
        /// The relation's arity.
        arity: usize,
    },
    /// A worker thread panicked during a parallel data-layer operation.
    /// The operation's partial effects are additive-only (e.g. some values
    /// of a batch interned), so retrying is safe.
    WorkerPanicked {
        /// The operation, e.g. `"dict/intern_all"`.
        context: &'static str,
    },
}

impl rae_faults::Transient for DataError {
    fn is_transient(&self) -> bool {
        match self {
            // A sweep raced the operation; rehydrate and retry.
            DataError::StaleGeneration { .. } | DataError::GenerationMismatch { .. } => true,
            // Injected chaos and worker panics: the retry path is the test.
            DataError::FaultInjected { .. } | DataError::WorkerPanicked { .. } => true,
            // Schema/shape errors and slot exhaustion recur on retry.
            DataError::ArityMismatch { .. }
            | DataError::DuplicateAttribute(_)
            | DataError::UnknownRelation(_)
            | DataError::UnknownAttribute { .. }
            | DataError::DuplicateRelation(_)
            | DataError::ValueRefOutOfRange { .. }
            | DataError::ColumnOutOfRange { .. }
            | DataError::DictionaryFull => false,
        }
    }
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::ArityMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch in {context}: expected {expected} values, got {actual}"
            ),
            DataError::DuplicateAttribute(a) => {
                write!(f, "attribute {a} declared more than once in schema")
            }
            DataError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            DataError::UnknownAttribute { attribute, schema } => {
                write!(f, "unknown attribute {attribute} (schema: ")?;
                for (i, a) in schema.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            DataError::DuplicateRelation(r) => {
                write!(f, "relation {r} is already registered")
            }
            DataError::DictionaryFull => {
                write!(f, "value dictionary exhausted its u32 code space")
            }
            DataError::StaleGeneration {
                relation,
                dictionary,
            } => write!(
                f,
                "relation was encoded against dictionary generation {relation}, \
                 but the dictionary is at generation {dictionary}; rehydrate before use"
            ),
            DataError::GenerationMismatch { left, right } => write!(
                f,
                "cannot combine relations from dictionary generations {left} and {right}; \
                 their codes are incomparable"
            ),
            DataError::FaultInjected { site } => {
                write!(f, "injected fault at failpoint `{site}`")
            }
            DataError::ValueRefOutOfRange { reference, table } => write!(
                f,
                "row column references value-table position {reference}, \
                 but the table holds {table} values"
            ),
            DataError::ColumnOutOfRange {
                context,
                column,
                arity,
            } => write!(
                f,
                "{context} {column} is out of range for a relation of arity {arity}"
            ),
            DataError::WorkerPanicked { context } => {
                write!(f, "worker thread panicked during {context}")
            }
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = DataError::ArityMismatch {
            context: "R".into(),
            expected: 2,
            actual: 3,
        };
        assert!(e.to_string().contains("expected 2"));
        let e = DataError::UnknownAttribute {
            attribute: Symbol::new("z"),
            schema: vec![Symbol::new("x"), Symbol::new("y")],
        };
        assert!(e.to_string().contains("x, y"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(DataError::UnknownRelation(Symbol::new("R")));
        assert!(e.to_string().contains("R"));
    }
}
