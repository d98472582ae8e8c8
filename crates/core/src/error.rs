//! Error type for the core enumeration algorithms.

use rae_query::QueryError;
use std::fmt;

/// Errors raised while building or using the enumeration structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An underlying query/data-layer error (including "not free-connex").
    Query(QueryError),
    /// Weight arithmetic overflowed `u128` (astronomically many answers).
    WeightOverflow,
    /// A union has more disjuncts than the mc-UCQ builder supports; the
    /// preprocessing cost grows as `2^m`.
    TooManyDisjuncts {
        /// Maximum supported.
        max: usize,
        /// Requested.
        got: usize,
    },
    /// mc-UCQ members do not reduce to the same join-tree template.
    IncompatibleTemplates {
        /// Name of the first disjunct (the template donor).
        first: String,
        /// Name of the mismatching disjunct.
        other: String,
    },
    /// A head attribute is not covered by any plan bag.
    UncoveredHeadAttribute(String),
    /// Ordered-union members do not share one head layout and lexicographic
    /// variable order, so their streams cannot be merged positionally.
    MismatchedOrders {
        /// Head then order of the first member.
        expected: Vec<String>,
        /// Head then order of the offending member.
        got: Vec<String>,
    },
    /// A structural count (row ids, bucket ids) exceeded the `u32` id space
    /// the index uses; relations beyond ~4.29 billion rows per node are not
    /// supported by this layout. A `count` of `usize::MAX` is the sentinel
    /// for rank arithmetic overflowing the `u128` rank space instead (see
    /// the crate-internal `rank_overflow` constructor).
    CapacityExceeded {
        /// What overflowed ("rows", "buckets", …).
        what: &'static str,
        /// The observed count (`usize::MAX` ⇒ u128 rank-space overflow).
        count: usize,
    },
    /// A build was handed relations encoded against a dictionary
    /// generation that has since been advanced: their codes may have been
    /// recycled, so grouping rows by code would be unsound. Rehydrate the
    /// relations (or rebuild from the database) and retry. A built index
    /// holds no codes and never reports this.
    StaleGeneration {
        /// Generation the stale relations were encoded against.
        built: u64,
        /// The dictionary's current generation.
        current: u64,
    },
    /// A build path panicked (a bug, an injected chaos fault, or a worker
    /// thread dying) and the panic was converted to an error at the build
    /// boundary. Builds consume owned relation copies, so the source
    /// `Database` and dictionary are observably unchanged; retrying is safe.
    BuildPanicked {
        /// The build entry point that caught the panic.
        context: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A deterministic fault fired at the named failpoint (only reachable
    /// under the `failpoints` feature of `rae-faults`).
    FaultInjected {
        /// The failpoint site, e.g. `"build/node"`.
        site: &'static str,
    },
    /// A deserialized index archive is internally inconsistent (plan shape,
    /// bucket partition, prefix sums, weight products, or sort order do not
    /// hold). Checksums upstream catch storage corruption; this is the
    /// semantic backstop that refuses to serve wrong answers from a
    /// checksum-valid but logically broken artifact.
    InvalidArchive(String),
}

impl rae_faults::Transient for CoreError {
    fn is_transient(&self) -> bool {
        match self {
            CoreError::Query(e) => e.is_transient(),
            // A sweep raced the build/access; rehydrate + rebuild succeeds.
            CoreError::StaleGeneration { .. } => true,
            // Injected chaos and caught panics: the retry path is the test.
            CoreError::FaultInjected { .. } | CoreError::BuildPanicked { .. } => true,
            // Structural and capacity errors recur on retry.
            CoreError::WeightOverflow
            | CoreError::TooManyDisjuncts { .. }
            | CoreError::IncompatibleTemplates { .. }
            | CoreError::UncoveredHeadAttribute(_)
            | CoreError::MismatchedOrders { .. }
            | CoreError::InvalidArchive(_)
            | CoreError::CapacityExceeded { .. } => false,
        }
    }
}

/// Validates that a structural count fits the `u32` id space, returning the
/// narrowed id. This is the single checkpoint behind every row/bucket id
/// the index mints, so the overflow path is a recoverable
/// [`CoreError::CapacityExceeded`], never a truncation or panic.
#[inline]
pub fn ensure_u32(what: &'static str, count: usize) -> Result<u32, CoreError> {
    u32::try_from(count).map_err(|_| CoreError::CapacityExceeded { what, count })
}

/// The structured error for rank arithmetic (descent sums, inclusion–
/// exclusion totals) overflowing the `u128` rank space. Uses the
/// `usize::MAX` sentinel in [`CoreError::CapacityExceeded::count`] because
/// the overflowing quantity, by definition, does not fit any machine
/// integer we could report.
#[inline]
pub(crate) fn rank_overflow(what: &'static str) -> CoreError {
    CoreError::CapacityExceeded {
        what,
        count: usize::MAX,
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Query(e) => write!(f, "{e}"),
            CoreError::WeightOverflow => {
                write!(f, "answer-count weight overflowed u128 during preprocessing")
            }
            CoreError::TooManyDisjuncts { max, got } => write!(
                f,
                "mc-UCQ random access supports at most {max} disjuncts (2^m preprocessing), got {got}"
            ),
            CoreError::IncompatibleTemplates { first, other } => write!(
                f,
                "disjunct {other} does not share the join-tree template of {first}; \
                 mc-UCQ random access requires a common template"
            ),
            CoreError::UncoveredHeadAttribute(a) => {
                write!(f, "head attribute {a} is not covered by any join-tree bag")
            }
            CoreError::MismatchedOrders { expected, got } => write!(
                f,
                "ordered-union members must share one head layout and \
                 variable order, expected {expected:?} but got {got:?}"
            ),
            CoreError::CapacityExceeded { what, count } => {
                if *count == usize::MAX {
                    write!(
                        f,
                        "index capacity exceeded: {what} overflowed the u128 rank space"
                    )
                } else {
                    write!(
                        f,
                        "index capacity exceeded: {count} {what} do not fit the u32 id space"
                    )
                }
            }
            CoreError::StaleGeneration { built, current } => write!(
                f,
                "index was built against dictionary generation {built}, but the \
                 dictionary is at generation {current}; rebuild the index"
            ),
            CoreError::BuildPanicked { context, message } => {
                write!(f, "panic caught at build boundary {context}: {message}")
            }
            CoreError::FaultInjected { site } => {
                write!(f, "injected fault at failpoint `{site}`")
            }
            CoreError::InvalidArchive(detail) => {
                write!(f, "index archive is internally inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for CoreError {
    fn from(e: QueryError) -> Self {
        CoreError::Query(e)
    }
}

impl From<rae_data::DataError> for CoreError {
    fn from(e: rae_data::DataError) -> Self {
        CoreError::Query(QueryError::Data(e))
    }
}

/// Runs `f` under a `catch_unwind` boundary, converting any panic into
/// [`CoreError::BuildPanicked`]. This is what makes the build entry points
/// transactional: they operate on owned relation copies, so a panic
/// anywhere inside (including in a worker thread, re-thrown at the scope
/// join) leaves the caller's `Database` and the dictionary observably
/// unchanged, and the caller gets a structured, transient error instead of
/// an unwinding stack.
pub(crate) fn catch_build<T>(
    context: &'static str,
    f: impl FnOnce() -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_owned()
            };
            Err(CoreError::BuildPanicked { context, message })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_chains() {
        let e = CoreError::TooManyDisjuncts { max: 12, got: 20 };
        assert!(e.to_string().contains("12"));
        let q: CoreError = QueryError::EmptyUnion.into();
        assert!(std::error::Error::source(&q).is_some());
    }

    #[test]
    fn ensure_u32_accepts_the_full_id_space() {
        assert_eq!(ensure_u32("rows", 0), Ok(0));
        assert_eq!(ensure_u32("rows", 12_345), Ok(12_345));
        assert_eq!(ensure_u32("rows", u32::MAX as usize), Ok(u32::MAX));
    }

    #[test]
    fn ensure_u32_overflow_is_a_recoverable_error() {
        // One past the u32 id space must surface as CapacityExceeded with
        // the offending count preserved, not panic or wrap.
        let over = u32::MAX as usize + 1;
        match ensure_u32("buckets", over) {
            Err(CoreError::CapacityExceeded { what, count }) => {
                assert_eq!(what, "buckets");
                assert_eq!(count, over);
            }
            other => panic!("expected CapacityExceeded, got {other:?}"),
        }
        let msg = ensure_u32("rows", over).unwrap_err().to_string();
        assert!(msg.contains("u32"), "message should name the id space");
    }

    #[test]
    fn stale_generation_error_reports_both_generations() {
        let e = CoreError::StaleGeneration {
            built: 3,
            current: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains('5'));
        assert!(std::error::Error::source(&e).is_none());
    }
}
