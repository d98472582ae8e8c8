#![deny(missing_docs)]
// Panicking extractors are banned in library code; everything surfaces a
// structured, classifiable `ServeError`.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # rae-serve — snapshot-swapped concurrent serving with delta maintenance
//!
//! Serves the PODS 2020 access operations (plain/ordered/ranked random
//! access, sampling, range counting) **concurrently** while the underlying
//! database churns, without ever locking readers out:
//!
//! * N reader threads hold a [`ServingReader`] each and run lock-free
//!   against an immutable, `Arc`-published [`Snapshot`] — the only
//!   synchronization on the steady-state read path is one atomic epoch
//!   load (see DESIGN.md §14).
//! * A single [`ServeWriter`] accepts batched inserts/deletes
//!   ([`Batch`]), admission-controlled by an [`AdmissionPolicy`], and
//!   [`ServeWriter::publish`]es a *new* snapshot that serves
//!   **base ⊎ delta**: the unchanged base [`rae_core::OrderedCqIndex`]
//!   joined with a small delta index through the
//!   [`rae_core::RankedUcq`] union rank algebra, with deletions realized
//!   as tombstoned union ranks over a [`rae_core::DeletableSet`]
//!   (Lemma 5.3) rather than by touching the base.
//! * A background **fold** ([`ServeWriter::begin_fold`] /
//!   [`ServeWriter::fold_now`]) rebuilds the base over the current rows
//!   and atomically publishes the folded snapshot; mid-rebuild faults
//!   (the builds run under `rae-core`'s transactional `catch_build`) never
//!   unpublish the old snapshot — readers keep serving the previous epoch.
//!
//! A snapshot reads no shared state: each member index holds ranks into
//! its own sorted value table, so a fold's dictionary sweep (which only
//! bounds the dictionary's memory under churn) cannot change what an old
//! snapshot serves, and readers may hold one for as long as they like.
//!
//! The delta fast path applies to **full, self-join-free** CQs (every
//! variable free, no repeated relation symbols/variables, no constants) —
//! there each answer has exactly one derivation, so liveness of an answer
//! is decidable by per-atom hash probes and the published
//! `(base ∪ delta) ∖ tombstones` algebra is exact. Other queries are
//! served through the same snapshot interface by rebuilding per publish.
//!
//! ## Example
//!
//! ```
//! use rae_data::{Database, Relation, Schema, Symbol, Value};
//! use rae_serve::{AdmissionPolicy, Batch, ServeError, ServeWriter};
//!
//! fn main() -> Result<(), ServeError> {
//!     let row = |a: i64, b: i64| vec![Value::Int(a), Value::Int(b)];
//!     let mut db = Database::new();
//!     db.add_relation(
//!         "R",
//!         Relation::from_rows(Schema::new(["o", "t"])?, [row(1, 10), row(2, 20)])?,
//!     )?;
//!     db.add_relation(
//!         "S",
//!         Relation::from_rows(Schema::new(["o", "p"])?, [row(1, 7), row(2, 8)])?,
//!     )?;
//!     let query = "Q(o, t, p) :- R(o, t), S(o, p)".parse()?;
//!     let order: Vec<Symbol> = ["o", "t", "p"].into_iter().map(Symbol::new).collect();
//!
//!     // One writer; any number of readers against the published index.
//!     let (mut writer, index) =
//!         ServeWriter::new(query, &db, &order, AdmissionPolicy::default())?;
//!     let mut reader = index.reader();
//!     assert_eq!(reader.refresh().count(), 2);
//!
//!     // commit = apply (validated, admission-controlled) + publish: a
//!     // *new* snapshot serving base ⊎ delta ∖ tombstones. Readers are
//!     // never blocked; they see the change on their next `refresh`.
//!     let mut batch = Batch::new();
//!     batch.insert("R", row(3, 30));
//!     batch.insert("S", row(3, 9));
//!     batch.delete("S", row(2, 8));
//!     writer.commit(&batch)?;
//!
//!     let snap = reader.refresh();
//!     assert_eq!(snap.count(), 2); // (1,10,7) and (3,30,9)
//!     assert_eq!(
//!         snap.ordered_access(1),
//!         Some(vec![Value::Int(3), Value::Int(30), Value::Int(9)]),
//!     );
//!     let answer = snap.ordered_access(0).expect("rank 0 is live");
//!     assert_eq!(snap.ordered_inverted_access(&answer), Some(0));
//!
//!     // Fold the overlay back into a tombstone-free base when convenient.
//!     writer.fold_now()?;
//!     assert_eq!(reader.refresh().tombstone_count(), 0);
//!     Ok(())
//! }
//! ```

pub mod delta;
pub mod snapshot;
pub mod writer;

pub use snapshot::{enumeration_digest, ServingIndex, ServingReader, Snapshot, SnapshotScan};
pub use writer::{AdmissionPolicy, Batch, FoldEvent, Op, ServeWriter};

use rae_faults::Transient;
use std::fmt;

/// Errors surfaced by the serving lifecycle. Every variant classifies
/// itself as transient or permanent ([`Transient`]) so callers can drive
/// the standard `rae_faults::retry` loop.
#[derive(Debug)]
pub enum ServeError {
    /// An index build or access-structure error from `rae-core`.
    Core(rae_core::CoreError),
    /// A relational-substrate error from `rae-data`.
    Data(rae_data::DataError),
    /// A query-validation error from `rae-query`.
    Query(rae_query::QueryError),
    /// The write was rejected by admission control: the pending delta has
    /// reached the policy's limit and a fold must catch up first.
    Backpressure {
        /// Pending (unfolded) delta + tombstone rows at rejection time.
        pending: usize,
        /// The policy's `max_pending_ops` limit.
        limit: usize,
    },
    /// A background fold is already running.
    FoldInProgress,
    /// A batch referenced a relation that is not part of the served query.
    UnknownRelation(rae_data::Symbol),
    /// A batch row's arity does not match its relation's schema.
    ArityMismatch {
        /// The relation the row was destined for.
        relation: rae_data::Symbol,
        /// The relation's arity.
        expected: usize,
        /// The row's length.
        got: usize,
    },
    /// A deterministic fault was injected at a `serve/*` failpoint.
    FaultInjected {
        /// The failpoint site that fired.
        site: &'static str,
    },
    /// The background fold worker panicked; the old snapshot is still
    /// published and the fold can be retried.
    FoldPanicked,
    /// An internal invariant of the serving algebra was violated (a bug,
    /// not a retryable condition).
    Invariant(&'static str),
    /// A snapshot persistence or recovery error from `rae-store` (fold
    /// persistence, cold-start recovery).
    Store(rae_store::StoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "core: {e}"),
            ServeError::Data(e) => write!(f, "data: {e}"),
            ServeError::Query(e) => write!(f, "query: {e}"),
            ServeError::Backpressure { pending, limit } => write!(
                f,
                "backpressure: {pending} pending delta rows ≥ limit {limit}; fold required"
            ),
            ServeError::FoldInProgress => write!(f, "a background fold is already running"),
            ServeError::UnknownRelation(s) => {
                write!(f, "relation `{s}` is not part of the served query")
            }
            ServeError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "row of arity {got} for relation `{relation}` of arity {expected}"
            ),
            ServeError::FaultInjected { site } => {
                write!(f, "injected fault at failpoint `{site}`")
            }
            ServeError::FoldPanicked => write!(f, "background fold worker panicked"),
            ServeError::Invariant(what) => write!(f, "serving invariant violated: {what}"),
            ServeError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            ServeError::Data(e) => Some(e),
            ServeError::Query(e) => Some(e),
            ServeError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl Transient for ServeError {
    fn is_transient(&self) -> bool {
        match self {
            ServeError::Core(e) => e.is_transient(),
            ServeError::Data(e) => e.is_transient(),
            ServeError::Query(e) => e.is_transient(),
            ServeError::Store(e) => e.is_transient(),
            // Backpressure clears once a fold drains the delta; an
            // in-progress fold finishes; injected faults and worker
            // panics are the chaos schedule's transients.
            ServeError::Backpressure { .. }
            | ServeError::FoldInProgress
            | ServeError::FaultInjected { .. }
            | ServeError::FoldPanicked => true,
            ServeError::UnknownRelation(_)
            | ServeError::ArityMismatch { .. }
            | ServeError::Invariant(_) => false,
        }
    }
}

impl From<rae_core::CoreError> for ServeError {
    fn from(e: rae_core::CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<rae_data::DataError> for ServeError {
    fn from(e: rae_data::DataError) -> Self {
        ServeError::Data(e)
    }
}

impl From<rae_query::QueryError> for ServeError {
    fn from(e: rae_query::QueryError) -> Self {
        ServeError::Query(e)
    }
}

impl From<rae_store::StoreError> for ServeError {
    fn from(e: rae_store::StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
