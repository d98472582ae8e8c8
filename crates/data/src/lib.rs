#![deny(missing_docs)]
// Panicking extractors are banned in library code. The few sanctioned
// `expect`s document structural invariants (see the per-module allows);
// everything else must surface a structured `DataError`.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # rae-data
//!
//! In-memory relational substrate used throughout the `rae` workspace: typed
//! [`Value`]s, interned [`Symbol`]s, flat row-major [`Relation`]s, and a
//! named-relation [`Database`].
//!
//! The representation is deliberately simple: a relation is a schema (ordered
//! attribute names) plus a flat `Vec<Value>` of rows. All higher layers
//! (query classification, Yannakakis reduction, the enumeration indexes of
//! the paper) operate on these types.
//!
//! Every stored value is additionally *dictionary encoded*: relations
//! maintain a flat `u32` code mirror of their rows
//! ([`Relation::row_codes`]), and the borrowed-slice hash map
//! [`CodeKeyMap`] lets joins, bucket keys, and semijoin probes run entirely
//! on integer codes with zero per-probe allocation.
//!
//! Each [`Database`] owns one append-only [`Dictionary`], shared by `Arc`
//! with the relations it encodes; codes are comparable only within one
//! dictionary, and a relation from another is re-encoded
//! ([`Relation::encode_into`]) where relations meet. The dictionary is
//! **sharded** (parallel ingest interns disjoint shards without lock
//! contention). Nothing is ever recycled, so nothing can go stale; a
//! churning database bounds its dictionary with
//! [`Database::compact_dictionary`]. See `dict`'s module docs and DESIGN.md
//! §9.
//!
//! The hash maps exported from [`fxhash`] use a small hand-rolled FxHash
//! implementation (the classic Firefox/rustc hash) because hashing tuples of
//! values is on the hot path of preprocessing and inverted access, and the
//! default SipHash is slower there.

pub mod codemap;
pub mod database;
pub mod dict;
pub mod error;
pub mod fxhash;
pub mod relation;
pub mod schema;
pub mod sort;
pub mod symbol;
pub mod tbl;
pub mod value;
pub mod weights;

pub use codemap::CodeKeyMap;
pub use database::Database;
pub use dict::{Dictionary, ValueCode};
pub use error::DataError;
pub use fxhash::{FxHashMap, FxHashSet};
pub use relation::{key_of, Relation, RowKey};
pub use schema::Schema;
pub use sort::{with_sort_scratch, SortAlgorithm, SortScratch};
pub use symbol::Symbol;
pub use tbl::{read_tbl, write_tbl, ColumnType};
pub use value::Value;
pub use weights::VarWeights;

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, DataError>;
