#![deny(missing_docs)]
// Panicking extractors are banned in library code. The few sanctioned
// `expect`s document structural invariants (see the per-module allows);
// everything else must surface a structured, retryable `CoreError`.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # rae-core
//!
//! The algorithms of *"Answering (Unions of) Conjunctive Queries using
//! Random Access and Random-Order Enumeration"* (Carmeli, Zeevi, Berkholz,
//! Kimelfeld, Schweikardt — PODS 2020):
//!
//! | Paper | Here |
//! |---|---|
//! | Algorithm 1 (lazy Fisher–Yates) | [`LazyShuffle`] |
//! | Algorithm 2 (preprocessing: buckets, weights, startIndex) | [`CqIndex::build`] |
//! | Algorithm 3 (random access) | [`CqIndex::access`] |
//! | Algorithm 4 (inverted access) | [`CqIndex::inverted_access`] |
//! | Theorem 3.7 (access + count ⇒ random permutation) | [`CqIndex::random_permutation`] / [`CqShuffle`] |
//! | Lemma 5.3 (sample/test/delete/count sets) | [`DeletableSet`] |
//! | Algorithm 5 (REnum(UCQ)) | [`UcqShuffle`] |
//! | Algorithms 6–8 + Theorem 5.5 (mc-UCQ random access) | [`McUcqIndex`] / [`McUcqShuffle`] |
//!
//! The entry points are [`CqIndex::build`] for a single free-connex CQ,
//! [`UcqShuffle::build`] for random-order enumeration of any union of
//! free-connex CQs, and [`McUcqIndex::build`] for random access over
//! mutually-compatible unions (shared-template UCQs).

pub mod archive;
pub mod budgeted;
pub mod column;
pub mod delset;
pub mod ef;
pub mod enumerate;
pub mod error;
pub mod index;
pub mod mcucq;
pub mod ordered;
pub mod ranked_ucq;
pub mod renum_cq;
pub mod renum_ucq;
pub mod scratch;
pub mod shuffle;
pub mod weight;
pub mod weighted;

#[cfg(test)]
pub(crate) mod testutil;

pub use archive::{
    Buckets, CqIndexArchive, NodeArchive, OrderedCqIndexArchive, OrderedMcUcqArchive, Starts,
};
pub use budgeted::{Budgeted, ProbeCadence};
pub use column::{AlignedBytes, Col, ColumnError, Pod, StableBytes};
pub use delset::DeletableSet;
pub use ef::EfStarts;
pub use enumerate::CqSequential;
pub use error::CoreError;
pub use index::{BucketView, BuildOptions, CqIndex, BUILD_THREADS_ENV};
pub use mcucq::{McUcqIndex, McUcqShuffle, OrderedMcUcqIndex, RankStrategy};
pub use ordered::{OrderedCqIndex, OrderedEnumeration};
pub use rae_data::SortAlgorithm;
pub use ranked_ucq::{RankedScratch, RankedUcq, RankedUnionWindow};
pub use renum_cq::CqShuffle;
pub use renum_ucq::{OrderedUcq, OrderedUnionEnumeration, UcqEvent, UcqShuffle};
pub use scratch::AccessScratch;
pub use shuffle::LazyShuffle;
pub use weight::{split_index, Weight};
pub use weighted::{OrderStyle, RankWindow, WeightedCqIndex};

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
