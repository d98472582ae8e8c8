#![warn(missing_docs)]

//! # rae — Random Access and random-order Enumeration for (U)CQs
//!
//! A from-scratch Rust reproduction of
//! *"Answering (Unions of) Conjunctive Queries using Random Access and
//! Random-Order Enumeration"* (Carmeli, Zeevi, Berkholz, Kimelfeld,
//! Schweikardt — PODS 2020).
//!
//! ## Quick start
//!
//! ```
//! use rae::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A tiny database.
//! let mut db = Database::new();
//! db.add_relation(
//!     "follows",
//!     Relation::from_rows(
//!         Schema::new(["src", "dst"]).unwrap(),
//!         vec![
//!             vec![Value::Int(1), Value::Int(2)],
//!             vec![Value::Int(2), Value::Int(3)],
//!             vec![Value::Int(1), Value::Int(3)],
//!         ],
//!     )
//!     .unwrap(),
//! )
//! .unwrap();
//!
//! // A free-connex CQ: two-hop follows, both endpoints and the middle kept.
//! let q: ConjunctiveQuery = "Q(x, y, z) :- follows(x, y), follows(y, z)"
//!     .parse()
//!     .unwrap();
//!
//! // Theorem 4.3: linear preprocessing, O(1) count, O(log n) access.
//! let index = CqIndex::build(&q, &db).unwrap();
//! assert_eq!(index.count(), 1); // the only two-hop path is 1→2→3
//! let first = index.access(0).unwrap();
//! assert_eq!(first, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
//! assert_eq!(index.inverted_access(&first), Some(0));
//!
//! // Theorem 3.7: uniformly random order with O(log n) delay.
//! let answers: Vec<_> = index
//!     .random_permutation(StdRng::seed_from_u64(42))
//!     .collect();
//! assert_eq!(answers.len(), 1);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`rae_data`] | values, relations, databases, hash indexes |
//! | [`rae_query`] | CQ/UCQ AST + parser, GYO, join trees, free-connexity, naive eval |
//! | [`rae_yannakakis`] | semijoin reduction + Proposition 4.2 |
//! | [`rae_core`] | Algorithms 1–8: `CqIndex`, `LazyShuffle`, `DeletableSet`, `UcqShuffle`, `McUcqIndex`; ordered access: `OrderedCqIndex`, `RankedUcq` |
//! | [`rae_sampler`] | Zhao-et-al-style baselines (EW/EO/OE/RS) + dedup adaptor |
//! | [`rae_serve`] | snapshot-swapped concurrent serving with delta maintenance |
//! | [`rae_tpch`] | synthetic TPC-H generator + the paper's benchmark queries |
//! | [`rae_faults`] | deterministic failpoints, degradation counters, transient-error retry |
//!
//! ## Robustness
//!
//! Every build entry point is transactional (a panic or injected fault
//! leaves the `Database` and dictionary observably unchanged and surfaces
//! as a structured error), a denied resource degrades to a cheaper path
//! instead of failing ([`rae_faults::degrade`]), and the whole stack is
//! exercised under seeded fault schedules by the chaos lifecycle harness
//! (`tests/chaos_lifecycle.rs`, `--features failpoints`). See DESIGN.md
//! §13.

pub use rae_core;
pub use rae_data;
pub use rae_faults;
pub use rae_query;
pub use rae_sampler;
pub use rae_serve;
pub use rae_tpch;
pub use rae_yannakakis;

/// One-stop imports for applications.
pub mod prelude {
    pub use rae_core::{
        AccessScratch, CqIndex, CqSequential, CqShuffle, DeletableSet, LazyShuffle, McUcqIndex,
        McUcqShuffle, OrderedCqIndex, OrderedEnumeration, OrderedUnionEnumeration, RankStrategy,
        RankedScratch, RankedUcq, RankedUnionWindow, UcqEvent, UcqShuffle, Weight, WeightedCqIndex,
    };
    pub use rae_data::{Database, Relation, Schema, Symbol, Value, VarWeights};
    pub use rae_faults::Transient;
    pub use rae_query::classify_weighted_order;
    pub use rae_query::{
        classify, naive_eval, naive_eval_union, Atom, ConjunctiveQuery, CqClass, Term, UnionQuery,
    };
    pub use rae_sampler::{
        EoSampler, EwSampler, JoinSampler, OeSampler, OrderedWindowSampler, RsSampler,
        WeightedWindowSampler, WithoutReplacement,
    };
    pub use rae_serve::{
        enumeration_digest, AdmissionPolicy, Batch, Op, ServeError, ServeWriter, ServingIndex,
        ServingReader, Snapshot,
    };
    pub use rae_yannakakis::reduce_to_full_acyclic;
}
