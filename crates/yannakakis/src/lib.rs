#![warn(missing_docs)]

//! # rae-yannakakis
//!
//! The classical machinery the paper's Proposition 4.2 builds on, run on
//! the relations' dictionary codes end to end:
//!
//! * atom instantiation — selecting the rows an atom matches (constants
//!   resolved once to codes, repeated variables compared as codes) and
//!   copying their codes onto the atom's variables, with no re-interning,
//! * the sort-merge semijoin over code projections and the Yannakakis
//!   *full reduction* over a join tree (removing all dangling tuples,
//!   yielding a globally consistent database),
//! * the Proposition 4.2 pipeline: reducing a free-connex CQ `Q` over `D` to
//!   a *full* acyclic join `Q'` over `D'` with `Q(D) = Q'(D')`.

pub mod full_join;
pub mod instantiate;
pub mod merge;
pub mod reduce;
#[cfg(test)]
mod semijoin;

pub use full_join::{
    reduce_to_full_acyclic, reduce_to_full_acyclic_with, FullAcyclicJoin, ReduceOptions,
};
pub use instantiate::instantiate_atom;
pub use merge::merge_semijoin_filter;
pub use reduce::full_reduce;

/// Result alias reusing the query-layer error.
pub type Result<T> = std::result::Result<T, rae_query::QueryError>;
