//! Plain-data archives of the built index structures (DESIGN.md §15–16).
//!
//! An archive is the process-independent raw-parts form of an index: a
//! deduplicated value table plus flat `u32` *table-reference* columns and
//! the precomputed per-row artifact tables (weights, startIndex prefix
//! sums, bucket tables, child-bucket links). Dictionary codes never appear
//! in an archive — they are process-local, so serialized rows reference
//! positions in the archive's own value table instead, which is what makes
//! the on-disk byte image (and hence `rae-store`'s `artifact_digest`)
//! stable across processes.
//!
//! Every numeric table is a [`Col`]: owned for fresh builds and owned
//! snapshot decodes, *borrowed* for zero-copy loads where the table is a
//! validated view straight into the snapshot file. The same
//! `from_archive` validation path serves both — a borrowed archive passes
//! through identical semantic checks before any answer is served.
//!
//! `to_archive` walks the live structure; `from_archive` is the validated
//! single-copy reconstruction path: it re-interns the value table (one
//! intern per *distinct* value), rebuilds the code-keyed lookup tables,
//! and re-checks every structural invariant the access algorithms rely on
//! — forest shape, running intersection, bucket partition, startIndex
//! prefix sums, weight products over child buckets, and (for ordered
//! layouts) within-bucket sort order — surfacing any violation as
//! [`crate::CoreError::InvalidArchive`] rather than serving wrong answers.
//!
//! The expensive phases of a build (sorting, semijoin reduction, weight
//! aggregation) are all absent from this path, which is why a cold-start
//! load is an order of magnitude cheaper than a rebuild (`perfbench`'s
//! `store.*` metrics against `yannakakis.reduce_s` + `core.build_s`) — and
//! why the borrowed path, which skips the table copies as well, is
//! cheaper still.

use crate::column::Col;
use crate::ef::EfStarts;
use crate::index::BucketView;
use crate::weight::Weight;
use rae_data::{Symbol, Value};

/// Per-row startIndex storage of one node (Algorithm 2), shared between
/// the live index and its archive. Compact `u64` whenever every start
/// fits (always, short of more than 2^64 answers below one bucket) —
/// half the cache traffic per binary-search probe; the `u128` layout is
/// the overflow fallback; the Elias-Fano layout is a succinct encoding of
/// the *global* cumulative sequence, selected per node by the store when
/// it beats the compact bytes, with byte-identical rank semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Starts {
    /// Every start fits `u64` (the overwhelmingly common case).
    Compact(Col<u64>),
    /// Overflow fallback: full `u128` starts.
    Wide(Col<Weight>),
    /// Succinct rank/select encoding of the global cumulative starts;
    /// per-bucket starts are recovered relative to the bucket's first
    /// row (see [`crate::ef`]).
    EliasFano(EfStarts),
}

impl Starts {
    /// Chooses the narrowest direct layout for freshly built starts
    /// (Elias-Fano is only ever introduced by the store's encoder).
    pub fn from_weights(starts: Vec<Weight>) -> Self {
        match starts
            .iter()
            .map(|&s| u64::try_from(s).ok())
            .collect::<Option<Vec<u64>>>()
        {
            Some(compact) => Starts::Compact(Col::Owned(compact)),
            None => Starts::Wide(Col::Owned(starts)),
        }
    }

    /// Number of stored starts.
    pub fn len(&self) -> usize {
        match self {
            Starts::Compact(v) => v.len(),
            Starts::Wide(v) => v.len(),
            Starts::EliasFano(ef) => ef.len(),
        }
    }

    /// Whether no starts are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The startIndex of row `i` *within its bucket*. `bucket_first` is
    /// the bucket's first row id — only the Elias-Fano layout (which
    /// stores global cumulative values) reads it; direct layouts ignore
    /// it, so callers that know the layout may pass 0.
    #[inline]
    pub fn at(&self, i: usize, bucket_first: usize) -> Weight {
        match self {
            Starts::Compact(v) => Weight::from(v[i]),
            Starts::Wide(v) => v[i],
            // wrapping_sub: g is increasing on any archive that passes
            // validation, so this never wraps for a served index; on a
            // malformed candidate it yields a wrong value the validator
            // then rejects, instead of a debug-profile overflow panic.
            Starts::EliasFano(ef) => Weight::from(ef.get(i).wrapping_sub(ef.get(bucket_first))),
        }
    }

    /// Number of rows in `[start, end)` (one bucket's row range — `start`
    /// must be the bucket's first row) whose startIndex is ≤ `j`: the
    /// Algorithm 3 binary search, identical semantics across layouts.
    #[inline]
    pub fn rank_leq(&self, start: usize, end: usize, j: Weight) -> usize {
        match self {
            Starts::Compact(v) => match u64::try_from(j) {
                Ok(j64) => v[start..end].partition_point(|&s| s <= j64),
                // Every compact start fits u64 < j: all rows qualify.
                Err(_) => end - start,
            },
            Starts::Wide(v) => v[start..end].partition_point(|&s| s <= j),
            Starts::EliasFano(ef) => ef.rank_leq(start, end, j),
        }
    }

    /// Whether the storage is a zero-copy view into a snapshot buffer.
    pub fn is_borrowed(&self) -> bool {
        match self {
            Starts::Compact(v) => v.is_borrowed(),
            Starts::Wide(v) => v.is_borrowed(),
            Starts::EliasFano(ef) => ef.is_borrowed(),
        }
    }

    /// The layout name (test/bench introspection).
    pub fn encoding(&self) -> &'static str {
        match self {
            Starts::Compact(_) => "compact",
            Starts::Wide(_) => "wide",
            Starts::EliasFano(_) => "elias-fano",
        }
    }
}

/// The bucket table of one node in struct-of-arrays form: four parallel
/// [`Col`]s, so a borrowed snapshot serves bucket lookups without
/// materializing per-bucket structs. A partition of `0..rows` by `pAtts`
/// key; rows of [`BucketView`] are assembled on access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Buckets {
    /// First row id of each bucket.
    pub start: Col<u32>,
    /// One past the last row id of each bucket.
    pub end: Col<u32>,
    /// Total subtree-answer weight of each bucket.
    pub total: Col<Weight>,
    /// Maximum row weight of each bucket (Olken-style samplers).
    pub max_weight: Col<Weight>,
}

impl Buckets {
    /// Assembles a bucket table from four parallel columns, refusing
    /// length mismatches (a decoder-level shape error).
    pub fn from_cols(
        start: Col<u32>,
        end: Col<u32>,
        total: Col<Weight>,
        max_weight: Col<Weight>,
    ) -> Result<Self, String> {
        let n = start.len();
        if end.len() != n || total.len() != n || max_weight.len() != n {
            return Err(format!(
                "bucket table columns disagree: {n} starts, {} ends, {} totals, {} maxima",
                end.len(),
                total.len(),
                max_weight.len()
            ));
        }
        Ok(Buckets {
            start,
            end,
            total,
            max_weight,
        })
    }

    /// A bucket table from built views (the fresh-build path).
    pub fn from_views(views: &[BucketView]) -> Self {
        Buckets {
            start: Col::Owned(views.iter().map(|b| b.start).collect()),
            end: Col::Owned(views.iter().map(|b| b.end).collect()),
            total: Col::Owned(views.iter().map(|b| b.total).collect()),
            max_weight: Col::Owned(views.iter().map(|b| b.max_weight).collect()),
        }
    }

    /// Number of buckets.
    #[inline]
    pub fn len(&self) -> usize {
        self.start.len()
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start.is_empty()
    }

    /// The bucket at index `i` (panics out of range, like slice indexing).
    #[inline]
    pub fn at(&self, i: usize) -> BucketView {
        BucketView {
            start: self.start[i],
            end: self.end[i],
            total: self.total[i],
            max_weight: self.max_weight[i],
        }
    }

    /// The bucket at index `i`, or `None` out of range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<BucketView> {
        (i < self.len()).then(|| self.at(i))
    }

    /// The first bucket, if any.
    #[inline]
    pub fn first(&self) -> Option<BucketView> {
        self.get(0)
    }

    /// Iterates the buckets in order.
    pub fn iter(&self) -> impl Iterator<Item = BucketView> + '_ {
        (0..self.len()).map(|i| self.at(i))
    }

    /// Whether every column is a zero-copy view into a snapshot buffer.
    pub fn is_borrowed(&self) -> bool {
        self.start.is_borrowed()
            && self.end.is_borrowed()
            && self.total.is_borrowed()
            && self.max_weight.is_borrowed()
    }
}

/// The raw parts of one join-tree node. Each table is a [`Col`]; a
/// borrowed archive's columns point into the snapshot file and are moved
/// (not copied) into the live [`crate::CqIndex`] after validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeArchive {
    /// Row count (disambiguates arity-0 nodes, whose `refs` are empty).
    pub rows: u32,
    /// Flat row-major value-table references (`rows × arity`).
    pub refs: Col<u32>,
    /// Per-row subtree answer count (Algorithm 2's `w(t)`).
    pub weights: Col<Weight>,
    /// Per-row start index within its bucket.
    pub starts: Starts,
    /// The bucket table (a partition of `0..rows`).
    pub buckets: Buckets,
    /// Bucket id of each row.
    pub bucket_of_row: Col<u32>,
    /// `child_buckets[c][row]`: bucket id in child `c` matched by `row`.
    pub child_buckets: Vec<Col<u32>>,
}

/// The raw parts of a [`crate::CqIndex`]: plan shape, head, value table,
/// and one [`NodeArchive`] per plan node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CqIndexArchive {
    /// Deduplicated value table every node's `refs` index into, in
    /// first-occurrence order of the node walk (deterministic).
    pub values: Vec<Value>,
    /// Sorted attribute bag of each plan node.
    pub bags: Vec<Vec<Symbol>>,
    /// Parent pointer of each plan node (`None` = root).
    pub parent: Vec<Option<usize>>,
    /// Head attributes in answer-tuple order.
    pub head: Vec<Symbol>,
    /// Per-node raw parts, in plan-node order.
    pub nodes: Vec<NodeArchive>,
}

/// The raw parts of an [`crate::OrderedCqIndex`]: the underlying index
/// archive plus the realized order metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderedCqIndexArchive {
    /// The underlying index archive (its layout realizes the order).
    pub index: CqIndexArchive,
    /// The realized lexicographic variable order.
    pub order: Vec<Symbol>,
    /// Per plan node: `(bag column, order position)` of the columns that
    /// introduce new order variables, most significant first.
    pub node_new: Vec<Vec<(u32, u32)>>,
}

/// The raw parts of an [`crate::OrderedMcUcqIndex`]: one ordered archive
/// per non-empty member subset, all over one shared ordered layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderedMcUcqArchive {
    /// Number of union members.
    pub m: u32,
    /// Head attributes in answer-tuple order.
    pub head: Vec<Symbol>,
    /// `structs[mask]` for non-empty masks; `structs[0]` is `None`.
    pub structs: Vec<Option<OrderedCqIndexArchive>>,
}

/// Shorthand constructor for [`crate::CoreError::InvalidArchive`].
pub(crate) fn invalid(detail: impl Into<String>) -> crate::CoreError {
    crate::CoreError::InvalidArchive(detail.into())
}
