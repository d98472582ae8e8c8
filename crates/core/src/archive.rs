//! Plain-data archives of the built index structures (DESIGN.md §15–16).
//!
//! An archive is the process-independent raw-parts form of an index: the
//! index's own sorted value table ([`ValueTable`]) plus flat `u32` rank
//! columns and the precomputed per-row artifact tables (startIndex prefix
//! sums in the layout the build chose, bucket tables, child-bucket links),
//! each exactly as the live index holds it. No table that another fixes
//! is stored: a row's weight `w(t)` is the next start in its bucket (or
//! the bucket total) minus its own start. Dictionary codes never
//! appear in an archive or in a live index — rows are ranks into the
//! index's value table, which is what makes the on-disk byte image (and
//! hence `rae-store`'s `artifact_digest`) stable across processes.
//!
//! Every numeric table is a [`Col`]: owned for fresh builds and owned
//! snapshot decodes, *borrowed* for zero-copy loads where the table is a
//! validated view straight into the snapshot file. That includes the
//! integer half of the value table and every rank column. The same
//! `from_archive` validation path serves both — a borrowed archive passes
//! through identical semantic checks before any answer is served.
//!
//! `to_archive` walks the live structure; `from_archive` is the validated
//! single-copy reconstruction path: it adopts the value table after one
//! pass per half proves it strictly increasing (nothing is interned and no
//! value is cloned per cell), and re-checks every structural invariant the
//! access algorithms rely on — forest shape, running intersection, ranks
//! in range, bucket partition and bucket ids, pAtts key grouping and
//! distinct bucket keys, startIndex prefix sums whose derived weights are
//! the products of the linked child bucket totals, bucket maxima, and
//! (for ordered layouts) within-bucket sort order on ranks — surfacing any
//! violation as [`crate::CoreError::InvalidArchive`] rather than serving
//! wrong answers.
//! The checks are column-wise passes over plain slices, a few per node. It
//! builds no lookup table: the inverted-access row tables stay lazy, built
//! on the first inverted access exactly as after a fresh build.
//!
//! The expensive phases of a build (sorting, semijoin reduction, weight
//! aggregation) are all absent from this path, which is why a cold-start
//! load is an order of magnitude cheaper than a rebuild (`perfbench`'s
//! `store.*` metrics against `yannakakis.reduce_s` + `core.build_s`) — and
//! why the borrowed path, which skips the table copies as well, is
//! cheaper still.

use crate::column::Col;
use crate::index::BucketView;
use crate::value_table::ValueTable;
use crate::weight::Weight;
use rae_data::Symbol;

/// Per-row startIndex storage of one node (Algorithm 2), shared between
/// the live index and its archive: each row's start within its bucket, as
/// a plain prefix sum. Compact `u64` whenever every start fits (always,
/// short of more than 2^64 answers below one bucket) — half the cache
/// traffic per binary-search probe; the `u128` layout is the overflow
/// fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Starts {
    /// Every start fits `u64` (the overwhelmingly common case).
    Compact(Col<u64>),
    /// Overflow fallback: full `u128` starts.
    Wide(Col<Weight>),
}

impl Starts {
    /// Chooses the narrowest layout for freshly built starts.
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
        }
    }

    /// Whether no starts are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The startIndex of row `i` within its bucket.
    #[inline]
    pub fn at(&self, i: usize) -> Weight {
        match self {
            Starts::Compact(v) => Weight::from(v[i]),
            Starts::Wide(v) => v[i],
        }
    }

    /// Number of rows in `[start, end)` (one bucket's row range) whose
    /// startIndex is ≤ `j`: the Algorithm 3 binary search, identical
    /// semantics across layouts.
    #[inline]
    pub fn rank_leq(&self, start: usize, end: usize, j: Weight) -> usize {
        match self {
            Starts::Compact(v) => match u64::try_from(j) {
                Ok(j64) => v[start..end].partition_point(|&s| s <= j64),
                // Every compact start fits u64 < j: all rows qualify.
                Err(_) => end - start,
            },
            Starts::Wide(v) => v[start..end].partition_point(|&s| s <= j),
        }
    }

    /// Whether the storage is a zero-copy view into a snapshot buffer.
    pub fn is_borrowed(&self) -> bool {
        match self {
            Starts::Compact(v) => v.is_borrowed(),
            Starts::Wide(v) => v.is_borrowed(),
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
    /// Flat row-major ranks into the archive's value table
    /// (`rows × arity`).
    pub refs: Col<u32>,
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
    /// The index's distinct values in value order; every node's `refs`
    /// are ranks into it.
    pub values: ValueTable,
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

/// Shorthand constructor for [`crate::CoreError::InvalidArchive`].
pub(crate) fn invalid(detail: impl Into<String>) -> crate::CoreError {
    crate::CoreError::InvalidArchive(detail.into())
}
