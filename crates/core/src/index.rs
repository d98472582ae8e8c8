//! Algorithms 2–4: the random-access data structure for free-connex CQs
//! (Theorem 4.3).
//!
//! Preprocessing ([`CqIndex::build`]):
//! 1. reduce the free-connex CQ to a full acyclic join over a join-tree plan
//!    (Proposition 4.2, implemented in `rae-yannakakis`);
//! 2. partition every node relation into *buckets* by the attributes shared
//!    with the parent (`pAtts`), sorting rows canonically by
//!    `(pAtts, full row)`;
//! 3. leaf-to-root, give every row a *weight* — the number of answers of the
//!    subtree below it (product of the matching child-bucket totals) — and a
//!    *startIndex*, the running weight sum within its bucket.
//!
//! Random access ([`CqIndex::access`]) descends root-to-leaf: binary search
//! for the row owning the requested index inside the current bucket, then
//! split the remainder across the children in mixed radix (`SplitIndex`).
//! Inverted access ([`CqIndex::inverted_access`]) runs the same walk guided
//! by the answer instead of the index, combining child indexes with
//! `CombineIndex`. Counting is O(1): the total weight at the (virtual) root.
//!
//! The enumeration order realized by `access` is the lexicographic order on
//! the DFS sequence of bag tuples; two indexes over the same [`TreePlan`]
//! whose node relations are subsets of one another therefore enumerate in
//! *compatible* orders (used by the mc-UCQ structure, Theorem 5.5).

// Sanctioned panics: each `expect` names a build-order invariant (weights and startIndex are
// filled bottom-up before any parent reads them); violation is a bug, not a
// recoverable state.
#![allow(clippy::expect_used)]

use crate::archive::{Buckets, CqIndexArchive, NodeArchive, Starts};
use crate::column::Col;
use crate::error::{catch_build, ensure_u32, CoreError};
use crate::guide::{Guide, StartWord};
use crate::renum_cq::CqShuffle;
use crate::scratch::AccessScratch;
use crate::value_table::{RankIndex, ValueTable};
use crate::weight::{checked_product, split_index, Weight};
use crate::Result;
use rae_data::{CodeKeyMap, Database, Relation, SortAlgorithm, Symbol, Value, ValueCode};
use rae_faults::{degrade, fail_point};
use rae_query::{ConjunctiveQuery, QueryError, TreePlan};
use rae_yannakakis::{full_reduce, reduce_to_full_acyclic_with, ReduceOptions};
use rand::Rng;
use std::ops::Range;
use std::sync::OnceLock;

/// Environment variable overriding the preprocessing thread count
/// (`1` forces the serial build; unset ⇒ available parallelism).
pub const BUILD_THREADS_ENV: &str = "RAE_BUILD_THREADS";

/// Builds below this many total input tuples always run serially: thread
/// spawn overhead dwarfs the work, and the tiny indexes of unit tests should
/// not fan out.
const MIN_PARALLEL_TUPLES: usize = 4096;

/// Smallest per-node row count worth chunking across threads in the
/// weights/child-bucket pass.
const MIN_PARALLEL_ROWS: usize = 8192;

/// Preprocessing configuration for [`CqIndex::from_parts_with`].
///
/// The build is **deterministic** for every configuration: serial and
/// parallel builds (any thread count, either sort algorithm) produce
/// byte-identical index artifacts — startIndexes, buckets, row
/// orders, and child-bucket tables. The knobs only trade wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildOptions {
    /// Worker threads for the level-synchronous build. `0` = auto: the
    /// [`BUILD_THREADS_ENV`] environment variable if set, otherwise
    /// [`std::thread::available_parallelism`]. `1` = the serial path (no
    /// threads are spawned).
    pub threads: usize,
    /// Sort implementation for the canonical relation sorts (radix vs
    /// comparison ablation; see `rae_data::SortAlgorithm`).
    pub sort: SortAlgorithm,
}

impl BuildOptions {
    /// The fully serial configuration (today's single-threaded path).
    pub fn serial() -> Self {
        BuildOptions {
            threads: 1,
            sort: SortAlgorithm::default(),
        }
    }

    /// A configuration with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        BuildOptions {
            threads,
            sort: SortAlgorithm::default(),
        }
    }

    /// The effective thread count (resolving `0` through the environment
    /// and the machine's available parallelism).
    pub fn resolved_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        if let Ok(raw) = std::env::var(BUILD_THREADS_ENV) {
            if let Ok(n) = raw.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// A bucket of a node relation: a contiguous, canonically ordered row range
/// sharing one `pAtts` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketView {
    /// First row id of the bucket.
    pub start: u32,
    /// One past the last row id.
    pub end: u32,
    /// Total weight (number of subtree answers) of the bucket.
    pub total: Weight,
    /// Maximum row weight in the bucket (used by Olken-style samplers).
    pub max_weight: Weight,
}

#[derive(Debug)]
struct NodeIndex {
    /// The node's canonically sorted rows, flat row-major (`rows ×
    /// arity`), as ranks into the index's [`ValueTable`].
    ranks: Col<u32>,
    /// Positions (in the bag) of the attributes shared with the parent.
    key_cols: Vec<usize>,
    /// Per-row start index within its bucket (Algorithm 2's
    /// `startIndex`), compact `u64` or wide `u128` (see
    /// [`crate::archive::Starts`]). It fixes each row's subtree answer
    /// count `w(t)` ([`NodeIndex::weight`]), which is therefore not stored.
    /// Owned for fresh builds; a zero-copy snapshot view after a borrowed
    /// load (likewise for the other [`Col`]-typed tables).
    starts: Starts,
    /// Derived from `starts`, never archived: the row location of each
    /// weighted bucket of at least [`crate::guide::GUIDE_MIN_ROWS`] rows.
    guide: Guide,
    buckets: Buckets,
    /// Bucket id of each row.
    bucket_of_row: Col<u32>,
    /// `child_buckets[c][row]`: bucket id in child `c` matched by `row`.
    child_buckets: Vec<Col<u32>>,
    /// For each bag column, the head position it feeds.
    bag_to_head: Vec<usize>,
    /// Lazily built full-tuple-ranks → row id lookup (Algorithm 4, line 4).
    /// The paper's implementation also builds this index only when inverted
    /// access is actually needed (Section 6.1).
    row_by_tuple: OnceLock<CodeKeyMap>,
}

impl NodeIndex {
    /// Number of rows (every row has exactly one bucket id).
    #[inline]
    fn len(&self) -> usize {
        self.bucket_of_row.len()
    }

    /// Algorithm 2's `w(t)` of `row`, always ≥ 1: the next row's start in
    /// its bucket (the bucket total after its last row) minus its own.
    fn weight(&self, row: usize) -> Weight {
        let bucket = self.bucket_of_row[row] as usize;
        let next = if row + 1 < self.buckets.end[bucket] as usize {
            self.starts.at(row + 1)
        } else {
            self.buckets.total[bucket]
        };
        next - self.starts.at(row)
    }

    /// The ranks of one row, in bag order.
    #[inline]
    fn row(&self, row: usize) -> &[u32] {
        let arity = self.bag_to_head.len();
        &self.ranks[row * arity..][..arity]
    }

    fn row_lookup(&self) -> &CodeKeyMap {
        self.row_by_tuple.get_or_init(|| {
            // Row count was validated against u32 in `from_parts_with`. Sized to
            // the node's rows, so the table never re-grows, and filled from
            // the flat rank column in one tight loop.
            let arity = self.bag_to_head.len();
            let rows = self.len();
            let mut map = CodeKeyMap::with_capacity(arity, rows);
            if arity == 0 {
                for i in 0..rows {
                    map.insert(&[], i as u32);
                }
            } else {
                for (i, key) in self.ranks.chunks_exact(arity).enumerate() {
                    map.insert(key, i as u32);
                }
            }
            map
        })
    }
}

/// The Theorem 4.3 structure: linear-time preprocessing, O(1) count,
/// O(log n) random access, O(1) inverted access for a free-connex CQ.
#[derive(Debug)]
pub struct CqIndex {
    plan: TreePlan,
    nodes: Vec<NodeIndex>,
    head: Vec<Symbol>,
    root_totals: Vec<Weight>,
    total: Weight,
    /// The index's distinct values in value order; node rows are ranks into
    /// it, so no read consults a dictionary.
    values: ValueTable,
    /// Lazily built value → rank hash index over `values`, for inverted
    /// access (built with the row tables, see
    /// [`CqIndex::prepare_inverted_access`]).
    rank_index: OnceLock<RankIndex>,
}

impl CqIndex {
    /// Builds the index for a free-connex CQ over a database.
    ///
    /// Fails with a [`rae_query::QueryError::NotFreeConnex`] /
    /// [`rae_query::QueryError::NotAcyclic`] wrapped error when the query is
    /// outside the tractable class of Theorem 4.3.
    ///
    /// ```
    /// use rae_core::CqIndex;
    /// use rae_data::{Database, Relation, Schema, Value};
    ///
    /// let mut db = Database::new();
    /// db.add_relation(
    ///     "R",
    ///     Relation::from_rows(
    ///         Schema::new(["a", "b"]).unwrap(),
    ///         vec![
    ///             vec![Value::Int(1), Value::Int(10)],
    ///             vec![Value::Int(1), Value::Int(11)],
    ///             vec![Value::Int(2), Value::Int(10)],
    ///         ],
    ///     )
    ///     .unwrap(),
    /// )
    /// .unwrap();
    /// let q = "Q(x, y) :- R(x, y)".parse().unwrap();
    ///
    /// let index = CqIndex::build(&q, &db).unwrap();
    /// assert_eq!(index.count(), 3); // O(1)
    /// let answer = index.access(1).unwrap(); // O(log n)
    /// assert_eq!(index.inverted_access(&answer), Some(1)); // round-trips
    /// ```
    pub fn build(cq: &ConjunctiveQuery, db: &Database) -> Result<Self> {
        Self::build_with(cq, db, ReduceOptions::default())
    }

    /// [`CqIndex::build`] with explicit join-tree layout options (root
    /// orientation, subset folding). All layouts are correct; they differ in
    /// constant factors — the `ablation-fold` experiment quantifies this,
    /// and the sampling baselines use the fan-out layout (DESIGN.md §4).
    pub fn build_with(
        cq: &ConjunctiveQuery,
        db: &Database,
        options: ReduceOptions,
    ) -> Result<Self> {
        // The catch boundary sits here (not only around `from_parts_with`) so a
        // panic inside the Proposition 4.2 reduction also surfaces as a
        // structured `BuildPanicked` instead of unwinding into the caller.
        catch_build("CqIndex::build", || {
            let fj = reduce_to_full_acyclic_with(cq, db, options)?;
            Self::from_parts_with(fj.plan, fj.relations, fj.head, BuildOptions::default())
        })
    }

    /// Builds the index from raw parts: a plan, one relation per node (schema
    /// = bag), and the head attribute order, under explicit preprocessing
    /// options: thread count for the level-synchronous parallel build and
    /// the sort implementation (see [`BuildOptions`] and DESIGN.md §10).
    ///
    /// Every bag attribute must be a head attribute and vice versa (the
    /// structure enumerates distinct full-join tuples, so non-head bag
    /// attributes would produce duplicate answers). Relations are
    /// canonically sorted here, and fully reduced unless they all share one
    /// consistency witness ([`Relation::mark_consistent`]), as the output of
    /// `reduce_to_full_acyclic` does. Any input is therefore accepted: the
    /// mc-UCQ builder passes intersected relations, which carry no witness
    /// and are reduced here, and relations from different dictionaries are
    /// put on one ([`Relation::share_dictionary`]).
    ///
    /// The produced index is byte-identical for every option combination.
    /// The build is transactional: it consumes owned relations, so on any
    /// error — injected fault, or a panic caught at this boundary — the
    /// source `Database` is observably unchanged.
    pub fn from_parts_with(
        plan: TreePlan,
        relations: Vec<Relation>,
        head: Vec<Symbol>,
        options: BuildOptions,
    ) -> Result<Self> {
        Self::from_parts_inner(plan, relations, head, options, None)
    }

    /// [`CqIndex::from_parts_with`] with an explicit sort priority per node:
    /// `priorities[i]` lists every bag column of node `i` exactly once,
    /// starting with the parent-shared columns. Node relations are sorted by
    /// that column priority instead of the default `(pAtts, schema order)`,
    /// which makes the access order the lexicographic order chosen by a
    /// `rae_query::LexPlan` (see `crate::ordered`).
    pub(crate) fn from_parts_lex(
        plan: TreePlan,
        relations: Vec<Relation>,
        head: Vec<Symbol>,
        priorities: &[Vec<usize>],
    ) -> Result<Self> {
        assert_eq!(priorities.len(), plan.node_count(), "one priority per node");
        #[cfg(debug_assertions)]
        for (i, priority) in priorities.iter().enumerate() {
            let keys = plan.parent_shared_cols(i);
            let mut sorted = priority.clone();
            sorted.sort_unstable();
            debug_assert_eq!(sorted, (0..plan.bag(i).len()).collect::<Vec<_>>());
            let mut prefix = priority[..keys.len()].to_vec();
            prefix.sort_unstable();
            debug_assert_eq!(prefix, keys, "priority must start with pAtts");
        }
        Self::from_parts_inner(
            plan,
            relations,
            head,
            BuildOptions::default(),
            Some(priorities),
        )
    }

    /// The `catch_unwind` boundary shared by every build entry point: any
    /// panic inside the phases (own code, injected chaos fault, or a worker
    /// thread's panic re-thrown at its scope join) becomes a structured
    /// [`CoreError::BuildPanicked`] instead of unwinding through the public
    /// API.
    fn from_parts_inner(
        plan: TreePlan,
        relations: Vec<Relation>,
        head: Vec<Symbol>,
        options: BuildOptions,
        priorities: Option<&[Vec<usize>]>,
    ) -> Result<Self> {
        catch_build("CqIndex::from_parts_with", move || {
            Self::from_parts_phases(plan, relations, head, options, priorities)
        })
    }

    fn from_parts_phases(
        plan: TreePlan,
        mut relations: Vec<Relation>,
        head: Vec<Symbol>,
        options: BuildOptions,
        priorities: Option<&[Vec<usize>]>,
    ) -> Result<Self> {
        assert_eq!(
            plan.node_count(),
            relations.len(),
            "one relation per plan node"
        );
        validate_head(&plan, &head)?;

        // Code-based preprocessing compares codes across relations: put
        // relations from different dictionaries on one first. Only the
        // build reads codes: it ends by remapping them to ranks into the
        // index's own value table.
        Relation::share_dictionary(&mut relations)?;

        // Serial below the parallel-worthwhile floor (also keeps unit-test
        // workloads from spawning threads for micro relations).
        let total_rows: usize = relations.iter().map(Relation::len).sum();
        let mut threads = if total_rows < MIN_PARALLEL_TUPLES {
            1
        } else {
            options.resolved_threads()
        };
        // Graceful degradation: a denied thread spawn (injected fault
        // standing in for resource exhaustion — `std::thread::scope` itself
        // aborts rather than reporting spawn failure) falls back to the
        // serial build, which produces byte-identical artifacts.
        if threads > 1 && rae_faults::eval_error("build/spawn") {
            degrade::record("build/spawn");
            threads = 1;
        }

        // Phase 1 — set semantics (idempotent when already done). Each
        // relation sorts independently: the first parallel stage.
        par_for_each_indexed(&mut relations, threads, |_, rel| {
            rel.sort_dedup_with(options.sort);
        });

        // Phase 2 — global consistency via merge semijoins (edge-sequential:
        // each semijoin consumes its predecessor's reduction). Relations one
        // reduction already left consistent share its witness and skip it.
        if !Relation::share_consistency_witness(&relations) {
            full_reduce(&plan, &mut relations)?;
        }

        let n = plan.node_count();

        // Phase 3 — canonical sort per node: `(pAtts, full row)` by default,
        // or an explicit full column priority for lex-ordered layouts (the
        // priority starts with the pAtts, so bucketing is unaffected).
        // Independent of the tree structure, so all nodes sort concurrently
        // (relations that full reduction left in a covered order skip
        // entirely via the `sorted_by` fingerprint).
        let sort_keys: Vec<Vec<usize>> = match priorities {
            Some(p) => p.to_vec(),
            None => (0..n).map(|i| plan.parent_shared_cols(i)).collect(),
        };
        par_for_each_indexed(&mut relations, threads, |i, rel| {
            rel.sort_by_key_then_row_with(&sort_keys[i], options.sort);
        });

        // Phase 4 — level-synchronous weights/buckets: group nodes by tree
        // depth and build every node of a level concurrently (all children
        // live in deeper, already-built levels). Within a level, leftover
        // threads chunk the row loops of large nodes.
        let mut depth = vec![0usize; n];
        for &node in plan.leaf_to_root().iter().rev() {
            if let Some(p) = plan.parent(node) {
                depth[node] = depth[p] + 1;
            }
        }
        let max_depth = depth.iter().copied().max().unwrap_or(0);
        let mut levels: Vec<Vec<usize>> = vec![Vec::new(); max_depth + 1];
        for &node in plan.leaf_to_root() {
            levels[depth[node]].push(node);
        }

        let mut nodes: Vec<Option<BuiltNode>> = (0..n).map(|_| None).collect();
        for level in levels.iter().rev() {
            let work: Vec<(usize, Relation)> = level
                .iter()
                .map(|&node| {
                    let rel = std::mem::take(&mut relations[node]);
                    (node, rel)
                })
                .collect();
            let built = build_level(
                &plan,
                work,
                &head,
                &nodes,
                threads,
                options.sort,
                &sort_keys,
            )?;
            for (node, built_node) in built {
                nodes[node] = Some(built_node);
            }
        }

        // Phase 5 — one table of the nodes' distinct values in value order,
        // and every node's codes as ranks into it (the build's last read of
        // dictionary codes).
        let (rels, mut nodes): (Vec<Relation>, Vec<NodeIndex>) = nodes
            .into_iter()
            .map(|n| {
                let n = n.expect("built");
                (n.rel, n.index)
            })
            .unzip();
        let (values, ranks) = rank_columns(rels);
        for (nd, ranks) in nodes.iter_mut().zip(ranks) {
            nd.ranks = Col::Owned(ranks);
        }
        let root_totals: Vec<Weight> = plan
            .roots()
            .iter()
            .map(|&r| nodes[r].buckets.first().map_or(0, |b| b.total))
            .collect();
        let total = if root_totals.contains(&0) {
            0
        } else {
            checked_product(root_totals.iter().copied()).ok_or(CoreError::WeightOverflow)?
        };

        Ok(CqIndex {
            plan,
            nodes,
            head,
            root_totals,
            total,
            values,
            rank_index: OnceLock::new(),
        })
    }

    /// The number of answers `|Q(D)|` — O(1) (Theorem 4.3).
    #[inline]
    pub fn count(&self) -> Weight {
        self.total
    }

    /// Counts the answers using only the access routine, as in the proof of
    /// Theorem 3.7: binary-search for the first out-of-bound position with
    /// `O(log |Q(D)|)` access calls. Provided for parity with the paper
    /// (structures whose counts are not free get their counts this way);
    /// [`CqIndex::count`] is the O(1) version.
    pub fn count_via_access(&self) -> Weight {
        // Exponential search for an upper bound, then binary search.
        if self.access(0).is_none() {
            return 0;
        }
        let mut hi: Weight = 1;
        while self.access(hi).is_some() {
            hi = hi.saturating_mul(2);
        }
        let mut lo: Weight = hi / 2; // access(lo) is Some
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.access(mid).is_some() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// The head attributes, in answer order.
    pub fn head(&self) -> &[Symbol] {
        &self.head
    }

    /// The join-tree plan the index is built over.
    pub fn plan(&self) -> &TreePlan {
        &self.plan
    }

    /// Algorithm 3: the `j`-th answer (0-based) of the enumeration order, or
    /// `None` if `j ≥ count()`.
    ///
    /// Thin allocating wrapper over [`CqIndex::access_into`] (fresh scratch
    /// plus an owned result per call). Steady-state callers should hold an
    /// [`AccessScratch`] and use `access_into` directly: it performs zero
    /// heap allocations per answer.
    pub fn access(&self, j: Weight) -> Option<Vec<Value>> {
        let mut scratch = AccessScratch::new();
        self.access_into(j, &mut scratch).map(<[Value]>::to_vec)
    }

    /// Algorithm 3 without allocation: writes the `j`-th answer into
    /// `scratch` and returns a borrow of it, or `None` if `j ≥ count()`.
    ///
    /// The recursive descent of the paper is run as an explicit work-stack
    /// walk over `scratch`; all buffers (answer, stack, digit vector) are
    /// reused across calls, so after the first call on a given shape the
    /// routine allocates nothing.
    ///
    /// Each node's row is located by [`Guide::locate`]: none is searched
    /// when the bucket's total equals its row count (all weights are then 1
    /// and sub-answer `k` is row `start + k`: every leaf bucket, and every
    /// bucket whose rows each have one sub-answer below); a large weighted
    /// bucket reads two guide slots and searches the few rows between
    /// them; a small one searches its rows. The worst case stays O(log n).
    ///
    /// ```
    /// use rae_core::{AccessScratch, CqIndex};
    /// use rae_data::{Database, Relation, Schema, Value};
    ///
    /// let mut db = Database::new();
    /// let rel = Relation::from_rows(
    ///     Schema::new(["a"]).unwrap(),
    ///     (0..100).map(|i| vec![Value::Int(i)]),
    /// )
    /// .unwrap();
    /// db.add_relation("R", rel).unwrap();
    /// let index = CqIndex::build(&"Q(x) :- R(x)".parse().unwrap(), &db).unwrap();
    ///
    /// // One scratch, many accesses: zero heap allocations per answer once
    /// // the buffers are warm (verified by tests/zero_alloc.rs).
    /// let mut scratch = AccessScratch::new();
    /// for j in 0..index.count() {
    ///     let answer = index.access_into(j, &mut scratch).unwrap();
    ///     assert_eq!(answer, &[Value::Int(j as i64)]);
    /// }
    /// ```
    pub fn access_into<'s>(
        &self,
        j: Weight,
        scratch: &'s mut AccessScratch,
    ) -> Option<&'s [Value]> {
        if j >= self.total {
            return None;
        }
        scratch.reset_answer(self.head.len());
        scratch.stack.clear();
        let roots = self.plan.roots();
        if let [root] = roots {
            // Single root (the common case): the whole index is its digit.
            scratch.stack.push((*root as u32, 0, j));
        } else {
            split_index(j, &self.root_totals, &mut scratch.digits);
            for (&root, &digit) in roots.iter().zip(scratch.digits.iter()) {
                scratch.stack.push((root as u32, 0, digit));
            }
        }
        while let Some((node, bucket_id, sub_index)) = scratch.stack.pop() {
            let nd = &self.nodes[node as usize];
            // Only the bucket columns the descent reads: its row range and
            // total here, a child bucket's total below.
            let (b, buckets) = (bucket_id as usize, &nd.buckets);
            let rows = buckets.start[b] as usize..buckets.end[b] as usize;
            let (row_id, mut remainder) =
                nd.guide
                    .locate(&nd.starts, rows, buckets.total[b], sub_index);
            // Every weight is at least 1, so a zero remainder needs no
            // weight, and a unit-weight bucket's starts stay unread.
            debug_assert!(remainder == 0 || remainder < nd.weight(row_id));

            for (&head_pos, &rank) in nd.bag_to_head.iter().zip(nd.row(row_id)) {
                self.values.write(rank, &mut scratch.answer[head_pos]);
            }

            // SplitIndex inline: children are mixed-radix digits with the
            // last child least significant, so peeling digits in reverse
            // child order needs no radix/digit vectors at all.
            let children = self.plan.children(node as usize);
            for (c, &child) in children.iter().enumerate().rev() {
                let child_bucket = nd.child_buckets[c][row_id];
                let radix = self.nodes[child].buckets.total[child_bucket as usize];
                debug_assert!(radix > 0, "zero-weight bucket reached during access");
                scratch
                    .stack
                    .push((child as u32, child_bucket, remainder % radix));
                remainder /= radix;
            }
            debug_assert_eq!(remainder, 0, "index exceeded the subtree weight");
        }
        Some(&scratch.answer)
    }

    /// Algorithm 4: the position of `answer` in the enumeration order, or
    /// `None` if it is not an answer ("not-a-member").
    ///
    /// Thin allocating wrapper over [`CqIndex::inverted_access_of`]. The
    /// per-node tuple lookup tables are built lazily on first use (as in
    /// the paper's implementation); see [`CqIndex::prepare_inverted_access`].
    pub fn inverted_access(&self, answer: &[Value]) -> Option<Weight> {
        let mut scratch = AccessScratch::new();
        self.inverted_access_of(answer, &mut scratch)
    }

    /// Algorithm 4 without allocation: resolves the position of `answer`
    /// using the buffers in `scratch`.
    ///
    /// The answer is first translated to ranks through a hash index over
    /// the index's value table (a value the table does not hold is
    /// definitively not an answer), then each node resolves its row by an
    /// allocation-free [`CodeKeyMap`] probe on ranks.
    /// Nodes are processed leaf-to-root so every node's mixed-radix digit is
    /// available when its parent combines them — no recursion, no per-node
    /// vectors.
    pub fn inverted_access_of(
        &self,
        answer: &[Value],
        scratch: &mut AccessScratch,
    ) -> Option<Weight> {
        if answer.len() != self.head.len() || self.total == 0 {
            return None;
        }
        let rank_index = self.rank_index();
        scratch.answer_ranks.clear();
        for value in answer {
            scratch
                .answer_ranks
                .push(rank_index.rank_of(&self.values, value)?);
        }
        scratch.node_digits.clear();
        scratch.node_digits.resize(self.nodes.len(), 0);
        for &node in self.plan.leaf_to_root() {
            let nd = &self.nodes[node];
            scratch.key_ranks.clear();
            for &head_pos in &nd.bag_to_head {
                scratch.key_ranks.push(scratch.answer_ranks[head_pos]);
            }
            let row_id = nd.row_lookup().get(&scratch.key_ranks)? as usize;
            // CombineIndex inline over the children's digits (children were
            // all processed earlier in leaf-to-root order). The child's
            // matched row lives in the bucket this row points at whenever
            // `answer` is consistent, which the per-node lookups guarantee.
            let mut digit: Weight = 0;
            for (c, &child) in self.plan.children(node).iter().enumerate() {
                let child_bucket = nd.child_buckets[c][row_id];
                let radix = self.nodes[child].buckets.total[child_bucket as usize];
                let child_digit = scratch.node_digits[child];
                debug_assert!(child_digit < radix);
                digit = digit * radix + child_digit;
            }
            scratch.node_digits[node] = nd.starts.at(row_id) + digit;
        }
        let mut index: Weight = 0;
        for (&root, &total) in self.plan.roots().iter().zip(self.root_totals.iter()) {
            let digit = scratch.node_digits[root];
            debug_assert!(digit < total);
            index = index * total + digit;
        }
        Some(index)
    }

    /// Whether `answer` is an answer (membership test via inverted access).
    pub fn contains(&self, answer: &[Value]) -> bool {
        self.inverted_access(answer).is_some()
    }

    /// Forces construction of the inverted-access lookup tables (otherwise
    /// built lazily on the first [`CqIndex::inverted_access`] call).
    pub fn prepare_inverted_access(&self) {
        let _ = self.rank_index();
        for nd in &self.nodes {
            let _ = nd.row_lookup();
        }
    }

    fn rank_index(&self) -> &RankIndex {
        self.rank_index.get_or_init(|| RankIndex::new(&self.values))
    }

    /// Sequential enumeration in the index's order (Fact 3.5: random access
    /// yields enumeration by accessing 0, 1, 2, …) — O(log n) delay. For the
    /// constant-delay enumerator of Theorem 4.1 use [`CqIndex::sequential`].
    pub fn enumerate(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.total).map(move |j| self.access(j).expect("j < count"))
    }

    /// Constant-delay sequential enumeration (`Enum⟨lin, const⟩`,
    /// Theorem 4.1): an odometer cursor over the join tree emitting answers
    /// in the same order as [`CqIndex::enumerate`] without per-answer binary
    /// searches.
    pub fn sequential(&self) -> crate::enumerate::CqSequential<'_> {
        crate::enumerate::CqSequential::new(self)
    }

    /// A uniformly random permutation of the answers (Theorem 3.7:
    /// Fisher–Yates over random access), with O(log n) delay.
    pub fn random_permutation<R: Rng>(&self, rng: R) -> CqShuffle<'_, R> {
        CqShuffle::new(self, rng)
    }

    // ------------------------------------------------------------------
    // Raw structure accessors (used by the `rae-sampler` baselines and the
    // benchmark harness; not needed for ordinary query answering).
    // ------------------------------------------------------------------

    /// Number of plan nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of rows of a node's canonically sorted relation.
    pub fn node_len(&self, node: usize) -> usize {
        self.nodes[node].len()
    }

    /// The values of `row` of `node`, in bag order, as ranks into
    /// [`CqIndex::values`]: equal ranks are equal values, and rank order is
    /// value order.
    pub fn node_ranks(&self, node: usize, row: u32) -> &[u32] {
        self.nodes[node].row(row as usize)
    }

    /// The index's distinct values in value order (what node ranks index).
    pub fn values(&self) -> &ValueTable {
        &self.values
    }

    /// The subtree-answer weight of a row (Algorithm 2's `w(t)`), derived
    /// from startIndex: the next row's start in its bucket, or the bucket
    /// total after its last row, minus the row's own start.
    pub fn row_weight(&self, node: usize, row: u32) -> Weight {
        self.nodes[node].weight(row as usize)
    }

    /// The single bucket of a root node, if the index is non-empty.
    pub fn root_bucket(&self, root: usize) -> Option<BucketView> {
        debug_assert!(self.plan.roots().contains(&root));
        self.nodes[root].buckets.first()
    }

    /// The bucket of child `child_pos` of `node` matched by `row`.
    pub fn child_bucket(&self, node: usize, row: u32, child_pos: usize) -> BucketView {
        let nd = &self.nodes[node];
        let child = self.plan.children(node)[child_pos];
        let bucket_id = nd.child_buckets[child_pos][row as usize];
        self.nodes[child].buckets.at(bucket_id as usize)
    }

    /// Writes the head values contributed by `row` of `node` into `answer`.
    pub fn write_row_values(&self, node: usize, row: u32, answer: &mut [Value]) {
        let nd = &self.nodes[node];
        for (&head_pos, &rank) in nd.bag_to_head.iter().zip(nd.row(row as usize)) {
            self.values.write(rank, &mut answer[head_pos]);
        }
    }

    /// The number of head attributes.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// The `pAtts` positions (within the node's bag) — empty for roots.
    pub fn node_key_cols(&self, node: usize) -> &[usize] {
        &self.nodes[node].key_cols
    }

    /// The id of the bucket containing `row` of `node`.
    pub fn bucket_of_row(&self, node: usize, row: u32) -> u32 {
        self.nodes[node].bucket_of_row[row as usize]
    }

    /// A bucket of `node` by id.
    pub fn bucket(&self, node: usize, bucket_id: u32) -> BucketView {
        self.nodes[node].buckets.at(bucket_id as usize)
    }

    /// Number of buckets of `node`.
    pub fn bucket_count(&self, node: usize) -> usize {
        self.nodes[node].buckets.len()
    }

    /// The startIndex of `row` within its bucket (Algorithm 2).
    pub fn row_start(&self, node: usize, row: u32) -> Weight {
        self.nodes[node].starts.at(row as usize)
    }

    /// The row of `bucket` of `node` owning sub-answer `j`, and `j`'s
    /// remainder in it: [`CqIndex::access_into`]'s row location, for the
    /// sequential cursor's seek.
    pub(crate) fn locate(&self, node: usize, bucket: BucketView, j: Weight) -> (usize, Weight) {
        let nd = &self.nodes[node];
        let rows = bucket.start as usize..bucket.end as usize;
        nd.guide.locate(&nd.starts, rows, bucket.total, j)
    }

    /// Whether every per-row artifact table (ranks, starts,
    /// buckets, bucket ids, child links) and the integer half of the value
    /// table are zero-copy views into a snapshot buffer — true exactly for
    /// indexes reconstructed by the store's borrowed load path.
    pub fn storage_is_borrowed(&self) -> bool {
        !self.nodes.is_empty()
            && self.values.ints.is_borrowed()
            && self.nodes.iter().all(|nd| {
                nd.ranks.is_borrowed()
                    && nd.starts.is_borrowed()
                    && nd.buckets.is_borrowed()
                    && nd.bucket_of_row.is_borrowed()
                    && nd.child_buckets.iter().all(Col::is_borrowed)
            })
    }
}

/// Checks the head against the plan, as every entry point must: no variable
/// twice (a repeated head slot would never be written by any node), and
/// attribute coverage in both directions.
fn validate_head(plan: &TreePlan, head: &[Symbol]) -> Result<()> {
    if let Some((_, dup)) = head
        .iter()
        .enumerate()
        .find(|(i, attr)| head[..*i].contains(attr))
    {
        return Err(CoreError::Query(QueryError::DuplicateHeadVariable(
            dup.clone(),
        )));
    }
    for i in 0..plan.node_count() {
        for attr in plan.bag(i) {
            if !head.contains(attr) {
                return Err(CoreError::UncoveredHeadAttribute(format!(
                    "bag attribute {attr} is not a head attribute"
                )));
            }
        }
    }
    for attr in head {
        if !(0..plan.node_count()).any(|i| plan.bag(i).binary_search(attr).is_ok()) {
            return Err(CoreError::UncoveredHeadAttribute(attr.to_string()));
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Level-synchronous build internals (DESIGN.md §10). Everything below is
// deterministic: worker assignment never influences any produced artifact.
// ----------------------------------------------------------------------

/// A node built during preprocessing, with its coded relation and the
/// `pAtts` key → bucket id map its parent's weights pass probes. Only the
/// build reads either: the relation becomes ranks at the end of the build
/// and both are dropped.
struct BuiltNode {
    index: NodeIndex,
    rel: Relation,
    /// Probed with borrowed code slices, so no key is ever materialized
    /// on the lookup path.
    bucket_by_key: CodeKeyMap,
}

/// The end-of-build remap: the distinct values of `rels` as one table in
/// value order, and each relation's code column as ranks into it. Codes
/// are dense within the dictionary, so a code → rank array replaces any
/// hashing, and only a code's first sight reads its value. Ints and
/// strings sort apart; strings compare by a 16-byte prefix key first, so
/// most comparisons never dereference a string. Each relation is dropped
/// as soon as its ranks exist, so at most one node is held twice.
/// Arity-0 relations get no ranks.
fn rank_columns(rels: Vec<Relation>) -> (ValueTable, Vec<Vec<u32>>) {
    let coded = |rel: &&Relation| rel.arity() != 0;
    let max_code = rels
        .iter()
        .filter(coded)
        .filter_map(|rel| rel.codes().iter().copied().max())
        .max();
    // Zero means "not seen yet"; a zeroed allocation costs nothing for the
    // pages of dictionary codes no node uses.
    let mut rank_of: Vec<u32> = vec![0; max_code.map_or(0, |c| c as usize + 1)];
    let mut ints: Vec<(i64, ValueCode)> = Vec::new();
    let mut strs: Vec<(u128, Symbol, ValueCode)> = Vec::new();
    for rel in rels.iter().filter(coded) {
        for (row, codes) in rel.codes().chunks_exact(rel.arity()).enumerate() {
            for (col, &code) in codes.iter().enumerate() {
                let seen = &mut rank_of[code as usize];
                if *seen == 0 {
                    *seen = 1;
                    match &rel.row(row)[col] {
                        Value::Int(i) => ints.push((*i, code)),
                        Value::Str(s) => strs.push((prefix_key(s), s.clone(), code)),
                    }
                }
            }
        }
    }
    ints.sort_unstable_by_key(|&(i, _)| i);
    strs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    // Distinct values fit the dictionary's u32 code space, so ranks do too.
    for (rank, &(_, code)) in ints.iter().enumerate() {
        rank_of[code as usize] = rank as u32;
    }
    for (rank, &(_, _, code)) in strs.iter().enumerate() {
        rank_of[code as usize] = (ints.len() + rank) as u32;
    }
    let ranks = rels
        .into_iter()
        .map(|rel| match rel.arity() {
            0 => Vec::new(),
            _ => rel.codes().iter().map(|&c| rank_of[c as usize]).collect(),
        })
        .collect();
    let values = ValueTable {
        ints: Col::Owned(ints.into_iter().map(|(i, _)| i).collect()),
        strs: strs.into_iter().map(|(_, s, _)| s).collect(),
    };
    (values, ranks)
}

/// A string's first sixteen bytes, big-endian and zero-padded: where two
/// keys differ, they order as their strings do.
fn prefix_key(s: &str) -> u128 {
    let mut head = [0u8; 16];
    let n = s.len().min(16);
    head[..n].copy_from_slice(&s.as_bytes()[..n]);
    u128::from_be_bytes(head)
}

/// Runs `f(index, item)` over `items`, splitting the slice into contiguous
/// chunks across up to `threads` scoped worker threads (serial when
/// `threads <= 1` or there is at most one item).
fn par_for_each_indexed<T: Send>(
    items: &mut [T],
    threads: usize,
    f: impl Fn(usize, &mut T) + Sync,
) {
    if threads <= 1 || items.len() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = items.len().div_ceil(threads.min(items.len()));
    std::thread::scope(|scope| {
        for (w, slice) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (j, item) in slice.iter_mut().enumerate() {
                    f(w * chunk + j, item);
                }
            });
        }
    });
}

/// Builds every node of one tree level. Nodes of a level are independent
/// (their children live in deeper levels, already present in `nodes`), so
/// with `threads > 1` they build concurrently; leftover parallelism goes to
/// row-chunking inside the nodes ([`compute_weights`]).
fn build_level(
    plan: &TreePlan,
    work: Vec<(usize, Relation)>,
    head: &[Symbol],
    nodes: &[Option<BuiltNode>],
    threads: usize,
    sort: SortAlgorithm,
    sort_keys: &[Vec<usize>],
) -> Result<Vec<(usize, BuiltNode)>> {
    let node_workers = threads.min(work.len());
    if node_workers <= 1 {
        // Single node (or serial): give the whole thread budget to the rows.
        return work
            .into_iter()
            .map(|(node, rel)| {
                Ok((
                    node,
                    build_node(
                        plan,
                        node,
                        rel,
                        head,
                        nodes,
                        threads,
                        sort,
                        &sort_keys[node],
                    )?,
                ))
            })
            .collect();
    }
    let inner_threads = (threads / node_workers).max(1);
    let mut shards: Vec<Vec<(usize, Relation)>> = (0..node_workers).map(|_| Vec::new()).collect();
    for (i, item) in work.into_iter().enumerate() {
        shards[i % node_workers].push(item);
    }
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(node_workers);
        for shard in shards {
            handles.push(scope.spawn(move || -> Result<Vec<(usize, BuiltNode)>> {
                shard
                    .into_iter()
                    .map(|(node, rel)| {
                        Ok((
                            node,
                            build_node(
                                plan,
                                node,
                                rel,
                                head,
                                nodes,
                                inner_threads,
                                sort,
                                &sort_keys[node],
                            )?,
                        ))
                    })
                    .collect()
            }));
        }
        // Join every handle before reporting: an early `?` would leave
        // handles unjoined, and `thread::scope` re-throws the panic of any
        // unjoined worker at scope exit (bypassing this conversion).
        let mut built = Vec::new();
        let mut first_err: Option<CoreError> = None;
        let mut worker_panicked = false;
        for handle in handles {
            match handle.join() {
                Ok(Ok(part)) => built.extend(part),
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => worker_panicked = true,
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if worker_panicked {
            return Err(CoreError::BuildPanicked {
                context: "build/node",
                message: "node build worker panicked".to_owned(),
            });
        }
        Ok(built)
    })
}

/// Builds one node's index artifacts: canonical sort (a fingerprint no-op
/// when phase 3 already sorted it), per-row subtree weights and child-bucket
/// ids, then the bucket table and startIndexes. `sort_key` is the node's
/// column-sort priority — the pAtts by default, a full lex priority for
/// ordered layouts (bucketing always uses the pAtts).
#[allow(clippy::too_many_arguments)]
fn build_node(
    plan: &TreePlan,
    node: usize,
    mut rel: Relation,
    head: &[Symbol],
    nodes: &[Option<BuiltNode>],
    threads: usize,
    sort: SortAlgorithm,
    sort_key: &[usize],
) -> Result<BuiltNode> {
    fail_point!("build/node", |site| Err(CoreError::FaultInjected { site }));
    let key_cols = plan.parent_shared_cols(node);
    rel.sort_by_key_then_row_with(sort_key, sort);

    let children = plan.children(node);
    // For each child: the positions in *this* bag holding the child's
    // pAtts attributes, in the child's key-column order.
    let probe_cols: Vec<Vec<usize>> = children
        .iter()
        .map(|&c| {
            plan.parent_shared_cols(c)
                .iter()
                .map(|&cc| {
                    let attr = &plan.bag(c)[cc];
                    plan.bag(node)
                        .binary_search(attr)
                        .expect("shared attribute occurs in parent bag")
                })
                .collect()
        })
        .collect();

    let row_count = rel.len();
    // Row and bucket ids are u32; oversized relations are a recoverable
    // error, not a panic.
    ensure_u32("rows", row_count)?;
    let (weights, child_buckets) =
        compute_weights(&rel, children, &probe_cols, nodes, row_count, threads)?;

    // Buckets: contiguous runs of equal pAtts keys (compared on dictionary
    // codes — equal codes ⟺ equal values). Sequential by nature (running
    // startIndex sums), but O(rows) with no hashing.
    let mut key_buf: Vec<ValueCode> = Vec::new();
    let mut starts: Vec<Weight> = vec![0; row_count];
    let mut buckets: Vec<BucketView> = Vec::new();
    let mut bucket_by_key = CodeKeyMap::with_capacity(key_cols.len(), 16);
    let mut bucket_of_row: Vec<u32> = vec![0; row_count];
    let mut row_id = 0usize;
    while row_id < row_count {
        let bucket_id = ensure_u32("buckets", buckets.len())?;
        let start = row_id;
        let mut running: Weight = 0;
        let mut max_weight: Weight = 0;
        while row_id < row_count && {
            let (cur, first) = (rel.row_codes(row_id), rel.row_codes(start));
            key_cols.iter().all(|&c| cur[c] == first[c])
        } {
            starts[row_id] = running;
            running = running
                .checked_add(weights[row_id])
                .ok_or(CoreError::WeightOverflow)?;
            max_weight = max_weight.max(weights[row_id]);
            bucket_of_row[row_id] = bucket_id;
            row_id += 1;
        }
        buckets.push(BucketView {
            start: start as u32,
            end: row_id as u32,
            total: running,
            max_weight,
        });
        key_buf.clear();
        key_buf.extend(key_cols.iter().map(|&c| rel.row_codes(start)[c]));
        bucket_by_key.insert(&key_buf, bucket_id);
    }

    let bag_to_head: Vec<usize> = plan
        .bag(node)
        .iter()
        .map(|attr| head.iter().position(|h| h == attr).expect("validated"))
        .collect();

    let (starts, buckets) = (Starts::from_weights(starts), Buckets::from_views(&buckets));
    Ok(BuiltNode {
        index: NodeIndex {
            ranks: Col::default(),
            key_cols,
            guide: Guide::new(&starts, &buckets),
            starts,
            buckets,
            bucket_of_row: Col::Owned(bucket_of_row),
            child_buckets: child_buckets.into_iter().map(Col::Owned).collect(),
            bag_to_head,
            row_by_tuple: OnceLock::new(),
        },
        rel,
        bucket_by_key,
    })
}

/// Per-row subtree weights and child-bucket ids (Algorithm 2's `w(t)`),
/// row-chunked across up to `threads` scoped workers for large nodes. Rows
/// are independent given the children's (already built) bucket tables, and
/// chunks concatenate in row order, so the result is chunking-invariant.
fn compute_weights(
    rel: &Relation,
    children: &[usize],
    probe_cols: &[Vec<usize>],
    nodes: &[Option<BuiltNode>],
    row_count: usize,
    threads: usize,
) -> Result<(Vec<Weight>, Vec<Vec<u32>>)> {
    fail_point!("build/weights", |site| Err(CoreError::FaultInjected {
        site
    }));
    if threads <= 1 || row_count < MIN_PARALLEL_ROWS || children.is_empty() {
        return weights_range(rel, children, probe_cols, nodes, 0..row_count);
    }
    let workers = threads.min(row_count.div_ceil(MIN_PARALLEL_ROWS)).max(1);
    let chunk = row_count.div_ceil(workers);
    let parts = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let mut start = 0usize;
        while start < row_count {
            let end = (start + chunk).min(row_count);
            handles.push(
                scope.spawn(move || weights_range(rel, children, probe_cols, nodes, start..end)),
            );
            start = end;
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(CoreError::BuildPanicked {
                        context: "build/weights",
                        message: "weights worker panicked".to_owned(),
                    })
                })
            })
            .collect::<Vec<_>>()
    });
    let mut weights: Vec<Weight> = Vec::with_capacity(row_count);
    let mut child_buckets: Vec<Vec<u32>> = vec![Vec::with_capacity(row_count); children.len()];
    for part in parts {
        let (w, cb) = part?;
        weights.extend(w);
        for (acc, chunk_ids) in child_buckets.iter_mut().zip(cb) {
            acc.extend(chunk_ids);
        }
    }
    Ok((weights, child_buckets))
}

/// The weights/child-bucket loop over one row range, with the run-memoized
/// child probe: the canonical sort makes consecutive rows share probe keys,
/// so an unchanged key reuses the previous row's bucket id and skips the
/// hash probe (and the `key_buf` rebuild) entirely.
fn weights_range(
    rel: &Relation,
    children: &[usize],
    probe_cols: &[Vec<usize>],
    nodes: &[Option<BuiltNode>],
    range: Range<usize>,
) -> Result<(Vec<Weight>, Vec<Vec<u32>>)> {
    let mut key_buf: Vec<ValueCode> = Vec::new();
    let mut weights: Vec<Weight> = Vec::with_capacity(range.len());
    let mut child_buckets: Vec<Vec<u32>> = vec![Vec::with_capacity(range.len()); children.len()];
    for row_id in range.clone() {
        let row_codes = rel.row_codes(row_id);
        let prev_codes = (row_id > range.start).then(|| rel.row_codes(row_id - 1));
        let local_prev = row_id.wrapping_sub(range.start).wrapping_sub(1);
        let mut w: Weight = 1;
        for (c, &child) in children.iter().enumerate() {
            let child_node = nodes[child].as_ref().expect("children built first");
            let bucket_id = match prev_codes {
                Some(prev) if probe_cols[c].iter().all(|&cc| row_codes[cc] == prev[cc]) => {
                    child_buckets[c][local_prev]
                }
                _ => {
                    key_buf.clear();
                    key_buf.extend(probe_cols[c].iter().map(|&cc| row_codes[cc]));
                    child_node
                        .bucket_by_key
                        .get(&key_buf)
                        .expect("full reduction guarantees matching child buckets")
                }
            };
            child_buckets[c].push(bucket_id);
            let bucket_total = child_node.index.buckets.total[bucket_id as usize];
            w = w
                .checked_mul(bucket_total)
                .ok_or(CoreError::WeightOverflow)?;
        }
        debug_assert!(w >= 1);
        weights.push(w);
    }
    Ok((weights, child_buckets))
}

// ----------------------------------------------------------------------
// Archive round-trip (DESIGN.md §15): process-independent raw parts for
// durable snapshots. `to_archive` is a walk; `from_archive` re-validates
// every invariant the access algorithms rely on before serving answers.
// ----------------------------------------------------------------------

impl CqIndex {
    /// Extracts the process-independent raw parts of this index: its
    /// sorted value table, each node's rank column, and the per-row
    /// artifact tables, exactly as the index holds them. Dictionary codes
    /// never leave the process (an index holds none); the archive is
    /// byte-stable across processes for the same logical index.
    pub fn to_archive(&self) -> CqIndexArchive {
        // Col clones are cheap for borrowed tables (an Arc bump): archiving
        // a borrowed-loaded index copies only the string values' handles.
        let nodes = self
            .nodes
            .iter()
            .map(|nd| NodeArchive {
                rows: nd.len() as u32,
                refs: nd.ranks.clone(),
                starts: nd.starts.clone(),
                buckets: nd.buckets.clone(),
                bucket_of_row: nd.bucket_of_row.clone(),
                child_buckets: nd.child_buckets.clone(),
            })
            .collect();
        CqIndexArchive {
            values: self.values.clone(),
            bags: (0..self.plan.node_count())
                .map(|i| self.plan.bag(i).to_vec())
                .collect(),
            parent: (0..self.plan.node_count())
                .map(|i| self.plan.parent(i))
                .collect(),
            head: self.head.clone(),
            nodes,
        }
    }

    /// Reconstructs an index from its archived raw parts without re-running
    /// any build phase (no sorting, no semijoin reduction, no weight
    /// aggregation, no dictionary work): the value table is adopted after
    /// one pass per half proves it strictly increasing, and a few
    /// column-wise passes per node re-check the structural invariants. No
    /// lookup table is built: the inverted-access row tables stay lazy, as
    /// after a fresh build.
    ///
    /// Every violation — forest shape, running intersection, a repeated
    /// head variable, an unsorted value table or a rank outside it, bucket
    /// partition and bucket ids, pAtts key grouping and distinct bucket
    /// keys, startIndex prefix sums, bucket totals and maxima, weight
    /// products over child buckets, key consistency along tree edges — is
    /// refused: structural ones as [`CoreError::InvalidArchive`]. A
    /// checksum-valid but logically broken artifact is never served.
    pub fn from_archive(archive: CqIndexArchive) -> Result<Self> {
        catch_build("CqIndex::from_archive", move || {
            let plan = Self::archived_plan(&archive)?;
            Self::from_archived_plan(plan, archive, None)
        })
    }

    /// The plan of an archive, with its shape checked: forest shape,
    /// running intersection, canonical bag order, and the head against the
    /// bags.
    pub(crate) fn archived_plan(a: &CqIndexArchive) -> Result<TreePlan> {
        use crate::archive::invalid;
        let n = a.bags.len();
        if a.parent.len() != n || a.nodes.len() != n {
            return Err(invalid(format!(
                "plan shape mismatch: {n} bags, {} parent pointers, {} nodes",
                a.parent.len(),
                a.nodes.len()
            )));
        }
        // `TreePlan::new` asserts (panics) on malformed parent pointers, so
        // the forest shape is pre-validated here where it can be refused.
        for (i, p) in a.parent.iter().enumerate() {
            if let Some(p) = p {
                if *p >= n {
                    return Err(invalid(format!(
                        "node {i} parent {p} out of range (node count {n})"
                    )));
                }
            }
        }
        for start in 0..n {
            let mut cur = start;
            let mut steps = 0usize;
            while let Some(p) = a.parent[cur] {
                cur = p;
                steps += 1;
                if steps > n {
                    return Err(invalid("parent pointers form a cycle"));
                }
            }
        }
        let mut bag_sets = Vec::with_capacity(n);
        for (i, bag) in a.bags.iter().enumerate() {
            let set: std::collections::BTreeSet<Symbol> = bag.iter().cloned().collect();
            if set.len() != bag.len() {
                return Err(invalid(format!("node {i} bag has duplicate attributes")));
            }
            bag_sets.push(set);
        }
        // Running-intersection violations surface as the structured
        // QueryError this returns.
        let plan = TreePlan::new(bag_sets, a.parent.clone()).map_err(CoreError::Query)?;
        for i in 0..n {
            if plan.bag(i) != a.bags[i].as_slice() {
                return Err(invalid(format!(
                    "node {i} bag is not in canonical sorted order"
                )));
            }
        }
        validate_head(&plan, &a.head)?;
        Ok(plan)
    }

    /// The node phase of [`CqIndex::from_archive`] over a plan
    /// [`CqIndex::archived_plan`] checked. With `order_cols` (an ordered
    /// layout: per node, its introduced columns most significant first),
    /// the key-grouping pass also checks that consecutive rows of a bucket
    /// strictly increase on those columns.
    pub(crate) fn from_archived_plan(
        plan: TreePlan,
        a: CqIndexArchive,
        order_cols: Option<&[Vec<usize>]>,
    ) -> Result<Self> {
        use crate::archive::invalid;
        let n = plan.node_count();
        a.values.check().map_err(invalid)?;
        let mut arch_nodes: Vec<Option<NodeArchive>> = a.nodes.into_iter().map(Some).collect();
        let mut nodes: Vec<Option<NodeIndex>> = (0..n).map(|_| None).collect();
        for &node in plan.leaf_to_root() {
            let arch = arch_nodes[node]
                .take()
                .ok_or_else(|| invalid("leaf-to-root order revisited a node"))?;
            let built = validate_archived_node(
                &plan,
                node,
                arch,
                &a.head,
                a.values.len(),
                order_cols.map(|cols| cols[node].as_slice()),
                &nodes,
            )?;
            nodes[node] = Some(built);
        }
        let nodes: Vec<NodeIndex> = nodes
            .into_iter()
            .map(|n| n.ok_or_else(|| invalid("plan traversal missed a node")))
            .collect::<Result<_>>()?;
        let root_totals: Vec<Weight> = plan
            .roots()
            .iter()
            .map(|&r| nodes[r].buckets.first().map_or(0, |b| b.total))
            .collect();
        let total = if root_totals.contains(&0) {
            0
        } else {
            checked_product(root_totals.iter().copied()).ok_or(CoreError::WeightOverflow)?
        };
        Ok(CqIndex {
            plan,
            nodes,
            head: a.head,
            root_totals,
            total,
            values: a.values,
            rank_index: OnceLock::new(),
        })
    }
}

/// Validates one archived node against its (already validated) children and
/// assembles the live [`NodeIndex`]. After the table shapes, each invariant
/// is one tight pass over plain slices, in this order: ranks inside the
/// value table; the bucket partition; bucket ids (0 at row 0, a step of one
/// at each bucket start and nowhere else); pAtts key grouping (with the
/// within-bucket order of an ordered layout) and distinct bucket keys; per
/// child, the link (bucket id in range, equal shared-attribute ranks);
/// then one walk over the buckets checks startIndex against the Algorithm 2
/// weight invariant (each bucket starts at 0, and every row weight derived
/// from startIndex and the bucket total is the product of its matched child
/// bucket totals) and the bucket maxima. Passes after the bucket-id pass
/// read "row `r` starts a bucket" as `bucket_ids[r] != bucket_ids[r - 1]`.
fn validate_archived_node(
    plan: &TreePlan,
    node: usize,
    arch: NodeArchive,
    head: &[Symbol],
    table_len: usize,
    order_cols: Option<&[usize]>,
    nodes: &[Option<NodeIndex>],
) -> Result<NodeIndex> {
    use crate::archive::invalid;
    let bag = plan.bag(node);
    let arity = bag.len();
    let rows = arch.rows as usize;
    let expected_refs = if arity == 0 { 0 } else { rows * arity };
    if arch.refs.len() != expected_refs {
        return Err(invalid(format!(
            "node {node}: {} refs for {rows} rows of arity {arity}",
            arch.refs.len()
        )));
    }
    let ranks = arch.refs.as_slice();
    // Ranks inside the value table: one max fold, no branch per cell.
    if let Some(&max) = ranks.iter().max() {
        if max as usize >= table_len {
            return Err(invalid(format!(
                "node {node}: rank {max} outside the value table of {table_len}"
            )));
        }
    }
    let key_cols = plan.parent_shared_cols(node);
    let bag_to_head: Vec<usize> = bag
        .iter()
        .map(|attr| {
            head.iter()
                .position(|h| h == attr)
                .ok_or_else(|| CoreError::UncoveredHeadAttribute(attr.to_string()))
        })
        .collect::<Result<_>>()?;
    if arch.starts.len() != rows || arch.bucket_of_row.len() != rows {
        return Err(invalid(format!(
            "node {node}: per-row tables do not match the row count"
        )));
    }
    let children = plan.children(node);
    if arch.child_buckets.len() != children.len() {
        return Err(invalid(format!(
            "node {node}: {} child-bucket columns for {} children",
            arch.child_buckets.len(),
            children.len()
        )));
    }
    if arch.child_buckets.iter().any(|cb| cb.len() != rows) {
        return Err(invalid(format!(
            "node {node}: child-bucket column does not match the row count"
        )));
    }
    let child_nodes: Vec<&NodeIndex> = children
        .iter()
        .map(|&child| {
            nodes[child]
                .as_ref()
                .ok_or_else(|| invalid("child visited after parent"))
        })
        .collect::<Result<_>>()?;
    // For each child: (child key column, own bag column) pairs linking the
    // shared attributes along the tree edge. Running intersection makes the
    // binary search total.
    let mut link_cols: Vec<Vec<(usize, usize)>> = Vec::with_capacity(children.len());
    for &child in children {
        let child_bag = plan.bag(child);
        let pairs = plan
            .parent_shared_cols(child)
            .into_iter()
            .map(|child_col| {
                let own = bag
                    .binary_search(&child_bag[child_col])
                    .map_err(|_| invalid("running intersection violated on a tree edge"))?;
                Ok((child_col, own))
            })
            .collect::<Result<Vec<_>>>()?;
        link_cols.push(pairs);
    }
    let buckets = &arch.buckets;
    let nb = buckets.len();
    // SoA shape: all four bucket columns must be parallel (decoders
    // enforce this too; re-checked here for hand-built archives).
    if buckets.end.len() != nb || buckets.total.len() != nb || buckets.max_weight.len() != nb {
        return Err(invalid(format!(
            "node {node}: bucket table columns are not parallel"
        )));
    }
    if key_cols.is_empty() && nb > 1 {
        return Err(invalid(format!(
            "node {node}: multiple buckets with an empty pAtts key"
        )));
    }
    let (first_rows, ends) = (buckets.start.as_slice(), buckets.end.as_slice());
    let bucket_ids = arch.bucket_of_row.as_slice();

    // The bucket partition: non-empty, contiguous, covering `0..rows`.
    let mut covered: u32 = 0;
    for (bid, (&first, &end)) in first_rows.iter().zip(ends).enumerate() {
        if first != covered || end <= first {
            return Err(invalid(format!(
                "node {node}: bucket {bid} [{first}, {end}) breaks the row partition"
            )));
        }
        covered = end;
    }
    if covered as usize != rows {
        return Err(invalid(format!(
            "node {node}: buckets cover {covered} of {rows} rows, not a row partition"
        )));
    }

    // Bucket ids: with steps of 0 or 1 only, exactly `nb - 1` steps, and one
    // at every bucket start, the steps sit at the bucket starts and nowhere
    // else, so every row carries the id of the bucket holding it.
    let mut steps: usize = 0;
    let mut big_step = false;
    for pair in bucket_ids.windows(2) {
        let step = pair[1].wrapping_sub(pair[0]);
        big_step |= step > 1;
        steps += usize::from(step == 1);
    }
    if bucket_ids.first().is_some_and(|&id| id != 0)
        || big_step
        || steps != nb.saturating_sub(1)
        || first_rows[1.min(nb)..]
            .iter()
            .any(|&first| bucket_ids[first as usize] == bucket_ids[first as usize - 1])
    {
        return Err(invalid(format!(
            "node {node}: row bucket ids disagree with the bucket table"
        )));
    }

    // pAtts key grouping: a row that does not start a bucket has the
    // previous row's key. In an ordered layout it also compares strictly
    // above the previous row on the introduced columns (ranks compare as
    // their values do); equal there means a duplicate row, since the
    // bucket fixes the pAtts and the introduced columns are the rest.
    let out_of_order = |bucket: u32| {
        invalid(format!(
            "node {node}: bucket {bucket} rows out of order on the realized order columns"
        ))
    };
    let duplicate =
        |bucket: u32| invalid(format!("node {node}: bucket {bucket} holds duplicate rows"));
    if arity == 0 {
        if order_cols.is_some() && rows > nb {
            return Err(duplicate(0));
        }
    } else if !key_cols.is_empty() || order_cols.is_some() {
        let mut rows_ranks = ranks.chunks_exact(arity);
        if let Some(mut prev) = rows_ranks.next() {
            for (i, (cur, pair)) in rows_ranks.zip(bucket_ids.windows(2)).enumerate() {
                if pair[0] == pair[1] {
                    if key_cols.iter().any(|&c| cur[c] != prev[c]) {
                        return Err(invalid(format!(
                            "node {node}: bucket {} rows do not share a pAtts key (row {})",
                            pair[1],
                            i + 1
                        )));
                    }
                    if let Some(cols) = order_cols {
                        match cols
                            .iter()
                            .map(|&c| prev[c].cmp(&cur[c]))
                            .find(|o| o.is_ne())
                        {
                            Some(std::cmp::Ordering::Less) => {}
                            Some(_) => return Err(out_of_order(pair[1])),
                            None => return Err(duplicate(pair[1])),
                        }
                    }
                }
                prev = cur;
            }
        }
    }

    // Distinct bucket keys: radix-sort the bucket ids by key, then compare
    // neighbours (the sort makes equal keys adjacent).
    if nb > 1 {
        let width = key_cols.len();
        let mut keys: Vec<u32> = Vec::with_capacity(nb * width);
        for &first in first_rows {
            let row = &ranks[first as usize * arity..][..arity];
            keys.extend(key_cols.iter().map(|&c| row[c]));
        }
        let mut order: Vec<u32> = (0..nb as u32).collect();
        rae_data::with_sort_scratch(|s| s.sort_rows_by_code_keys(&keys, width, &mut order));
        let key = |b: u32| &keys[b as usize * width..][..width];
        if order.windows(2).any(|pair| key(pair[0]) == key(pair[1])) {
            return Err(invalid(format!(
                "node {node}: two buckets share one pAtts key"
            )));
        }
    }

    // Per child: every link names a child bucket, and that bucket carries
    // the row's shared-attribute values.
    let mut links: Vec<(&[u32], &[Weight])> = Vec::with_capacity(children.len());
    for ((child_node, ids), pairs) in child_nodes.iter().zip(&arch.child_buckets).zip(&link_cols) {
        let child_nb = child_node.buckets.len();
        if let Some(i) = ids.iter().position(|&id| id as usize >= child_nb) {
            return Err(invalid(format!(
                "node {node}: row {i} references child bucket {} out of range",
                ids[i]
            )));
        }
        let child_arity = child_node.bag_to_head.len();
        let (child_ranks, child_firsts) = (child_node.ranks.as_slice(), &child_node.buckets.start);
        for &(child_col, own_col) in pairs {
            let own = ranks.iter().skip(own_col).step_by(arity);
            if let Some(i) = own.zip(ids.iter()).position(|(&rank, &id)| {
                child_ranks[child_firsts[id as usize] as usize * child_arity + child_col] != rank
            }) {
                return Err(invalid(format!(
                    "node {node}: row {i} linked to child bucket {} with a \
                     different shared-attribute key",
                    ids[i]
                )));
            }
        }
        links.push((ids, child_node.buckets.total.as_slice()));
    }
    // startIndex against Algorithm 2: every row's derived weight is the
    // product of its linked child bucket totals (1 at a leaf). The same
    // walk over the buckets checks their maxima and derives the guide.
    let starts = &arch.starts;
    let guide = match links.split_first() {
        None => check_starts(node, starts, buckets, |_| 1)?,
        Some((&(ids, totals), [])) => {
            check_starts(node, starts, buckets, |r| totals[ids[r] as usize])?
        }
        Some((&(ids, totals), rest)) => {
            let mut products: Vec<Weight> = ids.iter().map(|&id| totals[id as usize]).collect();
            for &(ids, totals) in rest {
                for (product, &id) in products.iter_mut().zip(ids) {
                    *product = product
                        .checked_mul(totals[id as usize])
                        .ok_or(CoreError::WeightOverflow)?;
                }
            }
            check_starts(node, starts, buckets, |r| products[r])?
        }
    };

    // Tables move (not copy) into the live node: for a borrowed archive
    // these stay zero-copy views into the snapshot file.
    Ok(NodeIndex {
        ranks: arch.refs,
        key_cols,
        starts: arch.starts,
        guide,
        buckets: arch.buckets,
        bucket_of_row: arch.bucket_of_row,
        child_buckets: arch.child_buckets,
        bag_to_head,
        row_by_tuple: OnceLock::new(),
    })
}

/// The startIndex checks of [`validate_archived_node`] on either layout,
/// over a bucket partition already validated, with `weight(r)` the weight
/// Algorithm 2 gives row `r` (the product of its linked child bucket
/// totals). Each bucket's first start is 0; each row's derived weight —
/// the next start in its bucket, or the bucket total after its last row,
/// minus its own start — equals `weight(r)`, a start below its
/// predecessor being refused, never wrapped; and the bucket maximum is the
/// largest derived weight. The derived weights then equal what a stored
/// weight column would have had to hold, so the checks accept exactly the
/// archives that checking such a column would. Returns the node's guide,
/// filled in the same walk over the buckets.
fn check_starts(
    node: usize,
    starts: &Starts,
    buckets: &Buckets,
    weight: impl Fn(usize) -> Weight,
) -> Result<Guide> {
    match starts {
        Starts::Compact(starts) => check_bucket_starts(node, starts, buckets, weight),
        Starts::Wide(starts) => check_bucket_starts(node, starts, buckets, weight),
    }
}

/// [`check_starts`] over one layout's plain slice of bucket-relative
/// starts.
fn check_bucket_starts<T: StartWord>(
    node: usize,
    starts: &[T],
    buckets: &Buckets,
    weight: impl Fn(usize) -> Weight,
) -> Result<Guide> {
    use crate::archive::invalid;
    let (firsts, ends) = (buckets.start.as_slice(), buckets.end.as_slice());
    let bounds = firsts.iter().zip(ends);
    let stored = buckets.total.iter().zip(buckets.max_weight.iter());
    let mut guide = Guide::default();
    for (bid, ((&first, &end), (&total, &max))) in bounds.zip(stored).enumerate() {
        let rows = first as usize..end as usize;
        if starts[rows.start].into() != 0 {
            return Err(invalid(format!(
                "node {node}: bucket {bid} startIndex does not begin at 0"
            )));
        }
        let mut largest: Weight = 0;
        for (row, pair) in rows.clone().zip(starts[rows.clone()].windows(2)) {
            let (start, next) = (pair[0].into(), pair[1].into());
            let derived = next.checked_sub(start).ok_or_else(|| {
                invalid(format!(
                    "node {node}: row {} startIndex {next} is below its predecessor's {start}",
                    row + 1
                ))
            })?;
            if derived != weight(row) {
                return Err(invalid(format!(
                    "node {node}: row {row} weight {derived} (derived from startIndex) does \
                     not equal the product of its child bucket totals, {}",
                    weight(row)
                )));
            }
            largest = largest.max(derived);
        }
        let last = rows.end - 1;
        let derived = total.checked_sub(starts[last].into());
        if derived != Some(weight(last)) {
            return Err(invalid(format!(
                "node {node}: bucket {bid} total disagrees with its rows"
            )));
        }
        largest = largest.max(weight(last));
        if max != largest {
            return Err(invalid(format!(
                "node {node}: bucket {bid} maximum disagrees with its rows"
            )));
        }
        guide.push_bucket(starts, rows, total);
    }
    Ok(guide)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;
    use rae_yannakakis::reduce_to_full_acyclic;

    /// The database of the paper's Example 4.4.
    fn example_4_4_db() -> Database {
        let mut db = Database::new();
        add(
            &mut db,
            "R1",
            rel_str(
                &["v", "w", "x"],
                &[
                    &["a1", "b1", "c1"],
                    &["a1", "b1", "c2"],
                    &["a2", "b2", "c1"],
                    &["a2", "b2", "c2"],
                ],
            ),
        );
        add(
            &mut db,
            "R2",
            rel_str(
                &["w", "y"],
                &[&["b1", "d1"], &["b1", "d2"], &["b2", "d2"], &["b2", "d3"]],
            ),
        );
        add(
            &mut db,
            "R3",
            rel_str(
                &["x", "z"],
                &[&["c1", "e1"], &["c1", "e2"], &["c1", "e3"], &["c2", "e4"]],
            ),
        );
        db
    }

    fn example_4_4_index() -> CqIndex {
        let cq = cq("Q(v, w, x, y, z) :- R1(v, w, x), R2(w, y), R3(x, z)");
        built(&cq, &example_4_4_db())
    }

    #[test]
    fn from_parts_refuses_a_repeated_head_variable() {
        // Head [x, y, x] over the single bag {x, y}: no node would ever
        // write the second x slot.
        let bag = syms(&["x", "y"]).into_iter().collect();
        let plan = TreePlan::new(vec![bag], vec![None]).unwrap();
        let r = rel_int(&["x", "y"], &[&[1, 10], &[2, 20]]);
        let head = syms(&["x", "y", "x"]);
        match CqIndex::from_parts_with(plan, vec![r], head, BuildOptions::serial()) {
            Err(CoreError::Query(QueryError::DuplicateHeadVariable(v))) => {
                assert_eq!(v, Symbol::new("x"));
            }
            other => panic!("expected DuplicateHeadVariable, got {other:?}"),
        }
    }

    #[test]
    fn example_4_4() {
        // Reproduces the paper's worked example end to end.
        let idx = example_4_4_index();
        assert_eq!(idx.count(), 16);

        // Access(13) = (a2, b2, c1, d3, e3).
        let ans = at(&idx, 13);
        let expected: Vec<Value> = ["a2", "b2", "c1", "d3", "e3"]
            .iter()
            .map(Value::str)
            .collect();
        assert_eq!(ans, expected);

        // InvertedAccess(a2, b2, c1, d3, e3) = 13.
        assert_eq!(idx.inverted_access(&expected), Some(13));

        // Out of bounds.
        assert!(idx.access(16).is_none());
        assert!(idx.access(Weight::MAX).is_none());
    }

    #[test]
    fn example_4_4_weights_and_starts() {
        // The paper's table: R1 weights (6, 2, 6, 2), startIndex (0, 6, 8, 14).
        let idx = example_4_4_index();
        let root = idx.plan().roots()[0];
        let weights: Vec<Weight> = (0..4).map(|r| idx.row_weight(root, r)).collect();
        assert_eq!(weights, vec![6, 2, 6, 2]);
        let starts: Vec<Weight> = (0..4).map(|r| idx.row_start(root, r)).collect();
        assert_eq!(starts, vec![0, 6, 8, 14]);
    }

    #[test]
    fn count_via_access_matches_o1_count() {
        let idx = example_4_4_index();
        assert_eq!(idx.count_via_access(), idx.count());
        // Empty index.
        let mut db = Database::new();
        add(
            &mut db,
            "R",
            Relation::from_rows(rae_data::Schema::new(["a", "b"]).unwrap(), Vec::new()).unwrap(),
        );
        let cq = cq("Q(x, y) :- R(x, y)");
        let empty = built(&cq, &db);
        assert_eq!(empty.count_via_access(), 0);
        // Singleton.
        db.set_relation("R", rel_int(&["a", "b"], &[&[1, 2]]))
            .unwrap();
        let mut db1 = Database::new();
        add(&mut db1, "R", rel_int(&["a", "b"], &[&[1, 2]]));
        let one = built(&cq, &db1);
        assert_eq!(one.count_via_access(), 1);
    }

    #[test]
    fn access_inverted_roundtrip_all_positions() {
        let idx = example_4_4_index();
        for j in 0..idx.count() {
            let ans = at(&idx, j);
            assert_eq!(idx.inverted_access(&ans), Some(j), "roundtrip at {j}");
        }
    }

    #[test]
    fn enumeration_matches_naive_answers() {
        let cq = cq("Q(v, w, x, y, z) :- R1(v, w, x), R2(w, y), R3(x, z)");
        let db = example_4_4_db();
        let idx = built(&cq, &db);
        let expected = naive(&cq, &db);
        let mut got: Vec<Vec<Value>> = idx.enumerate().collect();
        got.sort();
        got.dedup();
        assert_eq!(got.len() as Weight, idx.count());
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected.rows()) {
            assert_eq!(g.as_slice(), e);
        }
    }

    #[test]
    fn non_answers_are_rejected_by_inverted_access() {
        let idx = example_4_4_index();
        // Locally valid pieces, globally inconsistent combination: (a1,…,c2)
        // exists but e1 only pairs with c1.
        let bogus: Vec<Value> = ["a1", "b1", "c2", "d1", "e1"]
            .iter()
            .map(Value::str)
            .collect();
        assert_eq!(idx.inverted_access(&bogus), None);
        // Wrong arity.
        assert_eq!(idx.inverted_access(&[Value::str("a1")]), None);
        // Unknown constant.
        let unknown: Vec<Value> = ["zz", "b1", "c1", "d1", "e1"]
            .iter()
            .map(Value::str)
            .collect();
        assert_eq!(idx.inverted_access(&unknown), None);
    }

    #[test]
    fn projection_query_index_matches_naive() {
        let mut db = Database::new();
        add(
            &mut db,
            "R",
            rel_int(&["a", "b"], &[&[1, 10], &[1, 11], &[2, 10], &[3, 12]]),
        );
        add(
            &mut db,
            "S",
            rel_int(&["b", "c"], &[&[10, 0], &[11, 0], &[12, 1], &[13, 1]]),
        );
        let cq = cq("Q(x, y) :- R(x, y), S(y, z)");
        let idx = built(&cq, &db);
        let expected = naive(&cq, &db);
        assert_eq!(idx.count() as usize, expected.len());
        for j in 0..idx.count() {
            let ans = at(&idx, j);
            assert!(expected.contains_row(&ans), "access({j}) not an answer");
            assert_eq!(idx.inverted_access(&ans), Some(j));
        }
    }

    #[test]
    fn empty_result_index() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a", "b"], &[&[1, 10]]));
        add(&mut db, "S", rel_int(&["b", "c"], &[&[99, 0]]));
        let cq = cq("Q(x, y) :- R(x, y), S(y, z)");
        let idx = built(&cq, &db);
        assert_eq!(idx.count(), 0);
        assert!(idx.access(0).is_none());
        assert_eq!(idx.inverted_access(&[Value::Int(1), Value::Int(10)]), None);
    }

    #[test]
    fn boolean_query_index() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a", "b"], &[&[1, 10]]));
        add(&mut db, "S", rel_int(&["b", "c"], &[&[10, 0]]));
        let cq = cq("Q() :- R(x, y), S(y, z)");
        let idx = built(&cq, &db);
        assert_eq!(idx.count(), 1);
        assert_eq!(at(&idx, 0), Vec::<Value>::new());
        assert_eq!(idx.inverted_access(&[]), Some(0));
        assert!(idx.access(1).is_none());
    }

    #[test]
    fn cross_product_index() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a"], &[&[1], &[2], &[3]]));
        add(&mut db, "S", rel_int(&["b"], &[&[10], &[20]]));
        let cq = cq("Q(x, y) :- R(x), S(y)");
        let idx = built(&cq, &db);
        assert_eq!(idx.count(), 6);
        let mut seen: Vec<Vec<Value>> = idx.enumerate().collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 6);
        for j in 0..6 {
            let ans = at(&idx, j);
            assert_eq!(idx.inverted_access(&ans), Some(j));
        }
    }

    #[test]
    fn not_free_connex_is_rejected() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a", "b"], &[&[1, 10]]));
        add(&mut db, "S", rel_int(&["b", "c"], &[&[10, 0]]));
        let cq = cq("Q(x, z) :- R(x, y), S(y, z)");
        assert!(matches!(
            CqIndex::build(&cq, &db),
            Err(CoreError::Query(rae_query::QueryError::NotFreeConnex(_)))
        ));
    }

    #[test]
    fn enumeration_order_is_lexicographic_on_dfs_attrs() {
        // With sorted node relations the realized order must be the
        // lexicographic order on the DFS attribute sequence.
        let idx = example_4_4_index();
        let dfs_attrs = idx.plan().attrs_dfs();
        let positions: Vec<usize> = dfs_attrs
            .iter()
            .map(|a| idx.head().iter().position(|h| h == a).unwrap())
            .collect();
        let mut prev: Option<Vec<Value>> = None;
        for j in 0..idx.count() {
            let ans = at(&idx, j);
            let key: Vec<Value> = positions.iter().map(|&p| ans[p].clone()).collect();
            if let Some(prev_key) = &prev {
                assert!(prev_key < &key, "order violated at position {j}");
            }
            prev = Some(key);
        }
    }

    #[test]
    fn compatible_orders_for_sub_relations() {
        // Build the same query over D and over a selection of D; shared
        // answers must appear in the same relative order (DESIGN.md §3).
        let db = example_4_4_db();
        let mut db_sel = Database::new();
        db_sel
            .add_relation(
                "R1",
                rel_str(
                    &["v", "w", "x"],
                    &[&["a1", "b1", "c1"], &["a2", "b2", "c1"]],
                ),
            )
            .unwrap();
        db_sel
            .add_relation(
                "R2",
                rel_str(&["w", "y"], &[&["b1", "d2"], &["b2", "d2"], &["b2", "d3"]]),
            )
            .unwrap();
        db_sel
            .add_relation(
                "R3",
                rel_str(&["x", "z"], &[&["c1", "e1"], &["c1", "e3"], &["c2", "e4"]]),
            )
            .unwrap();
        let cq = cq("Q(v, w, x, y, z) :- R1(v, w, x), R2(w, y), R3(x, z)");
        let big = built(&cq, &db);
        let small = built(&cq, &db_sel);
        assert!(big.plan().same_shape(small.plan()));
        // The small enumeration must be a subsequence of the big one.
        let big_seq: Vec<Vec<Value>> = big.enumerate().collect();
        let small_seq: Vec<Vec<Value>> = small.enumerate().collect();
        let mut big_iter = big_seq.iter();
        for item in &small_seq {
            assert!(
                big_iter.any(|b| b == item),
                "small enumeration is not a subsequence of the big one"
            );
        }
    }

    #[test]
    fn rank_leq_wide_j_on_compact_layout_counts_every_row() {
        // The `Err(_) => end - start` fallback: a probe weight above
        // u64::MAX can never be exceeded by a compact (u64) startIndex, so
        // every row in the range qualifies. Lock in that overflow behavior.
        let compact = Starts::from_weights(vec![0, 5, 9, 14]);
        assert!(matches!(compact, Starts::Compact(_)));
        let wide_j: Weight = Weight::from(u64::MAX) + 1;
        assert_eq!(compact.rank_leq(0, 4, wide_j), 4);
        assert_eq!(compact.rank_leq(1, 3, wide_j), 2); // sub-range too
        assert_eq!(compact.rank_leq(2, 2, wide_j), 0); // empty range
                                                       // Weight::MAX goes through the same fallback.
        assert_eq!(compact.rank_leq(0, 4, Weight::MAX), 4);
        // Control: an in-range probe still binary-searches normally.
        assert_eq!(compact.rank_leq(0, 4, 9), 3);
    }

    #[test]
    fn rank_leq_wide_layout_handles_beyond_u64_starts() {
        // Starts that do not fit u64 force the wide layout; ranks must be
        // exact on both sides of the u64 boundary.
        let big: Weight = Weight::from(u64::MAX) + 7;
        let wide = Starts::from_weights(vec![0, 10, big]);
        assert!(matches!(wide, Starts::Wide(_)));
        assert_eq!(wide.rank_leq(0, 3, 9), 1);
        assert_eq!(wide.rank_leq(0, 3, Weight::from(u64::MAX)), 2);
        assert_eq!(wide.rank_leq(0, 3, big), 3);
        assert_eq!(wide.at(2), big);
    }

    #[test]
    fn parallel_build_options_produce_identical_artifacts() {
        // Byte-level determinism across thread counts and sort algorithms
        // on the worked example (the large-scale suite lives in
        // tests/parallel_build_determinism.rs).
        let cq = cq("Q(v, w, x, y, z) :- R1(v, w, x), R2(w, y), R3(x, z)");
        let fj = reduce_to_full_acyclic(&cq, &example_4_4_db()).unwrap();
        let baseline = CqIndex::from_parts_with(
            fj.plan.clone(),
            fj.relations.clone(),
            fj.head.clone(),
            BuildOptions::serial(),
        )
        .unwrap();
        for (threads, sort) in [
            (2, SortAlgorithm::Auto),
            (8, SortAlgorithm::Radix),
            (1, SortAlgorithm::Radix),
            (4, SortAlgorithm::Comparison),
        ] {
            let other = CqIndex::from_parts_with(
                fj.plan.clone(),
                fj.relations.clone(),
                fj.head.clone(),
                BuildOptions { threads, sort },
            )
            .unwrap();
            assert_eq!(other.count(), baseline.count());
            assert_eq!(other.values(), baseline.values());
            for node in 0..baseline.node_count() {
                assert_eq!(other.bucket_count(node), baseline.bucket_count(node));
                for row in 0..baseline.node_len(node) as u32 {
                    assert_eq!(other.node_ranks(node, row), baseline.node_ranks(node, row));
                    assert_eq!(other.row_weight(node, row), baseline.row_weight(node, row));
                    assert_eq!(other.row_start(node, row), baseline.row_start(node, row));
                    assert_eq!(
                        other.bucket_of_row(node, row),
                        baseline.bucket_of_row(node, row)
                    );
                }
            }
            for j in 0..baseline.count() {
                assert_eq!(other.access(j), baseline.access(j));
            }
        }
    }

    /// The chain R(a, b) — S(b, c) — T(c, d), rooted at R. S's bucket
    /// b = 1 is unit-weight (each row matches one T row) and its bucket
    /// b = 2 is not (c = 20 matches two T rows).
    fn chain_index() -> CqIndex {
        let bags = [&["a", "b"][..], &["b", "c"], &["c", "d"]]
            .iter()
            .map(|bag| syms(bag).into_iter().collect())
            .collect();
        let plan = TreePlan::new(bags, vec![None, Some(0), Some(1)]).unwrap();
        let rels = vec![
            rel_int(&["a", "b"], &[&[7, 1], &[8, 2], &[9, 1]]),
            rel_int(
                &["b", "c"],
                &[&[1, 10], &[1, 11], &[1, 12], &[2, 20], &[2, 21]],
            ),
            rel_int(
                &["c", "d"],
                &[
                    &[10, 100],
                    &[11, 110],
                    &[12, 120],
                    &[20, 200],
                    &[20, 201],
                    &[21, 210],
                ],
            ),
        ];
        let head = syms(&["a", "b", "c", "d"]);
        CqIndex::from_parts_with(plan, rels, head, BuildOptions::serial()).unwrap()
    }

    #[test]
    fn unit_weight_buckets_are_located_without_reading_starts() {
        let untouched = chain_index();
        let mut tampered = chain_index();
        let is_unit = |b: BucketView| b.total == Weight::from(b.end - b.start);
        let mixed = (0..tampered.node_count()).any(|node| {
            let buckets = 0..tampered.bucket_count(node) as u32;
            let units: Vec<bool> = buckets.map(|b| is_unit(tampered.bucket(node, b))).collect();
            units.contains(&true) && units.contains(&false)
        });
        assert!(
            mixed,
            "no node has both a unit-weight and a non-unit bucket"
        );
        // Every row of a unit-weight bucket claims startIndex 0, breaking
        // the prefix sum of each such bucket with two rows or more.
        let mut overwritten = 0;
        for nd in &mut tampered.nodes {
            for b in 0..nd.buckets.len() {
                let bucket = nd.buckets.at(b);
                if !is_unit(bucket) {
                    continue;
                }
                for row in bucket.start as usize + 1..bucket.end as usize {
                    match &mut nd.starts {
                        Starts::Compact(starts) => starts.to_mut()[row] = 0,
                        Starts::Wide(starts) => starts.to_mut()[row] = 0,
                    }
                    overwritten += 1;
                }
            }
        }
        assert!(overwritten > 0, "no startIndex was overwritten");
        let mut scratch = AccessScratch::new();
        for j in 0..untouched.count() {
            let expected = at(&untouched, j);
            let got = tampered.access_into(j, &mut scratch);
            assert_eq!(got, Some(&expected[..]), "access_into({j})");
            let mut cursor = tampered.sequential();
            assert!(cursor.seek(j));
            assert_eq!(cursor.next_ref(), Some(&expected[..]), "seek({j})");
        }
    }

    /// The chain R(a, b) — S(b, c) — T(c, d), rooted at R, with weighted
    /// buckets of every size class: R's one bucket (100 rows), and in S
    /// the buckets b = 0 (40 rows, starting on a chunk boundary), b = 2
    /// (50 rows, off one) and b = 1 (5 rows, too small for a guide). T's
    /// c-buckets hold one to three rows.
    fn weighted_chain_index() -> CqIndex {
        let bags = [&["a", "b"][..], &["b", "c"], &["c", "d"]]
            .iter()
            .map(|bag| syms(bag).into_iter().collect())
            .collect();
        let plan = TreePlan::new(bags, vec![None, Some(0), Some(1)]).unwrap();
        let owned = |rows: Vec<[i64; 2]>| rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>();
        let r = owned((0..100).map(|a| [a, a % 4]).collect());
        let s_bounds = [(0, 0..40), (1, 40..45), (2, 45..95), (3, 95..160)];
        let s = owned(
            s_bounds
                .into_iter()
                .flat_map(|(b, cs)| cs.map(move |c| [b, c]))
                .collect(),
        );
        let t = owned(
            (0..160)
                .flat_map(|c| (0..c % 3 + 1).map(move |k| [c, 10 * c + k]))
                .collect(),
        );
        let rel = |attrs: &[&str], rows: &[Vec<i64>]| {
            rel_int(attrs, &rows.iter().map(Vec::as_slice).collect::<Vec<_>>())
        };
        let rels = vec![
            rel(&["a", "b"], &r),
            rel(&["b", "c"], &s),
            rel(&["c", "d"], &t),
        ];
        let head = syms(&["a", "b", "c", "d"]);
        CqIndex::from_parts_with(plan, rels, head, BuildOptions::serial()).unwrap()
    }

    /// A borrowed view over a copy of `col` (a zero-copy load's column).
    fn view<T: crate::column::Pod>(col: &Col<T>) -> Col<T> {
        use crate::column::{pod_bytes, AlignedBytes, StableBytes};
        let owner: std::sync::Arc<dyn StableBytes> =
            std::sync::Arc::new(AlignedBytes::copy_from(pod_bytes(col)));
        Col::borrowed(owner, 0, col.len()).unwrap()
    }

    /// Asserts that `index` answers `access_into` and `seek` like
    /// `search_only` (the same index stripped of its guides) at every rank.
    fn assert_matches_search_only(index: &CqIndex, search_only: &CqIndex, label: &str) {
        assert_eq!(index.count(), search_only.count());
        let (mut a, mut b) = (AccessScratch::new(), AccessScratch::new());
        for j in 0..index.count() {
            let expected = search_only.access_into(j, &mut b).unwrap().to_vec();
            assert_eq!(
                index.access_into(j, &mut a),
                Some(&expected[..]),
                "{label} access_into({j})"
            );
            let mut cursor = index.sequential();
            assert!(cursor.seek(j));
            assert_eq!(cursor.next_ref(), Some(&expected[..]), "{label} seek({j})");
        }
    }

    #[test]
    fn weighted_buckets_are_located_through_the_guide() {
        let index = weighted_chain_index();
        // Every weighted bucket of at least `GUIDE_MIN_ROWS` rows has a
        // guide of at most one slot per row plus the closing one, and
        // every window between two slots spans at most 2^s + 1 rows.
        let mut guided = Vec::new();
        for (node, nd) in index.nodes.iter().enumerate() {
            for bucket in nd.buckets.iter() {
                let (rows, total) = (bucket.start as usize..bucket.end as usize, bucket.total);
                let Some((shift, slots)) = nd.guide.bucket_slots(rows.clone(), total) else {
                    let small = rows.len() < crate::guide::GUIDE_MIN_ROWS;
                    assert!(
                        small || total == rows.len() as Weight,
                        "node {node} unguided"
                    );
                    continue;
                };
                guided.push((node, rows.len()));
                assert!(slots.len() <= rows.len() + 1, "node {node}: too many slots");
                assert_eq!(slots[0] as usize, rows.start);
                assert_eq!(*slots.last().unwrap() as usize, rows.end - 1);
                for pair in slots.windows(2) {
                    let window = (pair[1] - pair[0]) as usize + 1;
                    assert!(
                        window <= (1 << shift) + 1,
                        "node {node}: window of {window}"
                    );
                }
            }
        }
        assert!(
            guided.iter().any(|&(_, rows)| rows >= 64),
            "no guided bucket of 64 rows"
        );
        assert!(
            guided.iter().filter(|&&(node, _)| node == 1).count() >= 2,
            "S should hold two guided buckets: {guided:?}"
        );

        let mut search_only = weighted_chain_index();
        for nd in &mut search_only.nodes {
            nd.guide = Guide::default();
        }
        assert_matches_search_only(&index, &search_only, "built");

        // A borrowed load derives the guides from the snapshot's
        // startIndex columns in its validation walk.
        let mut archive = index.to_archive();
        archive.values.ints = view(&archive.values.ints);
        for n in &mut archive.nodes {
            n.refs = view(&n.refs);
            let Starts::Compact(starts) = &n.starts else {
                panic!("small starts are compact");
            };
            n.starts = Starts::Compact(view(starts));
            n.buckets = Buckets {
                start: view(&n.buckets.start),
                end: view(&n.buckets.end),
                total: view(&n.buckets.total),
                max_weight: view(&n.buckets.max_weight),
            };
            n.bucket_of_row = view(&n.bucket_of_row);
            n.child_buckets = n.child_buckets.iter().map(view).collect();
        }
        let loaded = CqIndex::from_archive(archive).unwrap();
        assert!(loaded.storage_is_borrowed());
        for (built, loaded) in index.nodes.iter().zip(&loaded.nodes) {
            assert_eq!(built.guide, loaded.guide);
        }
        assert_matches_search_only(&loaded, &search_only, "loaded");
    }

    #[test]
    fn self_join_index() {
        let mut db = Database::new();
        add(
            &mut db,
            "E",
            rel_int(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 4], &[2, 4]]),
        );
        let cq = cq("Q(x, y, z) :- E(x, y), E(y, z)");
        let idx = built(&cq, &db);
        let expected = naive(&cq, &db);
        assert_eq!(idx.count() as usize, expected.len());
        for j in 0..idx.count() {
            assert!(expected.contains_row(&at(&idx, j)));
        }
    }
}
