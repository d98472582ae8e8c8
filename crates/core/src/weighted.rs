//! Ranked direct access under sum-of-weights orders (DESIGN.md §17).
//!
//! [`OrderedCqIndex`] serves *lexicographic* orders; this module layers the
//! tractable **sum-of-weights** orders of "Tractable Orders for Direct
//! Access to Ranked Answers of Conjunctive Queries" (Carmeli et al.,
//! arXiv:2012.11965) on top: answers are ranked by
//! `w(answer) = Σ_x w_x(answer[x])` over a set `W` of weighted free
//! variables, ties broken by the lexicographic order, and
//!
//! * [`WeightedCqIndex::ranked_access`]`(k)` returns the answer of
//!   weighted rank `k` in O(log n);
//! * [`WeightedCqIndex::ranked_inverted_access`] returns an answer's
//!   weighted rank in O(log n);
//! * [`WeightedCqIndex::weight_range_count`] counts answers with weight in
//!   a half-open range without enumerating them;
//! * [`WeightedCqIndex::min_answer`] / [`WeightedCqIndex::max_answer`]
//!   extract the min/max-weight answers (the tractable aggregate cases of
//!   the min/max dichotomy paper, arXiv:2510.19197) in O(log n).
//!
//! The tractability frontier is enforced up front by
//! [`rae_query::classify_weighted_order`]: `W` must be free, a prefix of
//! the order, and covered by one atom — otherwise the build rejects with a
//! structured witness (X+Y hardness) instead of building something slow or
//! wrong.
//!
//! **Structure.** For a tractable order the weighted variables form a
//! prefix of the lexicographic order, so answers sharing a `W`-prefix
//! valuation occupy one contiguous lex-rank block and share one weight.
//! The build walks those blocks via O(log n) [`OrderedCqIndex::
//! prefix_bounds`] descents (one per *distinct* `W`-valuation — never per
//! answer), then sorts the block directory by `(weight, lex_lo)` and
//! prefix-sums the block lengths into `wstart` partial-sum sidecars — the
//! same trick as the per-node `StartIndex` arrays, one level up. Both
//! ranked directions are then two nested O(log n) searches, and the
//! steady-state answer path stays zero-allocation (`tests/zero_alloc.rs`).
//!
//! Durable archives for weighted indexes are future work: the block
//! directory is derivable, so `OrderedCqIndexArchive` round-trips the
//! underlying index today and the directory is rebuilt on load.

// Sanctioned panics: each `expect` names a block-directory invariant
// (blocks partition the lex rank space, every block is non-empty);
// violation is a bug, not a data-dependent condition.
#![allow(clippy::expect_used)]

use crate::error::CoreError;
use crate::ordered::OrderedCqIndex;
use crate::scratch::AccessScratch;
use crate::weight::Weight;
use crate::Result;
use rae_data::{Database, Symbol, Value, VarWeights};
use rae_query::{classify_weighted_order, ConjunctiveQuery};
use std::ops::Range;

/// One contiguous lex-rank block of answers sharing a `W`-prefix valuation
/// (hence one weight). `wstart` is the block's first *weighted* rank after
/// the `(weight, lex_lo)` sort — the partial-sum sidecar.
#[derive(Debug, Clone, Copy)]
struct WeightBlock {
    /// Σ of the weighted variables' value weights for this valuation.
    weight: u128,
    /// First lexicographic rank of the block.
    lex_lo: Weight,
    /// Number of answers in the block.
    len: Weight,
    /// First weighted rank of the block.
    wstart: Weight,
}

/// Ranked direct access under a sum-of-weights order: O(log n) access,
/// inverted access, weight-range counting, and min/max extraction over
/// `w(answer) = Σ_x w_x(answer[x])`, ties broken lexicographically.
///
/// ```
/// use rae_core::{AccessScratch, WeightedCqIndex};
/// use rae_data::{Database, Relation, Schema, Symbol, Value, VarWeights};
///
/// let mut db = Database::new();
/// db.add_relation(
///     "R",
///     Relation::from_rows(
///         Schema::new(["a", "b"]).unwrap(),
///         vec![
///             vec![Value::Int(1), Value::Int(10)],
///             vec![Value::Int(2), Value::Int(10)],
///             vec![Value::Int(3), Value::Int(20)],
///         ],
///     )
///     .unwrap(),
/// )
/// .unwrap();
/// let q = "Q(x, y) :- R(x, y)".parse().unwrap();
///
/// // Rank by a weight on x (heaviest last), ties by the lex order x, y.
/// let mut w = VarWeights::new();
/// w.set("x", Value::Int(1), 500);
/// w.set("x", Value::Int(2), 5);
/// let order = [Symbol::new("x"), Symbol::new("y")];
/// let idx = WeightedCqIndex::build(&q, &db, &order, &w).unwrap();
///
/// // Weighted rank 0 is the lightest answer: x=3 carries weight 0.
/// let mut scratch = AccessScratch::new();
/// let lightest = idx.ranked_access_into(0, &mut scratch).unwrap();
/// assert_eq!(lightest, &[Value::Int(3), Value::Int(20)]);
/// assert_eq!(idx.max_weight(), Some(500));
/// assert_eq!(idx.weight_range_count(0..100), 2); // weights 0 and 5
/// ```
#[derive(Debug)]
pub struct WeightedCqIndex {
    index: OrderedCqIndex,
    /// Block directory, sorted by `(weight, lex_lo)`.
    blocks: Vec<WeightBlock>,
    /// Block ids sorted by `lex_lo` (inversion: lex rank → block).
    lex_blocks: Vec<u32>,
    /// The weighted variable set `W`, in weight-assignment order.
    weighted: Vec<Symbol>,
}

impl WeightedCqIndex {
    /// Builds the weighted index for a free-connex CQ under the variable
    /// order `order` (weighted comparison primary, lexicographic
    /// tie-break) with per-variable weights `weights`.
    ///
    /// Rejects intractable weighted orders with a structured witness
    /// ([`rae_query::QueryError::IntractableWeightedOrder`] and friends,
    /// wrapped in [`CoreError::Query`]) *before* any index work, and
    /// weight sums overflowing `u128` as [`CoreError::WeightOverflow`].
    pub fn build(
        cq: &ConjunctiveQuery,
        db: &Database,
        order: &[Symbol],
        weights: &VarWeights,
    ) -> Result<Self> {
        crate::error::catch_build("WeightedCqIndex::build", || {
            let weighted: Vec<Symbol> = weights.weighted_vars().cloned().collect();
            classify_weighted_order(cq, order, &weighted).map_err(CoreError::Query)?;
            let index = OrderedCqIndex::build(cq, db, order)?;
            let (blocks, lex_blocks) = Self::build_blocks(&index, weights)?;
            Ok(WeightedCqIndex {
                index,
                blocks,
                lex_blocks,
                weighted,
            })
        })
    }

    /// Walks the distinct `W`-prefix valuations in lex order (one
    /// `prefix_bounds` descent per block — the directory is output-block
    /// sensitive, not answer sensitive), then sorts by `(weight, lex_lo)`
    /// and prefix-sums `wstart`.
    fn build_blocks(
        index: &OrderedCqIndex,
        weights: &VarWeights,
    ) -> Result<(Vec<WeightBlock>, Vec<u32>)> {
        rae_faults::fail_point!("build/weighted_blocks", |site| Err(
            CoreError::FaultInjected { site }
        ));
        let wlen = weights.len();
        let count = index.count();
        let mut blocks: Vec<WeightBlock> = Vec::new();
        let mut scratch = AccessScratch::new();
        let mut prefix: Vec<Value> = Vec::with_capacity(wlen);
        let mut at: Weight = 0;
        while at < count {
            // Copy the block's W-prefix out of the scratch borrow, summing
            // its weight, before descending for the block end.
            let weight = {
                let answer = index
                    .ordered_access_into(at, &mut scratch)
                    .expect("rank below count");
                prefix.clear();
                let mut w: u128 = 0;
                for (p, &h) in index.order_to_head()[..wlen].iter().enumerate() {
                    let value = &answer[h];
                    w = w
                        .checked_add(weights.weight_of(&index.order()[p], value))
                        .ok_or(CoreError::WeightOverflow)?;
                    prefix.push(value.clone());
                }
                w
            };
            let (lt, le) = index.prefix_bounds(&prefix)?;
            debug_assert_eq!(lt, at, "block walk must land on block starts");
            debug_assert!(le > at, "blocks are non-empty");
            blocks.push(WeightBlock {
                weight,
                lex_lo: at,
                len: le - at,
                wstart: 0,
            });
            at = le;
        }
        crate::error::ensure_u32("weighted blocks", blocks.len())?;
        // lex_blocks inverts the sort: blocks were discovered in lex_lo
        // order, so pre-sort ids are lex positions; record where each
        // lex position lands.
        blocks.sort_by_key(|b| (b.weight, b.lex_lo));
        let mut wstart: Weight = 0;
        for b in blocks.iter_mut() {
            b.wstart = wstart;
            // Σ len = count ≤ u128 by construction; checked anyway.
            wstart = wstart
                .checked_add(b.len)
                .ok_or_else(|| crate::error::rank_overflow("weighted block prefix sums"))?;
        }
        let mut lex_blocks: Vec<u32> = (0..blocks.len() as u32).collect();
        lex_blocks.sort_by_key(|&i| blocks[i as usize].lex_lo);
        Ok((blocks, lex_blocks))
    }

    /// The underlying lexicographic ordered index (tie-break order).
    #[inline]
    pub fn index(&self) -> &OrderedCqIndex {
        &self.index
    }

    /// The number of answers — O(1).
    #[inline]
    pub fn count(&self) -> Weight {
        self.index.count()
    }

    /// The head attributes, in answer-tuple order.
    pub fn head(&self) -> &[Symbol] {
        self.index.head()
    }

    /// The realized variable order (tie-break order; its `W`-prefix
    /// carries the weights).
    pub fn order(&self) -> &[Symbol] {
        self.index.order()
    }

    /// The weighted variable set `W`.
    pub fn weighted_vars(&self) -> &[Symbol] {
        &self.weighted
    }

    /// Number of distinct `W`-valuations (= weight blocks).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The block holding weighted rank `k`, or `None` past the end.
    #[inline]
    fn block_of_rank(&self, k: Weight) -> Option<&WeightBlock> {
        if k >= self.count() {
            return None;
        }
        let i = self.blocks.partition_point(|b| b.wstart + b.len <= k);
        Some(&self.blocks[i])
    }

    /// The block holding lexicographic rank `lex` (which must be in
    /// range: callers obtained it from an inverted access).
    #[inline]
    fn block_of_lex(&self, lex: Weight) -> &WeightBlock {
        let i = self
            .lex_blocks
            .partition_point(|&b| self.blocks[b as usize].lex_lo <= lex);
        debug_assert!(i > 0, "lex rank below every block");
        &self.blocks[self.lex_blocks[i - 1] as usize]
    }

    /// The answer of weighted rank `k` (tuple in head order), or `None`
    /// when `k ≥ count()` — O(log n).
    pub fn ranked_access(&self, k: Weight) -> Option<Vec<Value>> {
        let blk = self.block_of_rank(k)?;
        self.index.ordered_access(blk.lex_lo + (k - blk.wstart))
    }

    /// Allocation-free [`WeightedCqIndex::ranked_access`]: writes into
    /// `scratch` and returns a borrow.
    pub fn ranked_access_into<'s>(
        &self,
        k: Weight,
        scratch: &'s mut AccessScratch,
    ) -> Option<&'s [Value]> {
        let blk = self.block_of_rank(k)?;
        self.index
            .ordered_access_into(blk.lex_lo + (k - blk.wstart), scratch)
    }

    /// The weighted rank of `answer` (head order), or `None` when it is
    /// not an answer — O(log n).
    pub fn ranked_inverted_access(&self, answer: &[Value]) -> Option<Weight> {
        let lex = self.index.ordered_inverted_access(answer)?;
        let blk = self.block_of_lex(lex);
        Some(blk.wstart + (lex - blk.lex_lo))
    }

    /// Allocation-free [`WeightedCqIndex::ranked_inverted_access`].
    pub fn ranked_inverted_access_of(
        &self,
        answer: &[Value],
        scratch: &mut AccessScratch,
    ) -> Option<Weight> {
        let lex = self.index.ordered_inverted_access_of(answer, scratch)?;
        let blk = self.block_of_lex(lex);
        Some(blk.wstart + (lex - blk.lex_lo))
    }

    /// The weight of the answer at weighted rank `k`, or `None` past the
    /// end — O(log blocks), no answer materialized.
    pub fn weight_at(&self, k: Weight) -> Option<u128> {
        self.block_of_rank(k).map(|b| b.weight)
    }

    /// The weight of `answer`, or `None` when it is not an answer —
    /// O(log n), allocation-free.
    pub fn weight_of(&self, answer: &[Value], scratch: &mut AccessScratch) -> Option<u128> {
        let lex = self.index.ordered_inverted_access_of(answer, scratch)?;
        Some(self.block_of_lex(lex).weight)
    }

    /// The contiguous weighted-rank window of all answers whose weight
    /// falls in `weights` (half-open) — O(log blocks). Contiguity is what
    /// the `(weight, lex_lo)` block sort buys.
    pub fn weight_window(&self, weights: Range<u128>) -> Range<Weight> {
        let lo = self.blocks.partition_point(|b| b.weight < weights.start);
        let hi = self.blocks.partition_point(|b| b.weight < weights.end);
        let at = |i: usize| -> Weight {
            if i == self.blocks.len() {
                self.count()
            } else {
                self.blocks[i].wstart
            }
        };
        at(lo)..at(hi.max(lo))
    }

    /// The number of answers whose weight falls in `weights` (half-open)
    /// — O(log blocks), without enumerating them.
    pub fn weight_range_count(&self, weights: Range<u128>) -> Weight {
        let w = self.weight_window(weights);
        w.end - w.start
    }

    /// The smallest answer weight, or `None` when there are no answers —
    /// O(1) (min aggregate of the dichotomy paper's tractable case).
    pub fn min_weight(&self) -> Option<u128> {
        self.blocks.first().map(|b| b.weight)
    }

    /// The largest answer weight, or `None` when there are no answers —
    /// O(1).
    pub fn max_weight(&self) -> Option<u128> {
        self.blocks.last().map(|b| b.weight)
    }

    /// A minimum-weight answer (the lexicographically least among them),
    /// or `None` when there are no answers — O(log n).
    pub fn min_answer(&self) -> Option<Vec<Value>> {
        self.ranked_access(0)
    }

    /// Allocation-free [`WeightedCqIndex::min_answer`].
    pub fn min_answer_into<'s>(&self, scratch: &'s mut AccessScratch) -> Option<&'s [Value]> {
        self.ranked_access_into(0, scratch)
    }

    /// A maximum-weight answer (the lexicographically greatest among
    /// them), or `None` when there are no answers — O(log n).
    pub fn max_answer(&self) -> Option<Vec<Value>> {
        self.ranked_access(self.count().checked_sub(1)?)
    }

    /// Allocation-free [`WeightedCqIndex::max_answer`].
    pub fn max_answer_into<'s>(&self, scratch: &'s mut AccessScratch) -> Option<&'s [Value]> {
        self.ranked_access_into(self.count().checked_sub(1)?, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;
    use rae_query::QueryError;
    use std::cmp::Ordering;

    fn db_ab() -> Database {
        let mut db = Database::new();
        add(
            &mut db,
            "R",
            rel_int(
                &["a", "b"],
                &[&[1, 10], &[1, 11], &[2, 10], &[3, 12], &[3, 10]],
            ),
        );
        db
    }

    fn weights_x() -> VarWeights {
        let mut w = VarWeights::new();
        w.set("x", Value::Int(1), 100);
        w.set("x", Value::Int(2), 7);
        // x=3 left at the implicit 0.
        w
    }

    /// Naive oracle: sort all answers by (weight, lex) and compare every
    /// rank in both directions.
    fn check_weighted(idx: &WeightedCqIndex, cq: &ConjunctiveQuery, db: &Database, w: &VarWeights) {
        let expected = rae_query::naive_eval(cq, db).unwrap();
        let mut rows: Vec<Vec<Value>> = expected.rows().map(<[Value]>::to_vec).collect();
        let head = idx.head().to_vec();
        rows.sort_by(|a, b| {
            let wa = w.answer_weight(&head, a).unwrap();
            let wb = w.answer_weight(&head, b).unwrap();
            wa.cmp(&wb).then_with(|| idx.order_to_head_cmp(a, b))
        });
        assert_eq!(idx.count() as usize, rows.len());
        let mut scratch = AccessScratch::new();
        for (k, row) in rows.iter().enumerate() {
            let got = idx.ranked_access(k as Weight).unwrap();
            assert_eq!(&got, row, "weighted rank {k}");
            assert_eq!(
                idx.ranked_inverted_access(row),
                Some(k as Weight),
                "inverted weighted rank {k}"
            );
            assert_eq!(
                idx.ranked_inverted_access_of(row, &mut scratch),
                Some(k as Weight)
            );
            assert_eq!(
                idx.weight_at(k as Weight),
                Some(w.answer_weight(&head, row).unwrap())
            );
        }
        assert!(idx.ranked_access(idx.count()).is_none());
    }

    impl WeightedCqIndex {
        /// Test helper: lexicographic comparison under the realized order.
        fn order_to_head_cmp(&self, a: &[Value], b: &[Value]) -> Ordering {
            self.index.order_cmp(a, b)
        }
    }

    #[test]
    fn single_relation_weighted_ranks_match_oracle() {
        let db = db_ab();
        let cq = cq("Q(x, y) :- R(x, y)");
        let w = weights_x();
        let idx = WeightedCqIndex::build(&cq, &db, &syms(&["x", "y"]), &w).unwrap();
        check_weighted(&idx, &cq, &db, &w);
        // Three distinct x values ⇒ three blocks.
        assert_eq!(idx.block_count(), 3);
        assert_eq!(idx.min_weight(), Some(0));
        assert_eq!(idx.max_weight(), Some(100));
        // min block: x=3 (weight 0), lex-least of them is (3, 10).
        assert_eq!(
            idx.min_answer().unwrap(),
            vec![Value::Int(3), Value::Int(10)]
        );
        // max block: x=1 (weight 100), lex-greatest is (1, 11).
        assert_eq!(
            idx.max_answer().unwrap(),
            vec![Value::Int(1), Value::Int(11)]
        );
        // weight window / count.
        assert_eq!(idx.weight_range_count(0..1), 2); // the two x=3 rows
        assert_eq!(idx.weight_range_count(0..8), 3); // + the x=2 row
        assert_eq!(idx.weight_range_count(7..100), 1);
        assert_eq!(idx.weight_range_count(101..u128::MAX), 0);
        assert_eq!(idx.weight_window(0..u128::MAX), 0..idx.count());
    }

    #[test]
    fn empty_weight_set_degenerates_to_lex_with_one_block() {
        let db = db_ab();
        let cq = cq("Q(x, y) :- R(x, y)");
        let w = VarWeights::new();
        let idx = WeightedCqIndex::build(&cq, &db, &syms(&["x", "y"]), &w).unwrap();
        check_weighted(&idx, &cq, &db, &w);
        assert_eq!(idx.block_count(), 1);
        assert_eq!(idx.min_weight(), Some(0));
        assert_eq!(idx.max_weight(), Some(0));
    }

    #[test]
    fn empty_result_set_has_no_blocks() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a", "b"], &[]));
        let cq = cq("Q(x, y) :- R(x, y)");
        let idx = WeightedCqIndex::build(&cq, &db, &syms(&["x", "y"]), &weights_x()).unwrap();
        assert_eq!(idx.count(), 0);
        assert_eq!(idx.block_count(), 0);
        assert!(idx.ranked_access(0).is_none());
        assert!(idx.min_weight().is_none());
        assert!(idx.max_answer().is_none());
        assert_eq!(idx.weight_range_count(0..u128::MAX), 0);
    }

    #[test]
    fn intractable_weighted_order_is_rejected_with_witness() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a"], &[&[1]]));
        add(&mut db, "S", rel_int(&["b"], &[&[2]]));
        let cq = cq("Q(x, y) :- R(x), S(y)");
        let mut w = VarWeights::new();
        w.set("x", Value::Int(1), 1);
        w.set("y", Value::Int(2), 1);
        match WeightedCqIndex::build(&cq, &db, &syms(&["x", "y"]), &w) {
            Err(CoreError::Query(QueryError::IntractableWeightedOrder { left, right })) => {
                assert_ne!(left, right);
            }
            other => panic!("expected X+Y rejection, got {other:?}"),
        }
    }

    #[test]
    fn weight_overflow_during_block_walk_is_structured() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a", "b"], &[&[1, 2]]));
        let cq = cq("Q(x, y) :- R(x, y)");
        let mut w = VarWeights::new();
        w.set("x", Value::Int(1), u128::MAX);
        w.set("y", Value::Int(2), 1);
        match WeightedCqIndex::build(&cq, &db, &syms(&["x", "y"]), &w) {
            Err(CoreError::WeightOverflow) => {}
            other => panic!("expected WeightOverflow, got {other:?}"),
        }
    }

    #[test]
    fn join_query_weighted_on_shared_prefix() {
        let mut db = Database::new();
        add(
            &mut db,
            "R",
            rel_int(&["a", "b"], &[&[1, 10], &[1, 11], &[2, 10], &[3, 12]]),
        );
        add(
            &mut db,
            "S",
            rel_int(&["b", "c"], &[&[10, 0], &[11, 0], &[12, 1], &[10, 5]]),
        );
        let cq = cq("Q(x, y, z) :- R(x, y), S(y, z)");
        let mut w = VarWeights::new();
        w.set("y", Value::Int(10), 50);
        w.set("y", Value::Int(11), 3);
        w.set("x", Value::Int(1), 1000);
        let idx = WeightedCqIndex::build(&cq, &db, &syms(&["x", "y", "z"]), &w).unwrap();
        check_weighted(&idx, &cq, &db, &w);
        // Weighting a non-prefix of the order is rejected structurally.
        match WeightedCqIndex::build(&cq, &db, &syms(&["z", "x", "y"]), &w) {
            Err(CoreError::Query(QueryError::WeightedOrderInterleaved { .. })) => {}
            other => panic!("expected interleaving rejection, got {other:?}"),
        }
    }
}
