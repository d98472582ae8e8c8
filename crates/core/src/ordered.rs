//! Lexicographic direct access and ranked enumeration (DESIGN.md §11).
//!
//! The plain [`CqIndex`] already enumerates in *a* lexicographic order: the
//! one induced by its join-tree layout. This module turns that from an
//! accident of layout into an API: given any realizable variable order `L`
//! over the free variables (PODS 2021 tractability, classified by
//! [`rae_query::realize_order`]), [`OrderedCqIndex`] builds the index over a
//! reoriented plan with per-node column-sort priorities so that
//!
//! * [`OrderedCqIndex::ordered_access`]`(k)` returns the `k`-th answer
//!   **under `ORDER BY L`** in O(log n) — it *is* Algorithm 3's access;
//! * [`OrderedCqIndex::ordered_inverted_access`] returns an answer's rank
//!   under `L` — it *is* Algorithm 4's inverted access;
//! * [`OrderedCqIndex::range_of_prefix`] / [`OrderedCqIndex::range_count`]
//!   resolve a prefix of `L`-values to its contiguous rank range in
//!   O(log n), via a rank descent over the per-bucket startIndex prefix
//!   sums (no answer is materialized);
//! * [`OrderedCqIndex::range`] scans any rank window with constant delay
//!   ([`OrderedEnumeration`] = the Theorem 4.1 cursor plus an O(log n)
//!   [`crate::CqSequential::seek`]).
//!
//! All of it inherits the zero-allocation discipline: the `*_into`/`*_of`
//! variants and the range machinery perform no steady-state heap
//! allocations (covered by `tests/zero_alloc.rs`).

// Sanctioned panics: each `expect` names a realization invariant (the adjusted order is
// realizable, so every level has a sorted run); violation is a bug.
#![allow(clippy::expect_used)]

use crate::error::CoreError;
use crate::index::{BucketView, CqIndex};
use crate::scratch::AccessScratch;
use crate::weight::Weight;
use crate::Result;
use rae_data::{Database, Symbol, Value};
use rae_query::{realize_order, validate_order, ConjunctiveQuery};
use rae_yannakakis::{reduce_to_full_acyclic, FullAcyclicJoin};
use std::cmp::Ordering;
use std::ops::Range;

/// Random access, inverted access, range counting, and constant-delay range
/// scans under a caller-chosen lexicographic variable order (Theorem 4.3
/// machinery over a PODS-2021-compatible join-tree layout).
///
/// ```
/// use rae_core::{AccessScratch, OrderedCqIndex};
/// use rae_data::{Database, Relation, Schema, Symbol, Value};
///
/// let mut db = Database::new();
/// db.add_relation(
///     "R",
///     Relation::from_rows(
///         Schema::new(["a", "b"]).unwrap(),
///         vec![
///             vec![Value::Int(1), Value::Int(10)],
///             vec![Value::Int(2), Value::Int(10)],
///             vec![Value::Int(1), Value::Int(20)],
///         ],
///     )
///     .unwrap(),
/// )
/// .unwrap();
/// let q = "Q(x, y) :- R(x, y)".parse().unwrap();
///
/// // ORDER BY y, x — not the schema order.
/// let order = [Symbol::new("y"), Symbol::new("x")];
/// let idx = OrderedCqIndex::build(&q, &db, &order).unwrap();
///
/// // ordered_access(k) is the k-th answer under the requested order.
/// let mut scratch = AccessScratch::new();
/// let first = idx.ordered_access_into(0, &mut scratch).unwrap();
/// assert_eq!(first, &[Value::Int(1), Value::Int(10)]); // smallest y, then x
/// assert_eq!(idx.ordered_inverted_access(&[Value::Int(1), Value::Int(20)]), Some(2));
///
/// // Range counting over an order prefix: how many answers have y = 10?
/// assert_eq!(idx.range_count(&[Value::Int(10)]).unwrap(), 2);
/// ```
#[derive(Debug)]
pub struct OrderedCqIndex {
    index: CqIndex,
    /// The requested order over the free variables.
    order: Vec<Symbol>,
    /// `order_to_head[p]` = head position of the `p`-th order variable.
    order_to_head: Vec<usize>,
    /// Per plan node: the columns introducing new attributes as
    /// `(bag column, order position)`, most significant first.
    node_new: Vec<Vec<(usize, usize)>>,
}

impl OrderedCqIndex {
    /// Builds the ordered index for a free-connex CQ under the
    /// lexicographic variable order `order` (a permutation of the head).
    ///
    /// Fails with [`rae_query::QueryError::UnrealizableOrder`] (wrapped in
    /// [`CoreError::Query`]) when no reorientation of the query's
    /// free-connex join tree realizes the order, naming an offending
    /// variable pair, and with
    /// [`rae_query::QueryError::OrderVariableMismatch`] when `order` is not
    /// a permutation of the head variables.
    pub fn build(cq: &ConjunctiveQuery, db: &Database, order: &[Symbol]) -> Result<Self> {
        // Catch here so panics in the reduction (ahead of the inner
        // `CqIndex` boundary) also convert to `BuildPanicked`.
        crate::error::catch_build("OrderedCqIndex::build", || {
            let fj = reduce_to_full_acyclic(cq, db)?;
            Self::from_full_join(fj, order)
        })
    }

    /// Builds the ordered index from an already-reduced full acyclic join.
    pub fn from_full_join(fj: FullAcyclicJoin, order: &[Symbol]) -> Result<Self> {
        validate_order(&fj.head, order).map_err(CoreError::Query)?;
        let lex = realize_order(&fj.plan, order)?;
        let relations = lex.derive_relations(fj.relations)?;
        let index = CqIndex::from_parts_lex(lex.plan, relations, fj.head, &lex.priorities)?;
        let order_to_head = lex
            .order
            .iter()
            .map(|v| {
                index
                    .head()
                    .iter()
                    .position(|h| h == v)
                    .expect("order validated against the head")
            })
            .collect();
        Ok(OrderedCqIndex {
            index,
            order: lex.order,
            order_to_head,
            node_new: lex.new_cols,
        })
    }

    /// The underlying [`CqIndex`] (its access order is the requested lex
    /// order; all its raw accessors remain available).
    #[inline]
    pub fn index(&self) -> &CqIndex {
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

    /// The realized lexicographic variable order.
    pub fn order(&self) -> &[Symbol] {
        &self.order
    }

    /// Head position of each order variable (`order()[p]` lives at answer
    /// position `order_to_head()[p]`).
    pub fn order_to_head(&self) -> &[usize] {
        &self.order_to_head
    }

    /// The `k`-th answer under the requested order (tuple in head order), or
    /// `None` when `k ≥ count()` — O(log n).
    pub fn ordered_access(&self, k: Weight) -> Option<Vec<Value>> {
        self.index.access(k)
    }

    /// Allocation-free [`OrderedCqIndex::ordered_access`]: writes into
    /// `scratch` and returns a borrow.
    pub fn ordered_access_into<'s>(
        &self,
        k: Weight,
        scratch: &'s mut AccessScratch,
    ) -> Option<&'s [Value]> {
        self.index.access_into(k, scratch)
    }

    /// The rank of `answer` (head order) under the requested order, or
    /// `None` when it is not an answer — O(log n).
    pub fn ordered_inverted_access(&self, answer: &[Value]) -> Option<Weight> {
        self.index.inverted_access(answer)
    }

    /// Allocation-free [`OrderedCqIndex::ordered_inverted_access`].
    pub fn ordered_inverted_access_of(
        &self,
        answer: &[Value],
        scratch: &mut AccessScratch,
    ) -> Option<Weight> {
        self.index.inverted_access_of(answer, scratch)
    }

    /// Compares two answers (head order) by the requested lexicographic
    /// order.
    pub fn order_cmp(&self, a: &[Value], b: &[Value]) -> Ordering {
        for &h in &self.order_to_head {
            match a[h].cmp(&b[h]) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// The ranks bracketing a prefix of order values: `(lt, le)` where `lt`
    /// answers compare strictly below the prefix and `le` compare below or
    /// equal on the covered positions. O(log n), allocation-free, no answer
    /// materialized.
    ///
    /// `prefix[p]` is the required value of `order()[p]`; a full-arity
    /// prefix brackets a single candidate answer.
    ///
    /// The rank sums are checked: overflow of the `u128` rank space
    /// surfaces as [`CoreError::CapacityExceeded`] instead of a debug
    /// panic / release wraparound. For an index this crate built the sums
    /// are bounded by the (build-checked) answer count, so the error is
    /// defense-in-depth, not an expected outcome.
    ///
    /// # Panics
    /// When `prefix` is longer than the arity.
    pub fn prefix_bounds(&self, prefix: &[Value]) -> Result<(Weight, Weight)> {
        assert!(
            prefix.len() <= self.order.len(),
            "prefix longer than the variable order"
        );
        self.bounds(prefix.len(), &|p| &prefix[p])
    }

    /// `(lt, le)` ranks of a full tuple given in **head** order (used by
    /// the union structures to rank candidate answers of other members).
    pub(crate) fn tuple_bounds(&self, tuple: &[Value]) -> Result<(Weight, Weight)> {
        debug_assert_eq!(tuple.len(), self.index.arity());
        self.bounds(self.order.len(), &|p| &tuple[self.order_to_head[p]])
    }

    /// The contiguous rank range of all answers matching a prefix of order
    /// values (`ORDER BY`-prefix point lookup; empty prefix ⇒ everything).
    pub fn range_of_prefix(&self, prefix: &[Value]) -> Result<Range<Weight>> {
        let (lt, le) = self.prefix_bounds(prefix)?;
        Ok(lt..le)
    }

    /// The number of answers matching a prefix of order values — O(log n),
    /// without enumerating them.
    pub fn range_count(&self, prefix: &[Value]) -> Result<Weight> {
        let (lt, le) = self.prefix_bounds(prefix)?;
        Ok(le - lt)
    }

    /// A constant-delay scan over a rank window `[range.start, range.end)`
    /// of the order (out-of-bounds ends are clamped to `count()`).
    pub fn range(&self, range: Range<Weight>) -> OrderedEnumeration<'_> {
        let lo = range.start.min(self.count());
        let hi = range.end.min(self.count()).max(lo);
        let mut seq = self.index.sequential();
        if hi > lo {
            seq.seek(lo);
        }
        OrderedEnumeration {
            seq,
            remaining: hi - lo,
        }
    }

    /// A constant-delay scan of every answer matching a prefix of order
    /// values, in order.
    pub fn enumerate_prefix(&self, prefix: &[Value]) -> Result<OrderedEnumeration<'_>> {
        Ok(self.range(self.range_of_prefix(prefix)?))
    }

    /// A constant-delay scan of all answers in the requested order.
    pub fn enumerate(&self) -> OrderedEnumeration<'_> {
        self.range(0..self.count())
    }

    /// The `(lt, le)` rank pair for `covered` order positions whose bound
    /// values are produced by `bound`. Implements the mixed-radix rank
    /// combine over roots (first root most significant).
    ///
    /// Every sum/product is checked: for an index this crate built,
    /// `lt + eq ≤ Π bucket totals` at each combine step and the build
    /// already verified that product fits `u128` (`checked_product`), so
    /// overflow here is unreachable — the checks keep a violated invariant
    /// (corrupt archive, future bug) from wrapping silently in release.
    fn bounds<'v>(
        &self,
        covered: usize,
        bound: &dyn Fn(usize) -> &'v Value,
    ) -> Result<(Weight, Weight)> {
        let over = || crate::error::rank_overflow("rank-descent sums");
        if self.index.count() == 0 {
            return Ok((0, 0));
        }
        let mut lt: Weight = 0;
        let mut eq: Weight = 1;
        for &root in self.index.plan().roots() {
            let bucket = self.index.root_bucket(root).expect("non-empty index");
            let (l, le) = self.node_bounds(root, bucket, covered, bound)?;
            lt = lt
                .checked_mul(bucket.total)
                .and_then(|t| t.checked_add(eq.checked_mul(l)?))
                .ok_or_else(over)?;
            eq = eq.checked_mul(le - l).ok_or_else(over)?;
        }
        let up = lt.checked_add(eq).ok_or_else(over)?;
        Ok((lt, up))
    }

    /// The `(lt, le)` rank pair of one node's bucket: how many of the
    /// bucket's subtree answers compare strictly below / below-or-equal on
    /// the covered order positions of this subtree. A node's covered new
    /// columns are always a prefix of its new-column list (order positions
    /// are preorder-consecutive), and the bucket's rows are sorted by
    /// exactly those columns, so the rows equal to the bound form one run.
    /// The run is narrowed one column at a time: each bound value becomes a
    /// position in the value table once, then two binary searches over
    /// that column's ranks cut the run. The run's ends index the startIndex
    /// prefix sums.
    fn node_bounds<'v>(
        &self,
        node: usize,
        bucket: BucketView,
        covered: usize,
        bound: &dyn Fn(usize) -> &'v Value,
    ) -> Result<(Weight, Weight)> {
        let over = || crate::error::rank_overflow("rank-descent sums");
        let new = &self.node_new[node];
        let c = new.iter().take_while(|&&(_, pos)| pos < covered).count();
        // Total weight of rows before `r` in the bucket = r's startIndex.
        let weight_before = |r: u32| -> Weight {
            if r == bucket.end {
                bucket.total
            } else {
                self.index.row_start(node, r)
            }
        };
        // The rows equal to the bound so far: `[lo, hi)`.
        let (mut lo, mut hi) = (bucket.start, bucket.end);
        for &(col, pos) in &new[..c] {
            // `below` table values are smaller than the bound; the value at
            // rank `below` equals it only when `found`.
            let (below, found) = self.index.values().lower_bound(bound(pos));
            let rank = |r: u32| self.index.node_ranks(node, r)[col];
            lo = first_row(lo, hi, |r| rank(r) >= below);
            hi = if found {
                first_row(lo, hi, |r| rank(r) > below)
            } else {
                lo
            };
            if lo == hi {
                break;
            }
        }
        let lt = weight_before(lo);
        if c < new.len() {
            // The covered prefix ends inside this node's block: children are
            // entirely uncovered, so every equal row counts fully toward le.
            return Ok((lt, weight_before(hi)));
        }
        // Node fully covered: bucket rows are distinct on (pAtts ∪ new) =
        // all columns, so at most one row compares equal; descend into its
        // children (uncovered children report (0, total), keeping `eq`
        // multiplicative).
        if lo == hi {
            return Ok((lt, lt));
        }
        let row = lo;
        let mut clt: Weight = 0;
        let mut ceq: Weight = 1;
        for (child_pos, &child) in self.index.plan().children(node).iter().enumerate() {
            let cb = self.index.child_bucket(node, row, child_pos);
            let (l, le) = self.node_bounds(child, cb, covered, bound)?;
            clt = clt
                .checked_mul(cb.total)
                .and_then(|t| t.checked_add(ceq.checked_mul(l)?))
                .ok_or_else(over)?;
            ceq = ceq.checked_mul(le - l).ok_or_else(over)?;
        }
        let below = lt.checked_add(clt).ok_or_else(over)?;
        let upto = below.checked_add(ceq).ok_or_else(over)?;
        Ok((below, upto))
    }
}

/// The first row of `[lo, hi)` satisfying `pred`, which must hold on a
/// suffix of the range (`hi` if none does).
fn first_row(mut lo: u32, mut hi: u32, pred: impl Fn(u32) -> bool) -> u32 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

// ----------------------------------------------------------------------
// Archive round-trip (DESIGN.md §15).
// ----------------------------------------------------------------------

impl OrderedCqIndex {
    /// Extracts the process-independent raw parts: the underlying
    /// [`CqIndex`] archive plus the realized order metadata.
    pub fn to_archive(&self) -> crate::archive::OrderedCqIndexArchive {
        crate::archive::OrderedCqIndexArchive {
            index: self.index.to_archive(),
            order: self.order.clone(),
            node_new: self
                .node_new
                .iter()
                .map(|cols| {
                    cols.iter()
                        .map(|&(col, pos)| (col as u32, pos as u32))
                        .collect()
                })
                .collect(),
        }
    }

    /// Reconstructs an ordered index from archived raw parts, re-checking
    /// — on top of everything [`CqIndex::from_archive`] validates — that
    /// the order is a permutation of the head, that the new-column lists
    /// partition the order positions across the plan exactly once, and
    /// that every bucket's rows strictly increase on its new columns (what
    /// [`OrderedCqIndex::ordered_access`]'s binary searches rely on),
    /// compared on ranks inside the index's column-wise key pass.
    /// Violations surface as [`CoreError::InvalidArchive`].
    pub fn from_archive(archive: crate::archive::OrderedCqIndexArchive) -> Result<Self> {
        crate::error::catch_build("OrderedCqIndex::from_archive", move || {
            Self::from_archive_phases(archive)
        })
    }

    fn from_archive_phases(a: crate::archive::OrderedCqIndexArchive) -> Result<Self> {
        use crate::archive::invalid;
        let plan = CqIndex::archived_plan(&a.index)?;
        let head = &a.index.head;
        validate_order(head, &a.order).map_err(CoreError::Query)?;
        let order_to_head: Vec<usize> = a
            .order
            .iter()
            .map(|v| {
                head.iter()
                    .position(|h| h == v)
                    .ok_or_else(|| invalid(format!("order variable {v} is not a head variable")))
            })
            .collect::<Result<_>>()?;
        let n = plan.node_count();
        if a.node_new.len() != n {
            return Err(invalid(format!(
                "{} new-column lists for {n} plan nodes",
                a.node_new.len()
            )));
        }
        let mut node_new: Vec<Vec<(usize, usize)>> = Vec::with_capacity(n);
        let mut position_owner = vec![false; a.order.len()];
        for (node, cols) in a.node_new.iter().enumerate() {
            let bag = plan.bag(node);
            let key_cols = plan.parent_shared_cols(node);
            // The bag splits exactly into pAtts and introduced columns.
            if cols.len() + key_cols.len() != bag.len() {
                return Err(invalid(format!(
                    "node {node}: {} new columns + {} pAtts do not cover arity {}",
                    cols.len(),
                    key_cols.len(),
                    bag.len()
                )));
            }
            let mut live = Vec::with_capacity(cols.len());
            let mut last_pos: Option<usize> = None;
            for &(col, pos) in cols {
                let (col, pos) = (col as usize, pos as usize);
                if col >= bag.len() || pos >= a.order.len() {
                    return Err(invalid(format!(
                        "node {node}: new column ({col}, {pos}) out of range"
                    )));
                }
                if key_cols.contains(&col) {
                    return Err(invalid(format!(
                        "node {node}: column {col} is a pAtts key, not introduced here"
                    )));
                }
                if bag[col] != a.order[pos] {
                    return Err(invalid(format!(
                        "node {node}: column {col} does not carry order variable {pos}"
                    )));
                }
                if last_pos.is_some_and(|p| p >= pos) {
                    return Err(invalid(format!(
                        "node {node}: new columns are not most-significant-first"
                    )));
                }
                last_pos = Some(pos);
                if std::mem::replace(&mut position_owner[pos], true) {
                    return Err(invalid(format!(
                        "order position {pos} introduced at two nodes"
                    )));
                }
                live.push((col, pos));
            }
            node_new.push(live);
        }
        if let Some(pos) = position_owner.iter().position(|&owned| !owned) {
            return Err(invalid(format!(
                "order position {pos} is introduced at no node"
            )));
        }
        let order_cols: Vec<Vec<usize>> = node_new
            .iter()
            .map(|cols| cols.iter().map(|&(col, _)| col).collect())
            .collect();
        let index = CqIndex::from_archived_plan(plan, a.index, Some(&order_cols))?;
        Ok(OrderedCqIndex {
            index,
            order: a.order,
            order_to_head,
            node_new,
        })
    }
}

/// A constant-delay cursor over a rank window of an ordered index
/// ([`OrderedCqIndex::range`]): the Theorem 4.1 sequential enumerator
/// seeked to the window start. Zero heap allocations per answer via
/// [`OrderedEnumeration::next_ref`].
#[derive(Debug, Clone)]
pub struct OrderedEnumeration<'a> {
    seq: crate::enumerate::CqSequential<'a>,
    remaining: Weight,
}

impl OrderedEnumeration<'_> {
    /// Answers left in the window.
    pub fn remaining(&self) -> Weight {
        self.remaining
    }

    /// The next answer of the window as a borrow of the cursor's buffer
    /// (zero-allocation), or `None` when the window is exhausted.
    pub fn next_ref(&mut self) -> Option<&[Value]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.seq.next_ref()
    }
}

impl Iterator for OrderedEnumeration<'_> {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        self.next_ref().map(<[Value]>::to_vec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;

    use rae_query::QueryError;

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

    /// Naive reference: materialize, sort by the order, compare every rank.
    fn check_order(cq: &ConjunctiveQuery, db: &Database, order: &[&str]) -> OrderedCqIndex {
        let order = syms(order);
        let idx = OrderedCqIndex::build(cq, db, &order).expect("order should be realizable");
        let expected = rae_query::naive_eval(cq, db).unwrap();
        let mut rows: Vec<Vec<Value>> = expected.rows().map(<[Value]>::to_vec).collect();
        let head = idx.head().to_vec();
        let positions: Vec<usize> = order
            .iter()
            .map(|v| head.iter().position(|h| h == v).unwrap())
            .collect();
        rows.sort_by(|a, b| {
            positions
                .iter()
                .map(|&p| a[p].cmp(&b[p]))
                .find(|o| *o != Ordering::Equal)
                .unwrap_or(Ordering::Equal)
        });
        assert_eq!(idx.count() as usize, rows.len(), "count mismatch");
        for (k, expected_row) in rows.iter().enumerate() {
            let got = idx.ordered_access(k as Weight).unwrap();
            assert_eq!(&got, expected_row, "rank {k} order {order:?}");
            assert_eq!(
                idx.ordered_inverted_access(expected_row),
                Some(k as Weight),
                "inverted rank {k}"
            );
        }
        assert!(idx.ordered_access(idx.count()).is_none());
        idx
    }

    #[test]
    fn example_4_4_all_realizable_orders_match_naive() {
        let cq = cq("Q(v, w, x, y, z) :- R1(v, w, x), R2(w, y), R3(x, z)");
        let db = example_4_4_db();
        // A portfolio of realizable orders over the {v,w,x}-{w,y}-{x,z}
        // tree, including reorderings inside the root bag and re-rooting.
        for order in [
            &["v", "w", "x", "y", "z"],
            &["x", "w", "v", "z", "y"],
            &["w", "x", "v", "y", "z"],
            &["v", "w", "x", "z", "y"],
            &["x", "v", "w", "z", "y"],
        ] {
            check_order(&cq, &db, order);
        }
    }

    #[test]
    fn unrealizable_order_is_a_structured_error() {
        let cq = cq("Q(v, w, x, y, z) :- R1(v, w, x), R2(w, y), R3(x, z)");
        let db = example_4_4_db();
        // y first: {w,y} would root, but then v,... the order y,v,... puts
        // two non-adjacent variables before their shared neighbor w.
        let err = OrderedCqIndex::build(&cq, &db, &syms(&["y", "v", "w", "x", "z"]));
        match err {
            Err(CoreError::Query(QueryError::UnrealizableOrder { .. })) => {}
            other => panic!("expected UnrealizableOrder, got {other:?}"),
        }
        // Not a permutation of the head.
        let err = OrderedCqIndex::build(&cq, &db, &syms(&["v", "w", "x", "y"]));
        assert!(matches!(
            err,
            Err(CoreError::Query(QueryError::OrderVariableMismatch { .. }))
        ));
    }

    #[test]
    fn range_count_matches_naive_filter() {
        let cq = cq("Q(v, w, x, y, z) :- R1(v, w, x), R2(w, y), R3(x, z)");
        let db = example_4_4_db();
        let order = syms(&["x", "w", "v", "z", "y"]);
        let idx = OrderedCqIndex::build(&cq, &db, &order).unwrap();
        let all: Vec<Vec<Value>> = idx.enumerate().collect();
        // Every prefix of every answer, plus some misses.
        for answer in &all {
            for p in 0..=order.len() {
                let prefix: Vec<Value> = idx.order_to_head()[..p]
                    .iter()
                    .map(|&h| answer[h].clone())
                    .collect();
                let expected = all
                    .iter()
                    .filter(|a| {
                        idx.order_to_head()[..p]
                            .iter()
                            .zip(prefix.iter())
                            .all(|(&h, v)| &a[h] == v)
                    })
                    .count() as Weight;
                assert_eq!(
                    idx.range_count(&prefix).unwrap(),
                    expected,
                    "prefix {prefix:?}"
                );
                // The range window scans exactly the matching answers.
                let window: Vec<Vec<Value>> = idx.enumerate_prefix(&prefix).unwrap().collect();
                assert_eq!(window.len() as Weight, expected);
                for w in &window {
                    assert!(idx.order_to_head()[..p]
                        .iter()
                        .zip(prefix.iter())
                        .all(|(&h, v)| &w[h] == v));
                }
            }
        }
        // Misses: values below/above/absent.
        assert_eq!(idx.range_count(&[Value::str("c0")]).unwrap(), 0);
        assert_eq!(idx.range_count(&[Value::str("zzz")]).unwrap(), 0);
        assert_eq!(idx.range_count(&[Value::Int(5)]).unwrap(), 0);
        assert_eq!(idx.range_count(&[]).unwrap(), idx.count());
    }

    #[test]
    fn range_windows_paginate_consistently() {
        let cq = cq("Q(v, w, x, y, z) :- R1(v, w, x), R2(w, y), R3(x, z)");
        let db = example_4_4_db();
        let idx = OrderedCqIndex::build(&cq, &db, &syms(&["v", "w", "x", "y", "z"])).unwrap();
        let all: Vec<Vec<Value>> = idx.enumerate().collect();
        assert_eq!(all.len() as Weight, idx.count());
        // Page through with window size 3; concatenation must equal `all`.
        let mut paged: Vec<Vec<Value>> = Vec::new();
        let mut at: Weight = 0;
        while at < idx.count() {
            paged.extend(idx.range(at..at + 3));
            at += 3;
        }
        assert_eq!(paged, all);
        // Clamping.
        assert_eq!(idx.range(idx.count()..idx.count() + 5).count(), 0);
        let tail: Vec<_> = idx.range(idx.count() - 1..Weight::MAX).collect();
        assert_eq!(tail.len(), 1);
        assert_eq!(&tail[0], all.last().unwrap());
    }

    #[test]
    fn cross_product_orders_interleave_components() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a"], &[&[3], &[1], &[2]]));
        add(&mut db, "S", rel_int(&["b"], &[&[20], &[10]]));
        let cq = cq("Q(x, y) :- R(x), S(y)");
        check_order(&cq, &db, &["x", "y"]);
        check_order(&cq, &db, &["y", "x"]);
    }

    #[test]
    fn filter_heavy_query_with_reversed_order() {
        // Self-join plus constant: exercises instantiate + fold paths.
        let mut db = Database::new();
        add(
            &mut db,
            "E",
            rel_int(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 4], &[2, 4], &[4, 1]]),
        );
        let cq = cq("Q(x, y, z) :- E(x, y), E(y, z)");
        for order in [
            &["x", "y", "z"],
            &["y", "x", "z"],
            &["y", "z", "x"],
            &["z", "y", "x"],
        ] {
            check_order(&cq, &db, order);
        }
    }

    #[test]
    fn boolean_query_has_trivial_order() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a"], &[&[1]]));
        let cq = cq("Q() :- R(x)");
        let idx = OrderedCqIndex::build(&cq, &db, &[]).unwrap();
        assert_eq!(idx.count(), 1);
        assert_eq!(idx.ordered_access(0).unwrap(), Vec::<Value>::new());
        assert_eq!(idx.range_count(&[]).unwrap(), 1);
    }

    #[test]
    fn empty_result_set() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a", "b"], &[]));
        let cq = cq("Q(x, y) :- R(x, y)");
        let idx = OrderedCqIndex::build(&cq, &db, &syms(&["y", "x"])).unwrap();
        assert_eq!(idx.count(), 0);
        assert!(idx.ordered_access(0).is_none());
        assert_eq!(idx.range_count(&[Value::Int(1)]).unwrap(), 0);
        assert_eq!(idx.enumerate().count(), 0);
    }

    #[test]
    fn projection_with_order_on_kept_vars() {
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
        check_order(&cq, &db, &["x", "y"]);
        check_order(&cq, &db, &["y", "x"]);
    }
}
