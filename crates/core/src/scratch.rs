//! [`AccessScratch`]: the reusable buffer bundle behind the zero-allocation
//! answer-production paths.
//!
//! Every per-answer buffer the engine needs — the answer tuple itself, the
//! iterative descent stack of [`CqIndex::access_into`], mixed-radix digit
//! vectors, rank-gather buffers for inverted access, and the row picks of
//! the rejection samplers — lives here. A scratch is created once (cheap:
//! all buffers start empty), threaded through any number of `*_into` calls,
//! and reused across queries of different shapes: buffers are resized, never
//! reallocated once they have grown to the high-water mark.
//!
//! Steady state (after the first call per shape), `access_into`,
//! `inverted_access_of`, and every sampler `attempt_into` perform **zero
//! heap allocations** — verified by `tests/zero_alloc.rs` with a counting
//! global allocator.
//!
//! [`CqIndex::access_into`]: crate::CqIndex::access_into

use crate::weight::Weight;
use rae_data::Value;

/// Reusable buffers for the allocation-free access, inverted-access, and
/// sampling paths.
///
/// The sampler crate reaches the buffers it needs through the public
/// methods; the descent internals stay crate-private.
#[derive(Debug, Default, Clone)]
pub struct AccessScratch {
    /// The answer tuple being assembled (head order).
    pub(crate) answer: Vec<Value>,
    /// Iterative-descent work stack: `(node, bucket id, sub-index)`.
    pub(crate) stack: Vec<(u32, u32, Weight)>,
    /// Digit buffer for splitting an index across the plan roots.
    pub(crate) digits: Vec<Weight>,
    /// Gather buffer for one node's tuple ranks.
    pub(crate) key_ranks: Vec<u32>,
    /// Value-table ranks of a probed answer, one per head position.
    pub(crate) answer_ranks: Vec<u32>,
    /// Per-node digit accumulator for inverted access.
    pub(crate) node_digits: Vec<Weight>,
    /// Row-id buffer for samplers that draw one row per node.
    pub(crate) row_ids: Vec<u32>,
}

impl AccessScratch {
    /// Creates an empty scratch (no buffers allocated yet).
    pub fn new() -> Self {
        AccessScratch::default()
    }

    /// The most recently produced answer, in head-attribute order.
    ///
    /// Valid after a successful `access_into` / `attempt_into`-style call;
    /// the content is overwritten by the next one.
    #[inline]
    pub fn answer(&self) -> &[Value] {
        &self.answer
    }

    /// Sizes the answer buffer to `arity` values, reusing its capacity.
    ///
    /// When the buffer already has the right length its contents are left in
    /// place: every producer overwrites all `arity` positions before
    /// returning a borrow, so clearing would only add a drop-and-refill pass
    /// per answer.
    #[inline]
    pub fn reset_answer(&mut self, arity: usize) {
        if self.answer.len() != arity {
            self.answer.clear();
            self.answer.resize(arity, Value::Int(0));
        }
    }

    /// Grows the buffers [`crate::CqIndex::access_into`] uses to fit an
    /// access over any index of `arity` head values and at most `nodes`
    /// plan nodes (the descent stack holds each node at most once), so
    /// accesses alternating between such indexes never reallocate.
    #[inline]
    pub(crate) fn reserve_access(&mut self, arity: usize, nodes: usize) {
        fn fit<T>(v: &mut Vec<T>, n: usize) {
            if v.capacity() < n {
                v.reserve(n - v.len());
            }
        }
        fit(&mut self.answer, arity);
        fit(&mut self.stack, nodes);
        fit(&mut self.digits, nodes);
    }

    /// Mutable view of the (already sized) answer buffer, for writers like
    /// [`crate::CqIndex::write_row_values`].
    #[inline]
    pub fn answer_mut(&mut self) -> &mut [Value] {
        &mut self.answer
    }

    /// A reusable `u32` row-id buffer (used by samplers drawing one row per
    /// join-tree node).
    #[inline]
    pub fn row_ids(&mut self) -> &mut Vec<u32> {
        &mut self.row_ids
    }

    /// Split borrow: the row-id buffer (shared) together with the answer
    /// buffer (mutable), for writers that materialize an answer from
    /// previously drawn rows.
    #[inline]
    pub fn rows_and_answer(&mut self) -> (&[u32], &mut [Value]) {
        (&self.row_ids, &mut self.answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_answer_sizes_and_reuses_capacity() {
        let mut s = AccessScratch::new();
        s.reset_answer(3);
        assert_eq!(s.answer(), &[Value::Int(0), Value::Int(0), Value::Int(0)]);
        s.answer_mut()[1] = Value::Int(7);
        let cap = s.answer.capacity();
        s.reset_answer(2);
        assert_eq!(s.answer(), &[Value::Int(0), Value::Int(0)]);
        assert_eq!(s.answer.capacity(), cap, "capacity must be retained");
    }

    #[test]
    fn row_ids_buffer_is_reusable() {
        let mut s = AccessScratch::new();
        s.row_ids().extend([1, 2, 3]);
        s.row_ids().clear();
        assert!(s.row_ids().is_empty());
        assert!(s.row_ids.capacity() >= 3);
    }
}
