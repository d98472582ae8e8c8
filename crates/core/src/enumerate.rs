//! Constant-delay sequential enumeration (Theorem 4.1, upper bound).
//!
//! The access routine of Algorithm 3 gives `Enum⟨lin, log⟩` by calling
//! `access(0), access(1), …` (Fact 3.5) — every step pays a binary search.
//! The Bagan–Durand–Grandjean bound is stronger: free-connex CQs are in
//! `Enum⟨lin, const⟩`. This module provides that enumerator: an
//! odometer-style cursor holding one current row per join-tree node and
//! advancing the least-significant position on each step. The delay is
//! bounded by the join-tree size — a constant in data complexity — and the
//! emitted order is exactly the index's access order (verified by tests).

// Sanctioned panics: cursors only dereference bucket rows the index itself emitted.
#![allow(clippy::expect_used)]

use crate::index::{BucketView, CqIndex};
use crate::weight::Weight;
use rae_data::Value;

/// A constant-delay cursor over the answers of a [`CqIndex`], in the
/// index's enumeration order.
///
/// [`CqSequential::next_ref`] is the allocation-free lending interface: it
/// advances the cursor and returns a borrow of an internal answer buffer.
/// The `Iterator` implementation wraps it, cloning the buffer into an owned
/// `Vec<Value>` per item for callers that need ownership.
#[derive(Debug, Clone)]
pub struct CqSequential<'a> {
    index: &'a CqIndex,
    /// Current row id per node (meaningful only while `state == Running`).
    rows: Vec<u32>,
    /// Reused answer buffer backing [`CqSequential::next_ref`].
    answer: Vec<Value>,
    state: State,
    emitted: Weight,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// `rows` holds the first answer, not yet emitted.
    Fresh,
    /// `rows` holds the last emitted answer.
    Running,
    Done,
}

impl<'a> CqSequential<'a> {
    /// Positions the cursor before the first answer.
    pub fn new(index: &'a CqIndex) -> Self {
        let node_count = index.node_count();
        let mut cursor = CqSequential {
            index,
            rows: vec![0; node_count],
            answer: vec![Value::Int(0); index.arity()],
            state: State::Done,
            emitted: 0,
        };
        if index.count() > 0 {
            for &root in index.plan().roots() {
                let bucket = index.root_bucket(root).expect("non-empty index");
                cursor.reset_subtree(root, bucket.start);
            }
            cursor.state = State::Fresh;
        }
        cursor
    }

    /// The cursor's position: answers before the cursor plus answers
    /// emitted (equals the number emitted when the cursor started at 0;
    /// after [`CqSequential::seek`]`(j)` it starts at `j`).
    pub fn emitted(&self) -> Weight {
        self.emitted
    }

    /// Positions the cursor so the next [`CqSequential::next_ref`] returns
    /// answer `j` of the enumeration order, in O(log n) (one access-style
    /// descent, sharing [`CqIndex::access_into`]'s row location, so
    /// unit-weight buckets cost no search). Returns `false` (and exhausts
    /// the cursor) when `j ≥ count()`.
    ///
    /// This is what lets a ranked/paginated scan start mid-stream and then
    /// proceed with constant delay (see `crate::ordered`).
    pub fn seek(&mut self, j: Weight) -> bool {
        let index = self.index;
        if j >= index.count() {
            self.state = State::Done;
            return false;
        }
        // Peel the root digits least-significant-first (the last root is
        // least significant, matching `SplitIndex`).
        let mut rest = j;
        for &root in index.plan().roots().iter().rev() {
            let bucket = index.root_bucket(root).expect("non-empty index");
            let digit = rest % bucket.total;
            rest /= bucket.total;
            self.seek_subtree(root, bucket, digit);
        }
        debug_assert_eq!(rest, 0, "seek index exceeded the root product");
        self.state = State::Fresh;
        self.emitted = j;
        true
    }

    /// Positions `node`'s subtree on sub-answer `sub` of `bucket` (the
    /// Algorithm 3 descent, writing rows instead of values).
    fn seek_subtree(&mut self, node: usize, bucket: BucketView, sub: Weight) {
        let index = self.index;
        let rows = bucket.start as usize..bucket.end as usize;
        let (row, mut remainder) = index.starts(node).locate(rows, bucket.total, sub);
        let row = row as u32;
        self.rows[node] = row;
        for (child_pos, &child) in index.plan().children(node).iter().enumerate().rev() {
            let cb = index.child_bucket(node, row, child_pos);
            self.seek_subtree(child, cb, remainder % cb.total);
            remainder /= cb.total;
        }
        debug_assert_eq!(remainder, 0, "seek index exceeded the subtree weight");
    }

    /// Sets `node`'s row to `row` and every descendant to the first row of
    /// its matching bucket.
    ///
    /// `self.index` is copied to a local first so the recursion can borrow
    /// the plan's child lists directly (they live as long as the index, not
    /// as long as `&mut self`) — no `to_vec` on the per-answer path.
    fn reset_subtree(&mut self, node: usize, row: u32) {
        let index = self.index;
        self.rows[node] = row;
        for (child_pos, &child) in index.plan().children(node).iter().enumerate() {
            let bucket = index.child_bucket(node, row, child_pos);
            self.reset_subtree(child, bucket.start);
        }
    }

    /// Advances the sub-answer rooted at `node` within the node's current
    /// bucket; returns `false` on overflow (the subtree wrapped around).
    fn advance_subtree(&mut self, node: usize, bucket_start: u32, bucket_end: u32) -> bool {
        // Children are digits with the last child least significant
        // (Algorithm 3's SplitIndex convention).
        let index = self.index;
        let children = index.plan().children(node);
        let row = self.rows[node];
        for (child_pos, &child) in children.iter().enumerate().rev() {
            let bucket = index.child_bucket(node, row, child_pos);
            if self.advance_subtree(child, bucket.start, bucket.end) {
                // Everything after `child` already wrapped; reset it.
                for (later_pos, &later) in children.iter().enumerate().skip(child_pos + 1) {
                    let later_bucket = index.child_bucket(node, row, later_pos);
                    self.reset_subtree(later, later_bucket.start);
                }
                return true;
            }
        }
        // All children wrapped: advance this node's own row.
        if row + 1 < bucket_end {
            self.reset_subtree(node, row + 1);
            true
        } else {
            self.rows[node] = bucket_start;
            false
        }
    }

    /// Advances to the next answer; returns `false` when exhausted.
    fn advance(&mut self) -> bool {
        let index = self.index;
        let roots = index.plan().roots();
        for (pos, &root) in roots.iter().enumerate().rev() {
            let bucket = index.root_bucket(root).expect("non-empty index");
            if self.advance_subtree(root, bucket.start, bucket.end) {
                for &later in roots.iter().skip(pos + 1) {
                    let later_bucket = index.root_bucket(later).expect("non-empty");
                    self.reset_subtree(later, later_bucket.start);
                }
                return true;
            }
        }
        false
    }

    fn fill_answer(&mut self) {
        for node in 0..self.index.node_count() {
            self.index
                .write_row_values(node, self.rows[node], &mut self.answer);
        }
    }

    /// Advances to the next answer and returns a borrow of it, or `None`
    /// when exhausted — the constant-delay, zero-allocation interface.
    ///
    /// The returned slice is valid until the next call; clone it (or use the
    /// `Iterator` impl) to keep answers.
    pub fn next_ref(&mut self) -> Option<&[Value]> {
        match self.state {
            State::Done => None,
            State::Fresh => {
                self.state = State::Running;
                self.emitted += 1;
                self.fill_answer();
                Some(&self.answer)
            }
            State::Running => {
                if self.advance() {
                    self.emitted += 1;
                    self.fill_answer();
                    Some(&self.answer)
                } else {
                    self.state = State::Done;
                    None
                }
            }
        }
    }
}

impl Iterator for CqSequential<'_> {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        self.next_ref().map(<[Value]>::to_vec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = usize::try_from(self.index.count() - self.emitted).unwrap_or(usize::MAX);
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;
    use rae_data::Database;
    use rae_query::parser::parse_cq;

    fn db() -> Database {
        let mut db = Database::new();
        add(
            &mut db,
            "R",
            rel_int(&["a", "b"], &[&[1, 1], &[2, 1], &[3, 2], &[4, 9]]),
        );
        add(
            &mut db,
            "S",
            rel_int(
                &["b", "c"],
                &[&[1, 10], &[1, 11], &[2, 20], &[2, 21], &[2, 22], &[9, 0]],
            ),
        );
        add(&mut db, "T", rel_int(&["d"], &[&[100], &[200]]));
        db
    }

    fn check_matches_access_order(query: &str) {
        let db = db();
        let cq = parse_cq(query).unwrap();
        let idx = built(&cq, &db);
        let via_access: Vec<Vec<Value>> = idx.enumerate().collect();
        let via_cursor: Vec<Vec<Value>> = CqSequential::new(&idx).collect();
        assert_eq!(
            via_cursor, via_access,
            "sequential order must equal the access order for {query}"
        );
    }

    #[test]
    fn matches_access_order_on_path_join() {
        check_matches_access_order("Q(x, y, z) :- R(x, y), S(y, z)");
    }

    #[test]
    fn matches_access_order_on_projection() {
        check_matches_access_order("Q(x, y) :- R(x, y), S(y, z)");
    }

    #[test]
    fn matches_access_order_on_star() {
        check_matches_access_order("Q(x, y, z, d) :- R(x, y), S(y, z), T(d)");
    }

    #[test]
    fn matches_access_order_on_cross_product() {
        check_matches_access_order("Q(x, d) :- R(x, y), T(d)");
    }

    #[test]
    fn empty_index_yields_nothing() {
        let mut db = Database::new();
        add(&mut db, "R", rel_int(&["a", "b"], &[]));
        let cq = cq("Q(x, y) :- R(x, y)");
        let idx = built(&cq, &db);
        let mut cursor = CqSequential::new(&idx);
        assert!(cursor.next().is_none());
        assert!(cursor.next().is_none());
    }

    #[test]
    fn boolean_query_emits_single_empty_tuple() {
        let db = db();
        let cq = cq("Q() :- R(x, y), S(y, z)");
        let idx = built(&cq, &db);
        let all: Vec<Vec<Value>> = CqSequential::new(&idx).collect();
        assert_eq!(all, vec![Vec::<Value>::new()]);
    }

    #[test]
    fn seek_resumes_anywhere_in_the_order() {
        let db = db();
        let cq = cq("Q(x, y, z, d) :- R(x, y), S(y, z), T(d)");
        let idx = built(&cq, &db);
        let all: Vec<Vec<Value>> = idx.enumerate().collect();
        let mut cursor = CqSequential::new(&idx);
        for start in [0, 1, idx.count() / 2, idx.count() - 1] {
            assert!(cursor.seek(start));
            assert_eq!(cursor.emitted(), start);
            for (offset, expected) in all.iter().skip(start as usize).take(3).enumerate() {
                let got = cursor.next_ref().expect("in range");
                assert_eq!(got, expected.as_slice(), "seek({start})+{offset}");
            }
        }
        // Out of range exhausts the cursor.
        assert!(!cursor.seek(idx.count()));
        assert!(cursor.next_ref().is_none());
        // But it can be revived by another in-range seek.
        assert!(cursor.seek(0));
        assert_eq!(cursor.next_ref().unwrap(), all[0].as_slice());
    }

    #[test]
    fn size_hint_tracks_progress() {
        let db = db();
        let cq = cq("Q(x, y, z) :- R(x, y), S(y, z)");
        let idx = built(&cq, &db);
        let n = idx.count() as usize;
        let mut cursor = CqSequential::new(&idx);
        assert_eq!(cursor.size_hint(), (n, Some(n)));
        cursor.next();
        assert_eq!(cursor.size_hint(), (n - 1, Some(n - 1)));
    }
}
