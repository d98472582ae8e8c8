//! Guide tables for weighted buckets (DESIGN.md §6).
//!
//! Algorithm 3 finds, in each node on its way down, the row of a bucket
//! that owns sub-answer `j`: the last row whose startIndex is ≤ `j`. A
//! bucket whose total equals its row count needs no search (every row
//! weighs 1, so the row is `start + j`). Every other bucket of at least
//! [`GUIDE_MIN_ROWS`] rows gets a guide: with shift
//! `s = ⌊log2(total / rows)⌋ + 1`, slot `i` holds the row that owns
//! sub-answer `i << s`, and one slot past the last holds the bucket's last
//! row. The row owning `j` lies between the rows of slots `j >> s` and
//! `(j >> s) + 1`; rows weigh at least 1, so at most `2^s` rows start in
//! between, and the search runs over at most `2^s + 1` rows — two or three
//! when weights are even, since `2^s` is at most twice the bucket's mean
//! row weight. Since `2^s > total / rows`, there are `⌈total / 2^s⌉ ≤ rows`
//! slots plus the closing one: four bytes a row at most.
//!
//! A guide is derived from the startIndex column wherever the column is
//! made — the build and the archive validation — and never archived. The
//! denser `⌊log2(total / rows)⌋` (up to two slots a row) located rows no
//! faster on the churn workload's root bucket and took longer to build.

use crate::archive::{Buckets, Starts};
use crate::weight::Weight;
use std::ops::Range;

/// Buckets with fewer rows than this are searched whole (a search of at
/// most five steps within a few cache lines).
pub const GUIDE_MIN_ROWS: usize = 1 << CHUNK_LOG;

/// A guided bucket is keyed by `start >> CHUNK_LOG`: it spans at least
/// `2^CHUNK_LOG` rows, so no two guided buckets of a node share a key.
const CHUNK_LOG: u32 = 5;

/// Where a guided bucket's slots begin in [`Guide::slots`], and its shift.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    offset: usize,
    shift: u32,
}

/// The guides of one node's weighted buckets; see the module docs.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Guide {
    /// Indexed by a guided bucket's `start >> CHUNK_LOG`; empty when no
    /// bucket of the node is guided.
    spans: Vec<Span>,
    /// Every guided bucket's slots (row ids), in bucket order.
    slots: Vec<u32>,
}

/// Whether a bucket of `rows` rows and weight `total` is located through
/// a guide.
#[inline]
fn guided(rows: usize, total: Weight) -> bool {
    rows >= GUIDE_MIN_ROWS && total != rows as Weight
}

/// A startIndex word of either layout, with the guide's one piece of
/// arithmetic on it done at its own width.
pub(crate) trait StartWord: Copy + Into<Weight> {
    /// `⌈self / 2^shift⌉` for `self ≥ 1`: the first slot of a row starting
    /// at `self`, or the slot count of a bucket of total `self`.
    fn ceil_shr(self, shift: u32) -> usize;
}

impl StartWord for u64 {
    #[inline]
    fn ceil_shr(self, shift: u32) -> usize {
        // A shift of 64 or more leaves 1 for every compact start.
        (self - 1).checked_shr(shift).unwrap_or(0) as usize + 1
    }
}

impl StartWord for Weight {
    #[inline]
    fn ceil_shr(self, shift: u32) -> usize {
        ((self - 1) >> shift) as usize + 1
    }
}

impl Guide {
    /// The guides of every weighted bucket of a node (the build path; the
    /// archive validation fills them in its own walk over the buckets).
    pub fn new(starts: &Starts, buckets: &Buckets) -> Self {
        let mut guide = Guide::default();
        let (firsts, ends, totals) = (&buckets.start, &buckets.end, &buckets.total);
        for ((&first, &end), &total) in firsts.iter().zip(ends.iter()).zip(totals.iter()) {
            let rows = first as usize..end as usize;
            match starts {
                Starts::Compact(v) => guide.push_bucket(v, rows, total),
                Starts::Wide(v) => guide.push_bucket(v, rows, total),
            }
        }
        guide
    }

    /// Guides the bucket `rows` of weight `total` if it is a weighted
    /// bucket of at least [`GUIDE_MIN_ROWS`] rows. `starts` is the node's
    /// whole startIndex column, already checked to be the buckets' prefix
    /// sums; buckets come in row order.
    #[inline]
    pub(crate) fn push_bucket<T: StartWord>(
        &mut self,
        starts: &[T],
        rows: Range<usize>,
        total: Weight,
    ) {
        if guided(rows.len(), total) {
            self.guide_bucket(starts, rows, total);
        }
    }

    fn guide_bucket<T: StartWord>(&mut self, starts: &[T], rows: Range<usize>, total: Weight) {
        if self.spans.is_empty() {
            self.spans = vec![Span::default(); (starts.len() >> CHUNK_LOG) + 1];
        }
        // Weights are ≥ 1, so total / rows ≥ 1 and the logarithm is defined;
        // a total below 2^128 over at least 32 rows keeps the shift ≤ 123.
        let shift = (total / rows.len() as Weight).ilog2() + 1;
        let offset = self.slots.len();
        self.spans[rows.start >> CHUNK_LOG] = Span { offset, shift };
        // Slot `i` belongs to the last row whose start is ≤ `i << shift`,
        // that is the largest row whose first slot `⌈start / 2^shift⌉` is
        // ≤ `i`: each row marks its first slot (a later row overwrites an
        // earlier one), then a running maximum fills the slots between.
        self.slots.resize(offset + total.ceil_shr(shift) + 1, 0);
        let slots = &mut self.slots[offset..];
        slots[0] = rows.start as u32;
        for (r, &start) in (rows.start + 1..).zip(&starts[rows.start + 1..rows.end]) {
            slots[start.ceil_shr(shift)] = r as u32;
        }
        let mut row = 0;
        for slot in slots {
            row = row.max(*slot);
            *slot = row;
        }
    }

    /// The row of a bucket (row range `rows`, weight `total`) owning
    /// sub-answer `j < total` under `starts`, and `j`'s remainder in it.
    /// A bucket whose total equals its row count is all unit rows: row
    /// `rows.start + j`, remainder 0, nothing read. A guided bucket
    /// searches the window between two slots; any other bucket (or a node
    /// without guides) searches its whole row range. Either way the search
    /// is [`Starts::rank_leq`], so the result is exact.
    #[inline]
    pub fn locate(
        &self,
        starts: &Starts,
        rows: Range<usize>,
        total: Weight,
        j: Weight,
    ) -> (usize, Weight) {
        debug_assert!(j < total);
        if total == rows.len() as Weight {
            return (rows.start + j as usize, 0);
        }
        let (lo, hi) = match self.spans.get(rows.start >> CHUNK_LOG) {
            Some(span) if rows.len() >= GUIDE_MIN_ROWS => {
                let slot = span.offset + (j >> span.shift) as usize;
                let pair = &self.slots[slot..slot + 2];
                (pair[0] as usize, pair[1] as usize + 1)
            }
            _ => (rows.start, rows.end),
        };
        let row = lo + starts.rank_leq(lo, hi, j) - 1;
        (row, j - starts.at(row))
    }

    /// The shift and slots of a guided bucket, or `None` for a bucket
    /// located without a guide (test support).
    #[cfg(test)]
    pub(crate) fn bucket_slots(&self, rows: Range<usize>, total: Weight) -> Option<(u32, &[u32])> {
        if !guided(rows.len(), total) {
            return None;
        }
        let span = self.spans.get(rows.start >> CHUNK_LOG)?;
        let count = total.ceil_shr(span.shift) + 1;
        Some((span.shift, &self.slots[span.offset..span.offset + count]))
    }

    /// Whether no bucket of the node is guided.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}
