//! LSD radix sorting for relations and code keys.
//!
//! Preprocessing sorts every node relation (canonical `(pAtts, full row)`
//! order) and every semijoin projection. A comparison sort pays a `Value`
//! comparison — an enum branch plus, for strings, a character walk — at every
//! probe of every merge step. The routines here replace that with counting
//! passes over small integers:
//!
//! * [`SortScratch::rank_sort_permutation`] sorts rows into **value order**
//!   (byte-identical to the comparison sort) by first mapping each distinct
//!   dictionary code to its *rank* in value order — one `O(d log d)`
//!   comparison sort over the `d` distinct values, not the `n` rows — and
//!   then running stable LSD counting passes over the rank columns. Ties
//!   (duplicate rows) keep their original order, exactly like the stable
//!   comparison sort, so the two implementations are interchangeable and are
//!   differential-tested against each other.
//! * [`SortScratch::sort_rows_by_code_keys`] sorts row ids by raw code
//!   order (byte-wise LSD over the `u32` codes). Code order is *not* value
//!   order, but semijoin merging only needs equal keys adjacent and both
//!   sides in the same order, which any fixed total order provides.
//!
//! All buffers live in a [`SortScratch`], reachable through the thread-local
//! [`with_sort_scratch`], so steady-state sorting allocates nothing once the
//! buffers have grown to the workload's high-water mark.

use crate::dict::ValueCode;
use crate::fxhash::FxHashMap;
use crate::value::Value;
use std::cell::RefCell;
use std::collections::hash_map::Entry;

/// Which sort implementation a relation sort should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortAlgorithm {
    /// Radix for relations past [`RADIX_MIN_ROWS`], comparison below (tiny
    /// inputs do not amortize the rank table).
    #[default]
    Auto,
    /// Always the LSD radix path.
    Radix,
    /// Always the comparison path (the pre-radix implementation, kept as the
    /// differential-testing and ablation baseline).
    Comparison,
}

/// Smallest row count for which [`SortAlgorithm::Auto`] picks radix.
pub const RADIX_MIN_ROWS: usize = 48;

/// Reusable buffers for the radix sorts. All `Vec`s only ever grow, so a
/// warmed-up scratch sorts without heap allocation.
#[derive(Default)]
pub struct SortScratch {
    /// Dictionary code → dense id (per sort call).
    dense_of_code: FxHashMap<ValueCode, u32>,
    /// Representative slot (index into the flat value storage) per dense id.
    repr_slot: Vec<u32>,
    /// Per-slot dense id, then (after ranking) per-slot rank.
    ranks: Vec<u32>,
    /// Dense ids in value order (the rank assignment).
    order: Vec<u32>,
    /// Dense id → rank in value order.
    rank_of_dense: Vec<u32>,
    /// Counting-sort histogram / offset table.
    counts: Vec<u32>,
    /// Row permutation being built.
    perm: Vec<u32>,
    /// Scatter target, swapped with `perm` every pass.
    perm_tmp: Vec<u32>,
}

impl SortScratch {
    /// Computes the stable permutation that sorts the `n = codes.len() /
    /// arity` rows of a relation by `(key_cols, full row)` in **value
    /// order** — the same order, including tie order, as the stable
    /// comparison sort over [`Value`]s.
    ///
    /// Requires `arity > 0`; `data` and `codes` are the relation's flat
    /// value storage and code mirror (same layout). The returned slice lives
    /// in the scratch and is valid until the next call.
    pub fn rank_sort_permutation(
        &mut self,
        data: &[Value],
        codes: &[ValueCode],
        arity: usize,
        key_cols: &[usize],
    ) -> &[u32] {
        debug_assert!(arity > 0, "rank sort needs at least one column");
        debug_assert_eq!(codes.len() % arity, 0);
        let n = codes.len() / arity;
        // Representative slots index the *flat* value storage, so the guard
        // must cover n·arity, not just the row count.
        assert!(
            codes.len() <= u32::MAX as usize,
            "relation too large for u32 value-slot ids"
        );

        // Pass 1: dense ids. Within one relation a code always denotes one
        // value (the mirror is encoded in a single dictionary), so mapping
        // codes — not values — to dense ids is sound and hashes only u32s.
        let SortScratch {
            dense_of_code,
            repr_slot,
            ranks,
            order,
            rank_of_dense,
            ..
        } = self;
        dense_of_code.clear();
        repr_slot.clear();
        ranks.clear();
        ranks.reserve(codes.len());
        for (slot, &code) in codes.iter().enumerate() {
            let dense = match dense_of_code.entry(code) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let d = repr_slot.len() as u32;
                    repr_slot.push(slot as u32);
                    *e.insert(d)
                }
            };
            ranks.push(dense);
        }
        let d = repr_slot.len();

        // Pass 2: rank the distinct values. Distinct codes carry distinct
        // values, so the order is strict and the unstable sort is safe.
        order.clear();
        order.extend(0..d as u32);
        order.sort_unstable_by(|&a, &b| {
            data[repr_slot[a as usize] as usize].cmp(&data[repr_slot[b as usize] as usize])
        });
        rank_of_dense.clear();
        rank_of_dense.resize(d, 0);
        for (rank, &dense) in order.iter().enumerate() {
            rank_of_dense[dense as usize] = rank as u32;
        }
        for r in ranks.iter_mut() {
            *r = rank_of_dense[*r as usize];
        }

        // Pass 3: stable LSD counting passes. Sorting by `(key_cols, full
        // row)` equals sorting by `key_cols` then the non-key columns in
        // schema order (the second visit of a key column always compares
        // equal), so each column is scanned at most once.
        self.perm.clear();
        self.perm.extend(0..n as u32);
        if d <= 1 {
            return &self.perm; // all values equal: any stable order is done
        }
        self.perm_tmp.clear();
        self.perm_tmp.resize(n, 0);
        let non_key = (0..arity).rev().filter(|c| !key_cols.contains(c));
        for col in non_key.chain(key_cols.iter().copied().rev()) {
            self.counting_pass(arity, col, d);
        }
        &self.perm
    }

    /// One stable counting-sort pass of `perm` by the rank at `col`.
    fn counting_pass(&mut self, arity: usize, col: usize, domain: usize) {
        self.counts.clear();
        self.counts.resize(domain, 0);
        for &row in &self.perm {
            self.counts[self.ranks[row as usize * arity + col] as usize] += 1;
        }
        // Skip the scatter when the column is constant across all rows.
        if self.counts.iter().filter(|&&c| c > 0).count() <= 1 {
            return;
        }
        let mut sum = 0u32;
        for c in self.counts.iter_mut() {
            let here = *c;
            *c = sum;
            sum += here;
        }
        for &row in &self.perm {
            let rank = self.ranks[row as usize * arity + col] as usize;
            self.perm_tmp[self.counts[rank] as usize] = row;
            self.counts[rank] += 1;
        }
        std::mem::swap(&mut self.perm, &mut self.perm_tmp);
    }

    /// Stable-sorts the row ids in `rows` by their `width`-code keys in
    /// `keys` (row `r`'s key is `keys[r*width .. (r+1)*width]`), in raw code
    /// order — byte-wise LSD, least-significant byte of the last key column
    /// first. Used by the merge semijoin, where any fixed total order on
    /// keys works.
    pub fn sort_rows_by_code_keys(
        &mut self,
        keys: &[ValueCode],
        width: usize,
        rows: &mut Vec<u32>,
    ) {
        let n = rows.len();
        if n <= 1 {
            return;
        }
        self.perm_tmp.clear();
        self.perm_tmp.resize(n, 0);
        self.counts.clear();
        self.counts.resize(256, 0);
        for col in (0..width).rev() {
            for shift in [0u32, 8, 16, 24] {
                let byte_of =
                    |row: u32| (keys[row as usize * width + col] >> shift) as usize & 0xFF;
                self.counts.iter_mut().for_each(|c| *c = 0);
                for &row in rows.iter() {
                    self.counts[byte_of(row)] += 1;
                }
                // Constant byte (common for the high bytes of small codes):
                // the pass is the identity.
                if self.counts.iter().filter(|&&c| c > 0).count() <= 1 {
                    continue;
                }
                let mut sum = 0u32;
                for c in self.counts.iter_mut() {
                    let here = *c;
                    *c = sum;
                    sum += here;
                }
                for &row in rows.iter() {
                    let b = byte_of(row);
                    self.perm_tmp[self.counts[b] as usize] = row;
                    self.counts[b] += 1;
                }
                std::mem::swap(rows, &mut self.perm_tmp);
            }
        }
    }
}

thread_local! {
    static SORT_SCRATCH: RefCell<SortScratch> = RefCell::new(SortScratch::default());
}

/// Runs `f` with this thread's reusable [`SortScratch`].
pub fn with_sort_scratch<R>(f: impl FnOnce(&mut SortScratch) -> R) -> R {
    SORT_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perm_of(values: &[&[i64]], key_cols: &[usize]) -> Vec<u32> {
        let arity = values[0].len();
        let data: Vec<Value> = values
            .iter()
            .flat_map(|r| r.iter().map(|&v| Value::Int(v)))
            .collect();
        let dict = crate::Dictionary::new();
        let codes: Vec<ValueCode> = data.iter().map(|v| dict.intern(v).unwrap()).collect();
        let mut scratch = SortScratch::default();
        scratch
            .rank_sort_permutation(&data, &codes, arity, key_cols)
            .to_vec()
    }

    fn comparison_perm(values: &[&[i64]], key_cols: &[usize]) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..values.len() as u32).collect();
        perm.sort_by(|&i, &j| {
            let (ri, rj) = (values[i as usize], values[j as usize]);
            for &c in key_cols {
                match ri[c].cmp(&rj[c]) {
                    std::cmp::Ordering::Equal => {}
                    other => return other,
                }
            }
            ri.cmp(rj)
        });
        perm
    }

    #[test]
    fn rank_sort_matches_comparison_sort() {
        let rows: Vec<&[i64]> = vec![
            &[3, 1, 4],
            &[1, 5, 9],
            &[2, 6, 5],
            &[3, 1, 4], // duplicate: tie order must match the stable sort
            &[1, 4, 1],
            &[2, 6, 5],
            &[9, 2, 6],
        ];
        for key_cols in [&[][..], &[0][..], &[1][..], &[2, 0][..], &[0, 1, 2][..]] {
            assert_eq!(
                perm_of(&rows, key_cols),
                comparison_perm(&rows, key_cols),
                "key_cols {key_cols:?}"
            );
        }
    }

    #[test]
    fn rank_sort_orders_mixed_domains_like_value_ord() {
        // Int < Str in the Value total order; radix must respect it even
        // though code order interleaves the two.
        let data = vec![
            Value::str("b"),
            Value::Int(7),
            Value::str("a"),
            Value::Int(-3),
        ];
        let dict = crate::Dictionary::new();
        let codes: Vec<ValueCode> = data.iter().map(|v| dict.intern(v).unwrap()).collect();
        let mut scratch = SortScratch::default();
        let perm = scratch.rank_sort_permutation(&data, &codes, 1, &[]);
        let sorted: Vec<&Value> = perm.iter().map(|&i| &data[i as usize]).collect();
        assert_eq!(
            sorted,
            vec![
                &Value::Int(-3),
                &Value::Int(7),
                &Value::str("a"),
                &Value::str("b")
            ]
        );
    }

    #[test]
    fn code_key_sort_groups_equal_keys_and_is_stable() {
        // Keys chosen so byte passes beyond the first matter.
        let keys: Vec<ValueCode> = vec![
            0x0102_0304, // row 0
            0x0000_0007, // row 1
            0x0102_0304, // row 2 (dup of row 0 → must stay after it)
            0x0102_0004, // row 3
            0x0000_0007, // row 4 (dup of row 1)
        ];
        let mut rows: Vec<u32> = (0..5).collect();
        let mut scratch = SortScratch::default();
        scratch.sort_rows_by_code_keys(&keys, 1, &mut rows);
        assert_eq!(rows, vec![1, 4, 3, 0, 2]);
    }

    #[test]
    fn code_key_sort_handles_multi_column_keys() {
        // width 2: (a, b) pairs; lexicographic on code order.
        let keys: Vec<ValueCode> = vec![
            2, 9, // row 0
            1, 5, // row 1
            2, 3, // row 2
            1, 5, // row 3 (dup of row 1)
        ];
        let mut rows: Vec<u32> = (0..4).collect();
        let mut scratch = SortScratch::default();
        scratch.sort_rows_by_code_keys(&keys, 2, &mut rows);
        assert_eq!(rows, vec![1, 3, 2, 0]);
    }
}
