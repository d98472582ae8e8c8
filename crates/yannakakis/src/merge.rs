//! Merge (sort-based) semijoin over dictionary-code projections.
//!
//! A hash semijoin pays one hash probe per left row and one insert per
//! right row, each touching a hash table in random order. The merge
//! semijoin instead radix-sorts both sides' key projections by raw code
//! order (any fixed total order on codes works for equality matching) and
//! resolves membership with a single linear merge: every memory access
//! after the sort is sequential, and consecutive equal keys on either side
//! are consumed as a run (run-length dedup), so duplicate keys cost one
//! comparison per run, not per row.
//!
//! This is the one semijoin of the build path: [`crate::full_reduce`] and
//! the consistency check both use it (DESIGN.md §10). The hash variant
//! survives only as this module's differential-test oracle.

use rae_data::{with_sort_scratch, Relation, ValueCode};
use std::cell::RefCell;
use std::cmp::Ordering;

/// Reusable projection/mask buffers (thread-local; see [`merge_scratch`]).
#[derive(Default)]
struct MergeScratch {
    left_keys: Vec<ValueCode>,
    right_keys: Vec<ValueCode>,
    left_rows: Vec<u32>,
    right_rows: Vec<u32>,
    mask: Vec<bool>,
}

thread_local! {
    static MERGE_SCRATCH: RefCell<MergeScratch> = RefCell::new(MergeScratch::default());
}

/// Reduces `left` to the rows whose key (values at `left_cols`) occurs among
/// the keys of `right` at `right_cols` — the semijoin `left ⋉ right` — via
/// sort-merge on dictionary codes.
///
/// Surviving rows keep their order, so the left relation's sort fingerprint
/// stays valid; the result equals a hash semijoin's exactly (the
/// differential test below checks this). When `left` is empty no
/// right-side work happens at all. A `right` from another dictionary is
/// re-encoded in `left`'s first (the only fallible step).
///
/// # Panics
/// Panics if the column lists have different lengths.
pub fn merge_semijoin_filter(
    left: &mut Relation,
    left_cols: &[usize],
    right: &Relation,
    right_cols: &[usize],
) -> rae_data::Result<()> {
    assert_eq!(
        left_cols.len(),
        right_cols.len(),
        "semijoin column lists must have equal length"
    );
    if left.is_empty() {
        return Ok(()); // nothing can survive; skip building any right-side structure
    }
    if left_cols.is_empty() {
        // Joining on no attributes: keep left iff right is non-empty.
        if right.is_empty() {
            left.retain_rows(|_| false);
        }
        return Ok(());
    }
    if right.is_empty() {
        left.retain_rows(|_| false);
        return Ok(());
    }
    let right = right.encoded_like(left)?;
    let width = left_cols.len();
    let n = left.len();
    let m = right.len();
    assert!(
        n <= u32::MAX as usize && m <= u32::MAX as usize,
        "relation too large for u32 row ids"
    );

    MERGE_SCRATCH.with(|cell| {
        let MergeScratch {
            left_keys,
            right_keys,
            left_rows,
            right_rows,
            mask,
        } = &mut *cell.borrow_mut();

        // Project both sides' keys into flat code buffers and sort the row
        // ids by key. Raw code order, not value order: equal codes are equal
        // values, which is all the merge needs.
        project_keys(left, left_cols, left_keys);
        project_keys(&right, right_cols, right_keys);
        left_rows.clear();
        left_rows.extend(0..n as u32);
        right_rows.clear();
        right_rows.extend(0..m as u32);
        with_sort_scratch(|s| {
            s.sort_rows_by_code_keys(left_keys, width, left_rows);
            s.sort_rows_by_code_keys(right_keys, width, right_rows);
        });

        // Linear merge with run-length handling of equal keys on both sides.
        mask.clear();
        mask.resize(n, false);
        let left_key = |i: usize| &left_keys[left_rows[i] as usize * width..][..width];
        let right_key = |i: usize| &right_keys[right_rows[i] as usize * width..][..width];
        let (mut li, mut ri) = (0usize, 0usize);
        while li < n && ri < m {
            match left_key(li).cmp(right_key(ri)) {
                Ordering::Less => {
                    // Skip the whole run of this (unmatched) left key.
                    let key = left_key(li);
                    li += 1;
                    while li < n && left_key(li) == key {
                        li += 1;
                    }
                }
                Ordering::Greater => {
                    // Skip the run of this right key (dedup of duplicates).
                    let key = right_key(ri);
                    ri += 1;
                    while ri < m && right_key(ri) == key {
                        ri += 1;
                    }
                }
                Ordering::Equal => {
                    let key = right_key(ri);
                    while li < n && left_key(li) == key {
                        mask[left_rows[li] as usize] = true;
                        li += 1;
                    }
                    ri += 1;
                    while ri < m && right_key(ri) == key {
                        ri += 1;
                    }
                }
            }
        }
        left.retain_by_index(mask);
    });
    Ok(())
}

/// Writes the `cols` projection of every row's codes into `out` (row-major).
fn project_keys(rel: &Relation, cols: &[usize], out: &mut Vec<ValueCode>) {
    out.clear();
    out.reserve(rel.len() * cols.len());
    let arity = rel.arity();
    for row in rel.codes().chunks_exact(arity) {
        out.extend(cols.iter().map(|&c| row[c]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semijoin::semijoin_filter;
    use rae_data::{Schema, Value};

    fn rel(attrs: &[&str], rows: &[&[i64]]) -> Relation {
        Relation::from_rows(
            Schema::new(attrs.iter().copied()).unwrap(),
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect()),
        )
        .unwrap()
    }

    #[test]
    fn filters_non_matching_rows() {
        let mut left = rel(&["x", "y"], &[&[1, 10], &[2, 20], &[3, 30]]);
        let right = rel(&["y", "z"], &[&[10, 0], &[30, 0]]);
        merge_semijoin_filter(&mut left, &[1], &right, &[0]).unwrap();
        assert_eq!(left.len(), 2);
        assert!(left.contains_row(&[Value::Int(1), Value::Int(10)]));
        assert!(left.contains_row(&[Value::Int(3), Value::Int(30)]));
    }

    #[test]
    fn empty_right_empties_left() {
        let mut left = rel(&["x"], &[&[1], &[2]]);
        let right = rel(&["x"], &[]);
        merge_semijoin_filter(&mut left, &[0], &right, &[0]).unwrap();
        assert!(left.is_empty());
    }

    #[test]
    fn empty_left_is_a_no_op() {
        let mut left = rel(&["x"], &[]);
        let right = rel(&["x"], &[&[1], &[2]]);
        merge_semijoin_filter(&mut left, &[0], &right, &[0]).unwrap();
        assert!(left.is_empty());
    }

    #[test]
    fn disjoint_attributes_keep_left_iff_right_nonempty() {
        let mut left = rel(&["x"], &[&[1], &[2]]);
        let right = rel(&["y"], &[&[5]]);
        merge_semijoin_filter(&mut left, &[], &right, &[]).unwrap();
        assert_eq!(left.len(), 2);

        let empty_right = rel(&["y"], &[]);
        merge_semijoin_filter(&mut left, &[], &empty_right, &[]).unwrap();
        assert!(left.is_empty());
    }

    #[test]
    fn composite_key_semijoin_with_duplicates() {
        let mut left = rel(
            &["a", "b", "c"],
            &[&[1, 2, 0], &[1, 3, 0], &[2, 2, 0], &[1, 2, 9], &[1, 2, 9]],
        );
        let right = rel(&["a", "b"], &[&[1, 2], &[2, 2], &[1, 2], &[1, 2]]);
        merge_semijoin_filter(&mut left, &[0, 1], &right, &[0, 1]).unwrap();
        assert_eq!(left.len(), 4);
        assert!(!left.contains_row(&[Value::Int(1), Value::Int(3), Value::Int(0)]));
    }

    #[test]
    fn matches_hash_semijoin_on_pseudorandom_inputs() {
        // Differential: merge vs hash on a few hundred pseudorandom shapes.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..60 {
            let n = next(40) as usize;
            let m = next(40) as usize;
            let domain = 1 + next(12) as i64;
            let lrows: Vec<Vec<i64>> = (0..n)
                .map(|_| vec![next(domain as u64) as i64, next(domain as u64) as i64])
                .collect();
            let rrows: Vec<Vec<i64>> = (0..m)
                .map(|_| vec![next(domain as u64) as i64, next(domain as u64) as i64])
                .collect();
            let lslices: Vec<&[i64]> = lrows.iter().map(|r| r.as_slice()).collect();
            let rslices: Vec<&[i64]> = rrows.iter().map(|r| r.as_slice()).collect();
            let mut merge_left = rel(&["a", "b"], &lslices);
            let mut hash_left = merge_left.clone();
            let right = rel(&["b", "c"], &rslices);
            let (lc, rc): (&[usize], &[usize]) = if case % 2 == 0 {
                (&[1], &[0])
            } else {
                (&[0, 1], &[0, 1])
            };
            merge_semijoin_filter(&mut merge_left, lc, &right, rc).unwrap();
            semijoin_filter(&mut hash_left, lc, &right, rc);
            assert_eq!(merge_left, hash_left, "case {case} diverged");
        }
    }
}
