//! The hash semijoin, kept as the differential-test oracle of
//! [`crate::merge`]: the build path uses the merge semijoin only.

use rae_data::{CodeKeyMap, Relation};

/// Reduces `left` to the rows whose key (values at `left_cols`) occurs among
/// the keys of `right` at `right_cols` — the semijoin `left ⋉ right`.
///
/// Runs in one pass over each relation. Keys are compared via dictionary
/// codes: the right side is loaded into a [`CodeKeyMap`] and every left row
/// probes with a borrowed code slice — no per-row key allocation.
///
/// # Panics
/// Panics if the column lists have different lengths.
pub fn semijoin_filter(
    left: &mut Relation,
    left_cols: &[usize],
    right: &Relation,
    right_cols: &[usize],
) {
    assert_eq!(
        left_cols.len(),
        right_cols.len(),
        "semijoin column lists must have equal length"
    );
    if left.is_empty() {
        // Nothing can survive: skip building the right-side key map entirely.
        return;
    }
    if left_cols.is_empty() {
        // Joining on no attributes: keep left iff right is non-empty.
        if right.is_empty() {
            left.retain_rows(|_| false);
        }
        return;
    }
    let width = right_cols.len();
    let mut keys = CodeKeyMap::with_capacity(width, right.len());
    let mut scratch: Vec<u32> = Vec::with_capacity(width);
    let mut last: Vec<u32> = Vec::with_capacity(width);
    for i in 0..right.len() {
        let codes = right.row_codes(i);
        scratch.clear();
        scratch.extend(right_cols.iter().map(|&c| codes[c]));
        // Best-effort dedup: when the sort order makes equal projection
        // keys adjacent (always for schema-prefix projections, commonly for
        // leading columns), consecutive repeats skip the hash insert.
        // Non-adjacent duplicates still insert; CodeKeyMap::insert is
        // idempotent, so this is purely a fast path.
        if i > 0 && scratch == last {
            continue;
        }
        keys.insert(&scratch, 0);
        std::mem::swap(&mut last, &mut scratch);
    }
    let mut mask = vec![false; left.len()];
    for (i, keep) in mask.iter_mut().enumerate() {
        let codes = left.row_codes(i);
        scratch.clear();
        scratch.extend(left_cols.iter().map(|&c| codes[c]));
        *keep = keys.contains(&scratch);
    }
    left.retain_by_index(&mask);
}

#[cfg(test)]
mod tests {
    use super::*;
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
        semijoin_filter(&mut left, &[1], &right, &[0]);
        assert_eq!(left.len(), 2);
        assert!(left.contains_row(&[Value::Int(1), Value::Int(10)]));
        assert!(left.contains_row(&[Value::Int(3), Value::Int(30)]));
    }

    #[test]
    fn empty_right_empties_left() {
        let mut left = rel(&["x"], &[&[1], &[2]]);
        let right = rel(&["x"], &[]);
        semijoin_filter(&mut left, &[0], &right, &[0]);
        assert!(left.is_empty());
    }

    #[test]
    fn disjoint_attributes_keep_left_iff_right_nonempty() {
        let mut left = rel(&["x"], &[&[1], &[2]]);
        let right = rel(&["y"], &[&[5]]);
        semijoin_filter(&mut left, &[], &right, &[]);
        assert_eq!(left.len(), 2);

        let empty_right = rel(&["y"], &[]);
        semijoin_filter(&mut left, &[], &empty_right, &[]);
        assert!(left.is_empty());
    }

    #[test]
    fn composite_key_semijoin() {
        let mut left = rel(&["a", "b", "c"], &[&[1, 2, 0], &[1, 3, 0], &[2, 2, 0]]);
        let right = rel(&["a", "b"], &[&[1, 2], &[2, 2]]);
        semijoin_filter(&mut left, &[0, 1], &right, &[0, 1]);
        assert_eq!(left.len(), 2);
        assert!(!left.contains_row(&[Value::Int(1), Value::Int(3), Value::Int(0)]));
    }
}
