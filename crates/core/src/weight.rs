//! Answer-count weights and mixed-radix index arithmetic.
//!
//! The paper's `SplitIndex` (Algorithm 3, line 12) and `CombineIndex`
//! (Algorithm 4, line 10) treat an index into the answers below a tuple as a
//! mixed-radix number whose digits are the indexes into the children's
//! buckets, with the **last child least significant**:
//!
//! ```text
//! CombineIndex(w1, j1, …, wm, jm) = jm + wm · CombineIndex(w1, j1, …, w(m-1), j(m-1))
//! ```

/// Answer counts and answer positions.
///
/// `u128` instead of `u64`: counts are products of relation cardinalities
/// along a join tree and can overflow 64 bits on adversarial inputs.
pub type Weight = u128;

/// Splits `index` into one sub-index per radix (the paper's `SplitIndex`).
///
/// `radices[i]` is the weight of child `i`'s bucket; the produced
/// `digits[i] ∈ [0, radices[i])`. The last radix is least significant.
/// The caller guarantees `index < ∏ radices`.
///
/// Digits are written into `out` (cleared first) to avoid allocation on the
/// access hot path.
#[inline]
pub fn split_index(mut index: Weight, radices: &[Weight], out: &mut Vec<Weight>) {
    out.clear();
    out.resize(radices.len(), 0);
    for (slot, &radix) in out.iter_mut().zip(radices.iter()).rev() {
        debug_assert!(radix > 0, "zero-weight bucket reached during access");
        *slot = index % radix;
        index /= radix;
    }
    debug_assert_eq!(index, 0, "index exceeded the product of radices");
}

/// Recombines digits into an index (the paper's `CombineIndex`); inverse of
/// [`split_index`]. Test-only: inverted access folds the digits in place.
#[cfg(test)]
fn combine_index(radices: &[Weight], digits: &[Weight]) -> Weight {
    debug_assert_eq!(radices.len(), digits.len());
    let mut index: Weight = 0;
    for (&radix, &digit) in radices.iter().zip(digits.iter()) {
        debug_assert!(digit < radix);
        index = index * radix + digit;
    }
    index
}

/// Checked product of weights, for preprocessing-time totals.
pub fn checked_product(factors: impl IntoIterator<Item = Weight>) -> Option<Weight> {
    let mut acc: Weight = 1;
    for f in factors {
        acc = acc.checked_mul(f)?;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_and_combine_roundtrip() {
        let radices = [4u128, 3, 5];
        let mut digits = Vec::new();
        for index in 0..60u128 {
            split_index(index, &radices, &mut digits);
            assert_eq!(combine_index(&radices, &digits), index);
        }
    }

    #[test]
    fn last_digit_is_least_significant() {
        // Matches the worked Example 4.4: splitting 5 over radices (2, 3)
        // puts 5 mod 3 = 2 in the last slot and ⌊5/3⌋ = 1 in the first.
        let mut digits = Vec::new();
        split_index(5, &[2, 3], &mut digits);
        assert_eq!(digits, vec![1, 2]);
    }

    #[test]
    fn empty_radices() {
        let mut digits = Vec::new();
        split_index(0, &[], &mut digits);
        assert!(digits.is_empty());
        assert_eq!(combine_index(&[], &[]), 0);
    }

    #[test]
    fn single_radix_is_identity() {
        let mut digits = Vec::new();
        split_index(7, &[10], &mut digits);
        assert_eq!(digits, vec![7]);
        assert_eq!(combine_index(&[10], &[7]), 7);
    }

    #[test]
    fn checked_product_detects_overflow() {
        assert_eq!(checked_product([2u128, 3, 5]), Some(30));
        assert_eq!(checked_product([u128::MAX, 2]), None);
        assert_eq!(checked_product(std::iter::empty()), Some(1));
    }

    #[test]
    fn combine_matches_paper_example() {
        // Example 4.4: CombineIndex(2, 1, 3, 2) = 2 + 3·1 = 5.
        assert_eq!(combine_index(&[2, 3], &[1, 2]), 5);
    }
}
