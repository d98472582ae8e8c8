//! Property tests for the two startIndex layouts: on random bucket
//! partitions with random per-row weights, the compact `u64` and wide
//! `u128` layouts must answer `at`/`rank_leq` identically to each other
//! and to a linear-scan oracle — including the wide-`j` overflow
//! boundaries (`j` just above `u64::MAX`) where the compact layout takes
//! its everything-qualifies fallback. Case counts follow
//! `PROPTEST_CASES` like every suite in this workspace.

use proptest::prelude::*;
use rae_core::{Col, Starts, Weight};

/// Splits `0..n` into bucket ranges at the given cut points (reduced
/// modulo `n + 1`).
fn buckets_from_cuts(n: usize, cuts: &[usize]) -> Vec<(usize, usize)> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
    points.push(0);
    points.push(n);
    points.sort_unstable();
    points.dedup();
    points.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Algorithm 2's bucket-relative startIndex: 0 at each bucket's first
/// row, then the running sum of the bucket's earlier weights.
fn bucket_starts(weights: &[u64], buckets: &[(usize, usize)]) -> Vec<u64> {
    let mut starts = vec![0u64; weights.len()];
    for &(s, e) in buckets {
        for i in s + 1..e {
            starts[i] = starts[i - 1] + weights[i - 1];
        }
    }
    starts
}

/// Body of `compact_and_wide_ranks_agree` (plain function so assertion
/// failures panic through the proptest shim).
fn check_ranks_agree(weights: &[u64], cuts: &[usize], j_small: u128) {
    let buckets = buckets_from_cuts(weights.len(), cuts);
    let rel = bucket_starts(weights, &buckets);
    let compact = Starts::Compact(Col::Owned(rel.clone()));
    let wide = Starts::Wide(Col::Owned(rel.iter().map(|&v| Weight::from(v)).collect()));
    assert_eq!(
        Starts::from_weights(rel.iter().map(|&v| Weight::from(v)).collect()),
        compact,
        "starts that fit u64 are built compact"
    );

    // Point lookups.
    for (i, &expect) in rel.iter().enumerate() {
        assert_eq!(compact.at(i), Weight::from(expect));
        assert_eq!(wide.at(i), Weight::from(expect), "row {i}");
    }

    // Rank queries at generated and adversarial j, per bucket. The
    // >u64::MAX probes hit compact's everything-qualifies fallback; wide
    // compares in u128 and must agree exactly.
    let probes: [u128; 7] = [
        0,
        j_small,
        u128::from(u64::MAX) - 1,
        u128::from(u64::MAX),
        u128::from(u64::MAX) + 1,
        u128::from(u64::MAX) + j_small,
        u128::MAX,
    ];
    for &(s, e) in &buckets {
        for &j in &probes {
            let expect = rel[s..e].iter().filter(|&&v| Weight::from(v) <= j).count();
            assert_eq!(compact.rank_leq(s, e, j), expect, "bucket {s}..{e} j {j}");
            assert_eq!(wide.rank_leq(s, e, j), expect, "bucket {s}..{e} j {j}");
        }
    }
}

proptest! {
    #[test]
    fn compact_and_wide_ranks_agree(
        weights in prop::collection::vec(1u64..64, 1..300),
        cuts in prop::collection::vec(0usize..100_000, 0..8),
        j_small in 0u128..1 << 20,
    ) {
        check_ranks_agree(&weights, &cuts, j_small);
    }
}
