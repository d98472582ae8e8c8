//! Property tests for the two startIndex layouts: on random bucket
//! partitions with random per-row weights, the compact `u64` and wide
//! `u128` layouts must answer `at`/`rank_leq` identically to each other
//! and to a linear-scan oracle — including the wide-`j` overflow
//! boundaries (`j` just above `u64::MAX`) where the compact layout takes
//! its everything-qualifies fallback. On the same partitions, the guided
//! row location ([`Guide::locate`]) must equal the plain `rank_leq` search
//! at every sub-answer, in both layouts. Case counts follow
//! `PROPTEST_CASES` like every suite in this workspace.

use proptest::prelude::*;
use rae_core::guide::{Guide, GUIDE_MIN_ROWS};
use rae_core::{Buckets, Col, Starts, Weight};
use std::ops::Range;

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

/// The bucket table of `weights` cut into `buckets`, and its starts.
fn bucket_table(weights: &[Weight], buckets: &[(usize, usize)]) -> (Vec<Weight>, Buckets) {
    let mut starts = vec![0; weights.len()];
    let (mut total, mut max_weight) = (Vec::new(), Vec::new());
    for &(s, e) in buckets {
        for i in s + 1..e {
            starts[i] = starts[i - 1] + weights[i - 1];
        }
        total.push(starts[e - 1] + weights[e - 1]);
        max_weight.push(weights[s..e].iter().copied().max().unwrap());
    }
    let cut = |f: fn(&(usize, usize)) -> usize| buckets.iter().map(|b| f(b) as u32).collect();
    let table = Buckets::from_cols(
        Col::Owned(cut(|b| b.0)),
        Col::Owned(cut(|b| b.1)),
        Col::Owned(total),
        Col::Owned(max_weight),
    )
    .unwrap();
    (starts, table)
}

/// The plain search: the last row of `rows` whose start is ≤ `j`.
fn searched(starts: &Starts, rows: Range<usize>, j: Weight) -> (usize, Weight) {
    let row = rows.start + starts.rank_leq(rows.start, rows.end, j) - 1;
    (row, j - starts.at(row))
}

/// Body of the guided-location properties: for both layouts, the guide
/// locates every sub-answer of every bucket (or, with `probe_rows`, every
/// row's first and last sub-answer) exactly where the search does.
fn check_guided_locate(weights: &[Weight], cuts: &[usize], probe_rows: bool) {
    let buckets = buckets_from_cuts(weights.len(), cuts);
    let (starts, table) = bucket_table(weights, &buckets);
    let mut layouts = vec![Starts::Wide(Col::Owned(starts.clone()))];
    if let Some(compact) = starts.iter().map(|&v| u64::try_from(v).ok()).collect() {
        layouts.push(Starts::Compact(Col::Owned(compact)));
    }
    for layout in &layouts {
        let guide = Guide::new(layout, &table);
        let any_guided = table.iter().any(|b| {
            let rows = (b.end - b.start) as usize;
            rows >= GUIDE_MIN_ROWS && b.total != rows as Weight
        });
        assert_eq!(
            guide.is_empty(),
            !any_guided,
            "guides only weighted large buckets"
        );
        for b in table.iter() {
            let rows = b.start as usize..b.end as usize;
            let probes: Vec<Weight> = if probe_rows {
                rows.clone()
                    .flat_map(|r| [layout.at(r), layout.at(r) + weights[r] - 1])
                    .collect()
            } else {
                (0..b.total).collect()
            };
            for j in probes {
                assert_eq!(
                    guide.locate(layout, rows.clone(), b.total, j),
                    searched(layout, rows.clone(), j),
                    "bucket {rows:?} j {j}"
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn guided_location_equals_the_search(
        weights in prop::collection::vec(1u64..16, 1..300),
        cuts in prop::collection::vec(0usize..100_000, 0..8),
    ) {
        let weights: Vec<Weight> = weights.into_iter().map(Weight::from).collect();
        check_guided_locate(&weights, &cuts, false);
    }

    #[test]
    fn one_heavy_row_among_unit_rows_is_located_exactly(
        rows in 32usize..300,
        at in 0usize..300,
        heavy in 2u64..20_000,
        cuts in prop::collection::vec(0usize..100_000, 0..3),
    ) {
        let mut weights: Vec<Weight> = vec![1; rows];
        weights[at % rows] = Weight::from(heavy);
        check_guided_locate(&weights, &cuts, false);
    }

    #[test]
    fn starts_beyond_u64_are_located_exactly(
        weights in prop::collection::vec(1u64..1 << 20, 32..200),
        cuts in prop::collection::vec(0usize..100_000, 0..3),
    ) {
        // Every row weighs at least 2^60: starts pass u64::MAX within a
        // bucket, so only the wide layout holds them, and shifts reach 60.
        let weights: Vec<Weight> = weights
            .into_iter()
            .map(|w| (Weight::from(w) << 60) + Weight::from(w))
            .collect();
        check_guided_locate(&weights, &cuts, true);
    }

    #[test]
    fn compact_and_wide_ranks_agree(
        weights in prop::collection::vec(1u64..64, 1..300),
        cuts in prop::collection::vec(0usize..100_000, 0..8),
        j_small in 0u128..1 << 20,
    ) {
        check_ranks_agree(&weights, &cuts, j_small);
    }
}
