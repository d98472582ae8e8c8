//! Property tests for the relation substrate: set semantics, canonical
//! sorting, projection, intersection, and `.tbl` round-trips.

use proptest::prelude::*;
use rae_data::{key_of, read_tbl, write_tbl, ColumnType, Relation, Schema, SortAlgorithm, Value};
use std::collections::BTreeSet;

type Rows = Vec<(i64, i64)>;

fn relation(rows: &Rows) -> Relation {
    Relation::from_rows(
        Schema::new(["a", "b"]).unwrap(),
        rows.iter()
            .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)]),
    )
    .unwrap()
}

fn rows_strategy() -> impl Strategy<Value = Rows> {
    prop::collection::vec((-5..5i64, -5..5i64), 0..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn sort_dedup_yields_the_set_in_order(rows in rows_strategy()) {
        let mut rel = relation(&rows);
        rel.sort_dedup();
        let expected: BTreeSet<(i64, i64)> = rows.iter().copied().collect();
        let got: Vec<(i64, i64)> = rel
            .rows()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        prop_assert_eq!(got.len(), expected.len());
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
        prop_assert!(got.iter().all(|t| expected.contains(t)));
        // Idempotent.
        let before = rel.clone();
        rel.sort_dedup();
        prop_assert_eq!(rel, before);
    }

    #[test]
    fn key_sort_groups_buckets_contiguously(rows in rows_strategy()) {
        let mut rel = relation(&rows);
        rel.sort_by_key_then_row(&[1]);
        // Every key's rows must form one contiguous run.
        let keys: Vec<i64> = rel.rows().map(|r| r[1].as_int().unwrap()).collect();
        let mut seen: BTreeSet<i64> = BTreeSet::new();
        let mut prev: Option<i64> = None;
        for k in keys {
            if prev != Some(k) {
                prop_assert!(seen.insert(k), "bucket for key {} split", k);
                prev = Some(k);
            }
        }
        prop_assert_eq!(rel.len(), rows.len(), "sorting must not drop rows");
    }

    #[test]
    fn key_sort_is_a_restriction_of_one_global_order(
        rows in rows_strategy(),
        mask in prop::collection::vec(any::<bool>(), 25),
    ) {
        // The canonical order of a sub-relation must be a subsequence of the
        // full relation's order — the compatibility property the mc-UCQ
        // structure relies on.
        let mut full = relation(&rows);
        full.sort_dedup();
        let sub_rows: Rows = rows
            .iter()
            .enumerate()
            .filter(|(i, _)| mask.get(*i).copied().unwrap_or(false))
            .map(|(_, r)| *r)
            .collect();
        let mut sub = relation(&sub_rows);
        sub.sort_dedup();
        full.sort_by_key_then_row(&[0]);
        sub.sort_by_key_then_row(&[0]);
        let full_seq: Vec<Vec<Value>> = full.rows().map(|r| r.to_vec()).collect();
        let sub_seq: Vec<Vec<Value>> = sub.rows().map(|r| r.to_vec()).collect();
        let mut iter = full_seq.iter();
        for item in &sub_seq {
            prop_assert!(
                iter.any(|f| f == item),
                "sub-relation order is not a subsequence"
            );
        }
    }

    #[test]
    fn intersect_matches_set_semantics(a in rows_strategy(), b in rows_strategy()) {
        let ra = relation(&a);
        let rb = relation(&b);
        let mut got = ra.intersect(&rb).unwrap();
        got.sort_dedup();
        let sa: BTreeSet<(i64, i64)> = a.iter().copied().collect();
        let sb: BTreeSet<(i64, i64)> = b.iter().copied().collect();
        let expected: BTreeSet<(i64, i64)> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(got.len(), expected.len());
        for row in got.rows() {
            let t = (row[0].as_int().unwrap(), row[1].as_int().unwrap());
            prop_assert!(expected.contains(&t));
        }
    }

    #[test]
    fn projection_then_dedup_matches_set_projection(rows in rows_strategy()) {
        let rel = relation(&rows);
        let mut proj = rel
            .project(&[0], Schema::new(["a"]).unwrap())
            .unwrap();
        proj.sort_dedup();
        let expected: BTreeSet<i64> = rows.iter().map(|&(x, _)| x).collect();
        prop_assert_eq!(proj.len(), expected.len());
    }

    #[test]
    fn tbl_roundtrip_preserves_relations(rows in rows_strategy()) {
        let mut rel = relation(&rows);
        rel.sort_dedup();
        let mut buffer = Vec::new();
        write_tbl(&rel, &mut buffer).unwrap();
        let back = read_tbl(
            buffer.as_slice(),
            Schema::new(["a", "b"]).unwrap(),
            &[ColumnType::Int, ColumnType::Int],
            &Default::default(),
        )
        .unwrap();
        prop_assert_eq!(back, rel);
    }

    #[test]
    fn radix_key_sort_equals_comparison_key_sort(
        rows in rows_strategy(),
        key_idx in 0..5usize,
    ) {
        // The radix path must reproduce the comparison sort byte-for-byte,
        // including the stable tie order of duplicate rows.
        let key: &[usize] = [&[][..], &[0][..], &[1][..], &[1, 0][..], &[0, 1][..]][key_idx];
        let mut radix = relation(&rows);
        let mut comparison = radix.clone();
        radix.sort_by_key_then_row_with(key, SortAlgorithm::Radix);
        comparison.sort_by_key_then_row_with(key, SortAlgorithm::Comparison);
        let radix_rows: Vec<Vec<Value>> = radix.rows().map(|r| r.to_vec()).collect();
        let comparison_rows: Vec<Vec<Value>> = comparison.rows().map(|r| r.to_vec()).collect();
        prop_assert_eq!(radix_rows, comparison_rows);
        prop_assert_eq!(radix.codes(), comparison.codes());
    }

    #[test]
    fn radix_sort_dedup_equals_comparison_sort_dedup(rows in rows_strategy()) {
        let mut radix = relation(&rows);
        let mut comparison = radix.clone();
        radix.sort_dedup_with(SortAlgorithm::Radix);
        comparison.sort_dedup_with(SortAlgorithm::Comparison);
        prop_assert_eq!(&radix, &comparison);
        prop_assert_eq!(radix.codes(), comparison.codes());
    }

    #[test]
    fn radix_sort_handles_mixed_value_domains(rows in rows_strategy()) {
        // Int and Str codes interleave arbitrarily in the dictionary; the
        // rank table must still realize the Value total order (Int < Str).
        let schema = Schema::new(["a", "b"]).unwrap();
        let mixed = |(x, y): (i64, i64)| {
            let a = if x % 2 == 0 { Value::Int(x) } else { Value::str(format!("s{x}")) };
            vec![a, Value::Int(y)]
        };
        let mut radix =
            Relation::from_rows(schema, rows.iter().copied().map(mixed)).unwrap();
        let mut comparison = radix.clone();
        radix.sort_by_key_then_row_with(&[0], SortAlgorithm::Radix);
        comparison.sort_by_key_then_row_with(&[0], SortAlgorithm::Comparison);
        let radix_rows: Vec<Vec<Value>> = radix.rows().map(|r| r.to_vec()).collect();
        let comparison_rows: Vec<Vec<Value>> = comparison.rows().map(|r| r.to_vec()).collect();
        prop_assert_eq!(radix_rows, comparison_rows);
    }

    #[test]
    fn sorted_by_fingerprint_skips_only_equivalent_sorts(rows in rows_strategy()) {
        // After a full sort, the fingerprint may skip re-sorts — but only
        // ones that would have been no-ops. Verify by comparing against a
        // freshly sorted copy without fingerprint help.
        let mut rel = relation(&rows);
        rel.sort_dedup();
        prop_assert!(rel.is_sorted_by(&[]));
        prop_assert!(rel.len() <= 1 || rel.is_sorted_by(&[0]), "schema prefix covered");
        let mut skipped = rel.clone();
        skipped.sort_by_key_then_row(&[0]); // fingerprint makes this a no-op
        // Reference order computed independently of the fingerprint.
        let mut fresh: Vec<Vec<Value>> = rel.rows().map(|r| r.to_vec()).collect();
        fresh.sort_by(|a, b| a[0].cmp(&b[0]).then_with(|| a.cmp(b)));
        let got: Vec<Vec<Value>> = skipped.rows().map(|r| r.to_vec()).collect();
        prop_assert_eq!(got, fresh);
    }

    #[test]
    fn key_of_is_projection(row in (any::<i64>(), any::<i64>(), any::<i64>())) {
        let values = [Value::Int(row.0), Value::Int(row.1), Value::Int(row.2)];
        let key = key_of(&values, &[2, 0]);
        prop_assert_eq!(&*key, &[Value::Int(row.2), Value::Int(row.0)]);
    }
}
