//! Statistical uniformity subsystem: chi-squared goodness-of-fit checks
//! that the four samplers and the random-order enumerators stay
//! (near-)uniform over the answer set — **including across a dictionary
//! compaction**, which re-encodes every relation, so any code/weight
//! confusion would show as a visibly skewed distribution.
//!
//! All tests use fixed seeds (deterministic: a passing seed always passes)
//! and a Wilson–Hilferty chi-squared critical value at α = 10⁻⁴, so false
//! alarms are essentially impossible while real bias — e.g. a sampler
//! weighting buckets by stale totals, or a Fisher–Yates slot bug — blows
//! the statistic up by orders of magnitude.
//!
//! Each test churns its own database, so the tests run in parallel.

use rae::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Upper chi-squared quantile via the Wilson–Hilferty cube approximation.
/// `z` is the standard-normal quantile; 3.719 ≈ the 1 − 10⁻⁴ point.
fn chi2_critical(df: usize, z: f64) -> f64 {
    let df = df as f64;
    let t = 1.0 - 2.0 / (9.0 * df) + z * (2.0 / (9.0 * df)).sqrt();
    df * t * t * t
}

/// Asserts a chi-squared goodness-of-fit of `counts` against the uniform
/// distribution over exactly `n` cells.
fn assert_chi2_uniform(label: &str, counts: &BTreeMap<Vec<Value>, usize>, n: usize) {
    assert_eq!(
        counts.len(),
        n,
        "{label}: every answer must occur at least once"
    );
    let trials: usize = counts.values().sum();
    let expected = trials as f64 / n as f64;
    assert!(
        expected >= 20.0,
        "{label}: underpowered test ({expected:.1} expected per cell)"
    );
    let stat: f64 = counts
        .values()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    let critical = chi2_critical(n - 1, 3.719);
    assert!(
        stat <= critical,
        "{label}: chi-squared {stat:.1} exceeds critical {critical:.1} \
         (df {}, {trials} trials)",
        n - 1
    );
}

/// A skewed two-relation join database over a cycle-unique value namespace
/// (string payloads, so compaction genuinely re-encodes strings).
fn join_db(tag: &str) -> Database {
    let mut db = Database::new();
    let r: Vec<(i64, i64)> = vec![(1, 1), (2, 1), (3, 2), (4, 3), (5, 3)];
    let s: Vec<(i64, i64)> = vec![(1, 10), (1, 11), (1, 12), (2, 20), (3, 30), (3, 31)];
    let val = |side: &str, v: i64| Value::str(format!("{tag}-{side}{v}"));
    db.add_relation(
        "R",
        Relation::from_rows(
            Schema::new(["a", "b"]).unwrap(),
            r.iter().map(|&(x, y)| vec![val("a", x), val("b", y)]),
        )
        .unwrap(),
    )
    .unwrap();
    db.add_relation(
        "S",
        Relation::from_rows(
            Schema::new(["b", "c"]).unwrap(),
            s.iter().map(|&(x, y)| vec![val("b", x), val("c", y)]),
        )
        .unwrap(),
    )
    .unwrap();
    db
}

/// Replaces `S` with a partially fresh cohort and compacts, so every
/// relation is re-encoded in a fresh dictionary without the dropped values
/// — the "after" half of every test. Join keys stay in `base_tag`'s
/// namespace (so the join survives); the payload values are fresh under
/// `fresh_tag`.
fn churn_and_compact(db: &mut Database, base_tag: &str, fresh_tag: &str) {
    let key = |v: i64| Value::str(format!("{base_tag}-b{v}"));
    let fresh = |v: i64| Value::str(format!("{fresh_tag}-c{v}"));
    let s2: Vec<(i64, i64)> = vec![(1, 40), (1, 41), (2, 42), (2, 20), (3, 43)];
    db.remove_relation("S").unwrap();
    db.add_relation(
        "S",
        Relation::from_rows(
            Schema::new(["b", "c"]).unwrap(),
            s2.iter().map(|&(x, y)| vec![key(x), fresh(y)]),
        )
        .unwrap(),
    )
    .unwrap();
    db.compact_dictionary().unwrap();
}

fn sampler_counts<S: JoinSampler>(
    sampler: &S,
    trials: usize,
    seed: u64,
) -> BTreeMap<Vec<Value>, usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = BTreeMap::new();
    for _ in 0..trials {
        *counts.entry(sampler.sample(&mut rng).unwrap()).or_insert(0) += 1;
    }
    counts
}

#[test]
fn samplers_chi_squared_uniform_before_and_after_compaction() {
    let mut db = join_db("chi-samp");
    let cq: ConjunctiveQuery = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let trials = 8_000;

    for phase in ["before", "after"] {
        let idx = CqIndex::build(&cq, &db).unwrap();
        let n = idx.count() as usize;
        assert!(n > 4, "{phase}: degenerate instance");
        assert_chi2_uniform(
            &format!("EW {phase}"),
            &sampler_counts(&EwSampler::new(&idx), trials, 0xE1),
            n,
        );
        assert_chi2_uniform(
            &format!("EO {phase}"),
            &sampler_counts(&EoSampler::new(&idx), trials, 0xE2),
            n,
        );
        assert_chi2_uniform(
            &format!("OE {phase}"),
            &sampler_counts(&OeSampler::new(&idx), trials, 0xE3),
            n,
        );
        assert_chi2_uniform(
            &format!("RS {phase}"),
            &sampler_counts(&RsSampler::new(&idx), trials, 0xE4),
            n,
        );
        if phase == "before" {
            let answers: Vec<Vec<Value>> = idx.enumerate().collect();
            churn_and_compact(&mut db, "chi-samp", "chi-samp2");
            // The pre-compaction index holds no dictionary codes: the
            // compaction leaves its answers and ranks unchanged.
            for (j, answer) in answers.iter().enumerate() {
                assert_eq!(idx.access(j as u128).as_ref(), Some(answer));
                assert_eq!(idx.inverted_access(answer), Some(j as u128));
            }
        }
    }
}

#[test]
fn cq_shuffle_chi_squared_uniform_at_a_mid_position_across_compaction() {
    let mut db = join_db("chi-perm");
    let cq: ConjunctiveQuery = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let trials = 6_000;

    for phase in ["before", "after"] {
        let idx = CqIndex::build(&cq, &db).unwrap();
        let n = idx.count() as usize;
        // A mid position (not the first) catches Fisher–Yates slot bugs.
        let position = n / 2;
        let mut counts: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
        let mut seed_rng = StdRng::seed_from_u64(0x5EED);
        for _ in 0..trials {
            let seed = seed_rng.gen::<u64>();
            let ans = idx
                .random_permutation(StdRng::seed_from_u64(seed))
                .nth(position)
                .unwrap();
            *counts.entry(ans).or_insert(0) += 1;
        }
        assert_chi2_uniform(&format!("CqShuffle@mid {phase}"), &counts, n);
        if phase == "before" {
            churn_and_compact(&mut db, "chi-perm", "chi-perm2");
        }
    }
}

#[test]
fn ucq_shuffle_chi_squared_uniform_across_compaction() {
    let mut db = join_db("chi-ucq");
    let u: UnionQuery = "Q1(x, y) :- R(x, y). Q2(x, y) :- S(y2, x), R(x, y)."
        .parse()
        .unwrap();
    let trials = 6_000;

    for phase in ["before", "after"] {
        let expected = naive_eval_union(&u, &db).unwrap();
        let n = expected.len();
        assert!(n > 2, "{phase}: degenerate union");
        let mut counts: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
        let mut seed_rng = StdRng::seed_from_u64(0x0CEA);
        for _ in 0..trials {
            let seed = seed_rng.gen::<u64>();
            let ans = UcqShuffle::build(&u, &db, StdRng::seed_from_u64(seed))
                .unwrap()
                .next()
                .unwrap();
            *counts.entry(ans).or_insert(0) += 1;
        }
        assert_chi2_uniform(&format!("UcqShuffle {phase}"), &counts, n);
        if phase == "before" {
            churn_and_compact(&mut db, "chi-ucq", "chi-ucq2");
        }
    }
}

#[test]
fn mc_ucq_shuffle_chi_squared_uniform_across_compaction() {
    let mut db = join_db("chi-mc");
    let trials = 6_000;

    for phase in ["before", "after"] {
        // Rebuild the selection each phase (it must reflect the current R).
        if db.contains("R_small") {
            db.remove_relation("R_small").unwrap();
        }
        db.derive_selection("R", "R_small", |row| {
            row[1].as_str().is_some_and(|s| !s.ends_with("b3"))
        })
        .unwrap();
        let u: UnionQuery = "Q1(x, y) :- R(x, y). Q2(x, y) :- R_small(x, y)."
            .parse()
            .unwrap();
        let mc = McUcqIndex::build(&u, &db).unwrap();
        let n = mc.count() as usize;
        assert!(n > 2, "{phase}: degenerate mc-union");
        let mut counts: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
        let mut seed_rng = StdRng::seed_from_u64(0x3C);
        for _ in 0..trials {
            let seed = seed_rng.gen::<u64>();
            let ans = mc
                .random_permutation(StdRng::seed_from_u64(seed))
                .next()
                .unwrap();
            *counts.entry(ans).or_insert(0) += 1;
        }
        assert_chi2_uniform(&format!("McUcqShuffle {phase}"), &counts, n);
        if phase == "before" {
            churn_and_compact(&mut db, "chi-mc", "chi-mc2");
        }
    }
}

#[test]
fn chi2_critical_values_are_sane() {
    // Spot-check the Wilson–Hilferty approximation against table values
    // (α = 0.0001): χ²(10) ≈ 35.56, χ²(30) ≈ 66.62.
    assert!((chi2_critical(10, 3.719) - 35.56).abs() < 1.5);
    assert!((chi2_critical(30, 3.719) - 66.62).abs() < 2.0);
    // And that a grossly skewed sample fails: one cell hogging everything.
    let mut counts: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
    for i in 0..10i64 {
        counts.insert(vec![Value::Int(i)], if i == 0 { 910 } else { 10 });
    }
    let trials: usize = counts.values().sum();
    let expected = trials as f64 / 10.0;
    let stat: f64 = counts
        .values()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    assert!(stat > chi2_critical(9, 3.719), "skew must be detectable");
}
