//! Extreme-cardinality regression tests for rank arithmetic (ISSUE 10
//! satellite): factorized answer counts close to `u128::MAX` must keep
//! every rank computation exact, counts *past* `u128::MAX` must surface
//! as [`rae_core::CoreError::WeightOverflow`], and union rank sums that
//! leave the `u128` rank space must surface as the structured
//! `CapacityExceeded` rank-overflow sentinel — never a debug panic or a
//! release-mode wraparound.
//!
//! The instances are cross products of unary relations: `n` atoms of
//! domain size `d` hold `d^n` answers from `n·d` tuples, so the rank
//! space is astronomically larger than the database and the mixed-radix
//! oracle for the `k`-th answer is exact arithmetic.

use rae::prelude::*;

const DOM: i64 = 255;

/// Adds unary relations `{prefix}1..={prefix}{vars}`, each with the
/// domain `base..base + DOM`.
fn add_cross_relations(db: &mut Database, prefix: &str, vars: usize, base: i64) {
    for i in 1..=vars {
        let rel = Relation::from_rows(
            Schema::new(["a"]).unwrap(),
            (0..DOM).map(|v| vec![Value::Int(base + v)]),
        )
        .unwrap();
        db.add_relation(format!("{prefix}{i}"), rel).unwrap();
    }
}

/// `Q(x1, …, xn) :- P1(x1), …, Pn(xn).` as query text.
fn cross_query_text(prefix: &str, vars: usize) -> String {
    let head: Vec<String> = (1..=vars).map(|i| format!("x{i}")).collect();
    let body: Vec<String> = (1..=vars).map(|i| format!("{prefix}{i}(x{i})")).collect();
    format!("Q({}) :- {}", head.join(", "), body.join(", "))
}

fn order_vars(vars: usize) -> Vec<Symbol> {
    (1..=vars).map(|i| Symbol::new(format!("x{i}"))).collect()
}

/// The mixed-radix oracle: under `ORDER BY x1, …, xn` with every domain
/// sorted ascending, the `k`-th answer is `k` written in base `DOM`,
/// most-significant digit first.
fn radix_answer(k: u128, vars: usize, base: i64) -> Vec<Value> {
    (0..vars)
        .map(|i| {
            let place = (DOM as u128).pow((vars - 1 - i) as u32);
            Value::Int(base + ((k / place) % DOM as u128) as i64)
        })
        .collect()
}

#[test]
fn near_u128_cross_product_ranks_are_exact() {
    // 255^16 ≈ 3.19e38 answers — within a factor 1.07 of u128::MAX — out
    // of 16·255 = 4080 tuples.
    const VARS: usize = 16;
    let mut db = Database::new();
    add_cross_relations(&mut db, "R", VARS, 0);
    let cq: ConjunctiveQuery = cross_query_text("R", VARS).parse().unwrap();
    let order = order_vars(VARS);
    let index = OrderedCqIndex::build(&cq, &db, &order).unwrap();

    let total = (DOM as u128).pow(VARS as u32);
    assert_eq!(index.count(), total);

    // Ranks spread across the whole space, including both extremes and
    // values engineered to carry into every digit.
    let probes = [
        0,
        1,
        DOM as u128 - 1,
        DOM as u128,
        (DOM as u128).pow(8) + 12_345,
        total / 3,
        total / 2,
        total - 2,
        total - 1,
    ];
    for k in probes {
        let expected = radix_answer(k, VARS, 0);
        let got = index
            .ordered_access(k)
            .unwrap_or_else(|| panic!("rank {k} < count"));
        assert_eq!(got, expected, "rank {k}");
        assert_eq!(
            index.ordered_inverted_access(&expected),
            Some(k),
            "inverted rank {k}"
        );
    }
    assert!(index.ordered_access(total).is_none());

    // Prefix range counting at the top digit: one value of x1 owns
    // exactly 255^15 consecutive ranks.
    let window = index
        .range_of_prefix(std::slice::from_ref(&Value::Int(7)))
        .unwrap();
    assert_eq!(window.start, 7 * (DOM as u128).pow((VARS - 1) as u32));
    assert_eq!(
        window.end - window.start,
        (DOM as u128).pow((VARS - 1) as u32)
    );
}

#[test]
fn counts_past_u128_fail_with_weight_overflow() {
    // One more atom: 255^17 ≈ 8.1e40 > u128::MAX. The count itself no
    // longer fits the rank space, so the build must refuse.
    const VARS: usize = 17;
    let mut db = Database::new();
    add_cross_relations(&mut db, "R", VARS, 0);
    let cq: ConjunctiveQuery = cross_query_text("R", VARS).parse().unwrap();
    assert!(matches!(
        CqIndex::build(&cq, &db),
        Err(rae_core::CoreError::WeightOverflow)
    ));
    assert!(matches!(
        OrderedCqIndex::build(&cq, &db, &order_vars(VARS)),
        Err(rae_core::CoreError::WeightOverflow)
    ));
}

/// Asserts the structured rank-overflow sentinel: `CapacityExceeded`
/// whose `count` is the `usize::MAX` marker (the quantity overflowed the
/// `u128` rank space; there is no meaningful count to report).
fn assert_rank_overflow<T: std::fmt::Debug>(result: rae_core::Result<T>, context: &str) {
    match result {
        Err(rae_core::CoreError::CapacityExceeded { what, count }) => {
            assert_eq!(count, usize::MAX, "{context}: sentinel count");
            let msg = rae_core::CoreError::CapacityExceeded { what, count }.to_string();
            assert!(
                msg.contains("overflowed the u128 rank space"),
                "{context}: display should name the rank space, got {msg:?}"
            );
        }
        other => panic!("{context}: expected rank-overflow CapacityExceeded, got {other:?}"),
    }
}

#[test]
fn union_rank_sums_past_u128_are_structured_errors() {
    // Two disjoint cross products of 255^16 answers each: every member
    // fits the rank space on its own, but their union rank arithmetic
    // (Σ member counts, inclusion–exclusion subset sums) does not —
    // 2·255^16 > u128::MAX. Every union entry point must reject at build
    // time with the structured sentinel, which is also what makes the
    // access-time checked sums provably unreachable for built indexes.
    const VARS: usize = 16;
    let mut db = Database::new();
    add_cross_relations(&mut db, "R", VARS, 0);
    add_cross_relations(&mut db, "S", VARS, 1_000);
    let order = order_vars(VARS);

    // Pre-built members into the general-union structure.
    let q_r: ConjunctiveQuery = cross_query_text("R", VARS).parse().unwrap();
    let q_s: ConjunctiveQuery = cross_query_text("S", VARS).parse().unwrap();
    let m_r = OrderedCqIndex::build(&q_r, &db, &order).unwrap();
    let m_s = OrderedCqIndex::build(&q_s, &db, &order).unwrap();
    assert_eq!(m_r.count().checked_add(m_s.count()), None, "premise");
    assert_rank_overflow(
        RankedUcq::from_members(vec![m_r, m_s]),
        "RankedUcq::from_members",
    );

    // The same union through the query-driven builders.
    let ucq: UnionQuery = format!(
        "{}. {}.",
        cross_query_text("R", VARS),
        cross_query_text("S", VARS)
    )
    .parse()
    .unwrap();
    assert_rank_overflow(McUcqIndex::build(&ucq, &db), "McUcqIndex::build");
    assert_rank_overflow(RankedUcq::build(&ucq, &db, &order), "RankedUcq::build");
}
