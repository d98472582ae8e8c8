//! Ranked retrieval over a TPC-H CQ (DESIGN.md §11): build one ordered
//! index, then serve `ORDER BY`-pagination, k-th-answer point lookups, and
//! `GROUP BY`-prefix range counts — each in O(log n), none touching more
//! answers than it returns.
//!
//! Run with `cargo run --release --example ranked_access`.

use rae::prelude::*;
use rae_tpch::{generate, queries, TpchScale};
use rand::SeedableRng;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = TpchScale::from_sf(0.002);
    let db = generate(&scale, 42);
    println!(
        "TPC-H-like instance: {} relations, {} tuples",
        db.relation_count(),
        db.total_tuples()
    );

    // Q3(ok, ck, pk, sk, ln): customer–orders–lineitem. Serve it ORDER BY
    // ck, ok, pk, sk, ln — customer-first, which is NOT the layout the
    // unordered index would pick.
    let q = queries::q3();
    let order: Vec<Symbol> = ["ck", "ok", "pk", "sk", "ln"]
        .iter()
        .map(Symbol::new)
        .collect();
    println!("query {q}");
    println!(
        "order ⟨{}⟩\n",
        order
            .iter()
            .map(Symbol::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );

    let t0 = Instant::now();
    let index = OrderedCqIndex::build(&q, &db, &order)?;
    println!(
        "ordered preprocessing: {:.1} ms, |Q(D)| = {}",
        t0.elapsed().as_secs_f64() * 1e3,
        index.count()
    );

    // --- Pagination: page 3 of a 5-rows-per-page scan -------------------
    let page_size: Weight = 5;
    let page: Weight = 3;
    let t = Instant::now();
    let rows: Vec<Vec<Value>> = index
        .range(page * page_size..(page + 1) * page_size)
        .collect();
    println!(
        "\npage {page} (ranks {}..{}) in {:.0} µs:",
        page * page_size,
        (page + 1) * page_size,
        t.elapsed().as_secs_f64() * 1e6
    );
    for (i, row) in rows.iter().enumerate() {
        println!("  #{:>4} {row:?}", page * page_size + i as Weight);
    }

    // --- Point lookups: the k-th answer and its rank round-trip ----------
    let k = index.count() / 2;
    let t = Instant::now();
    let median = index.ordered_access(k).expect("k < count");
    let rank = index.ordered_inverted_access(&median).expect("an answer");
    println!(
        "\nordered_access({k}) = {median:?} (rank round-trips to {rank}, {:.0} µs)",
        t.elapsed().as_secs_f64() * 1e6
    );
    assert_eq!(rank, k);

    // --- Range counting: answers per customer, no enumeration -----------
    // The first order variable is ck, so a 1-value prefix is a customer.
    let ck_pos = index.order_to_head()[0];
    println!("\nanswers per customer (range_count on the ⟨ck⟩ prefix):");
    let mut shown = 0;
    let mut cursor: Weight = 0;
    while cursor < index.count() && shown < 5 {
        let row = index.ordered_access(cursor).expect("cursor < count");
        let customer = row[ck_pos].clone();
        let window = index.range_of_prefix(std::slice::from_ref(&customer))?;
        println!(
            "  ck = {customer:?}: {} answers (ranks {}..{})",
            window.end - window.start,
            window.start,
            window.end
        );
        // Every answer of the window really belongs to the customer.
        debug_assert!(index.range(window.clone()).all(|r| r[ck_pos] == customer));
        cursor = window.end; // jump straight past the whole customer
        shown += 1;
    }

    // --- Weighted ranked access (DESIGN.md §17) ---------------------------
    // ORDER BY a *sum of per-variable weights*: score each customer key,
    // then top-k retrieval, rank round-trips, and weight-band counts all
    // stay O(log n) — the order ⟨ck, …⟩ has its weighted variable as a
    // prefix, which is exactly the tractable case.
    let mut weights = VarWeights::new();
    let mut at: Weight = 0;
    while at < index.count() {
        let row = index.ordered_access(at).expect("at < count");
        let ck = row[ck_pos].clone();
        let window = index.range_of_prefix(std::slice::from_ref(&ck))?;
        // Deterministic demo score: customers with more answers are cheaper.
        weights.set("ck", ck, 1000 / (window.end - window.start));
        at = window.end;
    }
    let t = Instant::now();
    let weighted = WeightedCqIndex::build(&q, &db, &order, &weights)?;
    println!(
        "\nweighted preprocessing: {:.1} ms, {} weight blocks, weights {:?}..={:?}",
        t.elapsed().as_secs_f64() * 1e3,
        weighted.block_count(),
        weighted.min_weight(),
        weighted.max_weight()
    );
    println!("top-5 answers by total weight:");
    let mut wscratch = AccessScratch::default();
    for k in 0..weighted.count().min(5) {
        let w = weighted.weight_at(k).expect("k < count");
        let row = weighted
            .ranked_access_into(k, &mut wscratch)
            .expect("k < count");
        println!("  #{k} w={w} {row:?}");
    }
    if weighted.count() > 0 {
        let mid = weighted.count() / 2;
        let answer = weighted.ranked_access(mid).expect("mid < count");
        assert_eq!(weighted.ranked_inverted_access(&answer), Some(mid));
        let (lo, hi) = (
            weighted.min_weight().expect("non-empty"),
            weighted.max_weight().expect("non-empty"),
        );
        println!(
            "weight band {lo}..{hi} holds {} of {} answers",
            weighted.weight_range_count(lo..hi),
            weighted.count()
        );
        // Uniform, rejection-free sampling among the cheapest quarter.
        let cheapest = (weighted.count() / 4).max(1);
        let wsampler = WeightedWindowSampler::new(&weighted, 0..cheapest);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        if let Some(sample) = wsampler.sample_into(&mut rng, &mut wscratch) {
            println!("uniform sample among the {cheapest} cheapest: {sample:?}");
        }
    }

    // --- The same machinery across a union -------------------------------
    let mut db_sel = db;
    rae_tpch::prepare_selections(&mut db_sel)?;
    let ucq = queries::qa_qe();
    // A realizable order for the shared template: its DFS attribute
    // sequence (the order the default layout already emits).
    let fj = reduce_to_full_acyclic(&ucq.disjuncts()[0], &db_sel)?;
    let union_order = fj.plan.attrs_dfs();
    // RankedUcq builds one ordered index per disjunct (no shared template
    // needed — each member may synthesize its own layout) and corrects
    // union ranks for duplicates by member ownership.
    let t = Instant::now();
    let union = RankedUcq::build(&ucq, &db_sel, &union_order)?;
    println!(
        "\nunion QA ∪ QE under ⟨{}⟩: {} distinct answers ({:.1} ms preprocessing)",
        union_order
            .iter()
            .map(Symbol::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        union.count(),
        t.elapsed().as_secs_f64() * 1e3
    );
    if union.count() > 0 {
        let mid = union.count() / 2;
        let answer = union.ordered_access(mid).expect("mid < count");
        assert_eq!(union.ordered_inverted_access(&answer), Some(mid));
        println!("union ordered_access({mid}) = {answer:?} (rank round-trips)");
    }

    // --- Uniform sampling inside one rank window -------------------------
    // A prefix window ("one customer's answers") is contiguous in rank, so
    // drawing a uniform rank serves an exactly uniform, rejection-free
    // sample from that group.
    if let Some(customer) = index.ordered_access(0).map(|a| a[ck_pos].clone()) {
        let sampler = OrderedWindowSampler::for_prefix(&index, std::slice::from_ref(&customer))?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut scratch = AccessScratch::default();
        if let Some(sample) = sampler.sample_into(&mut rng, &mut scratch) {
            assert_eq!(sample[ck_pos], customer);
            println!("uniform sample within ck = {customer:?}: {sample:?}");
        }
    }

    Ok(())
}
