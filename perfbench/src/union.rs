//! The union layer — REnum⟨UCQ⟩ (`UcqShuffle`) and mc-UCQ access
//! (`McUcqIndex`) — on QN2 ∪ QP2 ∪ QS2 over the cq-q3 database. Its three
//! members overlap (REnum⟨UCQ⟩ rejects about one candidate in seven). The
//! union layer is measured in cq-q3's traced runs only, as per-layer
//! metrics, after cq-q3's own timed and verified part: a bounded workload
//! reports every end-to-end metric, and an mc-UCQ has neither an inverted
//! access nor a saved form for `inverted_p50_ns` and `cold_start_s`.

use crate::trace;
use crate::util::{derive_seed, median, ns_since, Ctx, Rounds};
use rae_core::{AccessScratch, BuildOptions, CqIndex, McUcqIndex, UcqEvent, UcqShuffle, Weight};
use rae_data::{Database, Value};
use rae_query::{classify, CqClass};
use rae_tpch::{prepare_selections, queries};
use rae_yannakakis::reduce_to_full_acyclic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

const SETUPS: usize = 3;
/// Full REnum⟨UCQ⟩ passes, each with its own seed and each one round.
const PASSES: u64 = 32;
const ACCESS_ROUNDS: u64 = 32;
/// mc-UCQ accesses (each with its provider probe) per round.
const ACCESS_ROUND: usize = 2_000;

struct Structures {
    members: Vec<Arc<CqIndex>>,
    mcucq: McUcqIndex,
}

/// Builds the member indexes REnum⟨UCQ⟩ needs and the mc-UCQ structure,
/// returning their build times (members summed) next to them.
fn setup(ctx: &Ctx, db: &Database) -> (Structures, f64, f64) {
    let ucq = trace::span("query.plan_union", || {
        let ucq = queries::qn2_qp2_qs2();
        for d in ucq.disjuncts() {
            assert_eq!(classify(d), CqClass::FreeConnex, "members are free-connex");
        }
        ucq
    });
    let options = BuildOptions::with_threads(ctx.build_threads);
    let mut members = Vec::new();
    let mut member_s = 0.0;
    for d in ucq.disjuncts() {
        let fj = trace::span("yannakakis.reduce_member", || reduce_to_full_acyclic(d, db))
            .expect("member reduces");
        let start = Instant::now();
        let idx = trace::span("core.member_build", || {
            CqIndex::from_parts_with(fj.plan, fj.relations, fj.head, options)
        })
        .expect("member builds");
        member_s += start.elapsed().as_secs_f64();
        trace::span("core.member_prepare_inverted", || {
            idx.prepare_inverted_access()
        });
        members.push(Arc::new(idx));
    }
    let start = Instant::now();
    let mcucq = trace::span("core.mcucq_build", || McUcqIndex::build(&ucq, db))
        .expect("the union is an mc-UCQ");
    let mcucq_s = start.elapsed().as_secs_f64();
    (Structures { members, mcucq }, member_s, mcucq_s)
}

/// Measures and verifies the union layer; records its per-layer metrics.
pub fn measure(ctx: &mut Ctx, db: &mut Database) {
    trace::phase("union_setup");
    prepare_selections(db).expect("selection relations derive");
    let (mut member_s, mut mcucq_s) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let (s, m, u) = setup(ctx, db);
        member_s.push(m);
        mcucq_s.push(u);
        built = Some(s);
    }
    let Structures { members, mcucq } = built.expect("at least one setup");
    ctx.layer("core.member_build_s", median(&member_s));
    ctx.layer("core.mcucq_build_s", median(&mcucq_s));
    let n = mcucq.count();
    ctx.fact("union_answers", n);

    let mut expected: Vec<Vec<Value>> = mcucq.enumerate().collect();
    expected.sort_unstable();
    let distinct = {
        let mut d = expected.clone();
        d.dedup();
        d.len()
    };
    ctx.check(distinct as Weight == n, || {
        format!("mc-UCQ enumerate repeats answers: {distinct} distinct of {n}")
    });

    // Full REnum⟨UCQ⟩ passes over the prebuilt members; an answer's delay
    // includes the rejected candidates before it. Every pass must emit
    // exactly the union's answers.
    trace::phase("union_renum");
    let mut renum = Rounds::default();
    let (mut candidates, mut rejections) = (0u64, 0u64);
    let mut samples = Vec::new();
    let mut emitted: Vec<Vec<Value>> = Vec::with_capacity(expected.len());
    for pass in 0..PASSES {
        let rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 7, pass));
        let mut shuffle = UcqShuffle::from_indexes(members.clone(), rng);
        trace::span("bench.union_renum_pass", || {
            let mut start = Instant::now();
            while let Some(event) = shuffle.next_event() {
                if let UcqEvent::Answer(a) = event {
                    let ns = ns_since(start);
                    trace::op("core.ucq_renum_next", ns);
                    samples.push(ns);
                    emitted.push(a);
                    start = Instant::now();
                }
            }
        });
        renum.push(&mut samples);
        candidates += shuffle.emitted() + shuffle.rejections();
        rejections += shuffle.rejections();
        emitted.sort_unstable();
        let len = emitted.len();
        ctx.check(emitted == expected, || {
            format!("pass {pass} emitted {len} answers, not the {n} of the union")
        });
        emitted.clear();
    }
    ctx.layer("core.ucq_renum_next_ns", renum.p50());
    ctx.layer("core.ucq_candidates", candidates as f64 / PASSES as f64);
    ctx.layer("core.ucq_rejections", rejections as f64 / PASSES as f64);
    ctx.layer(
        "core.ucq_accept_ratio",
        (candidates - rejections) as f64 / candidates as f64,
    );

    // mc-UCQ access at seeded ranks, then the provider probe of Algorithm 5
    // (inverted access into every member) on the answer.
    trace::phase("union_access");
    let answer_set: HashSet<Vec<Value>> = expected.into_iter().collect();
    let (mut access, mut provider) = (Rounds::default(), Rounds::default());
    let mut probe = AccessScratch::new();
    let mut probe_samples = Vec::with_capacity(ACCESS_ROUND);
    for round in 0..ACCESS_ROUNDS {
        let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 8, round));
        trace::span("bench.union_access_round", || {
            for _ in 0..ACCESS_ROUND {
                let k: Weight = rng.gen_range(0..n);
                let start = Instant::now();
                let answer = mcucq.access(k);
                let mid = Instant::now();
                let mut providers = 0;
                if let Some(a) = &answer {
                    for m in &members {
                        providers += usize::from(m.inverted_access_of(a, &mut probe).is_some());
                    }
                }
                let end = Instant::now();
                let (a_ns, p_ns) = (
                    (mid - start).as_nanos() as u64,
                    (end - mid).as_nanos() as u64,
                );
                trace::op("core.mcucq_access", a_ns);
                trace::op("core.ucq_provider", p_ns);
                samples.push(a_ns);
                probe_samples.push(p_ns);
                let ok = providers > 0 && answer.as_ref().is_some_and(|a| answer_set.contains(a));
                ctx.check(ok, || format!("mc-UCQ rank {k} is not a union answer"));
            }
        });
        access.push(&mut samples);
        provider.push(&mut probe_samples);
    }
    ctx.layer("core.mcucq_access_ns", access.p50());
    ctx.layer("core.ucq_provider_ns", provider.p50());
}
