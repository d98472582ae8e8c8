//! `cq-q3`: TPC-H Q3 at sf 0.002 — one free-connex CQ (about 17k tuples,
//! 12k answers) whose index fits in a core's own L2 cache. A larger index
//! spills into the last-level cache the host shares with other machines,
//! and its timings then follow their load rather than the code. Exercises
//! the query, yannakakis, core-index and store layers, never the serving
//! code, so a change there should leave this workload unchanged. Traced
//! runs also measure the union layer on the same database after the timed
//! part (see `union.rs`); untraced runs never call it.

use crate::trace;
use crate::util::{derive_seed, ns_since, Ctx, OverheadProbe, Rebuilds, Rounds};
use rae_core::{AccessScratch, BuildOptions, CqIndex, Weight};
use rae_query::{classify, ConjunctiveQuery, CqClass};
use rae_store::{Artifact, ArtifactArchive};
use rae_tpch::{generate, queries, TpchScale};
use rae_yannakakis::reduce_to_full_acyclic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

const SF: f64 = 0.002;
/// Set-up rounds per run, spread over the timed run (see `Rebuilds`).
const SETUP_REPS: usize = 64;
/// Answers drawn per random-order round (a fresh permutation each round);
/// a third of the answers, so a round never runs out.
const RENUM_ROUND: usize = 4_000;
/// Access/inverted pairs per access round.
const ACCESS_ROUND: usize = 4_000;
/// Back-to-back cold starts per cold-start round; one round follows every
/// `COLD_EVERY`-th access round.
const COLD_ROUND: usize = 5;
const COLD_EVERY: u64 = 4;
const WARMUP: usize = 20_000;
/// Ranks compared between the cold-started and the built index.
const COLD_START_CHECKS: usize = 2_000;

/// Plan, reduce, build, and prepare inverted access; returns the index once
/// its first answer has been served.
fn setup(ctx: &mut Ctx, db: &rae_data::Database) -> CqIndex {
    let q: ConjunctiveQuery = trace::span("query.plan", || {
        let q = queries::q3();
        assert_eq!(classify(&q), CqClass::FreeConnex, "Q3 is free-connex");
        q
    });
    let fj = trace::span("yannakakis.reduce", || reduce_to_full_acyclic(&q, db))
        .expect("Q3 reduces over the generated database");
    let rows_in: usize = q
        .body()
        .iter()
        .map(|a| db.relation(&a.relation).map_or(0, |r| r.len()))
        .sum();
    let rows_out: usize = fj.relations.iter().map(|r| r.len()).sum();
    ctx.layer("yannakakis.rows_in", rows_in as f64);
    ctx.layer("yannakakis.rows_out", rows_out as f64);
    ctx.layer(
        "yannakakis.kept_ratio",
        rows_out as f64 / rows_in.max(1) as f64,
    );
    let options = BuildOptions::with_threads(ctx.build_threads);
    let idx = trace::span("core.build", || {
        CqIndex::from_parts_with(fj.plan, fj.relations, fj.head, options)
    })
    .expect("Q3 index builds");
    trace::span("core.prepare_inverted", || idx.prepare_inverted_access());
    let first = trace::span("core.access", || idx.access(0));
    ctx.check(first.is_some(), || "Q3 has no first answer".to_string());
    idx
}

/// Untimed warm-up: faults in the index pages and the lookup tables.
fn warm_up(idx: &CqIndex, s1: &mut AccessScratch, s2: &mut AccessScratch, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..WARMUP {
        let k: Weight = rng.gen_range(0..idx.count());
        if let Some(a) = idx.access_into(k, s1) {
            black_box(idx.inverted_access_of(a, s2));
        }
    }
}

pub fn run(ctx: &mut Ctx) {
    trace::phase("generate");
    let mut db = trace::span("tpch.generate", || {
        generate(&TpchScale::from_sf(SF), ctx.seed)
    });
    ctx.fact("sf", SF);
    ctx.fact("tuples", db.total_tuples());

    let mut idx = ctx.timed_setups(|ctx| setup(ctx, &db));
    let n = idx.count();
    ctx.fact("answers", n);
    assert!(
        n >= 2 * RENUM_ROUND as Weight,
        "Q3 has {n} answers, too few for a round of {RENUM_ROUND}"
    );
    let (mut s1, mut s2) = (AccessScratch::new(), AccessScratch::new());
    warm_up(&idx, &mut s1, &mut s2, derive_seed(ctx.seed, 1, 0));

    let mut cold = ColdStart::save(ctx, &idx);
    let mut rebuilds = Rebuilds::new(ctx, SETUP_REPS);
    let (mut renum, mut access, mut inverted) =
        (Rounds::default(), Rounds::default(), Rounds::default());
    let mut overhead = OverheadProbe::default();
    let mut samples = Vec::with_capacity(ACCESS_ROUND);
    let mut inv_samples = Vec::with_capacity(ACCESS_ROUND);
    let deadline = ctx.deadline();
    let mut round = 0u64;
    while Instant::now() < deadline || access.rounds() < 2 {
        if rebuilds.due() {
            // Drop the old index first so the peak holds one index.
            drop(idx);
            idx = ctx.timed_setups(|ctx| setup(ctx, &db));
            warm_up(&idx, &mut s1, &mut s2, derive_seed(ctx.seed, 1, round));
        }
        // Random-order enumeration: a fresh permutation per round; the
        // delay is the time inside the enumerator per emitted answer.
        trace::phase("renum");
        let rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 2, round));
        let mut shuffle = idx.random_permutation(rng);
        trace::span("bench.renum_round", || {
            for _ in 0..RENUM_ROUND {
                let start = Instant::now();
                let got = shuffle.next_ref().map(|a| black_box(a).len());
                let ns = ns_since(start);
                trace::op("core.renum_next", ns);
                samples.push(ns);
                ctx.check(got == Some(idx.arity()), || {
                    "permutation ended early".to_string()
                });
            }
        });
        renum.push(&mut samples);

        // Random access at seeded ranks; every answer must map back to its
        // rank. Traced runs alternate tracing on and off per round to
        // measure what tracing itself costs.
        trace::phase("access");
        overhead.begin(ctx, round);
        let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 3, round));
        trace::span("bench.access_round", || {
            for _ in 0..ACCESS_ROUND {
                let k: Weight = rng.gen_range(0..n);
                let start = Instant::now();
                let answer = idx.access_into(k, &mut s1);
                let mid = Instant::now();
                let back = answer.and_then(|a| idx.inverted_access_of(a, &mut s2));
                let end = Instant::now();
                let (a_ns, i_ns) = (
                    (mid - start).as_nanos() as u64,
                    (end - mid).as_nanos() as u64,
                );
                trace::op("core.access", a_ns);
                trace::op("core.inverted", i_ns);
                samples.push(a_ns);
                inv_samples.push(i_ns);
                ctx.check(back == Some(k), || {
                    format!("rank {k} does not round-trip: {back:?}")
                });
            }
        });
        overhead.end(ACCESS_ROUND);
        access.push(&mut samples);
        inverted.push(&mut inv_samples);
        if round.is_multiple_of(COLD_EVERY) {
            for _ in 0..COLD_ROUND {
                cold.rep(ctx, &idx, 0);
            }
        }
        round += 1;
    }
    ctx.fact("access_samples", access.samples());
    ctx.fact("renum_samples", renum.samples());
    ctx.e2e("renum_answers_per_s", renum.rate());
    ctx.e2e("renum_delay_p50_ns", renum.p50());
    ctx.e2e("renum_delay_p90_ns", renum.p90());
    ctx.e2e("access_p50_ns", access.p50());
    ctx.e2e("access_p90_ns", access.p90());
    ctx.e2e("inverted_p50_ns", inverted.p50());
    ctx.layer("core.access_ns", access.p50());
    ctx.layer("core.renum_next_ns", renum.p50());
    ctx.layer("core.inverted_ns", inverted.p50());
    overhead.record(ctx);

    // One full permutation, untimed: every rank must come out exactly once.
    trace::phase("verify");
    trace::span("bench.full_pass_check", || {
        let rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 4, 0));
        let mut shuffle = idx.random_permutation(rng);
        let mut seen = vec![0u64; (n as usize).div_ceil(64)];
        let mut emitted: Weight = 0;
        let mut duplicates = 0usize;
        while let Some(a) = shuffle.next_ref() {
            emitted += 1;
            match idx.inverted_access_of(a, &mut s2) {
                Some(r) if r < n => {
                    let (w, b) = ((r / 64) as usize, r % 64);
                    if seen[w] >> b & 1 == 1 {
                        duplicates += 1;
                    }
                    seen[w] |= 1 << b;
                }
                _ => duplicates += 1,
            }
        }
        let covered: u64 = seen.iter().map(|w| u64::from(w.count_ones())).sum();
        ctx.check(
            emitted == n && duplicates == 0 && Weight::from(covered) == n,
            || format!("full pass emitted {emitted} of {n}, {duplicates} repeats"),
        );
    });

    cold.rep(ctx, &idx, COLD_START_CHECKS);
    cold.finish(ctx);
    if ctx.tracing {
        drop(idx);
        crate::union::measure(ctx, &mut db);
    }
}

/// Cold starts of the saved index in rounds of `COLD_ROUND`, interleaved
/// with the timed rounds and summarized as the latencies are.
struct ColdStart {
    path: PathBuf,
    file_len: u64,
    times: Vec<u64>,
    rounds: Rounds,
    rng: StdRng,
}

impl ColdStart {
    /// Saves the index before timing, so loads read it from the page cache.
    fn save(ctx: &Ctx, idx: &CqIndex) -> Self {
        trace::phase("save");
        let path = ctx
            .scratch_dir()
            .join(format!("q3.{}", rae_store::SNAPSHOT_EXT));
        let archive = trace::span("store.to_archive", || ArtifactArchive::Cq(idx.to_archive()));
        let meta = trace::span("store.save", || rae_store::save(&path, &archive, 1, "Q3"))
            .expect("the snapshot saves");
        ColdStart {
            path,
            file_len: meta.file_len,
            times: Vec::new(),
            rounds: Rounds::default(),
            rng: StdRng::seed_from_u64(derive_seed(ctx.seed, 5, 0)),
        }
    }

    /// Times `rae_store::load_borrowed` until the loaded index has served
    /// one answer that agrees with the built index, then compares `checks`
    /// more ranks untimed.
    fn rep(&mut self, ctx: &mut Ctx, idx: &CqIndex, checks: usize) {
        trace::phase("cold_start");
        let n = idx.count();
        let k: Weight = self.rng.gen_range(0..n);
        let expected = idx.access(k);
        let start = Instant::now();
        let loaded = match trace::span("store.load_borrowed", || {
            rae_store::load_borrowed(&self.path)
        }) {
            Ok((Artifact::Cq(i), _)) => Some(i),
            _ => None,
        };
        let first = loaded.as_ref().and_then(|i| i.access(k));
        let agrees = first.is_some() && first == expected;
        self.times.push(ns_since(start));
        if self.times.len() == COLD_ROUND {
            self.rounds.push(&mut self.times);
        }
        ctx.check(agrees, || {
            format!("cold-started index disagrees at rank {k}")
        });
        let Some(loaded) = loaded else { return };
        for _ in 0..checks {
            let k: Weight = self.rng.gen_range(0..n);
            let got = loaded.access(k);
            let back = got.as_deref().and_then(|a| loaded.inverted_access(a));
            ctx.check(got == idx.access(k) && back == Some(k), || {
                format!("cold-started index disagrees at rank {k}")
            });
        }
    }

    fn finish(self, ctx: &mut Ctx) {
        ctx.fact("cold_starts", self.rounds.samples());
        ctx.e2e("cold_start_s", self.rounds.p50() * 1e-9);
        crate::util::record_store_split(ctx, &[self.path], self.file_len);
    }
}
