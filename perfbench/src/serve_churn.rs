//! `serve-churn`: the churn query (`rae_tpch::churn::CHURN_QUERY`, a full
//! self-join-free CQ, so it is served through the delta overlay) over one
//! ingest of 4k orders, driven through `rae-serve` by one client thread.
//! The served structures fit in a core's own L2 cache, for the reason
//! given in `cq_q3.rs`.
//!
//! Each cycle: a synchronous `fold_now`, reads on the folded snapshot, then
//! several commits of mixed insert/delete batches, each followed by an
//! untimed warm-up and random-order read passes on the overlay snapshot
//! (non-empty delta and tombstones). No background fold runs and nothing is persisted during the
//! timed cycles. Every read checks that `ordered_inverted_access` maps the
//! answer back to its rank, and after every fold the served digest must
//! equal a rebuild from a mirror of the committed rows.

use crate::trace;
use crate::util::{derive_seed, median, ns_since, Ctx, OverheadProbe, Rebuilds, Rounds};
use rae_core::{LazyShuffle, OrderedCqIndex, RankedUcq, Weight};
use rae_data::{dict, Database, Relation, Schema, Symbol, Value};
use rae_query::{classify, ConjunctiveQuery, CqClass};
use rae_serve::{
    enumeration_digest, AdmissionPolicy, Batch, ServeError, ServeWriter, ServingIndex,
    ServingReader, Snapshot,
};
use rae_store::ArtifactArchive;
use rae_tpch::churn::{ingest_cycle, ChurnConfig, CHURN_QUERY};
use rae_yannakakis::reduce_to_full_acyclic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const ORDERS: usize = 4_000;
/// Set-up rounds per run, spread over the timed run (see `Rebuilds`).
const SETUP_REPS: usize = 32;
/// Cold starts per cycle, summarized in rounds of `COLD_ROUND`.
const COLD_STARTS_PER_CYCLE: usize = 16;
const COLD_ROUND: usize = 4;
const COMMITS_PER_CYCLE: usize = 4;
/// Deleted and inserted rows per relation in one batch (32 operations).
const ROWS_PER_BATCH: usize = 8;
const FOLDED_ROUNDS: usize = 8;
const FOLDED_READS: usize = 2_000;
/// Random-order passes over each overlay snapshot, each one round.
const OVERLAY_PASSES: usize = 2;
const OVERLAY_ANSWERS: usize = 1_000;
const WARMUP: usize = 2_000;
const COLD_START_CHECKS: usize = 1_000;
const ORDER: [&str; 3] = ["o", "t", "p"];

/// The served rows, advanced in lockstep with the committed batches. The
/// served state is a set, so the rows are deduplicated.
struct Mirror {
    orders: Vec<Vec<Value>>,
    lines: Vec<Vec<Value>>,
    fresh: i64,
}

impl Mirror {
    fn from_db(db: &Database) -> Self {
        let rows = |name: &str| {
            let mut rows: Vec<Vec<Value>> = db
                .relation(name)
                .expect("churn relation")
                .rows()
                .map(<[Value]>::to_vec)
                .collect();
            rows.sort_unstable();
            rows.dedup();
            rows
        };
        Mirror {
            orders: rows("churn_orders"),
            lines: rows("churn_lineitem"),
            fresh: 0,
        }
    }

    /// A batch deleting random live rows and inserting fresh orders with a
    /// lineitem each.
    fn next_batch(&mut self, rng: &mut StdRng) -> Batch {
        let mut batch = Batch::new();
        for _ in 0..ROWS_PER_BATCH {
            let i = rng.gen_range(0..self.orders.len());
            batch.delete("churn_orders", self.orders.swap_remove(i));
            let i = rng.gen_range(0..self.lines.len());
            batch.delete("churn_lineitem", self.lines.swap_remove(i));
        }
        for _ in 0..ROWS_PER_BATCH {
            self.fresh += 1;
            let o = Value::Int(8_000_000_000 + self.fresh);
            let order = vec![o.clone(), Value::str(format!("bench-{}", self.fresh))];
            batch.insert("churn_orders", order.clone());
            self.orders.push(order);
            let line = vec![o, Value::Int(self.fresh)];
            batch.insert("churn_lineitem", line.clone());
            self.lines.push(line);
        }
        batch
    }

    /// A fresh index over the mirrored rows: the fold-and-rebuild oracle.
    fn oracle(&self, query: &ConjunctiveQuery, order: &[Symbol]) -> OrderedCqIndex {
        let mut db = Database::new();
        for (name, cols, rows) in [
            ("churn_orders", ["co_orderkey", "co_custtag"], &self.orders),
            ("churn_lineitem", ["cl_orderkey", "cl_partkey"], &self.lines),
        ] {
            let schema = Schema::new(cols).expect("schema");
            let rel = Relation::from_rows(schema, rows.iter().cloned()).expect("relation");
            db.add_relation(name, rel).expect("relation slot");
        }
        OrderedCqIndex::build(query, &db, order).expect("oracle builds")
    }
}

fn oracle_digest(oracle: &OrderedCqIndex) -> u64 {
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(oracle.count() as usize);
    let mut e = oracle.enumerate();
    while let Some(row) = e.next_ref() {
        rows.push(row.to_vec());
    }
    enumeration_digest(rows.iter().map(Vec::as_slice))
}

fn parse_query() -> ConjunctiveQuery {
    let q: ConjunctiveQuery = CHURN_QUERY.parse().expect("churn query parses");
    assert_eq!(
        classify(&q),
        CqClass::FreeConnex,
        "churn query is free-connex"
    );
    q
}

/// Plan and start serving; returns once the first answer has been served.
/// Only the returned reader keeps the published snapshots alive.
fn setup(ctx: &mut Ctx, db: &Database, order: &[Symbol]) -> (ServeWriter, ServingReader) {
    let q = trace::span("query.plan", parse_query);
    if ctx.tracing {
        // The writer reduces inside its build; a separate reduction of the
        // same query shows the yannakakis share of that build.
        let fj = trace::span("yannakakis.reduce", || reduce_to_full_acyclic(&q, db))
            .expect("churn query reduces");
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
    }
    let (writer, serving) = trace::span("serve.new", || {
        ServeWriter::new(q, db, order, AdmissionPolicy::default())
    })
    .expect("the churn query is served");
    ctx.check(writer.is_delta_overlay(), || {
        "churn query left the overlay path".to_string()
    });
    let reader = serving.reader();
    let first = trace::span("serve.read", || reader.current().ordered_access(0));
    ctx.check(first.is_some(), || {
        "the served query has no first answer".to_string()
    });
    (writer, reader)
}

#[derive(Default)]
struct DictPeak {
    interned: usize,
    allocated: usize,
}

impl DictPeak {
    fn sample(&mut self) {
        self.interned = self.interned.max(dict::interned_count());
        self.allocated = self.allocated.max(dict::allocated_slot_count());
    }
}

pub fn run(ctx: &mut Ctx) {
    trace::phase("generate");
    let cfg = ChurnConfig {
        cycles: 1,
        orders_per_cycle: ORDERS,
        seed: ctx.seed,
        threads: ctx.build_threads,
    };
    let mut db = Database::new();
    trace::span("tpch.generate", || ingest_cycle(&mut db, 0, &cfg)).expect("churn ingest");
    ctx.fact("orders", ORDERS);
    ctx.fact("tuples", db.total_tuples());

    let order: Vec<Symbol> = ORDER.into_iter().map(Symbol::new).collect();
    let (mut writer, mut reader) = ctx.timed_setups(|ctx| setup(ctx, &db, &order));
    let mut dict_peak = DictPeak::default();
    dict_peak.sample();
    let mut mirror = Mirror::from_db(&db);
    let query = parse_query();
    ctx.fact("answers", reader.current().count());
    warm_up(&reader.pinned(), derive_seed(ctx.seed, 1, 0));

    let (mut folded, mut overlay, mut inverted) =
        (Rounds::default(), Rounds::default(), Rounds::default());
    let (mut core_ordered, mut core_ranked) = (Rounds::default(), Rounds::default());
    let mut overhead = OverheadProbe::default();
    let (mut fold_s, mut apply_us, mut publish_ms, mut commit_ms) =
        (vec![], vec![], vec![], vec![]);
    let (mut refresh_ns, mut deltas, mut tombstones) = (vec![], vec![], vec![]);
    let mut backpressure = 0u64;
    let (mut samples, mut inv_samples) = (Vec::new(), Vec::new());
    let (mut core_samples, mut ranked_samples) = (Vec::new(), Vec::new());
    let mut batch_rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 6, 0));
    let mut cold = None;
    let mut rebuilds = Rebuilds::new(ctx, SETUP_REPS);
    let deadline = ctx.deadline();
    let mut cycle = 0u64;
    while Instant::now() < deadline || cycle < 2 {
        if rebuilds.due() {
            // Serve the ingested rows again from scratch; the old writer and
            // its snapshots are dropped first so the peak holds one copy.
            drop(reader);
            drop(writer);
            (writer, reader) = ctx.timed_setups(|ctx| setup(ctx, &db, &order));
            mirror = Mirror::from_db(&db);
            dict_peak.sample();
            warm_up(&reader.pinned(), derive_seed(ctx.seed, 1, cycle));
        }
        trace::phase("fold");
        let start = Instant::now();
        let folded_ok = trace::span("serve.fold", || writer.fold_now()).is_ok();
        fold_s.push(start.elapsed().as_secs_f64());
        ctx.check(folded_ok, || format!("fold {cycle} failed"));
        dict_peak.sample();
        let start = Instant::now();
        reader.refresh();
        refresh_ns.push(ns_since(start) as f64);
        let snap = reader.pinned();
        let oracle = trace::span("bench.oracle", || mirror.oracle(&query, writer.order()));
        let same = snap.count() == oracle.count() && snap.digest() == oracle_digest(&oracle);
        ctx.check(same, || {
            format!("fold {cycle} serves other answers than a rebuild")
        });
        if cold.is_none() {
            cold = Some(ColdStart::save(ctx, &oracle, &snap));
        }
        let ranked = ctx
            .tracing
            .then(|| RankedUcq::from_shared_members(vec![Arc::new(oracle)]).expect("ranked union"));

        // Reads on the folded snapshot.
        trace::phase("read_folded");
        for r in 0..FOLDED_ROUNDS as u64 {
            let round = cycle * FOLDED_ROUNDS as u64 + r;
            overhead.begin(ctx, round);
            let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 3, round));
            trace::span("bench.read_round", || {
                for _ in 0..FOLDED_READS {
                    let k: Weight = rng.gen_range(0..snap.count());
                    let start = Instant::now();
                    let row = snap.ordered_access(k);
                    let mid = Instant::now();
                    let back = row.as_deref().and_then(|a| snap.ordered_inverted_access(a));
                    let end = Instant::now();
                    let (a_ns, i_ns) = (
                        (mid - start).as_nanos() as u64,
                        (end - mid).as_nanos() as u64,
                    );
                    trace::op("serve.read_folded", a_ns);
                    trace::op("serve.inverted", i_ns);
                    samples.push(a_ns);
                    inv_samples.push(i_ns);
                    ctx.check(back == Some(k), || {
                        format!("folded rank {k} does not round-trip")
                    });
                }
            });
            overhead.end(FOLDED_READS);
            folded.push(&mut samples);
            inverted.push(&mut inv_samples);
        }
        if let Some(ranked) = &ranked {
            // Traced runs only: the same ranks on the core ordered index
            // over the same rows, alone and as a one-member ranked union.
            trace::phase("read_core");
            let oracle = &ranked.members()[0];
            for r in 0..FOLDED_ROUNDS as u64 {
                let round = cycle * FOLDED_ROUNDS as u64 + r;
                let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 3, round));
                trace::span("bench.core_round", || {
                    for _ in 0..FOLDED_READS {
                        let k: Weight = rng.gen_range(0..snap.count());
                        let start = Instant::now();
                        let core_row = oracle.ordered_access(k);
                        let mid = Instant::now();
                        let ranked_row = ranked.ordered_access(k);
                        let end = Instant::now();
                        let (c_ns, r_ns) = (
                            (mid - start).as_nanos() as u64,
                            (end - mid).as_nanos() as u64,
                        );
                        trace::op("core.ordered_access", c_ns);
                        trace::op("core.ranked_ucq_access", r_ns);
                        core_samples.push(c_ns);
                        ranked_samples.push(r_ns);
                        let row = snap.ordered_access(k);
                        ctx.check(core_row == row && ranked_row == row, || {
                            format!("the base index disagrees with the snapshot at rank {k}")
                        });
                    }
                });
                core_ordered.push(&mut core_samples);
                core_ranked.push(&mut ranked_samples);
            }
        }
        drop(snap);
        drop(ranked);

        for c in 0..COMMITS_PER_CYCLE as u64 {
            trace::phase("commit");
            let batch = mirror.next_batch(&mut batch_rng);
            let start = Instant::now();
            let applied = trace::span("serve.apply", || writer.apply(&batch));
            let mid = Instant::now();
            let published = trace::span("serve.publish", || writer.publish());
            let end = Instant::now();
            apply_us.push((mid - start).as_secs_f64() * 1e6);
            publish_ms.push((end - mid).as_secs_f64() * 1e3);
            commit_ms.push((end - start).as_secs_f64() * 1e3);
            if matches!(applied, Err(ServeError::Backpressure { .. })) {
                backpressure += 1;
            }
            ctx.check(applied.is_ok() && published.is_ok(), || {
                format!("commit failed: {:?} / {:?}", applied.err(), published.err())
            });

            // Random-order passes over the overlay snapshot.
            trace::phase("read_overlay");
            let start = Instant::now();
            reader.refresh();
            refresh_ns.push(ns_since(start) as f64);
            let snap = reader.pinned();
            deltas.push(snap.delta_count() as f64);
            tombstones.push(snap.tombstone_count() as f64);
            ctx.check(snap.delta_count() > 0 && snap.tombstone_count() > 0, || {
                "the overlay snapshot has no delta or no tombstones".to_string()
            });
            let round = cycle * COMMITS_PER_CYCLE as u64 + c;
            warm_up(&snap, derive_seed(ctx.seed, 9, round));
            for p in 0..OVERLAY_PASSES as u64 {
                let pass = round * OVERLAY_PASSES as u64 + p;
                let rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 4, pass));
                overlay_pass(ctx, &snap, rng, &mut samples);
                overlay.push(&mut samples);
            }
        }
        let cold = cold.as_mut().expect("saved after the first fold");
        for _ in 0..COLD_STARTS_PER_CYCLE {
            cold.rep(ctx, false);
        }
        cycle += 1;
    }
    ctx.fact("cycles", cycle);
    ctx.fact("folded_reads", folded.samples());
    ctx.fact("overlay_reads", overlay.samples());
    ctx.e2e("renum_answers_per_s", overlay.rate());
    ctx.e2e("renum_delay_p50_ns", overlay.p50());
    ctx.e2e("renum_delay_p90_ns", overlay.p90());
    ctx.e2e("access_p50_ns", folded.p50());
    ctx.e2e("access_p90_ns", folded.p90());
    ctx.e2e("inverted_p50_ns", inverted.p50());
    ctx.layer("serve.fold_s", median(&fold_s));
    ctx.layer("serve.apply_us", median(&apply_us));
    ctx.layer("serve.publish_ms", median(&publish_ms));
    ctx.layer("serve.commit_p50_ms", median(&commit_ms));
    ctx.layer("serve.refresh_ns", median(&refresh_ns));
    ctx.layer("serve.read_folded_ns", folded.p50());
    ctx.layer("serve.read_folded_p90_ns", folded.p90());
    ctx.layer("serve.read_overlay_ns", overlay.p50());
    ctx.layer("serve.read_overlay_p90_ns", overlay.p90());
    ctx.layer("serve.inverted_ns", inverted.p50());
    ctx.layer("serve.delta_count", median(&deltas));
    ctx.layer("serve.tombstone_count", median(&tombstones));
    ctx.layer("serve.backpressure_errors", backpressure as f64);
    if core_ordered.rounds() > 0 {
        ctx.layer("core.ordered_access_ns", core_ordered.p50());
        ctx.layer("core.ranked_ucq_access_ns", core_ranked.p50());
        ctx.layer("serve.overhead_ratio", folded.p50() / core_ordered.p50());
    }
    overhead.record(ctx);

    let mut cold = cold.expect("saved after the first fold");
    cold.rep(ctx, true);
    cold.finish(ctx);
    ctx.layer("data.interned", dict_peak.interned as f64);
    ctx.layer("data.allocated_slots", dict_peak.allocated as f64);
}

/// Untimed warm-up: faults in the snapshot's pages and lookup tables, and
/// brings a freshly published snapshot into the cache before its reads
/// are timed.
fn warm_up(snap: &Snapshot, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..WARMUP {
        let k: Weight = rng.gen_range(0..snap.count());
        if let Some(row) = snap.ordered_access(k) {
            black_box(snap.ordered_inverted_access(&row));
        }
    }
}

/// Draws `OVERLAY_ANSWERS` answers of a random permutation of the live
/// ranks; the delay of an answer is the permutation step plus the access.
fn overlay_pass(ctx: &mut Ctx, snap: &Snapshot, rng: StdRng, samples: &mut Vec<u64>) {
    let mut shuffle = LazyShuffle::new(snap.count(), rng);
    trace::span("bench.overlay_round", || {
        for _ in 0..OVERLAY_ANSWERS {
            let start = Instant::now();
            let k = shuffle.next();
            let row = k.and_then(|k| snap.ordered_access(k));
            let ns = ns_since(start);
            trace::op("serve.read_overlay", ns);
            samples.push(ns);
            let back = row.as_deref().and_then(|a| snap.ordered_inverted_access(a));
            ctx.check(k.is_some() && back == k, || {
                format!("overlay rank {k:?} does not round-trip")
            });
        }
    });
}

/// Cold starts of a folded base, spread over the timed run in rounds of
/// `COLD_ROUND`. The base of
/// the first fold is saved as an ordered snapshot with its answers at
/// sampled ranks; each cold start times `ServingIndex::recover` until the
/// recovered index has served one of those answers.
struct ColdStart {
    dir: PathBuf,
    file_len: u64,
    probes: Vec<(Weight, Option<Vec<Value>>)>,
    reps: usize,
    times: Vec<u64>,
    rounds: Rounds,
}

impl ColdStart {
    fn save(ctx: &Ctx, base: &OrderedCqIndex, live: &Snapshot) -> Self {
        let dir = ctx.scratch_dir().join("serve");
        std::fs::create_dir_all(&dir).expect("create the snapshot directory");
        let path = dir.join(format!("fold.{}", rae_store::SNAPSHOT_EXT));
        let archive = trace::span("store.to_archive", || {
            ArtifactArchive::Ordered(base.to_archive())
        });
        let meta = trace::span("store.save", || {
            rae_store::save(&path, &archive, live.epoch(), "churn")
        })
        .expect("the snapshot saves");
        let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 5, 0));
        let probes = (0..COLD_START_CHECKS)
            .map(|_| {
                let k: Weight = rng.gen_range(0..live.count());
                (k, live.ordered_access(k))
            })
            .collect();
        ColdStart {
            dir,
            file_len: meta.file_len,
            probes,
            reps: 0,
            times: Vec::new(),
            rounds: Rounds::default(),
        }
    }

    /// One timed recovery; with `check_all`, every saved probe is compared
    /// untimed afterwards.
    fn rep(&mut self, ctx: &mut Ctx, check_all: bool) {
        trace::phase("cold_start");
        let (k, expected) = &self.probes[self.reps % self.probes.len()];
        self.reps += 1;
        let start = Instant::now();
        let recovered = trace::span("serve.recover", || ServingIndex::recover(&self.dir));
        let first = recovered
            .as_ref()
            .ok()
            .and_then(|(s, _)| s.snapshot().ordered_access(*k));
        let agrees = first.is_some() && first == *expected;
        self.times.push(ns_since(start));
        if self.times.len() == COLD_ROUND {
            self.rounds.push(&mut self.times);
        }
        ctx.check(agrees, || format!("recovered index disagrees at rank {k}"));
        if let (Ok((recovered, _)), true) = (recovered, check_all) {
            let snap = recovered.snapshot();
            for (k, expected) in &self.probes {
                ctx.check(snap.ordered_access(*k) == *expected, || {
                    format!("recovered index disagrees at rank {k}")
                });
            }
        }
    }

    fn finish(self, ctx: &mut Ctx) {
        ctx.fact("cold_starts", self.rounds.samples());
        ctx.e2e("cold_start_s", self.rounds.p50() * 1e-9);
        let path = self.dir.join(format!("fold.{}", rae_store::SNAPSHOT_EXT));
        crate::util::record_store_split(ctx, &[path], self.file_len);
    }
}
