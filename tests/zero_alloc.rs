//! The acceptance test for the zero-allocation hot path: steady-state
//! `access_into`, `inverted_access_of`, sequential `next_ref`, and every
//! sampler's `attempt_into` must perform **zero** heap allocations per
//! answer, measured by a counting global allocator.
//!
//! The counter is thread-local (allocations of tests running in parallel
//! never reach a measured region), and every path gets a warm-up first so
//! scratch buffers and lazy lookup tables reach their steady state.

use rae::prelude::*;
use rae_serve::{AdmissionPolicy, Batch, ServeWriter, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[path = "support/alloc_counter.rs"]
mod alloc_counter;
use alloc_counter::{count_allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn skewed_db() -> Database {
    let mut db = Database::new();
    let mut r_rows = Vec::new();
    let mut s_rows = Vec::new();
    for i in 0..200i64 {
        r_rows.push(vec![Value::Int(i), Value::Int(i % 17)]);
        // Skewed fan-out: key k appears k+1 times in S.
        for j in 0..(i % 17 + 1) {
            s_rows.push(vec![Value::Int(i % 17), Value::Int(1000 + 100 * i + j)]);
        }
    }
    db.add_relation(
        "R",
        Relation::from_rows(Schema::new(["a", "b"]).unwrap(), r_rows).unwrap(),
    )
    .unwrap();
    db.add_relation(
        "S",
        Relation::from_rows(Schema::new(["b", "c"]).unwrap(), s_rows).unwrap(),
    )
    .unwrap();
    db
}

fn index() -> CqIndex {
    let q: ConjunctiveQuery = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    CqIndex::build(&q, &skewed_db()).unwrap()
}

/// The gate itself: a measured region reads 0 while another thread
/// allocates in a loop, and still counts the measuring thread's own
/// allocations.
#[test]
fn allocation_counter_ignores_other_threads() {
    let stop = AtomicBool::new(false);
    let noise = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                black_box(vec![0u8; 64]);
                noise.fetch_add(1, Ordering::Relaxed);
            }
        });
        while noise.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        // Hold the region open until the other thread has allocated
        // a thousand times inside it (or a generous timeout passes).
        let ((), allocs) = count_allocations(|| {
            let (start, from) = (Instant::now(), noise.load(Ordering::Relaxed));
            while noise.load(Ordering::Relaxed) < from + 1000
                && start.elapsed() < Duration::from_secs(10)
            {
                std::hint::spin_loop();
            }
        });
        stop.store(true, Ordering::Relaxed);
        assert_eq!(allocs, 0, "another thread's allocations were counted");
    });
    assert!(
        noise.load(Ordering::Relaxed) > 1000,
        "the noisy thread stalled"
    );
    let (v, allocs) = count_allocations(|| black_box(vec![1u8; 16]));
    assert_eq!(v.len(), 16);
    assert_eq!(allocs, 1, "the measuring thread's allocation was missed");
}

#[test]
fn steady_state_answer_paths_do_not_allocate() {
    let idx = index();
    let n = idx.count();
    assert!(n > 100);
    let mut scratch = AccessScratch::new();
    let mut rng = StdRng::seed_from_u64(42);

    // --- access_into -----------------------------------------------------
    idx.access_into(0, &mut scratch).unwrap(); // warm-up
    let ((), allocs) = count_allocations(|| {
        for _ in 0..1000 {
            let j = rng.gen_range(0..n);
            let answer = idx.access_into(j, &mut scratch).unwrap();
            std::hint::black_box(answer);
        }
    });
    assert_eq!(allocs, 0, "access_into allocated on the steady-state path");

    // --- inverted_access_of ----------------------------------------------
    idx.prepare_inverted_access();
    let owned: Vec<Vec<Value>> = (0..64).map(|j| idx.access(j * (n / 64)).unwrap()).collect();
    let mut probe = AccessScratch::new();
    idx.inverted_access_of(&owned[0], &mut probe).unwrap(); // warm-up
    let ((), allocs) = count_allocations(|| {
        for answer in &owned {
            let j = idx.inverted_access_of(answer, &mut probe).unwrap();
            std::hint::black_box(j);
        }
    });
    assert_eq!(allocs, 0, "inverted_access_of allocated on the probe path");

    // --- sequential enumeration (next_ref) --------------------------------
    let mut cursor = idx.sequential();
    cursor.next_ref().unwrap(); // warm-up (cursor buffers are built in new())
    let ((), allocs) = count_allocations(|| {
        while let Some(answer) = cursor.next_ref() {
            std::hint::black_box(answer);
        }
    });
    assert_eq!(allocs, 0, "sequential next_ref allocated mid-stream");

    // --- the four samplers -------------------------------------------------
    let ew = EwSampler::new(&idx);
    let eo = EoSampler::new(&idx);
    let oe = OeSampler::new(&idx);
    let rs = RsSampler::new(&idx);

    fn check_sampler<S: JoinSampler>(sampler: &S, rng: &mut StdRng, scratch: &mut AccessScratch) {
        // Warm-up: one accepted attempt sizes every buffer.
        while sampler.attempt_into(rng, &mut *scratch).is_none() {}
        let ((), allocs) = count_allocations(|| {
            let mut accepted = 0u32;
            // Attempts *including rejections* must be allocation-free.
            while accepted < 500 {
                if sampler.attempt_into(rng, &mut *scratch).is_some() {
                    accepted += 1;
                }
            }
        });
        assert_eq!(
            allocs,
            0,
            "{} sampler allocated during attempts",
            sampler.name()
        );
    }

    check_sampler(&ew, &mut rng, &mut scratch);
    check_sampler(&eo, &mut rng, &mut scratch);
    check_sampler(&oe, &mut rng, &mut scratch);
    check_sampler(&rs, &mut rng, &mut scratch);
}

/// Steady state must survive the relation lifecycle: after dropping and
/// re-ingesting a relation (fresh values, new index), the SAME scratch must
/// keep producing answers with zero allocations once the new shape is
/// warmed. (No generation sweep here — sweeping tests serialize in their
/// own binaries; append-only growth is what this binary's parallel tests
/// assume.)
#[test]
fn rebuild_after_drop_reingest_stays_zero_alloc() {
    let mut db = skewed_db();
    let q: ConjunctiveQuery = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let mut scratch = AccessScratch::new();
    let mut rng = StdRng::seed_from_u64(99);

    let idx = CqIndex::build(&q, &db).unwrap();
    idx.access_into(0, &mut scratch).unwrap(); // warm the shape
    drop(idx);

    // Drop S and re-ingest a value-fresh cohort with the same join keys.
    db.remove_relation("S").unwrap();
    let mut s_rows = Vec::new();
    for i in 0..200i64 {
        for j in 0..(i % 17 + 1) {
            s_rows.push(vec![
                Value::Int(i % 17),
                Value::Int(5_000_000 + 100 * i + j),
            ]);
        }
    }
    db.add_relation(
        "S",
        Relation::from_rows(Schema::new(["b", "c"]).unwrap(), s_rows).unwrap(),
    )
    .unwrap();

    let rebuilt = CqIndex::build(&q, &db).unwrap();
    let n = rebuilt.count();
    assert!(n > 100);
    rebuilt.access_into(0, &mut scratch).unwrap(); // warm-up on the rebuild
    let ((), allocs) = count_allocations(|| {
        for _ in 0..1000 {
            let j = rng.gen_range(0..n);
            std::hint::black_box(rebuilt.access_into(j, &mut scratch).unwrap());
        }
    });
    assert_eq!(allocs, 0, "rebuilt index allocated with a reused scratch");
}

/// Scratch reuse across differently-shaped queries must stay sound *and*
/// allocation-free once every shape has been visited once.
#[test]
fn scratch_reuse_across_query_shapes_does_not_allocate() {
    let db = skewed_db();
    let queries = [
        "Q(x, y, z) :- R(x, y), S(y, z)",
        "Q(x, y) :- R(x, y)",
        "Q(x, y) :- R(x, y), S(y, z)",
        "Q(y, z) :- S(y, z)",
    ];
    let indexes: Vec<CqIndex> = queries
        .iter()
        .map(|q| CqIndex::build(&q.parse().unwrap(), &db).unwrap())
        .collect();
    let mut scratch = AccessScratch::new();
    // Warm-up round across all shapes.
    for idx in &indexes {
        idx.access_into(0, &mut scratch).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(7);
    let ((), allocs) = count_allocations(|| {
        for _ in 0..200 {
            for idx in &indexes {
                let j = rng.gen_range(0..idx.count());
                std::hint::black_box(idx.access_into(j, &mut scratch).unwrap());
            }
        }
    });
    assert_eq!(allocs, 0, "interleaving shapes reallocated scratch buffers");
}

/// The ordered path (DESIGN.md §11) inherits the zero-allocation
/// discipline: steady-state `ordered_access_into`, the rank descent behind
/// `range_count`/`prefix_bounds`, a seeked constant-delay range scan, and
/// the ordered union merge must all produce answers without touching the
/// heap.
#[test]
fn ordered_paths_do_not_allocate() {
    let db = skewed_db();
    let q: ConjunctiveQuery = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    // ORDER BY z, y, x — the reverse of the default layout's order.
    let order: Vec<Symbol> = ["z", "y", "x"].iter().map(Symbol::new).collect();
    let idx = OrderedCqIndex::build(&q, &db, &order).unwrap();
    let n = idx.count();
    assert!(n > 100);
    let mut scratch = AccessScratch::new();
    let mut rng = StdRng::seed_from_u64(21);

    // --- ordered_access_into ---------------------------------------------
    idx.ordered_access_into(0, &mut scratch).unwrap(); // warm-up
    let ((), allocs) = count_allocations(|| {
        for _ in 0..1000 {
            let k = rng.gen_range(0..n);
            std::hint::black_box(idx.ordered_access_into(k, &mut scratch).unwrap());
        }
    });
    assert_eq!(allocs, 0, "ordered_access_into allocated");

    // --- ordered_inverted_access_of --------------------------------------
    idx.index().prepare_inverted_access();
    let owned: Vec<Vec<Value>> = (0..64)
        .map(|k| idx.ordered_access(k * (n / 64)).unwrap())
        .collect();
    let mut probe = AccessScratch::new();
    idx.ordered_inverted_access_of(&owned[0], &mut probe)
        .unwrap(); // warm-up
    let ((), allocs) = count_allocations(|| {
        for answer in &owned {
            std::hint::black_box(idx.ordered_inverted_access_of(answer, &mut probe).unwrap());
        }
    });
    assert_eq!(allocs, 0, "ordered_inverted_access_of allocated");

    // --- range_count / prefix_bounds (rank descent) ----------------------
    let prefixes: Vec<Vec<Value>> = owned
        .iter()
        .map(|a| {
            idx.order_to_head()[..2]
                .iter()
                .map(|&h| a[h].clone())
                .collect()
        })
        .collect();
    std::hint::black_box(idx.range_count(&prefixes[0]).unwrap()); // warm-up (no-op)
    let ((), allocs) = count_allocations(|| {
        for p in &prefixes {
            std::hint::black_box(idx.range_count(p).unwrap());
            std::hint::black_box(idx.prefix_bounds(p).unwrap());
        }
    });
    assert_eq!(allocs, 0, "the rank descent allocated");

    // --- seeked range scan ------------------------------------------------
    let mut window = idx.range(n / 3..n);
    window.next_ref().unwrap(); // warm-up (cursor buffers built in range())
    let ((), allocs) = count_allocations(|| {
        for _ in 0..500 {
            std::hint::black_box(window.next_ref().unwrap());
        }
    });
    assert_eq!(allocs, 0, "OrderedEnumeration next_ref allocated");

    // --- ordered union merge ----------------------------------------------
    let q2: ConjunctiveQuery = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let idx2 = OrderedCqIndex::build(&q2, &db, &order).unwrap();
    let mut merge = OrderedUnionEnumeration::from_members([&idx, &idx2]).unwrap();
    merge.next_ref().unwrap(); // warm-up
    let ((), allocs) = count_allocations(|| {
        for _ in 0..500 {
            std::hint::black_box(merge.next_ref().unwrap());
        }
    });
    assert_eq!(allocs, 0, "ordered union merge allocated mid-stream");
}

/// A synthesized-plan layout (decomposition-complete realization with a
/// projection root, DESIGN.md §11) must inherit the zero-allocation
/// discipline on ordered access, inverted access, and the rank descent.
#[test]
fn synthesized_projection_plan_paths_do_not_allocate() {
    let mut db = Database::new();
    let mut t_rows = Vec::new();
    let mut u_rows = Vec::new();
    for i in 0..200i64 {
        t_rows.push(vec![Value::Int(i % 7), Value::Int(i), Value::Int(i % 13)]);
        for j in 0..(i % 13 + 1) % 3 {
            u_rows.push(vec![Value::Int(i % 13), Value::Int(10_000 + 10 * i + j)]);
        }
    }
    db.add_relation(
        "T",
        Relation::from_rows(Schema::new(["a", "b", "c"]).unwrap(), t_rows).unwrap(),
    )
    .unwrap();
    db.add_relation(
        "U",
        Relation::from_rows(Schema::new(["c", "d"]).unwrap(), u_rows).unwrap(),
    )
    .unwrap();
    let q: ConjunctiveQuery = "Q(a, b, c, d) :- T(a, b, c), U(c, d)".parse().unwrap();
    // ⟨a, c, d, b⟩ splits T's bag around U's d: only a synthesized plan
    // with the projection root {a,c} can realize it.
    let order: Vec<Symbol> = ["a", "c", "d", "b"].iter().map(Symbol::new).collect();
    let idx = OrderedCqIndex::build(&q, &db, &order).unwrap();
    let n = idx.count();
    assert!(n > 100);
    // The layout genuinely uses a projection node (PR 4 rejected this order).
    assert!(
        idx.index().plan().node_count() > 2,
        "projection node expected"
    );
    let mut scratch = AccessScratch::new();
    let mut rng = StdRng::seed_from_u64(33);

    idx.ordered_access_into(0, &mut scratch).unwrap(); // warm-up
    let ((), allocs) = count_allocations(|| {
        for _ in 0..1000 {
            let k = rng.gen_range(0..n);
            std::hint::black_box(idx.ordered_access_into(k, &mut scratch).unwrap());
        }
    });
    assert_eq!(allocs, 0, "synthesized-plan ordered_access_into allocated");

    idx.index().prepare_inverted_access();
    let owned: Vec<Vec<Value>> = (0..64)
        .map(|k| idx.ordered_access(k * (n / 64)).unwrap())
        .collect();
    let mut probe = AccessScratch::new();
    idx.ordered_inverted_access_of(&owned[0], &mut probe)
        .unwrap(); // warm-up
    let ((), allocs) = count_allocations(|| {
        for answer in &owned {
            std::hint::black_box(idx.ordered_inverted_access_of(answer, &mut probe).unwrap());
        }
    });
    assert_eq!(allocs, 0, "synthesized-plan inverted access allocated");

    // Rank descent over the synthesized layout.
    let prefixes: Vec<Vec<Value>> = owned
        .iter()
        .map(|a| {
            idx.order_to_head()[..2]
                .iter()
                .map(|&h| a[h].clone())
                .collect()
        })
        .collect();
    std::hint::black_box(idx.range_count(&prefixes[0]).unwrap()); // warm-up (no-op)
    let ((), allocs) = count_allocations(|| {
        for p in &prefixes {
            std::hint::black_box(idx.range_count(p).unwrap());
            std::hint::black_box(idx.prefix_bounds(p).unwrap());
        }
    });
    assert_eq!(allocs, 0, "synthesized-plan rank descent allocated");
}

/// The general-union rank structure (RankedUcq, DESIGN.md §11): steady-state
/// ordered access through the union rank descent, inverted access, and
/// range counting must perform zero heap allocations per answer.
#[test]
fn ranked_union_paths_do_not_allocate() {
    let mut db = skewed_db();
    // Overlapping members: Q2's answers are the subset of Q1's whose x is
    // in K, so the non-owned correction lists are exercised, not empty.
    let k_rows: Vec<Vec<Value>> = (0..100i64).map(|i| vec![Value::Int(2 * i)]).collect();
    db.add_relation(
        "K",
        Relation::from_rows(Schema::new(["a"]).unwrap(), k_rows).unwrap(),
    )
    .unwrap();
    let u: UnionQuery = "Q1(x, y, z) :- R(x, y), S(y, z). Q2(x, y, z) :- R(x, y), S(y, z), K(x)."
        .parse()
        .unwrap();
    let order: Vec<Symbol> = ["z", "y", "x"].iter().map(Symbol::new).collect();
    let ranked = RankedUcq::build(&u, &db, &order).unwrap();
    let n = ranked.count();
    assert!(n > 100);
    let mut scratch = RankedScratch::default();
    let mut rng = StdRng::seed_from_u64(55);

    // --- union ordered_access_into ----------------------------------------
    ranked.ordered_access_into(0, &mut scratch).unwrap(); // warm-up
    let ((), allocs) = count_allocations(|| {
        for _ in 0..200 {
            let k = rng.gen_range(0..n);
            std::hint::black_box(ranked.ordered_access_into(k, &mut scratch).unwrap());
        }
    });
    assert_eq!(allocs, 0, "RankedUcq::ordered_access_into allocated");

    // --- union inverted access (hash probes + descents) --------------------
    let owned: Vec<Vec<Value>> = (0..32)
        .map(|k| ranked.ordered_access(k * (n / 32)).unwrap())
        .collect();
    for m in ranked.members() {
        m.index().prepare_inverted_access();
    }
    std::hint::black_box(ranked.ordered_inverted_access_of(&owned[0], &mut scratch)); // warm-up
    let ((), allocs) = count_allocations(|| {
        for answer in &owned {
            std::hint::black_box(
                ranked
                    .ordered_inverted_access_of(answer, &mut scratch)
                    .unwrap(),
            );
        }
    });
    assert_eq!(allocs, 0, "RankedUcq::ordered_inverted_access_of allocated");

    // --- union rank descent (range_count / prefix_bounds) ------------------
    let prefixes: Vec<Vec<Value>> = owned
        .iter()
        .map(|a| {
            let h = ranked.members()[0].order_to_head()[0];
            vec![a[h].clone()]
        })
        .collect();
    std::hint::black_box(ranked.range_count(&prefixes[0]).unwrap()); // warm-up (no-op)
    let ((), allocs) = count_allocations(|| {
        for p in &prefixes {
            std::hint::black_box(ranked.range_count(p).unwrap());
            std::hint::black_box(ranked.prefix_bounds(p).unwrap());
        }
    });
    assert_eq!(allocs, 0, "RankedUcq rank descent allocated");
}

/// The weighted ranked-access path (DESIGN.md §17) inherits the
/// zero-allocation discipline: steady-state `ranked_access_into`, the
/// inverted rank + weight probes, min/max extraction, the weight-band
/// descent, and the weighted window sampler must all serve answers
/// without touching the heap.
#[test]
fn weighted_paths_do_not_allocate() {
    let db = skewed_db();
    let q: ConjunctiveQuery = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    // ORDER BY y, x, z with weights on the ⟨y, x⟩ prefix ({x, y} co-occur
    // in R) — many distinct weight sums, so block boundaries are real.
    let order: Vec<Symbol> = ["y", "x", "z"].iter().map(Symbol::new).collect();
    let mut weights = VarWeights::new();
    for v in 0..17i64 {
        weights.set("y", Value::Int(v), (v as u128 * 7) % 23);
    }
    for v in 0..200i64 {
        weights.set("x", Value::Int(v), (v as u128 * 13) % 31);
    }
    let idx = WeightedCqIndex::build(&q, &db, &order, &weights).unwrap();
    let n = idx.count();
    assert!(n > 100);
    assert!(idx.block_count() > 10, "weights should form many blocks");
    let mut scratch = AccessScratch::new();
    let mut rng = StdRng::seed_from_u64(17);

    // --- ranked_access_into ------------------------------------------------
    idx.ranked_access_into(0, &mut scratch).unwrap(); // warm-up
    let ((), allocs) = count_allocations(|| {
        for _ in 0..1000 {
            let k = rng.gen_range(0..n);
            std::hint::black_box(idx.ranked_access_into(k, &mut scratch).unwrap());
        }
    });
    assert_eq!(allocs, 0, "ranked_access_into allocated");

    // --- inverted rank + weight probes --------------------------------------
    idx.index().index().prepare_inverted_access();
    let owned: Vec<Vec<Value>> = (0..64)
        .map(|k| idx.ranked_access(k * (n / 64)).unwrap())
        .collect();
    let mut probe = AccessScratch::new();
    idx.ranked_inverted_access_of(&owned[0], &mut probe)
        .unwrap(); // warm-up
    let ((), allocs) = count_allocations(|| {
        for answer in &owned {
            std::hint::black_box(idx.ranked_inverted_access_of(answer, &mut probe).unwrap());
            std::hint::black_box(idx.weight_of(answer, &mut probe).unwrap());
        }
    });
    assert_eq!(allocs, 0, "weighted inverted access / weight_of allocated");

    // --- min/max extraction and the weight-band descent ---------------------
    idx.min_answer_into(&mut scratch).unwrap(); // warm-up
    let (lo, hi) = (idx.min_weight().unwrap(), idx.max_weight().unwrap());
    let ((), allocs) = count_allocations(|| {
        for _ in 0..200 {
            std::hint::black_box(idx.min_answer_into(&mut scratch).unwrap());
            std::hint::black_box(idx.max_answer_into(&mut scratch).unwrap());
            let a = rng.gen_range(lo..=hi);
            let b = rng.gen_range(lo..=hi);
            std::hint::black_box(idx.weight_range_count(a.min(b)..a.max(b)));
            std::hint::black_box(idx.weight_at(rng.gen_range(0..n)));
        }
    });
    assert_eq!(
        allocs, 0,
        "min/max extraction or the band descent allocated"
    );

    // --- the weighted window sampler ----------------------------------------
    let sampler = WeightedWindowSampler::new(&idx, 0..n / 2);
    sampler.attempt_into(&mut rng, &mut scratch).unwrap(); // warm-up
    let ((), allocs) = count_allocations(|| {
        for _ in 0..500 {
            std::hint::black_box(sampler.attempt_into(&mut rng, &mut scratch).unwrap());
        }
    });
    assert_eq!(allocs, 0, "WeightedWindowSampler allocated during attempts");
}

/// The zero-copy cold start must preserve the guarantee: an index served
/// straight from borrowed snapshot bytes (`rae_store::load_borrowed`, the
/// node tables are views into the mapped file) answers random access and
/// inverted-access rank descents with zero heap allocations per answer,
/// exactly like the freshly built index above.
#[test]
fn borrowed_snapshot_answer_paths_do_not_allocate() {
    let built = index();
    let dir = std::env::temp_dir().join(format!("rae-zero-alloc-borrowed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("q.{}", rae_store::SNAPSHOT_EXT));
    let archive = rae_store::ArtifactArchive::Cq(built.to_archive());
    rae_store::save(&path, &archive, 1, "Q").unwrap();

    let (artifact, meta) = rae_store::load_borrowed(&path).unwrap();
    assert!(meta.borrowed, "snapshot should serve zero-copy here");
    let rae_store::Artifact::Cq(idx) = artifact else {
        panic!("wrong artifact kind");
    };
    assert!(idx.storage_is_borrowed());

    let n = idx.count();
    assert_eq!(n, built.count());
    let mut scratch = AccessScratch::new();
    let mut rng = StdRng::seed_from_u64(4242);

    // Random access (the Algorithm 2 weighted rank descent) through the
    // mapped bytes.
    idx.access_into(0, &mut scratch).unwrap(); // warm-up
    let ((), allocs) = count_allocations(|| {
        for _ in 0..1000 {
            let j = rng.gen_range(0..n);
            std::hint::black_box(idx.access_into(j, &mut scratch).unwrap());
        }
    });
    assert_eq!(allocs, 0, "borrowed access_into allocated per answer");

    // Inverted access (the Algorithm 4 rank reconstruction) through the
    // same borrowed tables.
    idx.prepare_inverted_access();
    let owned: Vec<Vec<Value>> = (0..64).map(|j| idx.access(j * (n / 64)).unwrap()).collect();
    let mut probe = AccessScratch::new();
    idx.inverted_access_of(&owned[0], &mut probe).unwrap(); // warm-up
    let ((), allocs) = count_allocations(|| {
        for answer in &owned {
            std::hint::black_box(idx.inverted_access_of(answer, &mut probe).unwrap());
        }
    });
    assert_eq!(allocs, 0, "borrowed inverted_access_of allocated per probe");

    drop(idx);
    std::fs::remove_dir_all(&dir).ok();
}

/// The served read paths over a caller-owned scratch: ordered access,
/// inverted access, select and sample perform zero heap allocations on a
/// folded snapshot (the base alone) and on an overlay snapshot (base ⊎
/// delta with tombstones). No fold runs here: folds sweep the process-wide
/// dictionary generation, which this binary's parallel tests must not see.
#[test]
fn served_snapshot_paths_do_not_allocate() {
    let q: ConjunctiveQuery = "Q(x, y, z) :- R(x, y), S(y, z)".parse().unwrap();
    let order: Vec<Symbol> = ["z", "y", "x"].iter().map(Symbol::new).collect();
    let (mut writer, index) =
        ServeWriter::new(q, &skewed_db(), &order, AdmissionPolicy::default()).unwrap();
    let folded = index.snapshot();
    assert_eq!(folded.delta_count(), 0);
    check_served_reads(&folded, "folded");

    let mut batch = Batch::new();
    batch
        .insert("R", vec![Value::Int(9_000), Value::Int(3)])
        .insert("S", vec![Value::Int(5), Value::Int(9_001)])
        .delete("R", vec![Value::Int(5), Value::Int(5)]);
    writer.commit(&batch).unwrap();
    let overlay = index.snapshot();
    assert!(
        overlay.delta_count() > 0,
        "the batch should add delta answers"
    );
    assert!(
        overlay.tombstone_count() > 0,
        "the batch should tombstone answers"
    );
    check_served_reads(&overlay, "overlay");
}

fn check_served_reads(snap: &Snapshot, label: &str) {
    let n = snap.count();
    assert!(n > 100);
    let answers: Vec<Vec<Value>> = (0..n).map(|k| snap.ordered_access(k).unwrap()).collect();
    let mut scratch = RankedScratch::default();
    let mut rng = StdRng::seed_from_u64(61);
    // Warm-up over every rank and answer: sizes both scratch buffers and
    // builds every member's lazy lookup tables.
    for (k, answer) in answers.iter().enumerate() {
        let k = k as Weight;
        assert_eq!(
            snap.ordered_access_into(k, &mut scratch),
            Some(answer.as_slice())
        );
        assert_eq!(
            snap.ordered_inverted_access_of(answer, &mut scratch),
            Some(k)
        );
        snap.select_into(k, &mut scratch).unwrap();
    }
    snap.sample_into(&mut rng, &mut scratch).unwrap();
    let ((), allocs) = count_allocations(|| {
        for _ in 0..500 {
            let k = rng.gen_range(0..n);
            black_box(snap.ordered_access_into(k, &mut scratch).unwrap());
            black_box(snap.select_into(k, &mut scratch).unwrap());
            black_box(snap.sample_into(&mut rng, &mut scratch).unwrap());
        }
        for answer in answers.iter().step_by(7) {
            black_box(
                snap.ordered_inverted_access_of(answer, &mut scratch)
                    .unwrap(),
            );
        }
    });
    assert_eq!(allocs, 0, "{label} snapshot reads allocated");
}

/// Proposition 4.2's reduction copies dictionary codes: its allocations are
/// per relation and per plan node, not per row. Warmed up at each scale,
/// quadrupling the TPC-H database adds at most a few reallocations of
/// buffers that grow by doubling, and the Q3 reduction allocates under once
/// per 100 input rows.
#[test]
fn reduction_allocations_do_not_grow_with_rows() {
    let q = rae_tpch::queries::q3();
    let measure = |sf: f64| {
        let db = rae_tpch::generate(&rae_tpch::TpchScale::from_sf(sf), 1);
        let rows_in: usize = q
            .body()
            .iter()
            .map(|a| db.relation(&a.relation).unwrap().len())
            .sum();
        black_box(reduce_to_full_acyclic(&q, &db).unwrap()); // warm-up
        let (fj, allocs) = count_allocations(|| reduce_to_full_acyclic(&q, &db).unwrap());
        assert!(
            fj.relations.iter().all(|r| !r.is_empty()),
            "sf {sf}: Q3 is empty"
        );
        (allocs, rows_in)
    };
    let (small, small_rows) = measure(0.001);
    let (large, large_rows) = measure(0.004);
    assert!(large_rows >= 3 * small_rows);
    println!("reduce(Q3): {small} allocations at {small_rows} rows, {large} at {large_rows}");
    assert!(
        large <= small + 64,
        "the reduction's allocations grew with the data: {small} at {small_rows} rows, \
         {large} at {large_rows}"
    );
    // At sf 0.001 the fixed cost (classification and two GYO join trees,
    // about 160 allocations) still outweighs 1% of the 7.5k rows; at sf 0.004
    // it does not, while one allocation per row would exceed it 100-fold.
    assert!(
        (large as usize) * 100 < large_rows,
        "{large} allocations for {large_rows} input rows: not below one per 100 rows"
    );
}

/// Realizing an archive allocates per plan node, never per row or per
/// bucket: the value table is interned into one code buffer, each node's
/// relation, key buffer and radix-sort order are sized once, and no lookup
/// table is built. Warmed up at each scale, realizing Q3 performs exactly
/// as many allocations at sf 0.004 as at sf 0.001 — both for
/// `CqIndex::from_archive` of a `to_archive()` output and for the cold
/// start itself, a saved snapshot decoded by
/// `rae_store::load_archive_borrowed` and then realized over views into
/// the mapped file.
#[test]
fn archive_realize_allocations_do_not_grow_with_rows() {
    let q = rae_tpch::queries::q3();
    let dir = std::env::temp_dir().join(format!("rae-zero-alloc-realize-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let measure = |sf: f64| {
        let db = rae_tpch::generate(&rae_tpch::TpchScale::from_sf(sf), 1);
        let archive = CqIndex::build(&q, &db).unwrap().to_archive();
        let rows: u32 = archive.nodes.iter().map(|n| n.rows).sum();
        let buckets: usize = archive.nodes.iter().map(|n| n.buckets.len()).sum();
        black_box(CqIndex::from_archive(archive.clone()).unwrap()); // warm-up
        let copy = archive.clone();
        let (idx, allocs) = count_allocations(|| CqIndex::from_archive(copy).unwrap());
        assert!(idx.count() > 0, "sf {sf}: Q3 is empty");

        let path = dir.join(format!("q3-{sf}.{}", rae_store::SNAPSHOT_EXT));
        rae_store::save(&path, &rae_store::ArtifactArchive::Cq(archive), 1, "Q3").unwrap();
        let load = || {
            let (archive, meta) = rae_store::load_archive_borrowed(&path).unwrap();
            assert!(meta.borrowed, "sf {sf}: snapshot should decode zero-copy");
            archive
        };
        black_box(load().realize().unwrap()); // warm-up
        let loaded = load();
        let (artifact, borrowed_allocs) = count_allocations(|| loaded.realize().unwrap());
        let rae_store::Artifact::Cq(idx) = artifact else {
            panic!("wrong artifact kind");
        };
        assert!(idx.storage_is_borrowed() && idx.count() > 0);
        (allocs, borrowed_allocs, rows, buckets)
    };
    let (small, small_borrowed, small_rows, small_buckets) = measure(0.001);
    let (large, large_borrowed, large_rows, large_buckets) = measure(0.004);
    std::fs::remove_dir_all(&dir).ok();
    assert!(large_rows >= 3 * small_rows && large_buckets >= 3 * small_buckets);
    println!(
        "from_archive(Q3): {small} allocations at {small_rows} rows / {small_buckets} buckets, \
         {large} at {large_rows} rows / {large_buckets} buckets; borrowed snapshot realize: \
         {small_borrowed} and {large_borrowed}"
    );
    assert_eq!(
        small, large,
        "realizing an archive allocated per row or per bucket: {small} allocations at \
         {small_rows} rows, {large} at {large_rows}"
    );
    assert_eq!(
        small_borrowed, large_borrowed,
        "realizing a borrowed snapshot allocated per row or per bucket: {small_borrowed} \
         allocations at {small_rows} rows, {large_borrowed} at {large_rows}"
    );
}
