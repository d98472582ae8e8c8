//! The machine-readable performance baseline (`BENCH_1.json`).
//!
//! `repro bench-json` measures the answer-production hot paths — seed-style
//! allocating baselines vs. today's scratch paths — plus sampler throughput
//! and per-answer allocation counts, and emits one JSON document so future
//! PRs have a recorded trajectory to compare against. Schema:
//!
//! ```json
//! {
//!   "schema": "rae-bench-v1",
//!   "config": { "sf": 0.01, "seed": 42, "query": "q3", "answers": 123 },
//!   "access": { "seed_baseline_ns": ..., "allocating_ns": ...,
//!                "scratch_ns": ..., "speedup_vs_seed": ... },
//!   "inverted_access": { ... },
//!   "enumeration": { "access_based_ns": ..., "cursor_ns": ...,
//!                     "cursor_ref_ns": ..., "speedup_vs_access_based": ... },
//!   "samplers": { "EW": { "samples_per_sec": ... }, ... },
//!   "allocations_per_answer": { "access_into": 0, ... }
//! }
//! ```
//!
//! All `*_ns` figures are **median** per-operation wall-clock nanoseconds.
//! Allocation counts are exact only when the caller installs
//! [`crate::alloc_counter::CountingAllocator`] as the global allocator (the
//! `repro` binary does); otherwise they are reported as `null`.

use crate::alloc_counter;
use crate::baseline::{access_seed_style, SeedInvertedAccess};
use crate::setup::BenchConfig;
use rae_core::{AccessScratch, CqIndex, Weight};
use rae_sampler::{EoSampler, EwSampler, JoinSampler, OeSampler, RsSampler};
use rae_tpch::queries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// Median per-op nanoseconds of `op`, over `samples` timed batches.
fn median_ns(mut op: impl FnMut(), batch: u32, samples: u32) -> f64 {
    // Warm-up.
    for _ in 0..batch {
        op();
    }
    let mut per_op: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                op();
            }
            start.elapsed().as_nanos() as f64 / f64::from(batch)
        })
        .collect();
    per_op.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    per_op[per_op.len() / 2]
}

/// Allocations per call of `op` (averaged over `calls`), or `None` when no
/// counting allocator is installed.
fn allocs_per_call(mut op: impl FnMut(), calls: u32) -> Option<f64> {
    // Detect whether the counting allocator is live: force an allocation.
    let ((), probe) = alloc_counter::count_allocations(|| {
        std::hint::black_box(Vec::<u64>::with_capacity(16));
    });
    if probe == 0 {
        return None;
    }
    for _ in 0..16 {
        op(); // warm-up to steady state
    }
    let ((), allocs) = alloc_counter::count_allocations(|| {
        for _ in 0..calls {
            op();
        }
    });
    Some(allocs as f64 / f64::from(calls))
}

fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.2}")
    } else {
        "null".to_string()
    }
}

fn json_opt(value: Option<f64>) -> String {
    value.map_or_else(|| "null".to_string(), json_f64)
}

/// Runs the measurements and renders `BENCH_1.json`'s contents.
pub fn bench_json(cfg: &BenchConfig) -> String {
    let db = cfg.build_db();
    let q3 = queries::q3();
    let idx = CqIndex::build(&q3, &db).expect("q3 builds");
    idx.prepare_inverted_access();
    let n = idx.count();
    assert!(n > 0, "bench query has answers");

    let samples = 30u32;
    let batch = 2000u32;
    let mut rng = StdRng::seed_from_u64(7);
    let mut scratch = AccessScratch::new();
    let mut probe = AccessScratch::new();

    // --- access ----------------------------------------------------------
    let mut rng_a = StdRng::seed_from_u64(7);
    let access_seed_ns = median_ns(
        || {
            let j = rng_a.gen_range(0..n);
            std::hint::black_box(access_seed_style(&idx, j));
        },
        batch,
        samples,
    );
    let mut rng_b = StdRng::seed_from_u64(7);
    let access_alloc_ns = median_ns(
        || {
            let j = rng_b.gen_range(0..n);
            std::hint::black_box(idx.access(j));
        },
        batch,
        samples,
    );
    let mut rng_c = StdRng::seed_from_u64(7);
    let access_scratch_ns = {
        let scratch = &mut scratch;
        median_ns(
            || {
                let j = rng_c.gen_range(0..n);
                std::hint::black_box(idx.access_into(j, scratch).is_some());
            },
            batch,
            samples,
        )
    };

    // --- inverted access --------------------------------------------------
    let seed_inv = SeedInvertedAccess::new(&idx);
    let mut rng_d = StdRng::seed_from_u64(9);
    let inv_seed_ns = {
        let scratch = &mut scratch;
        median_ns(
            || {
                let j = rng_d.gen_range(0..n);
                let ans = idx.access_into(j, scratch).expect("in range");
                std::hint::black_box(seed_inv.inverted_access(ans));
            },
            batch,
            samples,
        )
    };
    let mut rng_e = StdRng::seed_from_u64(9);
    let inv_scratch_ns = {
        let scratch = &mut scratch;
        let probe = &mut probe;
        median_ns(
            || {
                let j = rng_e.gen_range(0..n);
                let ans = idx.access_into(j, scratch).expect("in range");
                std::hint::black_box(idx.inverted_access_of(ans, probe));
            },
            batch,
            samples,
        )
    };

    // --- enumeration (delay per answer over a prefix) ----------------------
    let prefix = (n / 4).clamp(1, 50_000) as usize;
    let enum_access_ns = median_ns(
        || {
            std::hint::black_box(idx.enumerate().take(prefix).count());
        },
        4,
        9,
    ) / prefix as f64;
    let enum_cursor_ns = median_ns(
        || {
            std::hint::black_box(idx.sequential().take(prefix).count());
        },
        4,
        9,
    ) / prefix as f64;
    let enum_cursor_ref_ns = median_ns(
        || {
            let mut cursor = idx.sequential();
            let mut emitted = 0usize;
            while emitted < prefix && cursor.next_ref().is_some() {
                emitted += 1;
            }
            std::hint::black_box(emitted);
        },
        4,
        9,
    ) / prefix as f64;

    // --- sampler throughput ------------------------------------------------
    let mut sampler_entries = String::new();
    {
        let ew = EwSampler::new(&idx);
        let eo = EoSampler::new(&idx);
        let oe = OeSampler::new(&idx);
        let rs = RsSampler::new(&idx);
        let mut measure = |name: &str, mut one: Box<dyn FnMut() + '_>, comma: bool| {
            let ns = median_ns(&mut *one, batch, samples);
            let _ = writeln!(
                sampler_entries,
                "    \"{name}\": {{ \"median_sample_ns\": {}, \"samples_per_sec\": {} }}{}",
                json_f64(ns),
                json_f64(1e9 / ns),
                if comma { "," } else { "" }
            );
        };
        let s1 = &mut AccessScratch::new();
        measure(
            "EW",
            Box::new(|| {
                std::hint::black_box(ew.sample_into(&mut rng, s1).is_some());
            }),
            true,
        );
        let mut rng2 = StdRng::seed_from_u64(11);
        let s2 = &mut AccessScratch::new();
        measure(
            "EO",
            Box::new(|| {
                std::hint::black_box(eo.sample_into(&mut rng2, s2).is_some());
            }),
            true,
        );
        let mut rng3 = StdRng::seed_from_u64(12);
        let s3 = &mut AccessScratch::new();
        measure(
            "OE",
            Box::new(|| {
                std::hint::black_box(oe.sample_into(&mut rng3, s3).is_some());
            }),
            true,
        );
        let mut rng4 = StdRng::seed_from_u64(13);
        let s4 = &mut AccessScratch::new();
        measure(
            "RS",
            Box::new(|| {
                std::hint::black_box(rs.sample_into(&mut rng4, s4).is_some());
            }),
            false,
        );
    }

    // --- allocation accounting --------------------------------------------
    let mut rng_f = StdRng::seed_from_u64(3);
    let allocs_access_into = {
        let scratch = &mut scratch;
        allocs_per_call(
            || {
                let j = rng_f.gen_range(0..n);
                std::hint::black_box(idx.access_into(j, scratch).is_some());
            },
            1000,
        )
    };
    let mut rng_g = StdRng::seed_from_u64(3);
    let allocs_access = allocs_per_call(
        || {
            let j = rng_g.gen_range(0..n);
            std::hint::black_box(idx.access(j));
        },
        1000,
    );
    let mut rng_h = StdRng::seed_from_u64(3);
    let allocs_seed = allocs_per_call(
        || {
            let j = rng_h.gen_range(0..n);
            std::hint::black_box(access_seed_style(&idx, j));
        },
        1000,
    );
    let allocs_sampler_eo = {
        let eo = EoSampler::new(&idx);
        let scratch = &mut scratch;
        let mut rng = StdRng::seed_from_u64(21);
        allocs_per_call(
            || {
                std::hint::black_box(eo.attempt_into(&mut rng, scratch).is_some());
            },
            1000,
        )
    };

    format!(
        "{{\n\
         \x20 \"schema\": \"rae-bench-v1\",\n\
         \x20 \"config\": {{ \"sf\": {}, \"seed\": {}, \"query\": \"q3\", \"answers\": {} }},\n\
         \x20 \"access\": {{\n\
         \x20   \"seed_baseline_ns\": {},\n\
         \x20   \"allocating_ns\": {},\n\
         \x20   \"scratch_ns\": {},\n\
         \x20   \"speedup_vs_seed\": {},\n\
         \x20   \"speedup_vs_allocating\": {}\n\
         \x20 }},\n\
         \x20 \"inverted_access\": {{\n\
         \x20   \"seed_baseline_ns\": {},\n\
         \x20   \"scratch_ns\": {},\n\
         \x20   \"speedup_vs_seed\": {}\n\
         \x20 }},\n\
         \x20 \"enumeration\": {{\n\
         \x20   \"access_based_ns\": {},\n\
         \x20   \"cursor_ns\": {},\n\
         \x20   \"cursor_ref_ns\": {},\n\
         \x20   \"speedup_vs_access_based\": {}\n\
         \x20 }},\n\
         \x20 \"samplers\": {{\n\
         {}\
         \x20 }},\n\
         \x20 \"allocations_per_answer\": {{\n\
         \x20   \"access_seed_baseline\": {},\n\
         \x20   \"access_allocating\": {},\n\
         \x20   \"access_into\": {},\n\
         \x20   \"eo_attempt_into\": {}\n\
         \x20 }}\n\
         }}\n",
        cfg.sf,
        cfg.seed,
        n,
        json_f64(access_seed_ns),
        json_f64(access_alloc_ns),
        json_f64(access_scratch_ns),
        json_f64(access_seed_ns / access_scratch_ns),
        json_f64(access_alloc_ns / access_scratch_ns),
        json_f64(inv_seed_ns),
        json_f64(inv_scratch_ns),
        json_f64(inv_seed_ns / inv_scratch_ns),
        json_f64(enum_access_ns),
        json_f64(enum_cursor_ns),
        json_f64(enum_cursor_ref_ns),
        json_f64(enum_access_ns / enum_cursor_ref_ns),
        sampler_entries,
        json_opt(allocs_seed),
        json_opt(allocs_access),
        json_opt(allocs_access_into),
        json_opt(allocs_sampler_eo),
    )
}

/// `count()` helper used by the enumeration measurements so the estimate
/// scales with the instance.
#[allow(dead_code)]
fn answers(idx: &CqIndex) -> Weight {
    idx.count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_is_well_formed() {
        // Tiny scale so the test stays fast; structure is what matters.
        let cfg = BenchConfig {
            sf: 0.0005,
            seed: 42,
        };
        let json = bench_json(&cfg);
        assert!(json.contains("\"schema\": \"rae-bench-v1\""));
        assert!(json.contains("\"access\""));
        assert!(json.contains("\"samplers\""));
        assert!(json.contains("\"EW\""));
        // Balanced braces.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }
}
