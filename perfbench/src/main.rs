//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <cq-q3|serve-churn|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up its query
//! structures from the in-memory database, then runs a closed loop with one
//! client thread for `--seconds`: the next call is issued only when the
//! previous one returned, and no other thread runs during a timed region.
//! Every timed answer is verified. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The lines before it are a readable report with the run's
//! fingerprint. A failed check makes the exit code 1.
//!
//! `--workload all` runs the workloads one after another, each in its
//! own process: the value dictionary is process-global, so sharing a
//! process would leak interned values and peak memory across workloads.
//!
//! Metric meanings per workload, and which end-to-end metric each
//! per-layer metric should move, are listed in `perfbench/metrics.json`.

mod cq_q3;
mod serve_churn;
mod spec;
mod trace;
mod union;
mod util;

use spec::Spec;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use util::{json_str, Ctx, OUT_DIR};

const USAGE: &str = "usage: perfbench --workload <cq-q3|serve-churn|all> \
                     --seed <u64> --seconds <positive number> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !spec.workloads.contains(&value) {
                    return Err(bad("unknown workload"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected a number in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Build and ingest threads. Set-up and folds are timed, and in a timed
/// region only the client thread runs; a second build thread would also make
/// set-up depend on whether another core happens to be free.
const BUILD_THREADS: usize = 1;

fn fingerprint(ctx: &Ctx, workload: &str) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"workload\":{},\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"commit\":{},\
         \"profile\":{},\"seed\":{},\"seconds\":{},\"build_threads\":{},\"ingest_threads\":{},\
         \"tracing\":{}",
        json_str(workload),
        util::nproc(),
        json_str(&util::cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&util::commit()),
        json_str(env!("PERFBENCH_PROFILE")),
        ctx.seed,
        ctx.seconds,
        ctx.build_threads,
        ctx.build_threads,
        ctx.tracing
    );
    for (name, value) in ctx.facts() {
        let _ = write!(out, ",{}:{}", json_str(name), json_str(value));
    }
    out.push('}');
    out
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn run_one(spec: &Spec, args: &Args) -> ExitCode {
    let threads = BUILD_THREADS;
    // Builds inside the library that take `BuildOptions::default()` (the
    // serving writer's base and fold builds) read their thread count here.
    std::env::set_var(rae_core::BUILD_THREADS_ENV, threads.to_string());
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace, threads);
    trace::set_enabled(args.trace);
    match args.workload.as_str() {
        "cq-q3" => cq_q3::run(&mut ctx),
        "serve-churn" => serve_churn::run(&mut ctx),
        other => unreachable!("workload {other} was validated"),
    }
    ctx.e2e("setup_s", ctx.setups.p50() * 1e-9);
    ctx.e2e("peak_rss_mb", util::peak_rss_mb());
    util::record_setup_layers(&mut ctx);
    trace::set_enabled(false);
    ctx.remove_scratch();

    let fp = fingerprint(&ctx, &args.workload);
    println!("fingerprint {fp}");
    for (name, unit) in &spec.end_to_end {
        if let Some(v) = ctx.e2e_value(name) {
            println!("e2e {name} = {v} {unit}");
        }
    }
    let error_ratio = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    println!(
        "e2e error_ratio = {error_ratio} 1 ({} of {})",
        ctx.failed, ctx.attempted
    );

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        for (layer, secs) in trace::self_time_by_layer() {
            ctx.self_time(&layer, secs);
        }
        let path = std::path::Path::new(OUT_DIR)
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(OUT_DIR).and_then(|()| trace::write_jsonl(&path, &fp));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
        }
        spec.per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str(), ctx.layer_value(n).unwrap_or(0.0)))
            .collect()
    } else {
        spec.end_to_end
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str(), ctx.e2e_value(n).unwrap_or(f64::NAN)))
            .collect()
    };
    // A metric the program records must be listed in BENCHMARK.json.
    let unlisted: Vec<String> = ctx
        .recorded()
        .filter(|n| spec.unit(n).is_none())
        .map(str::to_string)
        .collect();
    for name in unlisted {
        ctx.check(false, || {
            format!("metric {name} is not listed in BENCHMARK.json")
        });
    }
    for (name, unit, v) in &metrics {
        if args.trace {
            println!("layer {name} = {v} {unit}");
        }
        if !v.is_finite() {
            ctx.check(false, || format!("metric {name} was not measured"));
        }
    }
    let correct = ctx.failed == 0;
    if correct {
        println!("{}", result_line(true, ctx.attempted, ctx.failed, &metrics));
        ExitCode::SUCCESS
    } else {
        let finite: Vec<_> = metrics.into_iter().filter(|m| m.2.is_finite()).collect();
        println!("{}", result_line(false, ctx.attempted, ctx.failed, &finite));
        ExitCode::from(1)
    }
}

/// Runs every workload in a child process of its own and combines their
/// result lines, prefixing each metric with its workload.
fn run_all(spec: &Spec, args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut combined = String::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for w in &spec.workloads {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot run workload {w}: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines() {
            println!("[{w}] {line}");
        }
        let Some(last) = stdout.lines().last().filter(|l| l.starts_with('{')) else {
            eprintln!("perfbench: workload {w} printed no result");
            return ExitCode::from(1);
        };
        correct &= out.status.success() && last.contains("\"correct\": true");
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|r| r.split(',').next())
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        if let Some(body) = last.split("\"metrics\": {").nth(1) {
            let body = body.trim_end_matches('}');
            for entry in body.split("}, ").filter(|e| !e.is_empty()) {
                let entry = entry.trim_end_matches('}');
                let sep = if combined.is_empty() { "" } else { ", " };
                let _ = write!(combined, "{sep}\"{w}/{}}}", entry.trim_start_matches('"'));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{combined}}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let spec = match Spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let args = match parse_args(&spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&spec, &args)
    } else {
        run_one(&spec, &args)
    }
}
