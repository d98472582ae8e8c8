//! Run context, statistics and machine facts shared by the workloads.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per set-up round (see `Ctx::timed_setups`).
pub const SETUP_ROUND: usize = 3;

/// Where a run writes its temporary files (snapshots) and its trace,
/// relative to the directory the benchmark runs from.
pub const OUT_DIR: &str = ".perfbench";

/// State of one workload run: arguments, verification tallies, and the
/// metrics gathered so far.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracing: bool,
    /// Threads for every index build and bulk ingest (explicit, never auto).
    pub build_threads: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Set-up times in rounds of `SETUP_ROUND`; `setup_s` is the median
    /// of the best round.
    pub setups: Rounds,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    self_times: BTreeMap<String, f64>,
    facts: Vec<(&'static str, String)>,
    scratch: PathBuf,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, tracing: bool, build_threads: usize) -> Self {
        let scratch = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
        Ctx {
            seed,
            seconds,
            tracing,
            build_threads,
            attempted: 0,
            failed: 0,
            setups: Rounds::default(),
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            self_times: BTreeMap::new(),
            facts: Vec::new(),
            scratch,
        }
    }

    /// Counts one verified operation; a failed check is counted and the
    /// first few are described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
        ok
    }

    /// Times one round of `SETUP_ROUND` set-ups run back to back, each from
    /// the in-memory database until the first answer can be served, and
    /// keeps the last. Each set-up's structures are dropped before the next
    /// is built, so the peak holds one copy.
    pub fn timed_setups<T>(&mut self, mut f: impl FnMut(&mut Ctx) -> T) -> T {
        crate::trace::phase("setup");
        let mut times = Vec::with_capacity(SETUP_ROUND);
        let mut built = None;
        for _ in 0..SETUP_ROUND {
            drop(built.take());
            let start = Instant::now();
            built = Some(crate::trace::span("bench.setup", || f(self)));
            times.push(ns_since(start));
        }
        self.setups.push(&mut times);
        built.expect("a set-up round builds")
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.get(name).copied()
    }

    /// Records a per-layer metric (reported by traced runs only).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers
            .get(name)
            .or_else(|| self.self_times.get(name))
            .copied()
    }

    /// Records a layer's self time as `self.<layer>_s`.
    pub fn self_time(&mut self, layer: &str, secs: f64) {
        self.self_times.insert(format!("self.{layer}_s"), secs);
    }

    /// Names of every metric recorded so far.
    pub fn recorded(&self) -> impl Iterator<Item = &str> {
        self.e2e
            .keys()
            .chain(self.layers.keys())
            .copied()
            .chain(self.self_times.keys().map(String::as_str))
    }

    /// Records an input size or configuration fact for the report.
    pub fn fact(&mut self, name: &'static str, value: impl Display) {
        self.facts.push((name, value.to_string()));
    }

    pub fn facts(&self) -> &[(&'static str, String)] {
        &self.facts
    }

    /// The end of the timed part of the run.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// A private directory for this run's files, created on first use.
    pub fn scratch_dir(&self) -> PathBuf {
        std::fs::create_dir_all(&self.scratch).expect("create the run's scratch directory");
        self.scratch.clone()
    }

    pub fn remove_scratch(&self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Median of a non-empty list (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of sorted samples, interpolated between closest ranks.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let frac = rank - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Per-round latency summaries of one timed operation. Every phase is split
/// into short rounds, and a metric is the best round: the lowest per-round
/// p50 or p90, the highest per-round rate. The shared host runs faster and
/// slower for stretches of milliseconds to minutes; the best of many short
/// rounds reads the code's speed in the host's quiet moments, which every
/// run has, while a median across rounds reads how much of the run the
/// host was busy.
#[derive(Default)]
pub struct Rounds {
    p50: Vec<f64>,
    p90: Vec<f64>,
    rate: Vec<f64>,
    samples: u64,
}

impl Rounds {
    /// Summarizes one round's samples (nanoseconds each) and clears them.
    pub fn push(&mut self, samples: &mut Vec<u64>) {
        if samples.is_empty() {
            return;
        }
        samples.sort_unstable();
        self.p50.push(quantile(samples, 0.5));
        self.p90.push(quantile(samples, 0.9));
        let total: u64 = samples.iter().sum();
        self.rate
            .push(samples.len() as f64 / (total.max(1) as f64 * 1e-9));
        self.samples += samples.len() as u64;
        samples.clear();
    }

    pub fn rounds(&self) -> usize {
        self.p50.len()
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The lowest per-round median.
    pub fn p50(&self) -> f64 {
        lowest(&self.p50)
    }

    /// The lowest per-round 90th percentile.
    pub fn p90(&self) -> f64 {
        lowest(&self.p90)
    }

    /// The highest per-round rate: operations per second of operation time.
    pub fn rate(&self) -> f64 {
        assert!(!self.rate.is_empty(), "no rounds");
        self.rate.iter().copied().fold(0.0, f64::max)
    }
}

fn lowest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no rounds");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// SplitMix64 step: derives independent per-round seeds from the workload
/// seed, so every round's inputs follow from `--seed` alone.
pub fn derive_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Process high-water resident set size (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the directory the benchmark runs from, or
/// `unknown` outside a git checkout. Git is kept from searching above that
/// directory.
pub fn commit() -> String {
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd.as_deref().and_then(std::path::Path::parent);
    let mut git = std::process::Command::new("git");
    git.args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null());
    if let Some(ceiling) = ceiling {
        git.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    git.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Total duration of the spans named `span` divided by `setups` (traced
/// runs only).
pub fn record_per_setup(
    ctx: &mut Ctx,
    metric: &'static str,
    span: &str,
    setups: usize,
    scale: f64,
) {
    let d = crate::trace::durations_s(span);
    if !d.is_empty() {
        ctx.layer(metric, d.iter().sum::<f64>() / setups as f64 * scale);
    }
}

/// Tracing overhead: traced runs alternate tracing on and off per round of
/// the main access phase and time each whole round (the timed calls, their
/// checks, and the recording of spans and operations). The overhead is the
/// best traced round's time per operation against the best untraced
/// round's, with both bases reported.
#[derive(Default)]
pub struct OverheadProbe {
    traced: Vec<f64>,
    untraced: Vec<f64>,
    on: bool,
    start: Option<Instant>,
}

impl OverheadProbe {
    pub fn begin(&mut self, ctx: &Ctx, round: u64) {
        if ctx.tracing {
            self.on = round.is_multiple_of(2);
            crate::trace::set_enabled(self.on);
            self.start = Some(Instant::now());
        }
    }

    /// Closes a round of `ops` operations.
    pub fn end(&mut self, ops: usize) {
        let Some(start) = self.start.take() else {
            return;
        };
        let per_op = ns_since(start) as f64 / ops.max(1) as f64;
        if self.on {
            self.traced.push(per_op);
        } else {
            self.untraced.push(per_op);
        }
        crate::trace::set_enabled(true);
    }

    pub fn record(&self, ctx: &mut Ctx) {
        if self.traced.is_empty() || self.untraced.is_empty() {
            return;
        }
        let (t, u) = (lowest(&self.traced), lowest(&self.untraced));
        ctx.layer("trace.op_traced_ns", t);
        ctx.layer("trace.op_untraced_ns", u);
        ctx.layer("trace.overhead_pct", (t - u) / u * 100.0);
    }
}

/// Splits a cold start into its store steps (traced runs only): checksum
/// pass, borrowed map + decode, and semantic validation + interning.
pub fn record_store_split(ctx: &mut Ctx, paths: &[PathBuf], file_len: u64) {
    ctx.layer("store.file_mb", file_len as f64 / 1e6);
    if !ctx.tracing {
        return;
    }
    // The structure is saved once per run.
    record_per_setup(ctx, "store.to_archive_s", "store.to_archive", 1, 1.0);
    record_per_setup(ctx, "store.save_s", "store.save", 1, 1.0);
    let (mut verify, mut load, mut realize) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let (mut v, mut l, mut r) = (0.0, 0.0, 0.0);
        for path in paths {
            let start = Instant::now();
            let ok = rae_store::verify(path).is_ok();
            v += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let archive = rae_store::load_archive_borrowed(path);
            l += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let realized = archive.map(|(a, _)| a.realize());
            r += start.elapsed().as_secs_f64();
            ctx.check(ok && matches!(realized, Ok(Ok(_))), || {
                format!("{} fails a store step", path.display())
            });
        }
        verify.push(v);
        load.push(l);
        realize.push(r);
    }
    ctx.layer("store.verify_s", median(&verify));
    ctx.layer("store.load_archive_s", median(&load));
    ctx.layer("store.realize_s", median(&realize));
}

/// Per-set-up layer metrics from the spans every workload's set-up records.
pub fn record_setup_layers(ctx: &mut Ctx) {
    let setups = (ctx.setups.samples() as usize).max(1);
    for (metric, span, scale) in [
        ("query.plan_us", "query.plan", 1e6),
        ("yannakakis.reduce_s", "yannakakis.reduce", 1.0),
        ("core.build_s", "core.build", 1.0),
        ("core.prepare_inverted_s", "core.prepare_inverted", 1.0),
        ("serve.new_s", "serve.new", 1.0),
    ] {
        record_per_setup(ctx, metric, span, setups, scale);
    }
    record_per_setup(ctx, "tpch.generate_s", "tpch.generate", 1, 1.0);
}

/// Spreads set-up rounds over the timed run: after the first, the
/// structures are rebuilt `reps - 1` more times at equal intervals. Set-up
/// time then samples the machine at many moments, as the latency rounds
/// do, and the timed calls run over many independently allocated copies.
pub struct Rebuilds {
    every: Duration,
    next: Instant,
    left: usize,
}

impl Rebuilds {
    pub fn new(ctx: &Ctx, reps: usize) -> Self {
        let every = Duration::from_secs_f64(ctx.seconds / reps as f64);
        Rebuilds {
            every,
            next: Instant::now() + every,
            left: reps - 1,
        }
    }

    /// Whether the next rebuild is due (at most `reps - 1` times).
    pub fn due(&mut self) -> bool {
        if self.left == 0 || Instant::now() < self.next {
            return false;
        }
        self.left -= 1;
        self.next += self.every;
        true
    }
}
