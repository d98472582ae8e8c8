//! In-memory tracing recorded by the benchmark around its own calls into
//! each crate's public functions (the crates themselves are not
//! instrumented).
//!
//! A span is a named interval with a parent and a phase id; spans of one
//! workload phase (setup, a round of reads, a fold cycle, ...) share the
//! phase id. Hot per-operation calls are too many to keep one by one, so
//! they are kept as aggregated leaf spans: a count and a total per name,
//! charged to the enclosing span. Everything stays in memory and is
//! written out once, when the run ends.
//!
//! Span names are `<layer>.<operation>`; a layer's self time is the
//! duration of its spans minus the part covered by their children.
//!
//! The client is single-threaded, so the tracer is thread-local. With
//! tracing off every entry point returns after one flag check.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    phase: u32,
    /// Time covered by child spans and aggregated child operations.
    child_ns: u64,
}

#[derive(Default, Clone, Copy)]
struct OpTotal {
    count: u64,
    total_ns: u64,
}

struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: Vec<(&'static str, OpTotal)>,
    phases: Vec<&'static str>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        ops: Vec::new(),
        phases: vec!["start"],
    });
}

/// Turns recording on or off (spans already open still close normally).
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

/// Starts a new workload phase: spans opened from now on carry its id.
pub fn phase(name: &'static str) {
    TRACER.with(|t| t.borrow_mut().phases.push(name));
}

/// Runs `f` inside a span named `name` (a child of the innermost open span).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(id) = open(name) else {
        return f();
    };
    let out = f();
    close(id);
    out
}

fn open(name: &'static str) -> Option<usize> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let id = t.spans.len();
        let span = Span {
            name,
            start_ns: t.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: t.open.last().copied(),
            phase: (t.phases.len() - 1) as u32,
            child_ns: 0,
        };
        t.spans.push(span);
        t.open.push(id);
        Some(id)
    })
}

fn close(id: usize) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end = t.origin.elapsed().as_nanos() as u64;
        t.open.retain(|&o| o != id);
        let span = &mut t.spans[id];
        span.end_ns = end;
        let (dur, parent) = (end - span.start_ns, span.parent);
        if let Some(p) = parent {
            t.spans[p].child_ns += dur;
        }
    });
}

/// Records one hot-path call of `ns` nanoseconds as part of the aggregated
/// leaf span `name`, charged to the innermost open span.
pub fn op(name: &'static str, ns: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return;
        }
        if let Some(&p) = t.open.last() {
            t.spans[p].child_ns += ns;
        }
        match t.ops.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => {
                total.count += 1;
                total.total_ns += ns;
            }
            None => t.ops.push((
                name,
                OpTotal {
                    count: 1,
                    total_ns: ns,
                },
            )),
        }
    });
}

/// Durations in seconds of every recorded span named `name`.
pub fn durations_s(name: &str) -> Vec<f64> {
    TRACER.with(|t| {
        t.borrow()
            .spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    })
}

fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time in seconds per layer over the whole run: span durations minus
/// their children's, plus aggregated operations (always leaves).
pub fn self_time_by_layer() -> BTreeMap<String, f64> {
    TRACER.with(|t| {
        let t = t.borrow();
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for s in &t.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(s.child_ns);
            *out.entry(layer(s.name).to_string()).or_default() += own as f64 * 1e-9;
        }
        for (name, total) in &t.ops {
            *out.entry(layer(name).to_string()).or_default() += total.total_ns as f64 * 1e-9;
        }
        out
    })
}

/// Writes every span, aggregated operation and self time as JSON lines,
/// after a header line holding `fingerprint` (a JSON object).
pub fn write_jsonl(path: &std::path::Path, fingerprint: &str) -> std::io::Result<()> {
    let mut out = String::new();
    let _ = writeln!(out, "{{\"type\":\"fingerprint\",\"value\":{fingerprint}}}");
    TRACER.with(|t| {
        let t = t.borrow();
        for (id, name) in t.phases.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"type\":\"phase\",\"id\":{id},\"name\":\"{name}\"}}"
            );
        }
        for (id, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"phase\":{}}}",
                s.name, s.start_ns, s.end_ns, s.phase
            );
        }
        for (name, total) in &t.ops {
            let _ = writeln!(
                out,
                "{{\"type\":\"op\",\"name\":\"{name}\",\"count\":{},\"total_ns\":{}}}",
                total.count, total.total_ns
            );
        }
    });
    for (layer, secs) in self_time_by_layer() {
        let _ = writeln!(
            out,
            "{{\"type\":\"self_time\",\"layer\":\"{layer}\",\"seconds\":{secs}}}"
        );
    }
    std::fs::write(path, out)
}
