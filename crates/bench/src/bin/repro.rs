//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--sf <scale>] [--seed <seed>] <command> [<command> ...]
//!
//! commands:
//!   fig1 fig2 fig3 fig4a fig4b fig5 fig6 fig7 fig8
//!   rs-note ablation-delete ablation-binary ablation-fold
//!   all          every figure + ablations (at the configured scale)
//! ```
//!
//! The default scale factor is 0.01 (≈130k tuples, seconds per figure);
//! the paper used sf 5 on a large server. Shapes, not absolute numbers, are
//! the reproduction target.

use rae_bench::figures::{ablation, fig1, fig23, fig4, fig5, rs_note};
use rae_bench::BenchConfig;
use std::io::Write;

fn main() {
    let mut cfg = BenchConfig::default();
    let mut commands: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sf" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing value for --sf"));
                cfg.sf = v.parse().unwrap_or_else(|_| usage("invalid --sf value"));
            }
            "--seed" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing value for --seed"));
                cfg.seed = v.parse().unwrap_or_else(|_| usage("invalid --seed value"));
            }
            "--help" | "-h" => usage(""),
            cmd => commands.push(cmd.to_string()),
        }
    }
    if commands.is_empty() {
        usage("no command given");
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for command in &commands {
        let report = run_command(command, &cfg);
        writeln!(out, "{report}").expect("stdout");
    }
}

fn run_command(command: &str, cfg: &BenchConfig) -> String {
    match command {
        "fig1" => fig1::fig1(cfg),
        "fig2" => fig23::fig2(cfg),
        "fig3" => fig23::fig3(cfg),
        "fig4a" => fig4::fig4a(cfg),
        "fig4b" => fig4::fig4b(cfg),
        "fig5" => fig5::fig5(cfg),
        "fig6" => fig1::fig6(cfg),
        "fig7" => fig23::fig7(cfg),
        "fig8" => fig1::fig8(cfg),
        "rs-note" => rs_note::rs_note(cfg),
        "ablation-delete" => ablation::ablation_delete(cfg),
        "ablation-fold" => ablation::ablation_fold(cfg),
        "ablation-binary" => ablation::ablation_binary(cfg),
        "all" => {
            let parts = [
                "fig1",
                "fig2",
                "fig3",
                "fig4a",
                "fig4b",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "rs-note",
                "ablation-delete",
                "ablation-binary",
                "ablation-fold",
            ];
            let mut out = String::new();
            for p in parts {
                eprintln!("[repro] running {p} ...");
                out.push_str(&run_command(p, cfg));
                out.push('\n');
            }
            out
        }
        other => usage(&format!("unknown command: {other}")),
    }
}

fn usage(message: &str) -> ! {
    if !message.is_empty() {
        eprintln!("error: {message}\n");
    }
    eprintln!(
        "usage: repro [--sf <scale>] [--seed <seed>] <command> [<command> ...]\n\
         commands: fig1 fig2 fig3 fig4a fig4b fig5 fig6 fig7 fig8\n\
         \u{20}         rs-note ablation-delete ablation-binary ablation-fold all"
    );
    std::process::exit(if message.is_empty() { 0 } else { 2 });
}
