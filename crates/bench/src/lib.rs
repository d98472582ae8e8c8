#![warn(missing_docs)]

//! # rae-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! paper's evaluation (Section 6 + Appendix B) over the synthetic TPC-H
//! workload:
//!
//! | Paper artifact | Module | `repro` subcommand |
//! |---|---|---|
//! | Figure 1 (a–f) | [`figures::fig1`] | `fig1` |
//! | Figure 2 | [`figures::fig23`] | `fig2` |
//! | Figure 3 | [`figures::fig23`] | `fig3` |
//! | Figure 4a | [`figures::fig4`] | `fig4a` |
//! | Figure 4b | [`figures::fig4`] | `fig4b` |
//! | Figure 5 | [`figures::fig5`] | `fig5` |
//! | Figure 6 (appendix) | [`figures::fig1`] (EO variant) | `fig6` |
//! | Figure 7 (appendix tables) | [`figures::fig23`] | `fig7` |
//! | Figure 8 (appendix) | [`figures::fig1`] (OE variant) | `fig8` |
//! | §B.2.3 RS note | [`figures::rs_note`] | `rs-note` |
//! | Ablations (DESIGN.md §7) | [`figures::ablation`] | `ablation-delete`, `ablation-binary`, `ablation-fold` |
//!
//! Absolute numbers are machine- and scale-dependent; the *shapes* (who
//! wins, by what factor, where crossovers fall) are the reproduction target.
//! The library's performance is measured by `perfbench/`, not here.

pub mod delays;
pub mod figures;
pub mod setup;
pub mod stats;
pub mod table;

pub use setup::BenchConfig;
pub use stats::BoxStats;
pub use table::Table;
