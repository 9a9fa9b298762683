//! # dirtree-bench — the experiment harness and criterion benchmarks
//!
//! Every table, figure and ablation of the reproduction runs through
//! `reproduce_all` (`--filter NAME` picks experiments by name; see
//! DESIGN.md §5 for the index). The three opt-in studies outside that
//! registry have a binary each: `scale_up`, `adaptive_ablation` and
//! `scaling`. The library holds the whole experiment layer:
//!
//! - [`sweep`] — configuration enumeration ([`sweep::SweepSpec`]) and the
//!   JSON-lines [`sweep::RunRecord`] each simulation produces
//! - [`runner`] — the parallel, cached, deterministic executor
//! - [`figures`] — record-based figure grids (normalized execution time)
//! - [`experiments`] — every table/figure/ablation as a function
//!   returning its report text, plus the [`experiments::registry`] that
//!   `reproduce_all` iterates
//! - [`miss_cost`] — controlled-sharing-degree marginal measurements
//! - [`cli`] — the shared `--jobs/--no-cache/--out-dir/--trace/--full/--filter`
//!   flags

pub mod cli;
pub mod experiments;
pub mod figures;
pub mod miss_cost;
pub mod runner;
pub mod sweep;

/// The runner every binary uses, configured from the process arguments.
pub fn runner_from_args() -> (runner::Runner, cli::Cli) {
    let cli = cli::Cli::parse();
    (runner::Runner::new(cli.sweep_options()), cli)
}
