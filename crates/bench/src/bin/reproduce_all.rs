//! Run every table, figure and ablation in-process and write a combined
//! report to `target/reproduction_report.txt`. The one-command
//! reproduction of the whole paper.
//!
//! All simulations go through the shared sweep runner: they execute on a
//! worker pool (`--jobs`, default: all cores) and results are cached
//! under `target/sweep/cache/`, so a rerun that changes nothing simulates
//! nothing. A panic in one experiment — or any failed simulation inside
//! one — is caught, the remaining experiments still run, and the process
//! exits non-zero with a final `FAILED: [...]` summary.
//!
//! `--filter NAME` runs only the experiments whose name contains `NAME`
//! (e.g. `--filter fig10_floyd`, or `--filter table` for Tables 1/3/4);
//! a filter matching none exits 2 before writing anything.
//!
//! Run: `cargo run --release -p dirtree-bench --bin reproduce_all
//!       [-- --full] [--jobs N] [--no-cache] [--filter NAME] [--out-dir PATH]`

use dirtree_bench::experiments::registry_matching;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn main() {
    let (runner, cli) = dirtree_bench::runner_from_args();
    let experiments = registry_matching(cli.filter.as_deref());
    if experiments.is_empty() {
        eprintln!(
            "no experiment matches --filter {:?}",
            cli.filter.as_deref().unwrap_or("")
        );
        std::process::exit(2);
    }
    let mut report = String::new();
    let mut failed: Vec<&'static str> = Vec::new();
    let t0 = std::time::Instant::now();
    for exp in &experiments {
        eprintln!("==> {}", exp.name);
        let failures_before = runner.failures().len();
        let result = catch_unwind(AssertUnwindSafe(|| (exp.run)(&runner, cli.full)));
        let _ = writeln!(
            report,
            "==================== {} ====================",
            exp.name
        );
        match result {
            Ok(text) => {
                report.push_str(&text);
                // Simulations that panicked inside the runner are caught
                // there and excluded from the report tables; they still
                // fail the experiment.
                let all_failures = runner.failures();
                let sim_failures = &all_failures[failures_before..];
                if !sim_failures.is_empty() {
                    failed.push(exp.name);
                    let _ = writeln!(
                        report,
                        "[{} FAILED: {} simulation(s) panicked]",
                        exp.name,
                        sim_failures.len()
                    );
                    for f in sim_failures {
                        let _ = writeln!(report, "  {}: {}", f.key, f.message);
                    }
                }
            }
            Err(payload) => {
                failed.push(exp.name);
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".into());
                let _ = writeln!(report, "[{} FAILED] {msg}", exp.name);
            }
        }
        report.push('\n');
    }

    let path = std::path::Path::new("target/reproduction_report.txt");
    let _ = std::fs::create_dir_all("target");
    std::fs::write(path, &report).expect("write report");
    println!("{report}");
    let (executed, cached) = runner.totals();
    eprintln!(
        "{} experiments in {:.1?}: {executed} simulations run, {cached} served from cache \
         ({} jobs); report written to {}",
        experiments.len(),
        t0.elapsed(),
        runner.options().jobs,
        path.display()
    );
    if !failed.is_empty() {
        println!("FAILED: [{}]", failed.join(", "));
        std::process::exit(1);
    }
}
