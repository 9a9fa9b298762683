//! The correctness gate: the benchmark's records against the committed
//! golden, against `Runner::run`, and against the simulator's own
//! `Machine::new` + `Machine::run` path.

use crate::workload::{panic_message, SimPlan};
use dirtree_bench::runner::{Runner, SweepOptions};
use dirtree_bench::sweep::SweepSpec;
use dirtree_machine::Machine;
use dirtree_workloads::{OpTrace, ReplayDriver};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

/// The golden `scale_up` rows at P=64 (Floyd-Warshall 64v, graph seed 1996).
pub const GOLDEN: &str = "tests/golden/scale_up_p64.jsonl";

/// `(index, why)` for every line of `got` that is not byte-identical to
/// the same line of `want`; a missing line on either side also counts.
pub fn mismatches(got: &[String], want: &[String], what: &str) -> Vec<(usize, String)> {
    (0..got.len().max(want.len()))
        .filter(|&i| got.get(i) != want.get(i))
        .map(|i| (i, format!("config {i}: record differs from {what}")))
        .collect()
}

/// The golden rows for `plan`'s configs, in config order, selected by
/// record key.
pub fn golden_rows(root: &Path, plan: &SimPlan) -> Result<Vec<String>, String> {
    let path = root.join(GOLDEN);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    plan.configs
        .iter()
        .map(|c| {
            let prefix = format!("{{\"key\":\"{}\",", c.key());
            text.lines()
                .find(|l| l.starts_with(&prefix))
                .map(str::to_string)
                .ok_or_else(|| format!("{GOLDEN} has no row for {}", c.protocol.name()))
        })
        .collect()
}

/// The JSONL that `Runner::run` writes for `plan`'s configs with one job,
/// read back from `out_dir`, and how many configs the runner's cache
/// served. `no_cache` skips cache lookups; either way the run fills the
/// cache under `out_dir`. Only `WorkloadKind` sources can go through the
/// runner.
pub fn runner_lines(
    plan: &SimPlan,
    out_dir: &Path,
    no_cache: bool,
) -> Result<(Vec<String>, usize), String> {
    let mut spec = SweepSpec::new("perfbench");
    plan.configs.iter().for_each(|c| spec.push(c.clone()));
    let runner = Runner::new(SweepOptions {
        jobs: 1,
        no_cache,
        out_dir: out_dir.to_path_buf(),
        trace: false,
    });
    let outcome = runner.run(&spec);
    if let Some(f) = outcome.failures.first() {
        return Err(format!("Runner::run failed {}: {}", f.key, f.message));
    }
    let path = out_dir.join("perfbench.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((text.lines().map(str::to_string).collect(), outcome.cached))
}

/// The records of `Machine::new` + `Machine::run` over the same op trace:
/// the path `Runner::run` takes for each config.
pub fn machine_lines(plan: &SimPlan, trace: &Arc<OpTrace>) -> Vec<String> {
    plan.configs
        .iter()
        .map(|config| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut machine = Machine::new(config.machine, config.protocol);
                let outcome = machine.run(&mut ReplayDriver::new(trace.clone()));
                plan.record_for(config, &outcome).to_json()
            }))
            .unwrap_or_else(|p| format!("panic: {}", panic_message(p)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn identical_records_pass() {
        let a = lines(&["{\"cycles\":1}", "{\"cycles\":2}"]);
        assert!(mismatches(&a, &a.clone(), "ref").is_empty());
    }

    #[test]
    fn golden_rows_follow_config_order_and_catch_a_perturbed_cycle_count() {
        use crate::workload::{Workload, DEFAULT_SEED};
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let plan = SimPlan::new(Workload::ColdFloyd64P64, DEFAULT_SEED);
        let rows = golden_rows(&root, &plan).expect("golden rows at the default seed");
        assert_eq!(rows.len(), plan.configs.len());
        for (row, c) in rows.iter().zip(&plan.configs) {
            assert!(row.contains(&format!("\"protocol\":\"{}\"", c.protocol.name())));
        }
        let mut perturbed = rows.clone();
        perturbed[1] = perturbed[1].replacen("\"cycles\":", "\"cycles\":1", 1);
        assert_eq!(mismatches(&perturbed, &rows, "the golden").len(), 1);
        // Another graph seed has no golden row.
        assert!(golden_rows(&root, &SimPlan::new(Workload::ColdFloyd64P64, 7)).is_err());
    }

    #[test]
    fn perturbed_record_counts_as_a_failure() {
        let want = lines(&["{\"cycles\":1}", "{\"cycles\":2}"]);
        let got = lines(&["{\"cycles\":1}", "{\"cycles\":3}"]);
        let m = mismatches(&got, &want, "ref");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].0, 1);
        // A dropped record fails too.
        assert_eq!(mismatches(&got[..1], &want, "ref").len(), 1);
    }
}
