//! One benchmark process: one pass (or one untraced + traced pair) over
//! one workload, printed as one JSON line. `run.py` runs the repetitions
//! and reduces them.
//!
//! Usage: dirtree-perfbench --workload NAME [--seed N] [--mode measure|trace]
//!                          [--verify] [--root DIR] [--out DIR]

use dirtree_core::protocol::build_protocol;
use dirtree_machine::{Machine, MachineConfig};
use dirtree_perfbench::gate::{golden_rows, machine_lines, mismatches, runner_lines};
use dirtree_perfbench::report::{digests, end_to_end, layers, layers_json, Extras, Json};
use dirtree_perfbench::trace::Spans;
use dirtree_perfbench::workload::{run_pass, Pass, SimPlan, Workload, DEFAULT_SEED};
use dirtree_workloads::{OpTrace, ReplayDriver};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    verify: bool,
    root: PathBuf,
    out: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: dirtree-perfbench --workload NAME [--seed N] \
         [--mode measure|trace] [--verify] [--root DIR] [--out DIR]"
    );
    exit(2)
}

impl Args {
    fn parse() -> Self {
        let mut args = std::env::args().skip(1);
        let (mut workload, mut seed, mut trace, mut verify) = (None, DEFAULT_SEED, false, false);
        let (mut root, mut out) = (PathBuf::from("."), PathBuf::from(".bench_build/perfbench"));
        while let Some(a) = args.next() {
            let mut value = || {
                args.next()
                    .unwrap_or_else(|| usage(&format!("{a} needs a value")))
            };
            match a.as_str() {
                "--workload" => {
                    let v = value();
                    workload = Some(
                        Workload::parse(&v)
                            .unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                    );
                }
                "--seed" => {
                    seed = value()
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes an integer"))
                }
                "--mode" => {
                    trace = match value().as_str() {
                        "measure" => false,
                        "trace" => true,
                        m => usage(&format!("unknown mode {m}")),
                    }
                }
                "--verify" => verify = true,
                "--root" => root = PathBuf::from(value()),
                "--out" => out = PathBuf::from(value()),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        Self {
            workload: workload.unwrap_or_else(|| usage("--workload is required")),
            seed,
            trace,
            verify,
            root,
            out,
        }
    }
}

/// Failed configs or shapes: index -> reasons.
type Failures = BTreeMap<usize, Vec<String>>;

fn note(failures: &mut Failures, found: Vec<(usize, String)>) {
    for (i, why) in found {
        failures.entry(i).or_default().push(why);
    }
}

/// Compare a pass's records with `Runner::run` (for the phased trace,
/// with `Machine::run`) and, at the default seed, with the golden.
fn reference_check(
    args: &Args,
    plan: &SimPlan,
    pass_lines: &[String],
    trace: &Arc<OpTrace>,
    sweep_dir: &Path,
) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    match args.workload {
        Workload::ColdFloyd64P64 => {
            match runner_lines(plan, sweep_dir, true) {
                Ok((want, _)) => found.extend(mismatches(pass_lines, &want, "Runner::run")),
                Err(e) => found.push((0, e)),
            }
            if args.seed == DEFAULT_SEED {
                match golden_rows(&args.root, plan) {
                    Ok(want) => found.extend(mismatches(pass_lines, &want, "the golden")),
                    Err(e) => found.push((0, e)),
                }
            }
        }
        _ => found.extend(mismatches(
            pass_lines,
            &machine_lines(plan, trace),
            "Machine::run",
        )),
    }
    found
}

/// Witness cost: untraced `try_run` time with `verify: true` (measured in
/// `untraced`) minus the same replays with `verify: false`.
fn witness_cost(plan: &SimPlan, trace: &Arc<OpTrace>, untraced: &Pass) -> f64 {
    if !plan.configs.iter().any(|c| c.machine.verify) {
        return 0.0;
    }
    let mut off = 0.0;
    for c in &plan.configs {
        let m = MachineConfig {
            verify: false,
            ..c.machine
        };
        let mut machine = Machine::with_protocol(m, build_protocol(c.protocol, m.protocol));
        let t0 = Instant::now();
        let _ = machine.try_run(&mut ReplayDriver::new(trace.clone()));
        off += t0.elapsed().as_secs_f64();
    }
    untraced.host.work_s - off
}

fn main() {
    let args = Args::parse();
    let w = args.workload;
    let mut spans = Spans::default();
    let untraced = run_pass(w, args.seed, false, &mut spans);
    let mut json = Json::default();
    json.str("workload", w.name())
        .int("seed", args.seed)
        .str("mode", if args.trace { "trace" } else { "measure" });
    end_to_end(&mut json, &untraced);

    let mut failures = Failures::new();
    note(&mut failures, untraced.failures.clone());
    let sweep_dir = args.out.join(format!("sweep-{}", std::process::id()));
    let sim = (w != Workload::CheckForest).then(|| {
        let trace = untraced
            .trace
            .clone()
            .expect("simulation passes keep their trace");
        (SimPlan::new(w, args.seed), trace)
    });
    if let Some((plan, trace)) = sim.as_ref().filter(|_| args.verify || args.trace) {
        note(
            &mut failures,
            reference_check(&args, plan, &untraced.lines, trace, &sweep_dir),
        );
    }

    if args.trace {
        let verify_s = sim
            .as_ref()
            .map_or(0.0, |(plan, trace)| witness_cost(plan, trace, &untraced));
        let mark = spans.mark();
        let traced = run_pass(w, args.seed, true, &mut spans);
        note(&mut failures, traced.failures.clone());
        note(
            &mut failures,
            mismatches(&traced.lines, &untraced.lines, "the untraced pass"),
        );
        let mut warm_s = 0.0;
        if let Some((plan, _)) = sim.as_ref().filter(|_| w == Workload::ColdFloyd64P64) {
            // The reference check left the runner's cache warm.
            let t0 = Instant::now();
            let warm = runner_lines(plan, &sweep_dir, false);
            warm_s = t0.elapsed().as_secs_f64();
            match warm {
                Ok((lines, cached)) if cached == plan.configs.len() => note(
                    &mut failures,
                    mismatches(&lines, &untraced.lines, "the warm Runner::run"),
                ),
                Ok((_, cached)) => failures.entry(0).or_default().push(format!(
                    "warm Runner::run served {cached} of {} configs from its cache",
                    plan.configs.len()
                )),
                Err(e) => failures.entry(0).or_default().push(e),
            }
        }
        let layers = layers(
            &untraced,
            &traced,
            &spans,
            mark,
            &Extras { verify_s, warm_s },
        );
        json.raw("layers", &layers_json(&layers));
        let path = args
            .out
            .join(format!("spans-{}-{}.json", w.name(), args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, spans.to_json()))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(&sweep_dir);

    let reasons: Vec<String> = failures.values().flatten().cloned().collect();
    json.int("attempted", untraced.attempted)
        .int("failed", failures.len() as u64)
        .strs("failures", &reasons)
        .strs("digests", &digests(&untraced.lines));
    println!("{}", json.finish());
}
