//! **Beyond the paper (ours)** — the hot-path scaling study: the paper's
//! Figure-10 shapes (Dir_iTree_2 vs full-map vs Dir_4NB) pushed to
//! P ∈ {64, 128, 256} on the single-channel network and to
//! P ∈ {64, 512, 1024} on the virtual-channel machine (3 VCs, adaptive
//! minimal e-cube), with and without credit-bounded injection
//! (`experiments::scale_up_grids`), instrumented for *simulator*
//! throughput rather than protocol ranking. Runs the sweeps twice — a
//! timed pass as invoked (pass `--no-cache` for a true cold measurement)
//! and a warm pass served from the result cache — and writes the
//! wall-clock side to `<out-dir>/BENCH_sim_hotpath.json` (events/sec, cold
//! vs warm seconds, per-config event counts and queue depths). The
//! committed repo-root `BENCH_sim_hotpath.json` is a snapshot of this
//! output plus the `reproduce_all` cold-run numbers (see EXPERIMENTS.md).
//!
//! Run: `cargo run --release -p dirtree-bench --bin scale_up`
//! CI:  `... --bin scale_up -- --filter P=64 --no-cache --out-dir target/perf_smoke`

use dirtree_bench::experiments::{run_scale_up, scale_up_report};
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let (runner, cli) = dirtree_bench::runner_from_args();
    let filter = cli.filter.as_deref();

    let t0 = Instant::now();
    let runs = run_scale_up(&runner, filter);
    let cold = t0.elapsed().as_secs_f64();

    // Warm pass: identical specs through a cache-reading runner.
    let mut warm_opts = cli.sweep_options();
    warm_opts.no_cache = false;
    let warm_runner = dirtree_bench::runner::Runner::new(warm_opts);
    let t1 = Instant::now();
    let _ = run_scale_up(&warm_runner, filter);
    let warm = t1.elapsed().as_secs_f64();

    print!("{}", scale_up_report(&runs));

    // The grid a cell came from fixes the routing mode and the injection
    // credit bound, which the flat record does not carry.
    let all: Vec<_> = runs
        .iter()
        .flat_map(|run| {
            run.cells
                .iter()
                .map(move |c| (c, (run.grid.machine)(c.nodes).net))
        })
        .collect();
    let total_events: u64 = all.iter().map(|(c, _)| c.record.events).sum();
    let peak_depth: u64 = all
        .iter()
        .map(|(c, _)| c.record.peak_queue_depth)
        .max()
        .unwrap_or(0);
    let events_per_sec = if cold > 0.0 {
        total_events as f64 / cold
    } else {
        0.0
    };
    println!(
        "scale_up: {} sims, cold {cold:.2}s, warm {warm:.2}s, {total_events} events \
         ({events_per_sec:.0} events/sec cold), peak queue depth {peak_depth}",
        all.len(),
    );

    // Wall-clock readings stay out of the deterministic .jsonl records;
    // they live in this side-channel JSON instead.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"dirtree-bench/sim_hotpath/v3\",");
    let _ = writeln!(
        json,
        "  \"filter\": {},",
        match filter {
            Some(f) => format!("\"{f}\""),
            None => "null".to_string(),
        }
    );
    let _ = writeln!(json, "  \"sims\": {},", all.len());
    let _ = writeln!(json, "  \"cold_seconds\": {cold:.3},");
    let _ = writeln!(json, "  \"warm_seconds\": {warm:.3},");
    let _ = writeln!(json, "  \"total_events\": {total_events},");
    let _ = writeln!(json, "  \"events_per_second_cold\": {events_per_sec:.0},");
    let _ = writeln!(json, "  \"peak_queue_depth\": {peak_depth},");
    let _ = writeln!(json, "  \"configs\": [");
    for (i, (c, net)) in all.iter().enumerate() {
        let r = &c.record;
        let _ = writeln!(
            json,
            "    {{\"protocol\": \"{}\", \"nodes\": {}, \"vcs\": {}, \"adaptive\": {}, \
             \"vc_credits\": {}, \
             \"cycles\": {}, \"events\": {}, \"peak_queue_depth\": {}}}{}",
            r.protocol,
            r.nodes,
            r.net_vcs,
            net.adaptive,
            net.vc_credits,
            r.cycles,
            r.events,
            r.peak_queue_depth,
            if i + 1 < all.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    let path = runner.options().out_dir.join("BENCH_sim_hotpath.json");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
