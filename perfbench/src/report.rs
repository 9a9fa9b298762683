//! The process's JSON line: end-to-end figures of the untraced pass and,
//! in the traced mode, the per-layer metrics.

use crate::trace::{call_stats, ctx_calls, Call, Spans};
use crate::workload::{Pass, DIR4_TREE2, DIR4_TREE2_A, FULL_MAP};
use dirtree_sim::hash::FxHasher;
use std::fmt::Write as _;
use std::hash::Hasher;

/// A flat JSON object under construction.
#[derive(Default)]
pub struct Json(String);

impl Json {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "{}:", quote(k));
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.0, "{v}");
        } else {
            self.0.push_str("null");
        }
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.0.push_str(&quote(v));
        self
    }

    pub fn strs(&mut self, k: &str, v: &[String]) -> &mut Self {
        self.key(k);
        let items: Vec<String> = v.iter().map(|s| quote(s)).collect();
        let _ = write!(self.0, "[{}]", items.join(","));
        self
    }

    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.0.push_str(json);
        self
    }

    pub fn finish(&mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        format!("{}}}", self.0)
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// FxHash of each record line, so repetitions in separate processes can
/// be compared without shipping megabytes of records.
pub fn digests(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|l| {
            let mut h = FxHasher::default();
            h.write(l.as_bytes());
            format!("{:016x}", h.finish())
        })
        .collect()
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end figures of one untraced pass, scaled to the reference
/// host, the host times they were scaled from, and the scaled times unit
/// by unit; `norm_time` is null on the checker and `states_per_s` on the
/// simulations.
pub fn end_to_end(json: &mut Json, pass: &Pass) {
    let states: u64 = pass.shapes.iter().map(|o| o.states()).sum();
    let (t, host) = (pass.scaled(), &pass.host);
    json.num("setup_s", t.setup_s)
        .num("run_s", t.run_s)
        .num("total_s", t.total_s())
        .num("events_per_s", pass.work as f64 / t.work_s)
        .num("peak_rss_mb", peak_rss_mb())
        .num("norm_time", pass.norm_time().unwrap_or(f64::NAN))
        .num(
            "states_per_s",
            if pass.shapes.is_empty() {
                f64::NAN
            } else {
                states as f64 / t.work_s
            },
        )
        .num("host_setup_s", host.setup_s)
        .num("host_run_s", host.run_s)
        .num("host_total_s", host.total_s())
        .num("calibration_s", pass.calibration_s)
        .int("work", pass.work)
        .raw("units", &units_json(pass));
}

/// Each unit's scaled `[setup_s, run_s, work_s]`, so that `run.py` can
/// take the median of every unit over the repetitions.
fn units_json(pass: &Pass) -> String {
    let units: Vec<String> = pass
        .units
        .iter()
        .map(|u| format!("[{},{},{}]", u.setup_s, u.run_s, u.work_s))
        .collect();
    format!("[{}]", units.join(","))
}

/// Host-time figures the traced process measures outside the traced pass.
pub struct Extras {
    /// Witness cost: `try_run` time with `verify: true` minus `false`.
    pub verify_s: f64,
    /// A warm `Runner::run` pass over the workload's configs.
    pub warm_s: f64,
}

/// Every per-layer metric, as `(name, value, unit)`. Host times come from
/// the traced pass (spans opened after `mark`) except `sim.ns_per_event`
/// and `machine.verify_s`, which use the untraced pass; all are scaled to
/// the reference host but `bench.calibration_s`, the kernel's own host
/// time. Simulated counts come from the records. Layers a workload does
/// not load read 0.
pub fn layers(
    untraced: &Pass,
    traced: &Pass,
    spans: &Spans,
    mark: usize,
    extras: &Extras,
) -> Vec<(String, f64, &'static str)> {
    let s = |name: &str| spans.total_s_since(mark, name);
    let calls = |c: Call| call_stats(c);
    let (driver, start, handle, evict, note) = (
        calls(Call::Driver),
        calls(Call::StartMiss),
        calls(Call::Handle),
        calls(Call::Evict),
        calls(Call::Note),
    );
    let (send, bcast) = (calls(Call::Send), calls(Call::Broadcast));
    let rec = &traced.records;
    let sum =
        |f: fn(&dirtree_bench::sweep::RunRecord) -> u64| rec.iter().map(f).sum::<u64>() as f64;
    let events = sum(|r| r.events);
    let record_s = s("workloads.record");
    let explore_s = s("check.explore");
    let check_sum = |f: fn(&dirtree_check::explore::ExploreStats) -> u64| {
        traced
            .shapes
            .iter()
            .filter_map(|o| o.stats())
            .map(|st| f(&st))
            .sum::<u64>() as f64
    };
    let states: f64 = traced.shapes.iter().map(|o| o.states()).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out: Vec<(String, f64, &'static str)> = vec![
        ("workloads.build_s".into(), s("workloads.build"), "s"),
        ("workloads.record_s".into(), record_s, "s"),
        ("workloads.ops".into(), traced.ops as f64, "count"),
        (
            "workloads.ops_per_s".into(),
            ratio(traced.ops as f64, record_s),
            "1/s",
        ),
        (
            "machine.with_protocol_s".into(),
            s("machine.with_protocol"),
            "s",
        ),
        ("machine.run_s".into(), s("machine.try_run"), "s"),
        (
            "machine.self_s".into(),
            spans.self_s_since(mark, "machine.try_run"),
            "s",
        ),
        ("machine.driver_calls".into(), driver.count as f64, "count"),
        ("machine.driver_s".into(), driver.total_s(), "s"),
        ("machine.ctx_calls".into(), ctx_calls() as f64, "count"),
        ("machine.verify_s".into(), extras.verify_s, "s"),
        ("sim.events".into(), events, "count"),
        (
            "sim.peak_queue_depth".into(),
            rec.iter().map(|r| r.peak_queue_depth).max().unwrap_or(0) as f64,
            "count",
        ),
        (
            "sim.ns_per_event".into(),
            ratio(
                untraced.host.work_s * 1e9,
                untraced.records.iter().map(|r| r.events).sum::<u64>() as f64,
            ),
            "ns",
        ),
        ("core.start_miss_calls".into(), start.count as f64, "count"),
        ("core.handle_calls".into(), handle.count as f64, "count"),
        ("core.evict_calls".into(), evict.count as f64, "count"),
        (
            "core.handler_self_s".into(),
            start.self_s() + handle.self_s() + evict.self_s() + note.self_s(),
            "s",
        ),
        ("core.handle_p50_ns".into(), handle.quantile_ns(0.5), "ns"),
        (
            "core.handle_p999_ns".into(),
            handle.quantile_ns(0.999),
            "ns",
        ),
        (
            "core.handle_samples".into(),
            handle.hist.iter().sum::<u64>() as f64,
            "count",
        ),
        ("core.clone_s".into(), calls(Call::Clone).total_s(), "s"),
        ("core.relabel_s".into(), calls(Call::Relabel).total_s(), "s"),
        (
            "core.fingerprint_s".into(),
            calls(Call::Fingerprint).total_s(),
            "s",
        ),
        (
            "core.invariants_s".into(),
            calls(Call::Invariants).total_s(),
            "s",
        ),
    ];
    for p in [FULL_MAP, DIR4_TREE2, DIR4_TREE2_A] {
        out.push((
            format!("core.cycles.{}", p.name()),
            traced.cycles(p).unwrap_or(0) as f64,
            "cycles",
        ));
    }
    out.extend([
        (
            "core.norm_time".into(),
            traced.norm_time().unwrap_or(0.0),
            "ratio",
        ),
        (
            "core.invalidations".into(),
            sum(|r| r.invalidations),
            "count",
        ),
        ("core.tree_merges".into(), sum(|r| r.tree_merges), "count"),
        (
            "core.mode_flips".into(),
            sum(|r| r.mode_flips_to_update + r.mode_flips_to_invalidate),
            "count",
        ),
        ("net.send_calls".into(), send.count as f64, "count"),
        ("net.broadcast_calls".into(), bcast.count as f64, "count"),
        ("net.send_s".into(), send.total_s() + bcast.total_s(), "s"),
        (
            "net.inject_wait_cycles".into(),
            sum(|r| r.net_inject_wait_cycles),
            "cycles",
        ),
        (
            "net.link_wait_cycles".into(),
            sum(|r| r.net_link_wait_cycles),
            "cycles",
        ),
        (
            "net.vc_wait_cycles".into(),
            sum(|r| r.net_vc_wait_cycles.iter().sum()),
            "cycles",
        ),
        ("net.hops".into(), sum(|r| r.net_hops), "count"),
        (
            "bench.serialize_s".into(),
            s("bench.from_outcome") + s("bench.to_json"),
            "s",
        ),
        ("bench.warm_s".into(), extras.warm_s, "s"),
        (
            "bench.trace_overhead".into(),
            ratio(traced.scaled().total_s(), untraced.scaled().total_s()),
            "ratio",
        ),
        (
            "check.explored".into(),
            check_sum(|st| st.explored),
            "count",
        ),
        ("check.deduped".into(), check_sum(|st| st.deduped), "count"),
        (
            "check.sleep_pruned".into(),
            check_sum(|st| st.sleep_pruned),
            "count",
        ),
        ("check.states".into(), states, "count"),
        (
            "check.sym_group".into(),
            traced
                .shapes
                .iter()
                .filter_map(|o| o.stats())
                .map(|st| st.sym_group)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        ("check.explore_s".into(), explore_s, "s"),
        (
            "check.self_s".into(),
            spans.self_s_since(mark, "check.explore"),
            "s",
        ),
        ("check.states_per_s".into(), ratio(states, explore_s), "1/s"),
    ]);
    // Host times to the reference host (crate::calib), by the traced
    // pass's overall factor, or the untraced pass's for what was measured
    // there.
    let factor = |p: &Pass| ratio(p.scaled().total_s(), p.host.total_s());
    let (traced_k, untraced_k) = (factor(traced), factor(untraced));
    for (name, value, unit) in &mut out {
        let k = match name.as_str() {
            "sim.ns_per_event" | "machine.verify_s" => untraced_k,
            _ => traced_k,
        };
        match *unit {
            "s" | "ns" => *value *= k,
            "1/s" => *value /= k,
            _ => {}
        }
    }
    out.push(("bench.calibration_s".into(), untraced.calibration_s, "s"));
    out
}

/// `layers` as a JSON object of `{"value", "unit"}` entries.
pub fn layers_json(layers: &[(String, f64, &'static str)]) -> String {
    let mut json = Json::default();
    for (name, value, unit) in layers {
        let mut entry = Json::default();
        entry.num("value", *value).str("unit", unit);
        json.raw(name, &entry.finish());
    }
    json.finish()
}
