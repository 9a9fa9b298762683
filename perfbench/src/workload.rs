//! The benchmark's workloads: what each sets up, what each runs, and the
//! records each run produces for the correctness gate.

use crate::calib::Calibrator;
use crate::trace::{Span, Spans, NO_CONFIG};
use crate::wrap::{build_traced, TracedDriver};
use dirtree_bench::experiments::vc_credited;
use dirtree_bench::sweep::{hash_str, workload_key, RunRecord, SweepConfig};
use dirtree_check::{explore, CheckConfig, CheckOutcome, CheckState};
use dirtree_core::fingerprint::home_fixing_perms;
use dirtree_core::protocol::{build_protocol, Protocol, ProtocolKind, ProtocolParams};
use dirtree_core::types::NodeId;
use dirtree_machine::{Machine, MachineConfig};
use dirtree_workloads::phases::PhasedTrace;
use dirtree_workloads::{record_ops, OpTrace, ReplayDriver, WorkloadKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

pub const FULL_MAP: ProtocolKind = ProtocolKind::FullMap;
pub const DIR4_TREE2: ProtocolKind = ProtocolKind::DirTree {
    pointers: 4,
    arity: 2,
};
pub const DIR4_TREE2_A: ProtocolKind = ProtocolKind::DirTreeAdaptive {
    pointers: 4,
    arity: 2,
};
const DIR2_TREE2_A: ProtocolKind = ProtocolKind::DirTreeAdaptive {
    pointers: 2,
    arity: 2,
};

/// Seed used when `--seed` is not given; for `cold_floyd64_p64` it is
/// the graph seed of the committed `scale_up` golden.
pub const DEFAULT_SEED: u64 = 1996;

/// `vc_phased_p256` size: shared blocks, phases, reads per processor per
/// phase. Six phases keep one repetition near 4 s on a 2-core 2.1 GHz
/// Xeon while leaving Dir4Tree2A phases in update mode after its blocks
/// flip.
pub const PHASED_BLOCKS: u64 = 1024;
pub const PHASED_PHASES: u64 = 6;
pub const PHASED_READS: u64 = 64;

/// How many times `check_forest` builds each shape's root state per
/// repetition; the shape's set-up time is the median of these.
const CHECK_SETUP_REPEATS: usize = 25;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Build and record Floyd-Warshall 64v at P=64, then replay FullMap
    /// and Dir4Tree2 on the paper's machine with the witness off.
    ColdFloyd64P64,
    /// Record a seeded phased trace at P=256, then replay FullMap,
    /// Dir4Tree2 and Dir4Tree2A on the credit-bounded VC machine with
    /// the witness on.
    VcPhasedP256,
    /// Explore four model-checker shapes with symmetry and POR, one job.
    CheckForest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdFloyd64P64,
        Workload::VcPhasedP256,
        Workload::CheckForest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFloyd64P64 => "cold_floyd64_p64",
            Workload::VcPhasedP256 => "vc_phased_p256",
            Workload::CheckForest => "check_forest",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One model-checker shape of `check_forest`.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub protocol: ProtocolKind,
    pub nodes: u32,
    pub blocks: u64,
    pub addr_stride: u64,
    pub fuel: u32,
}

/// The B=2 shapes are the only ones on which sleep sets prune anything.
pub const SHAPES: [Shape; 4] = [
    Shape {
        protocol: DIR4_TREE2,
        nodes: 3,
        blocks: 1,
        addr_stride: 1,
        fuel: 2,
    },
    Shape {
        protocol: DIR2_TREE2_A,
        nodes: 3,
        blocks: 1,
        addr_stride: 1,
        fuel: 2,
    },
    Shape {
        protocol: DIR4_TREE2,
        nodes: 4,
        blocks: 2,
        addr_stride: 4,
        fuel: 1,
    },
    Shape {
        protocol: DIR4_TREE2_A,
        nodes: 4,
        blocks: 2,
        addr_stride: 4,
        fuel: 1,
    },
];

impl Shape {
    pub fn label(&self) -> String {
        format!(
            "{} P={} B={} stride={} fuel={}",
            self.protocol.name(),
            self.nodes,
            self.blocks,
            self.addr_stride,
            self.fuel
        )
    }

    pub fn config(&self) -> CheckConfig {
        CheckConfig {
            addr_stride: self.addr_stride,
            fuel: self.fuel,
            jobs: 1,
            symmetry: true,
            por: true,
            ..CheckConfig::small(self.nodes, self.blocks)
        }
    }
}

/// Where a simulation workload's operations come from.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    Kind(WorkloadKind, u32),
    Phased(PhasedTrace),
}

/// The configs a simulation workload replays, and their op source.
pub struct SimPlan {
    pub source: Source,
    pub configs: Vec<SweepConfig>,
}

impl SimPlan {
    pub fn new(w: Workload, seed: u64) -> Self {
        match w {
            Workload::ColdFloyd64P64 => {
                let wl = WorkloadKind::Floyd { vertices: 64, seed };
                let configs = [FULL_MAP, DIR4_TREE2]
                    .map(|p| SweepConfig::new(MachineConfig::paper_default(64), p, wl))
                    .to_vec();
                Self {
                    source: Source::Kind(wl, 64),
                    configs,
                }
            }
            Workload::VcPhasedP256 => {
                let t = PhasedTrace {
                    nodes: 256,
                    blocks: PHASED_BLOCKS,
                    phases: PHASED_PHASES,
                    reads_per_phase: PHASED_READS,
                    seed,
                };
                let mut machine = vc_credited(256);
                machine.verify = true;
                // `SweepConfig` names only `WorkloadKind`s; `record_for`
                // rewrites this stand-in to describe the phased trace.
                let stand_in = WorkloadKind::Sharing {
                    blocks: t.blocks,
                    rounds: t.phases,
                };
                let configs = [FULL_MAP, DIR4_TREE2, DIR4_TREE2_A]
                    .map(|p| SweepConfig::new(machine, p, stand_in))
                    .to_vec();
                Self {
                    source: Source::Phased(t),
                    configs,
                }
            }
            Workload::CheckForest => panic!("check_forest has no simulation plan"),
        }
    }

    /// The record of one config's outcome. Phased-trace records name the
    /// trace in `key`, `config_hash` and `workload`.
    pub fn record_for(
        &self,
        config: &SweepConfig,
        outcome: &dirtree_machine::RunOutcome,
    ) -> RunRecord {
        let mut r = RunRecord::from_outcome(config, outcome);
        if let Source::Phased(t) = self.source {
            let from = format!("|wl={}|", workload_key(&config.workload));
            let to = format!(
                "|wl=phased{{b={},ph={},r={},seed={}}}|",
                t.blocks, t.phases, t.reads_per_phase, t.seed
            );
            r.key = r.key.replacen(&from, &to, 1);
            r.config_hash = hash_str(&r.key);
            r.workload = format!(
                "Phased({}b,{}ph,{}r)",
                t.blocks, t.phases, t.reads_per_phase
            );
        }
        r
    }
}

/// Host times of a pass or of one unit of it (a set-up, one config's
/// simulation, one shape), or the same scaled to the reference host by
/// [`crate::calib`].
#[derive(Clone, Copy, Default)]
pub struct Times {
    pub setup_s: f64,
    pub run_s: f64,
    /// Time inside `Machine::try_run` or `explore`.
    pub work_s: f64,
}

impl Times {
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.run_s
    }

    fn scaled(&self, factor: f64) -> Times {
        Times {
            setup_s: self.setup_s * factor,
            run_s: self.run_s * factor,
            work_s: self.work_s * factor,
        }
    }

    fn add(&mut self, unit: Times) {
        self.setup_s += unit.setup_s;
        self.run_s += unit.run_s;
        self.work_s += unit.work_s;
    }
}

/// One pass over a workload: set-up, then every config or shape.
#[derive(Default)]
pub struct Pass {
    /// Host times.
    pub host: Times,
    /// Each unit's host times scaled to the reference host, in order.
    pub units: Vec<Times>,
    /// Median time of the calibration kernel between the units.
    pub calibration_s: f64,
    /// Simulated events (simulation), or checker transitions (explored).
    pub work: u64,
    /// Recorded operations.
    pub ops: u64,
    /// One line per config or shape: the record's JSON, or the shape's
    /// verdict and counters.
    pub lines: Vec<String>,
    pub records: Vec<RunRecord>,
    pub shapes: Vec<CheckOutcome>,
    /// (config or shape index, what went wrong).
    pub failures: Vec<(usize, String)>,
    pub attempted: u64,
    pub trace: Option<Arc<OpTrace>>,
}

impl Pass {
    /// The scaled times of the whole pass.
    pub fn scaled(&self) -> Times {
        let mut t = Times::default();
        self.units.iter().for_each(|&u| t.add(u));
        t
    }

    /// Account one unit's host times; `factor` scales them.
    fn unit(&mut self, host: Times, factor: f64) {
        self.host.add(host);
        self.units.push(host.scaled(factor));
    }

    /// Simulated cycles of `protocol`'s record, if it ran.
    pub fn cycles(&self, protocol: ProtocolKind) -> Option<u64> {
        let name = protocol.name();
        self.records
            .iter()
            .find(|r| r.protocol == name)
            .map(|r| r.cycles)
    }

    /// Dir4Tree2 simulated cycles over FullMap simulated cycles.
    pub fn norm_time(&self) -> Option<f64> {
        Some(self.cycles(DIR4_TREE2)? as f64 / self.cycles(FULL_MAP)? as f64)
    }
}

pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one pass of `w`. With `traced`, the protocol, its context and the
/// driver are the timing wrappers of [`crate::wrap`].
pub fn run_pass(w: Workload, seed: u64, traced: bool, spans: &mut Spans) -> Pass {
    match w {
        Workload::CheckForest => check_pass(traced, spans),
        _ => sim_pass(&SimPlan::new(w, seed), traced, spans),
    }
}

fn sim_pass(plan: &SimPlan, traced: bool, spans: &mut Spans) -> Pass {
    let mut cal = Calibrator::start();
    let mark = spans.mark();
    let trace = spans.span("pass.setup", NO_CONFIG, |s| {
        let mut tw = s.span("workloads.build", NO_CONFIG, |_| match plan.source {
            Source::Kind(wl, nodes) => wl.build(nodes),
            Source::Phased(t) => t.build(),
        });
        Arc::new(s.span("workloads.record", NO_CONFIG, |_| record_ops(&mut tw)))
    });
    let mut pass = Pass {
        ops: trace.iter().map(|ops| ops.len() as u64).sum(),
        ..Pass::default()
    };
    let setup = Times {
        setup_s: spans.total_s_since(mark, "pass.setup"),
        ..Times::default()
    };
    pass.unit(setup, cal.factor());
    for (i, config) in plan.configs.iter().enumerate() {
        let unit_mark = spans.mark();
        spans.span("pass.run", i as u32, |s| {
            pass.attempted += 1;
            match simulate(plan, config, &trace, traced, s, i as u32) {
                Ok(record) => {
                    pass.work += record.events;
                    pass.lines
                        .push(s.span("bench.to_json", i as u32, |_| record.to_json()));
                    pass.records.push(record);
                }
                Err(e) => {
                    pass.lines.push(String::new());
                    pass.failures
                        .push((i, format!("{}: {e}", config.protocol.name())));
                }
            }
        });
        let unit = Times {
            setup_s: 0.0,
            run_s: spans.total_s_since(unit_mark, "pass.run"),
            work_s: spans.total_s_since(unit_mark, "machine.try_run"),
        };
        pass.unit(unit, cal.factor());
    }
    pass.calibration_s = cal.median_s();
    pass.trace = Some(trace);
    pass
}

/// Build, run and snapshot one config. A `StallError` or a witness panic
/// comes back as `Err`.
fn simulate(
    plan: &SimPlan,
    config: &SweepConfig,
    trace: &Arc<OpTrace>,
    traced: bool,
    s: &mut Spans,
    id: u32,
) -> Result<RunRecord, String> {
    let proto = if traced {
        build_traced(config.protocol, config.machine.protocol)
    } else {
        build_protocol(config.protocol, config.machine.protocol)
    };
    let mut machine = s
        .span("machine.with_protocol", id, |_| {
            catch_unwind(AssertUnwindSafe(|| {
                Machine::with_protocol(config.machine, proto)
            }))
        })
        .map_err(panic_message)?;
    let mut replay = ReplayDriver::new(trace.clone());
    let outcome = s
        .span("machine.try_run", id, |_| {
            catch_unwind(AssertUnwindSafe(|| {
                if traced {
                    machine.try_run(&mut TracedDriver(&mut replay))
                } else {
                    machine.try_run(&mut replay)
                }
            }))
        })
        .map_err(panic_message)?
        .map_err(|stall| stall.to_string())?;
    Ok(s.span("bench.from_outcome", id, |_| {
        plan.record_for(config, &outcome)
    }))
}

/// The checker's own set-up for one shape: root state, equivariance probe,
/// symmetry group and root digest.
fn check_root(shape: &Shape) -> u64 {
    let cfg = shape.config();
    let proto = build_protocol(shape.protocol, ProtocolParams::default());
    let root = CheckState::new(cfg.nodes, cfg.fuel, cfg.addrs(), proto);
    let ident: Vec<NodeId> = (0..cfg.nodes).collect();
    let perms = if root.proto.relabeled(&ident).is_some() {
        let homes: Vec<NodeId> = cfg
            .addrs()
            .iter()
            .map(|&a| (a % cfg.nodes as u64) as NodeId)
            .collect();
        home_fixing_perms(cfg.nodes, &homes)
    } else {
        vec![ident]
    };
    root.canonicalize(&perms, 0).0
}

fn factory_for(kind: ProtocolKind, traced: bool) -> impl Fn() -> Box<dyn Protocol> + Sync {
    move || {
        if traced {
            build_traced(kind, ProtocolParams::default())
        } else {
            build_protocol(kind, ProtocolParams::default())
        }
    }
}

/// Each shape is set up [`CHECK_SETUP_REPEATS`] times right before it is
/// explored, so the set-up samples spread over the whole pass like the
/// explorations do; `setup_s` sums the per-shape medians.
fn check_pass(traced: bool, spans: &mut Spans) -> Pass {
    let mut cal = Calibrator::start();
    let mut pass = Pass::default();
    for (i, shape) in SHAPES.iter().enumerate() {
        pass.attempted += 1;
        let shape_mark = spans.mark();
        for _ in 0..CHECK_SETUP_REPEATS {
            spans.span("check.setup", i as u32, |_| {
                std::hint::black_box(check_root(shape))
            });
        }
        let mut setups: Vec<f64> = spans
            .named_since(shape_mark, "check.setup")
            .map(Span::dur_s)
            .collect();
        setups.sort_by(f64::total_cmp);
        let cfg = shape.config();
        let outcome = spans.span("check.explore", i as u32, |_| {
            explore(&cfg, factory_for(shape.protocol, traced))
        });
        let explore_s = spans.total_s_since(shape_mark, "check.explore");
        let unit = Times {
            setup_s: setups[setups.len() / 2],
            run_s: explore_s,
            work_s: explore_s,
        };
        pass.unit(unit, cal.factor());
        let stats = outcome.stats().unwrap_or_default();
        pass.work += stats.explored;
        let verdict = match &outcome {
            CheckOutcome::Pass { .. } => "PASS".to_string(),
            CheckOutcome::Violation(cx) => format!("VIOLATION {}", cx.violation),
            CheckOutcome::ResourceLimit { reason, .. } => format!("RESOURCE {reason}"),
        };
        if !outcome.is_pass() {
            pass.failures
                .push((i, format!("{}: {verdict}", shape.label())));
        }
        pass.lines.push(format!(
            "{}: {verdict} states={} explored={} deduped={} sleep_pruned={} sym_group={}",
            shape.label(),
            outcome.states(),
            stats.explored,
            stats.deduped,
            stats.sleep_pruned,
            stats.sym_group
        ));
        pass.shapes.push(outcome);
    }
    pass.calibration_s = cal.median_s();
    pass
}
