//! Machine construction and the figure-style experiment grids.

use dirtree_core::protocol::ProtocolKind;
use dirtree_machine::{Machine, MachineConfig, RunOutcome};
use dirtree_workloads::{record_ops, OpTrace, ReplayDriver, WorkloadKind};
use std::sync::Arc;

/// Record `workload` at `nodes` processors (see [`dirtree_workloads::trace`]).
pub fn record(workload: WorkloadKind, nodes: u32) -> Arc<OpTrace> {
    Arc::new(record_ops(&mut workload.build(nodes)))
}

/// Replay a recorded trace on one protocol.
pub fn replay(config: &MachineConfig, protocol: ProtocolKind, trace: &Arc<OpTrace>) -> RunOutcome {
    Machine::new(*config, protocol).run(&mut ReplayDriver::new(trace.clone()))
}

/// Run one workload on one protocol at one machine size: record, then
/// replay.
pub fn run_workload(
    config: &MachineConfig,
    protocol: ProtocolKind,
    workload: WorkloadKind,
) -> RunOutcome {
    replay(config, protocol, &record(workload, config.nodes))
}

/// One cell of a Figures 8–11 grid.
#[derive(Clone, Debug)]
pub struct GridCell {
    pub protocol: ProtocolKind,
    pub nodes: u32,
    pub cycles: u64,
    /// Execution time relative to full-map at the same node count.
    pub normalized: f64,
    pub outcome: RunOutcome,
}

/// The full grid for one application: `protocols × node counts`, with
/// execution times normalized to the full-map protocol per node count
/// (the paper's Figures 8–11 presentation).
pub fn figure_grid(
    workload: WorkloadKind,
    node_counts: &[u32],
    protocols: &[ProtocolKind],
    configure: impl Fn(u32) -> MachineConfig,
) -> Vec<GridCell> {
    let mut cells = Vec::new();
    for &nodes in node_counts {
        let config = configure(nodes);
        // One recording per node count serves every protocol.
        let trace = record(workload, config.nodes);
        let baseline = replay(&config, ProtocolKind::FullMap, &trace);
        let base_cycles = baseline.cycles.max(1);
        for &protocol in protocols {
            let outcome = if protocol == ProtocolKind::FullMap {
                baseline.clone()
            } else {
                replay(&config, protocol, &trace)
            };
            cells.push(GridCell {
                protocol,
                nodes,
                cycles: outcome.cycles,
                normalized: outcome.cycles as f64 / base_cycles as f64,
                outcome,
            });
        }
    }
    cells
}

/// Render a figure grid as the paper presents it: one row per protocol,
/// one column per machine size, normalized execution time.
pub fn render_grid(title: &str, cells: &[GridCell], node_counts: &[u32]) -> String {
    use crate::tables::{norm, AsciiTable};
    let mut header: Vec<String> = vec!["protocol".into()];
    header.extend(node_counts.iter().map(|n| format!("{n} procs")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = AsciiTable::new(&header_refs);
    let mut protocols: Vec<ProtocolKind> = Vec::new();
    for c in cells {
        if !protocols.contains(&c.protocol) {
            protocols.push(c.protocol);
        }
    }
    for p in protocols {
        let mut row = vec![p.name()];
        for &n in node_counts {
            let cell = cells
                .iter()
                .find(|c| c.protocol == p && c.nodes == n)
                .expect("missing grid cell");
            row.push(norm(cell.normalized));
        }
        t.row(&row);
    }
    format!("{title}\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_normalizes_to_full_map() {
        let cells = figure_grid(
            WorkloadKind::Floyd {
                vertices: 8,
                seed: 3,
            },
            &[4],
            &[
                ProtocolKind::FullMap,
                ProtocolKind::DirTree {
                    pointers: 2,
                    arity: 2,
                },
            ],
            MachineConfig::test_default,
        );
        assert_eq!(cells.len(), 2);
        let fm = &cells[0];
        assert_eq!(fm.protocol, ProtocolKind::FullMap);
        assert!((fm.normalized - 1.0).abs() < 1e-12);
        assert!(cells[1].normalized > 0.0);
    }

    #[test]
    fn render_contains_all_protocols() {
        let cells = figure_grid(
            WorkloadKind::Sharing {
                blocks: 2,
                rounds: 2,
            },
            &[4],
            &[
                ProtocolKind::FullMap,
                ProtocolKind::LimitedNB { pointers: 1 },
            ],
            MachineConfig::test_default,
        );
        let s = render_grid("demo", &cells, &[4]);
        assert!(s.contains("FullMap"));
        assert!(s.contains("Dir1NB"));
        assert!(s.contains("4 procs"));
    }

    #[test]
    fn deterministic_across_grid_invocations() {
        let go = || {
            figure_grid(
                WorkloadKind::Migratory {
                    blocks: 2,
                    rounds: 4,
                },
                &[4],
                &[ProtocolKind::FullMap],
                MachineConfig::test_default,
            )[0]
            .cycles
        };
        assert_eq!(go(), go());
    }
}
