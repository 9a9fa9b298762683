//! Record a workload and replay it on a machine.

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
