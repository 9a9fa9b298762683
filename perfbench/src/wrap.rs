//! Transparent timing wrappers around the simulator's extension points.
//!
//! Each wrapper forwards every trait method, defaulted ones included, to
//! the wrapped value, so a traced run produces the same records as an
//! untraced one (pinned by `tests::traced_records_equal_untraced`).
//! `ProtoCtx::broadcast` in particular must reach the machine's override:
//! the trait default would expand it into unicasts.

use crate::trace::{count_ctx_call, timed, Call};
use dirtree_core::ctx::{ProtoCtx, ProtoEvent};
use dirtree_core::msg::Msg;
use dirtree_core::protocol::{build_protocol, Protocol, ProtocolKind, ProtocolParams};
use dirtree_core::types::{Addr, LineState, NodeId, OpKind};
use dirtree_machine::{Driver, DriverOp};
use dirtree_sim::Cycle;

/// Times `Driver::next_op`.
pub struct TracedDriver<'a>(pub &'a mut dyn Driver);

impl Driver for TracedDriver<'_> {
    fn next_op(&mut self, node: NodeId, now: Cycle) -> DriverOp {
        timed(Call::Driver, || self.0.next_op(node, now))
    }
}

/// Times `ProtoCtx::send`/`broadcast` and counts every other call.
pub struct TracedCtx<'a>(pub &'a mut dyn ProtoCtx);

impl ProtoCtx for TracedCtx<'_> {
    fn now(&self) -> Cycle {
        count_ctx_call();
        self.0.now()
    }

    fn num_nodes(&self) -> u32 {
        count_ctx_call();
        self.0.num_nodes()
    }

    fn home_of(&self, addr: Addr) -> NodeId {
        count_ctx_call();
        self.0.home_of(addr)
    }

    fn send(&mut self, dst: NodeId, msg: Msg) {
        timed(Call::Send, || self.0.send(dst, msg))
    }

    fn broadcast(&mut self, msg: Msg) -> Cycle {
        timed(Call::Broadcast, || self.0.broadcast(msg))
    }

    fn redeliver(&mut self, node: NodeId, msg: Msg, delay: Cycle) {
        count_ctx_call();
        self.0.redeliver(node, msg, delay)
    }

    fn occupy(&mut self, node: NodeId, cycles: Cycle) {
        count_ctx_call();
        self.0.occupy(node, cycles)
    }

    fn line_state(&self, node: NodeId, addr: Addr) -> LineState {
        count_ctx_call();
        self.0.line_state(node, addr)
    }

    fn set_line_state(&mut self, node: NodeId, addr: Addr, state: LineState) {
        count_ctx_call();
        self.0.set_line_state(node, addr, state)
    }

    fn complete(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        count_ctx_call();
        self.0.complete(node, addr, op)
    }

    fn note(&mut self, event: ProtoEvent) {
        count_ctx_call();
        self.0.note(event)
    }
}

/// Times the protocol's handlers; its handlers see a [`TracedCtx`].
pub struct TracedProtocol(pub Box<dyn Protocol>);

/// `build_protocol`, wrapped.
pub fn build_traced(kind: ProtocolKind, params: ProtocolParams) -> Box<dyn Protocol> {
    Box::new(TracedProtocol(build_protocol(kind, params)))
}

impl Protocol for TracedProtocol {
    fn kind(&self) -> ProtocolKind {
        self.0.kind()
    }

    fn start_miss(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, op: OpKind) {
        timed(Call::StartMiss, || {
            self.0.start_miss(&mut TracedCtx(ctx), node, addr, op)
        })
    }

    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        timed(Call::Handle, || {
            self.0.handle(&mut TracedCtx(ctx), node, msg)
        })
    }

    fn evict(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState) {
        timed(Call::Evict, || {
            self.0.evict(&mut TracedCtx(ctx), node, addr, state)
        })
    }

    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64 {
        self.0.dir_bits_per_mem_block(nodes)
    }

    fn cache_bits_per_line(&self, nodes: u32) -> u64 {
        self.0.cache_bits_per_line(nodes)
    }

    fn is_update(&self) -> bool {
        self.0.is_update()
    }

    fn is_update_for(&self, addr: Addr) -> bool {
        self.0.is_update_for(addr)
    }

    fn wants_read_hits(&self) -> bool {
        self.0.wants_read_hits()
    }

    fn note_read_hit(&mut self, node: NodeId, addr: Addr) {
        timed(Call::Note, || self.0.note_read_hit(node, addr))
    }

    fn note_op_retired(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        timed(Call::Note, || self.0.note_op_retired(node, addr, op))
    }

    fn boxed_clone(&self) -> Box<dyn Protocol> {
        timed(Call::Clone, || {
            Box::new(TracedProtocol(self.0.boxed_clone()))
        })
    }

    fn fingerprint(&self, h: &mut dyn std::hash::Hasher) {
        timed(Call::Fingerprint, || self.0.fingerprint(h))
    }

    fn relabeled(&self, perm: &[NodeId]) -> Option<Box<dyn Protocol>> {
        timed(Call::Relabel, || {
            self.0
                .relabeled(perm)
                .map(|p| Box::new(TracedProtocol(p)) as Box<dyn Protocol>)
        })
    }

    fn deliveries_commute(&self) -> bool {
        self.0.deliveries_commute()
    }

    fn check_invariants(
        &self,
        ctx: &dyn ProtoCtx,
        addrs: &[Addr],
        quiescent: bool,
    ) -> Result<(), String> {
        timed(Call::Invariants, || {
            self.0.check_invariants(ctx, addrs, quiescent)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::call_stats;
    use dirtree_check::{explore, CheckConfig};
    use dirtree_machine::{Machine, MachineConfig};
    use dirtree_net::NetworkConfig;
    use dirtree_workloads::phases::PhasedTrace;
    use dirtree_workloads::{record_ops, OpTrace, ReplayDriver, WorkloadKind};
    use std::sync::Arc;

    /// One config of every protocol family on the cube, plus the snooping
    /// protocol and full-map on the bus fabric.
    fn roster() -> Vec<(ProtocolKind, MachineConfig)> {
        let cube = MachineConfig::test_default(4);
        let bus = MachineConfig {
            net: NetworkConfig::bus(),
            ..cube
        };
        let mut v: Vec<_> = [
            ProtocolKind::FullMap,
            ProtocolKind::LimitedNB { pointers: 2 },
            ProtocolKind::LimitedB { pointers: 1 },
            ProtocolKind::LimitLess { pointers: 1 },
            ProtocolKind::SinglyList,
            ProtocolKind::Sci,
            ProtocolKind::Stp { arity: 2 },
            ProtocolKind::SciTree,
            ProtocolKind::DirTree {
                pointers: 2,
                arity: 2,
            },
            ProtocolKind::DirTreeUpdate {
                pointers: 2,
                arity: 2,
            },
            ProtocolKind::DirTreeAdaptive {
                pointers: 2,
                arity: 2,
            },
        ]
        .into_iter()
        .map(|p| (p, cube))
        .collect();
        v.push((ProtocolKind::Snoop, bus));
        v.push((ProtocolKind::FullMap, bus));
        v
    }

    /// The run's outcome, printed in full, and its update-mode flips.
    fn record(
        kind: ProtocolKind,
        m: MachineConfig,
        trace: &Arc<OpTrace>,
        traced: bool,
    ) -> (String, u64) {
        let mut replay = ReplayDriver::new(trace.clone());
        let outcome = if traced {
            Machine::with_protocol(m, build_traced(kind, m.protocol))
                .try_run(&mut TracedDriver(&mut replay))
        } else {
            Machine::with_protocol(m, build_protocol(kind, m.protocol)).try_run(&mut replay)
        }
        .expect("small roster configs run to completion");
        let flips = outcome.stats.mode_flips_to_update;
        let text = format!(
            "{} {:?} {:?} {:?}",
            outcome.cycles, outcome.stats, outcome.net, outcome.metrics
        );
        (text, flips)
    }

    #[test]
    fn traced_records_equal_untraced() {
        // The phased trace touches more blocks than the 64-line test
        // cache, so evictions run; the producer-consumer pipeline flips
        // adaptive blocks to update mode.
        let workloads = [
            PhasedTrace {
                nodes: 4,
                blocks: 96,
                phases: 3,
                reads_per_phase: 40,
                seed: 7,
            }
            .build(),
            WorkloadKind::PcPipeline {
                buffers: 8,
                rounds: 30,
            }
            .build(4),
        ];
        let before = (
            call_stats(Call::Broadcast).count,
            call_stats(Call::Evict).count,
        );
        let mut flips = 0;
        for mut w in workloads {
            let trace = Arc::new(record_ops(&mut w));
            for (kind, m) in roster() {
                let (plain, f) = record(kind, m, &trace, false);
                flips += f;
                assert_eq!(
                    plain,
                    record(kind, m, &trace, true).0,
                    "{} on {:?}: traced run differs",
                    kind.name(),
                    m.net.fabric
                );
            }
        }
        assert!(flips > 0, "no adaptive block switched to update mode");
        assert!(call_stats(Call::Handle).count > 0, "the wrapper never ran");
        assert!(
            call_stats(Call::Broadcast).count > before.0,
            "no broadcast reached the machine's override"
        );
        assert!(call_stats(Call::Evict).count > before.1, "no eviction ran");
    }

    #[test]
    fn traced_checker_explores_the_same_graph() {
        for kind in [
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
            ProtocolKind::DirTreeAdaptive {
                pointers: 2,
                arity: 2,
            },
        ] {
            let cfg = CheckConfig {
                addr_stride: 3,
                fuel: 1,
                jobs: 1,
                ..CheckConfig::small(3, 2)
            };
            let params = ProtocolParams::default();
            let plain = explore(&cfg, || build_protocol(kind, params));
            let traced = explore(&cfg, || build_traced(kind, params));
            assert!(plain.is_pass(), "{}: {plain:?}", kind.name());
            assert_eq!(plain.states(), traced.states(), "{}", kind.name());
            assert_eq!(plain.stats(), traced.stats(), "{}", kind.name());
            assert!(
                plain.stats().unwrap().sym_group > 1,
                "symmetry stayed inert"
            );
        }
        assert!(call_stats(Call::Relabel).count > 0);
    }
}
