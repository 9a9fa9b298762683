//! Record once, replay many: the one way to run a workload.
//!
//! [`record_ops`] runs a workload's application threads freely, with no
//! machine and no simulated timing, and returns each node's [`DriverOp`]
//! stream; [`ReplayDriver`] feeds the streams to a [`Machine`], which adds
//! the timing. A sweep records a `(workload, nodes)` pair once and replays
//! it under every protocol config.
//!
//! # Why a free-running recording is valid
//!
//! A [`DriverOp`] carries addresses and sync ids, never data values. A
//! node's stream therefore depends on the host schedule only through the
//! values its loads return. In a data-race-free program every load returns
//! the value of the one store that barriers or a lock order before it, so
//! the streams are the same under every schedule: the recorder's, any
//! other run's, and every simulated machine's. A stream recorded once
//! drives every protocol config to the same simulation as running the
//! application against that machine would.
//!
//! Data-race freedom is checked on every recording, not assumed. Two
//! accesses to one word in the same barrier epoch from different nodes,
//! at least one a write, are a race unless every access to that word in
//! the epoch held one common lock; the recording then panics with
//! "data race during trace recording", naming the word, both nodes and
//! the epoch. Both accesses mark a per-word shadow summary, so the check
//! fires whichever runs first (`rendezvous::shadow`).
//! References made with `Env::touch_read`/`Env::touch_write` move no
//! value, so they cannot carry a race into a stream and are not checked.
//! Recording twice and comparing the streams would be a weaker check: on
//! one CPU the two recordings can follow the same schedule and agree
//! despite a race. The shadow check sees a race under any schedule.
//!
//! # What the check cannot see
//!
//! Lock-protected accesses are exempt, and a lock is granted in host
//! schedule order. A value read under a lock is therefore schedule
//! dependent. The bundled applications use that value only
//! commutatively: MP3D increments a cell counter under the cell's lock
//! and never branches on or addresses by the value it reads. An
//! application that fed a lock-protected value into an address or a
//! branch would record streams that depend on grant order, and no check
//! here would notice. The same holds for any input outside the shared
//! words, such as a thread-local random number generator seeded by time.
//!
//! The `op_stream_digests` integration test pins every bundled workload's
//! streams to digests first taken from the execution-driven recorder this
//! one replaced.

use crate::rendezvous::ThreadedWorkload;
use dirtree_core::types::NodeId;
use dirtree_machine::{Driver, DriverOp, Machine, RunOutcome};
use dirtree_sim::Cycle;
use std::sync::Arc;

/// Per-node operation streams recorded from one workload run.
pub type OpTrace = Vec<Vec<DriverOp>>;

/// Run `w`'s application threads to completion and return each node's
/// operation stream; `w.values()` then holds the final shared memory.
///
/// The trace is a pure function of the workload (module docs), so it is
/// safe to share across protocol configs and `--jobs` levels. Panics if
/// an application thread panics (with that thread's payload), on a data
/// race, on a sync deadlock, or if `w` was already recorded.
pub fn record_ops(w: &mut ThreadedWorkload) -> OpTrace {
    w.record()
}

/// Record `w` and replay it on `machine`.
pub fn record_and_run(machine: &mut Machine, w: &mut ThreadedWorkload) -> RunOutcome {
    let trace = Arc::new(record_ops(w));
    machine.run(&mut ReplayDriver::new(trace))
}

/// Replays a recorded [`OpTrace`]. The trace is behind an `Arc` so a
/// sweep replays one recording across many protocol configs without
/// cloning megabytes of ops per simulation.
pub struct ReplayDriver {
    trace: Arc<OpTrace>,
    pos: Vec<usize>,
}

impl ReplayDriver {
    pub fn new(trace: Arc<OpTrace>) -> Self {
        let n = trace.len();
        Self {
            trace,
            pos: vec![0; n],
        }
    }
}

impl Driver for ReplayDriver {
    fn next_op(&mut self, node: NodeId, _now: Cycle) -> DriverOp {
        let n = node as usize;
        match self.trace[n].get(self.pos[n]) {
            Some(&op) => {
                self.pos[n] += 1;
                op
            }
            None => DriverOp::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::PhasedTrace;
    use crate::WorkloadKind;

    /// One small instance of every workload variant.
    fn every_kind() -> Vec<WorkloadKind> {
        vec![
            WorkloadKind::Mp3d {
                particles: 60,
                steps: 3,
            },
            WorkloadKind::Lu { n: 12 },
            WorkloadKind::LuBlocked { n: 12, block: 4 },
            WorkloadKind::Floyd {
                vertices: 10,
                seed: 1996,
            },
            WorkloadKind::Fft { points: 64 },
            WorkloadKind::Jacobi {
                grid: 10,
                sweeps: 2,
            },
            WorkloadKind::Sharing {
                blocks: 8,
                rounds: 4,
            },
            WorkloadKind::Migratory {
                blocks: 4,
                rounds: 6,
            },
            WorkloadKind::Storm {
                words: 96,
                passes: 2,
            },
            WorkloadKind::PcPipeline {
                buffers: 8,
                rounds: 6,
            },
            WorkloadKind::TokenRing { tokens: 3, laps: 2 },
            WorkloadKind::Broadcast {
                blocks: 6,
                rounds: 4,
                scans: 3,
            },
            WorkloadKind::FalseShare {
                blocks: 6,
                rounds: 12,
            },
        ]
    }

    /// Every bundled workload passes the data-race check at two machine
    /// sizes (a race panics inside `record_ops`).
    #[test]
    fn every_workload_records_race_free() {
        for nodes in [4, 16] {
            for kind in every_kind() {
                let trace = record_ops(&mut kind.build(nodes));
                assert_eq!(trace.len(), nodes as usize, "{}", kind.name());
            }
            let phased = PhasedTrace {
                nodes,
                blocks: 24,
                phases: 4,
                reads_per_phase: 12,
                seed: 1996,
            };
            record_ops(&mut phased.build());
        }
    }

    /// Recording is a pure function of the workload: two recordings of
    /// the same app are identical op-for-op, whatever the host schedule.
    #[test]
    fn recording_is_deterministic() {
        let kind = WorkloadKind::Mp3d {
            particles: 80,
            steps: 2,
        };
        let a = record_ops(&mut kind.build(8));
        let b = record_ops(&mut kind.build(8));
        assert_eq!(a, b);
    }

    /// A node finishing while others still run is excused from later
    /// barriers (sparse work distributions at large P).
    #[test]
    fn early_finishers_do_not_block_recording() {
        // 10 vertices on 16 nodes: nodes 10..15 own no rows and issue
        // only barriers.
        let trace = record_ops(
            &mut WorkloadKind::Floyd {
                vertices: 10,
                seed: 7,
            }
            .build(16),
        );
        assert_eq!(trace.len(), 16);
        let mut w = ThreadedWorkload::new(3, 1, |tid| {
            Box::new(move |env| {
                for _ in 0..tid {
                    env.barrier();
                }
            })
        });
        let trace = record_ops(&mut w);
        let seqs: Vec<Vec<DriverOp>> = (0..3)
            .map(|n| (0..n).map(DriverOp::Barrier).collect())
            .collect();
        assert_eq!(trace, seqs, "barrier numbering is per node");
    }

    #[test]
    #[should_panic(expected = "already recorded")]
    fn a_workload_records_once() {
        let mut w = WorkloadKind::Sharing {
            blocks: 2,
            rounds: 1,
        }
        .build(2);
        record_ops(&mut w);
        record_ops(&mut w);
    }
}
