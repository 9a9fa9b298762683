//! Every protocol must run each application's recorded op streams with
//! the coherence witness on (`verify: true`), which panics on the first
//! load that returns a stale value.
//!
//! The applications compute real results, but in the recorder, not in the
//! simulated machine: the final memory image is protocol-independent by
//! construction (the apps' unit tests compare it with sequential
//! references). What differs per protocol is whether its replay of the
//! same streams stays coherent, and the witness is that oracle.

use dirtree::analysis::experiments::{record, replay};
use dirtree::machine::{DriverOp, MachineConfig};
use dirtree::prelude::*;

fn protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::FullMap,
        ProtocolKind::LimitedNB { pointers: 1 },
        ProtocolKind::LimitedB { pointers: 2 },
        ProtocolKind::LimitLess { pointers: 2 },
        ProtocolKind::SinglyList,
        ProtocolKind::Sci,
        ProtocolKind::Stp { arity: 2 },
        ProtocolKind::SciTree,
        ProtocolKind::DirTree {
            pointers: 4,
            arity: 2,
        },
        ProtocolKind::DirTreeUpdate {
            pointers: 4,
            arity: 2,
        },
        ProtocolKind::Snoop,
    ]
}

/// Record `workload` once and replay it under each of `kinds`, witness on.
fn verified_on(kinds: &[ProtocolKind], workload: WorkloadKind, nodes: u32) {
    let trace = record(workload, nodes);
    let refs = trace
        .iter()
        .flatten()
        .filter(|op| matches!(op, DriverOp::Read(_) | DriverOp::Write(_)))
        .count() as u64;
    let mut config = MachineConfig::paper_default(nodes);
    config.verify = true;
    for &kind in kinds {
        let out = replay(&config, kind, &trace);
        assert_eq!(
            out.stats.total_ops(),
            refs,
            "{} did not retire every op of {}",
            kind.name(),
            workload.name()
        );
    }
}

#[test]
fn floyd_identical_across_protocols() {
    let w = WorkloadKind::Floyd {
        vertices: 16,
        seed: 11,
    };
    verified_on(&protocols(), w, 4);
}

#[test]
fn fft_identical_across_protocols() {
    let w = WorkloadKind::Fft { points: 64 };
    verified_on(&protocols(), w, 4);
}

#[test]
fn lu_identical_across_protocols() {
    let w = WorkloadKind::Lu { n: 12 };
    verified_on(&protocols(), w, 4);
}

#[test]
fn mp3d_identical_across_protocols() {
    let w = WorkloadKind::Mp3d {
        particles: 60,
        steps: 3,
    };
    verified_on(&protocols(), w, 4);
}

#[test]
fn jacobi_identical_across_protocols() {
    let w = WorkloadKind::Jacobi {
        grid: 10,
        sweeps: 3,
    };
    verified_on(&protocols(), w, 4);
}

#[test]
fn blocked_lu_identical_across_protocols() {
    let w = WorkloadKind::LuBlocked { n: 12, block: 4 };
    verified_on(
        &[
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
            ProtocolKind::LimitedNB { pointers: 1 },
            ProtocolKind::Sci,
            ProtocolKind::Snoop,
        ],
        w,
        4,
    );
}

#[test]
fn eight_processors_floyd_equivalence() {
    let w = WorkloadKind::Floyd {
        vertices: 12,
        seed: 23,
    };
    verified_on(
        &[
            ProtocolKind::DirTree {
                pointers: 2,
                arity: 2,
            },
            ProtocolKind::SinglyList,
            ProtocolKind::SciTree,
        ],
        w,
        8,
    );
}
