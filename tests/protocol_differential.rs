//! Cross-protocol differential test on a *seeded random* operation trace.
//!
//! The application tests in `protocol_equivalence.rs` replay real
//! algorithms whose access patterns are highly structured. This suite
//! drives the protocols with a randomized (but seeded and phase-structured)
//! trace instead — see [`dirtree::workloads::phases::PhasedTrace`] for the
//! generator: per phase, a deterministic owner writes each block, a barrier
//! orders the phase, then every processor reads a private random subset of
//! blocks.
//!
//! The trace is recorded once; its read values, and so the per-processor
//! checksums, come from the recorder and are protocol-independent by
//! construction. The stale-load oracle is the coherence witness
//! (`verify: true` in `MachineConfig::test_default`): every member of
//! [`ProtocolKind::figure_set`], the update write policy and the adaptive
//! hybrid (whose per-block mode flips must be architecturally invisible)
//! replay the same streams, and the witness panics on the first load any
//! of them serves stale. Full-map is the timing baseline: every protocol
//! must retire exactly its reads and writes.

use dirtree::analysis::experiments::replay;
use dirtree::machine::MachineConfig;
use dirtree::prelude::*;
use dirtree::workloads::phases::PhasedTrace;
use dirtree::workloads::record_ops;
use std::sync::Arc;

fn trace(seed: u64) -> PhasedTrace {
    PhasedTrace {
        nodes: 8,
        blocks: 24,
        phases: 4,
        reads_per_phase: 12,
        seed,
    }
}

/// Ternary update and adaptive trees: with three pointers and eight
/// nodes, Figure-6 merges adopt three equal-height roots, so the k-way
/// update waves run under the witness too.
const TERNARY: [ProtocolKind; 2] = [
    ProtocolKind::DirTreeUpdate {
        pointers: 3,
        arity: 3,
    },
    ProtocolKind::DirTreeAdaptive {
        pointers: 3,
        arity: 3,
    },
];

/// The figure set plus the write-policy variants this repo adds: the
/// update-write tree and the adaptive hybrid, binary and ternary.
fn compared_set() -> Vec<ProtocolKind> {
    let mut kinds = ProtocolKind::figure_set();
    kinds.push(ProtocolKind::DirTreeUpdate {
        pointers: 4,
        arity: 2,
    });
    kinds.push(ProtocolKind::DirTreeAdaptive {
        pointers: 4,
        arity: 2,
    });
    kinds.extend(TERNARY);
    kinds
}

#[test]
fn all_protocols_agree_on_a_seeded_random_trace() {
    for seed in [1996, 0xdead_beef] {
        let t = trace(seed);
        let mut workload = t.build();
        let ops = Arc::new(record_ops(&mut workload));
        // Sanity on the recording itself: the last phase's published
        // values are in memory and every processor produced a checksum.
        let memory = workload.values();
        for block in 0..t.blocks {
            assert_eq!(memory[block as usize], t.published(t.phases - 1, block));
        }
        for tid in 0..t.nodes as u64 {
            assert_ne!(
                memory[t.checksum_addr(tid) as usize],
                0,
                "tid {tid} read nothing"
            );
        }
        let config = MachineConfig::test_default(t.nodes);
        let oracle = replay(&config, ProtocolKind::FullMap, &ops).stats;
        for kind in compared_set() {
            let stats = replay(&config, kind, &ops).stats;
            assert_eq!(
                (stats.reads, stats.writes),
                (oracle.reads, oracle.writes),
                "{} retired a different op mix (seed {seed})",
                kind.name()
            );
            if TERNARY.contains(&kind) {
                assert!(stats.tree_merges > 0, "{}: no merge fired", kind.name());
            }
        }
    }
}
