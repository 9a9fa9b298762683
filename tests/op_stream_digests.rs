//! Pins the recorder's per-node op streams against committed digests.
//!
//! Replay is only as good as the streams it replays: every simulated
//! number in this repository is a function of `record_ops`' output. The
//! golden `tests/golden/op_stream_digests.txt` holds one FxHash digest per
//! node stream for every `WorkloadKind` variant and a `PhasedTrace` at
//! P=4 and P=16, plus Floyd 64v at P=64 and P=1024 (the `scale_up`
//! input). The digests were first taken from the execution-driven
//! rendezvous recorder, so this test is the equivalence proof for any
//! recorder that replaces it.
//!
//! Line format: `<workload> P=<nodes> node=<id> len=<ops> fx=<digest>`.

use dirtree::machine::DriverOp;
use dirtree::prelude::*;
use dirtree::sim::hash::FxHasher;
use dirtree::workloads::phases::PhasedTrace;
use dirtree::workloads::record_ops;
use std::fmt::Write as _;
use std::hash::Hasher;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/op_stream_digests.txt"
);

/// One small instance of every `WorkloadKind` variant (sizes valid at
/// P=16, e.g. FFT needs at least two points per node).
fn kinds() -> Vec<WorkloadKind> {
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

fn phased(nodes: u32) -> PhasedTrace {
    PhasedTrace {
        nodes,
        blocks: 24,
        phases: 4,
        reads_per_phase: 12,
        seed: 1996,
    }
}

fn digest(ops: &[DriverOp]) -> u64 {
    let mut h = FxHasher::default();
    for op in ops {
        let (tag, arg) = match *op {
            DriverOp::Read(a) => (0u8, a),
            DriverOp::Write(a) => (1, a),
            DriverOp::Work(c) => (2, c),
            DriverOp::Barrier(s) => (3, s as u64),
            DriverOp::Lock(id) => (4, id as u64),
            DriverOp::Unlock(id) => (5, id as u64),
            DriverOp::Done => (6, 0),
        };
        h.write_u8(tag);
        h.write_u64(arg);
    }
    h.finish()
}

fn render(out: &mut String, name: &str, trace: &[Vec<DriverOp>]) {
    let nodes = trace.len();
    for (node, ops) in trace.iter().enumerate() {
        writeln!(
            out,
            "{name} P={nodes} node={node} len={} fx={:016x}",
            ops.len(),
            digest(ops)
        )
        .unwrap();
    }
}

/// Record every pinned case and render its digest lines.
fn current() -> String {
    let mut out = String::new();
    for nodes in [4, 16] {
        for kind in kinds() {
            render(&mut out, &kind.name(), &record_ops(&mut kind.build(nodes)));
        }
        render(&mut out, "Phased", &record_ops(&mut phased(nodes).build()));
    }
    let floyd = WorkloadKind::Floyd {
        vertices: 64,
        seed: 1996,
    };
    for nodes in [64, 1024] {
        render(
            &mut out,
            &floyd.name(),
            &record_ops(&mut floyd.build(nodes)),
        );
    }
    out
}

#[test]
fn recorder_reproduces_every_pinned_stream_digest() {
    let golden = std::fs::read_to_string(GOLDEN).expect("read the stream-digest golden");
    let now = current();
    for (i, (want, got)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(got, want, "line {}: stream digest diverged", i + 1);
    }
    assert_eq!(
        now.lines().count(),
        golden.lines().count(),
        "pinned case count changed"
    );
}
