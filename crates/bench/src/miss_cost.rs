//! Measurement harness for Table 1: messages per read / write miss at a
//! controlled sharing degree.
//!
//! Runs a scripted scenario on the real machine: `p` distinct processors
//! read one block (staggered far apart so transactions never overlap),
//! then one writer writes it. Message counts are differenced between runs
//! with and without the final operation, yielding the *marginal* cost of
//! the p-th read and of a write over `p` sharers. Counts are critical-path
//! messages (fill acknowledgements excluded, as in the paper's Table 1).

use dirtree_core::protocol::ProtocolKind;
use dirtree_core::types::Addr;
use dirtree_machine::{DriverOp, Machine, MachineConfig, RunOutcome, ScriptDriver};

const BLOCK: Addr = 0;
/// Generous stagger so every transaction fully quiesces before the next.
const GAP: u64 = 50_000;

/// The scripted scenario on the paper's 32-node machine: nodes
/// `1..=readers` read `BLOCK` one after another (node 0 is its home),
/// then, if `write`, the last node writes it. Every step starts `GAP`
/// cycles after the previous one.
fn run_scenario(kind: ProtocolKind, readers: u32, write: bool) -> RunOutcome {
    let config = MachineConfig::paper_default(32);
    let nodes = config.nodes;
    assert!(readers < nodes - 1, "need a spare node for the writer");
    let mut active: Vec<(u32, Vec<DriverOp>)> = (0..readers)
        .map(|k| {
            (
                k + 1,
                vec![DriverOp::Work((k as u64 + 1) * GAP), DriverOp::Read(BLOCK)],
            )
        })
        .collect();
    if write {
        active.push((
            nodes - 1,
            vec![
                DriverOp::Work((readers as u64 + 2) * GAP),
                DriverOp::Write(BLOCK),
            ],
        ));
    }
    let mut driver = ScriptDriver::sparse(nodes, active);
    Machine::new(config, kind).run(&mut driver)
}

fn messages(kind: ProtocolKind, readers: u32, write: bool) -> u64 {
    run_scenario(kind, readers, write).stats.critical_messages()
}

/// Messages for the `p`-th read miss (marginal cost with `p − 1` existing
/// sharers).
pub fn read_miss_cost(kind: ProtocolKind, p: u32) -> u64 {
    assert!(p >= 1);
    messages(kind, p, false) - messages(kind, p - 1, false)
}

/// Messages for a write miss invalidating `p` sharers (writer not among
/// them).
pub fn write_miss_cost(kind: ProtocolKind, p: u32) -> u64 {
    messages(kind, p, true) - messages(kind, p, false)
}

/// Measured critical-path latency (cycles) of one write miss over `p`
/// sharers on the 32-node machine.
pub fn write_miss_latency_measured(kind: ProtocolKind, p: u32) -> f64 {
    run_scenario(kind, p, true).stats.write_miss_latency.mean()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_map_matches_table1() {
        assert_eq!(read_miss_cost(ProtocolKind::FullMap, 1), 2);
        assert_eq!(read_miss_cost(ProtocolKind::FullMap, 8), 2);
        // 2P + 2 with P = 4.
        assert_eq!(write_miss_cost(ProtocolKind::FullMap, 4), 10);
    }

    #[test]
    fn dir_tree_read_is_always_two() {
        let kind = ProtocolKind::DirTree {
            pointers: 4,
            arity: 2,
        };
        for p in [1, 2, 5, 9, 15] {
            assert_eq!(read_miss_cost(kind, p), 2, "p = {p}");
        }
    }

    #[test]
    fn singly_list_read_is_three_after_first() {
        assert_eq!(read_miss_cost(ProtocolKind::SinglyList, 1), 2);
        assert_eq!(read_miss_cost(ProtocolKind::SinglyList, 2), 3);
        assert_eq!(read_miss_cost(ProtocolKind::SinglyList, 6), 3);
    }

    #[test]
    fn sci_read_is_four_after_first() {
        assert_eq!(read_miss_cost(ProtocolKind::Sci, 1), 2);
        assert_eq!(read_miss_cost(ProtocolKind::Sci, 5), 4);
    }

    #[test]
    fn stp_read_is_four_after_first() {
        assert_eq!(read_miss_cost(ProtocolKind::Stp { arity: 2 }, 1), 2);
        assert_eq!(read_miss_cost(ProtocolKind::Stp { arity: 2 }, 4), 4);
    }
}
