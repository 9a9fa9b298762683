//! Committed BENCH snapshots must not drift from the code.
//!
//! The root `BENCH_sim_hotpath.json` is written by `scale_up` and carries
//! each config's deterministic `cycles` and `events` beside its wall-clock
//! readings. Its P=64 rows must equal the records of the three P=64
//! goldens that CI regenerates byte-for-byte, so a code change that moves
//! simulated time cannot leave a stale snapshot behind. Likewise the P=16
//! cells of the root `BENCH_adaptive.json` (written by
//! `adaptive_ablation`) must equal `tests/golden/adaptive_p16.jsonl`.

use dirtree_bench::sweep::json::{self, Value};
use dirtree_bench::sweep::RunRecord;

fn root(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn field<'a>(row: &'a Value, name: &str) -> &'a Value {
    row.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == name))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("BENCH row without {name}: {row:?}"))
}

#[test]
fn bench_sim_hotpath_p64_rows_match_the_goldens() {
    let bench = json::parse(&root("BENCH_sim_hotpath.json")).expect("parse the BENCH file");
    let rows = field(&bench, "configs").as_array().expect("configs array");
    // (golden, vcs, vc_credits) — the grid each golden slices.
    let grids = [
        ("tests/golden/scale_up_p64.jsonl", 1, 0),
        ("tests/golden/scale_up_p64_vc.jsonl", 3, 0),
        ("tests/golden/scale_up_p64_vc_credited.jsonl", 3, 64),
    ];
    for (golden, vcs, credits) in grids {
        let bench_rows: Vec<(String, u64, u64)> = rows
            .iter()
            .filter(|r| {
                field(r, "nodes").as_u64() == Some(64)
                    && field(r, "vcs").as_u64() == Some(vcs)
                    && field(r, "vc_credits").as_u64() == Some(credits)
            })
            .map(|r| {
                (
                    field(r, "protocol").as_str().unwrap().to_string(),
                    field(r, "cycles").as_u64().unwrap(),
                    field(r, "events").as_u64().unwrap(),
                )
            })
            .collect();
        let golden_rows: Vec<(String, u64, u64)> = root(golden)
            .lines()
            .map(|line| {
                let r = RunRecord::from_json(line).expect("parse golden record");
                (r.protocol, r.cycles, r.events)
            })
            .collect();
        assert!(!golden_rows.is_empty(), "{golden} is empty");
        assert_eq!(
            bench_rows, golden_rows,
            "BENCH_sim_hotpath.json P=64 rows (vcs={vcs}, vc_credits={credits}) \
             drifted from {golden}; regenerate it with `scale_up --no-cache`"
        );
    }
}

#[test]
fn bench_adaptive_p16_cells_match_the_golden() {
    let bench = json::parse(&root("BENCH_adaptive.json")).expect("parse the BENCH file");
    const COUNTS: [&str; 11] = [
        "nodes",
        "cycles",
        "messages",
        "bytes",
        "mode_flips_to_update",
        "mode_flips_to_invalidate",
        "pattern_producer_consumer",
        "pattern_read_mostly",
        "pattern_migratory",
        "pattern_write_shared",
        "pattern_private",
    ];
    let bench_cells: Vec<(String, String, Vec<u64>)> = field(&bench, "cells")
        .as_array()
        .expect("cells array")
        .iter()
        .filter(|c| field(c, "nodes").as_u64() == Some(16))
        .map(|c| {
            (
                field(c, "workload").as_str().unwrap().to_string(),
                field(c, "protocol").as_str().unwrap().to_string(),
                COUNTS
                    .iter()
                    .map(|n| field(c, n).as_u64().unwrap())
                    .collect(),
            )
        })
        .collect();
    let golden_cells: Vec<(String, String, Vec<u64>)> = root("tests/golden/adaptive_p16.jsonl")
        .lines()
        .map(|line| {
            let r = RunRecord::from_json(line).expect("parse golden record");
            let counts = vec![
                r.nodes as u64,
                r.cycles,
                r.messages,
                r.bytes,
                r.mode_flips_to_update,
                r.mode_flips_to_invalidate,
                r.pattern_producer_consumer,
                r.pattern_read_mostly,
                r.pattern_migratory,
                r.pattern_write_shared,
                r.pattern_private,
            ];
            (r.workload, r.protocol, counts)
        })
        .collect();
    assert_eq!(golden_cells.len(), 12, "4 workloads x 3 write policies");
    assert_eq!(
        bench_cells, golden_cells,
        "BENCH_adaptive.json P=16 cells drifted from tests/golden/adaptive_p16.jsonl; \
         regenerate it with `adaptive_ablation --no-cache`"
    );
}
