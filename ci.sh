#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, build, the full workspace test suite
# (which includes the paper-claims and cross-protocol differential
# suites), the feature-off observability check, and the model checker's
# default tier (every roster protocol — the figure set, and Dir_iTree_k
# under its update and adaptive write policies, binary and ternary —
# exhaustively explored at P=2 and P=3, plus as much of the P=4 roster as
# fits a one-minute wall-clock budget). The checker writes per-shape
# states/explored/deduped/sleep-pruned counts to
# target/check_all/stats.jsonl; the P=2/P=3 rows must equal
# tests/golden/check_roster_p23.jsonl, so a state-space change is a diff.
# Then the experiment harness end to end: the P=64 scale-up and P=16
# adaptive-ablation slices byte-compared with their goldens, and a
# `reproduce_all --filter table` smoke run of the experiment registry
# (Tables 1/3/4) plus a check that a filter matching nothing exits 2.
# Run from the repository root; fails fast on the first problem.
#
#   ./ci.sh          default gate (~2-3 min of model checking: P=2, P=3,
#                    and a time-budgeted P=4 slice)
#   ./ci.sh --deep   the full P=4 sweep (no time budget) plus the
#                    two-block P=2/P=3 shapes
set -euo pipefail

deep=0
if [[ "${1:-}" == "--deep" ]]; then
  deep=1
elif [[ -n "${1:-}" ]]; then
  echo "usage: $0 [--deep]" >&2
  exit 64
fi

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release --workspace
# Workspace tests build with the `trace` feature unified in (dirtree-bench
# always enables it), so the observability layer is exercised end to end —
# including tests/paper_claims.rs and tests/protocol_differential.rs.
cargo test --workspace -q
# The recorder's application threads, barrier, lock table and race check
# at the optimisation level every experiment binary and benchmark uses.
cargo test --release -q -p dirtree-workloads
# Feature-off path: without dirtree-bench in the graph the metrics sink
# must compile to a zero-sized no-op (pinned by `zero_sized_when_disabled`
# and `metrics_are_empty_when_trace_feature_is_off`).
cargo test -q -p dirtree-sim -p dirtree-net -p dirtree-machine
# The paper-claims suite by name, so a claim regression is called out
# directly even when some other workspace test fails first.
cargo test -q --test paper_claims

if (( deep )); then
  cargo run --release -p dirtree-check --bin check_all -- --deep
else
  cargo run --release -p dirtree-check --bin check_all -- --budget 60
fi
# The P=4 slice depends on the time budget, so only the exhaustive P=2/P=3
# single-block rows are pinned.
grep -E '"nodes":[23],"blocks":1,' target/check_all/stats.jsonl |
  cmp - tests/golden/check_roster_p23.jsonl
echo "check-stats: P=2/P=3 rows match tests/golden/check_roster_p23.jsonl"

# Perf smoke: the P=64 slice of the hot-path scaling study must finish
# inside a generous wall-clock budget (catches order-of-magnitude
# simulator regressions, not noise) and its records must stay
# byte-identical to the committed golden — the determinism gate for the
# whole record/replay + cached-sweep pipeline.
timeout 300 ./target/release/scale_up \
  --filter P=64 --no-cache --jobs 2 --out-dir target/perf_smoke >/dev/null
cmp target/perf_smoke/scale_up.jsonl tests/golden/scale_up_p64.jsonl
echo "perf-smoke: records match tests/golden/scale_up_p64.jsonl"
# The same slice on the virtual-channel machine (3 VCs, adaptive e-cube):
# pins the VC timing path and its extended record fields byte-for-byte,
# while the cmp above proves the default path never moved.
cmp target/perf_smoke/scale_up_vc.jsonl tests/golden/scale_up_p64_vc.jsonl
echo "perf-smoke: records match tests/golden/scale_up_p64_vc.jsonl"
# And the credit-bounded VC grid (vc_credits = 64 flits): injection
# backpressure is part of the timing here, so this golden pins the
# credit accounting end to end.
cmp target/perf_smoke/scale_up_vc_credited.jsonl \
  tests/golden/scale_up_p64_vc_credited.jsonl
echo "perf-smoke: records match tests/golden/scale_up_p64_vc_credited.jsonl"

# Adaptive-ablation smoke: the P=16 slice of the update/invalidate
# ablation (DESIGN.md #24). The binary itself asserts the acceptance
# criterion (adaptive within 1.05x of the best static policy per
# pattern workload); the cmp pins the records — including the detector
# counters and mode-flip counts — byte-for-byte.
timeout 300 ./target/release/adaptive_ablation \
  --filter P=16 --no-cache --jobs 2 --out-dir target/adaptive_smoke >/dev/null
cmp target/adaptive_smoke/adaptive_ablation.jsonl tests/golden/adaptive_p16.jsonl
echo "adaptive-smoke: records match tests/golden/adaptive_p16.jsonl"

# Registry smoke: `reproduce_all --filter NAME` is the only way to run a
# registry experiment, so run the cheap ones (Tables 1/3/4: closed-form
# plus tiny scripted machine runs) through the real dispatch, and check
# that a filter matching no experiment is an error (exit 2), not an empty
# report.
timeout 300 ./target/release/reproduce_all \
  --filter table --no-cache --jobs 2 --out-dir target/repro_smoke >/dev/null
echo "repro-smoke: reproduce_all --filter table ran"
rc=0
./target/release/reproduce_all --filter no_such_experiment \
  --out-dir target/repro_smoke 2>/dev/null || rc=$?
if (( rc != 2 )); then
  echo "repro-smoke: --filter no_such_experiment exited $rc, expected 2" >&2
  exit 1
fi
echo "repro-smoke: a filter matching no experiment exits 2"
