#!/usr/bin/env python3
"""Repository benchmark: one workload, measured for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds the `dirtree-perfbench` package (release, offline, into
$CARGO_TARGET_DIR or `.bench_build`), pins itself and every child to one
CPU, then runs repetitions of the workload, each in a fresh process.

- `--trace 0`: repetitions until `--seconds` have passed since the first
  one started (at least MIN_REPS). The first also checks its records against
  `Runner::run` (or `Machine::run`) and, at the default seed, against the
  committed golden. Each repetition reports the host times of its units (a
  set-up, one config's simulation, one shape's exploration) scaled by the
  calibration kernel run beside them (perfbench/src/calib.rs). The time
  metrics sum each unit's median over the repetitions; `peak_rss_mb` is
  the median over repetitions.
- `--trace 1`: repetitions of an untraced + traced pair until `--seconds`
  have passed (at least one). Every per-layer metric is the median over
  pairs.

Every line but the last is for people; the last line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_floyd64_p64", "vc_phased_p256", "check_forest")
DEFAULT_SEED = 1996
MIN_REPS = 4
# A run must end within 180 s: no repetition starts after START_DEADLINE_S,
# and none runs past END_DEADLINE_S.
START_DEADLINE_S = 120.0
END_DEADLINE_S = 170.0
# The model checker expands each BFS layer on a fresh scoped thread. Which
# glibc malloc arena that thread gets depends on whether the previous one
# has finished exiting, so with per-thread arenas peak RSS varied from 109
# to 133 MiB between identical check_forest runs; with one arena it repeats
# (87 MiB). Host times did not change measurably on cold_floyd64_p64.
REP_ENV = dict(os.environ, MALLOC_ARENA_MAX="1")

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("total_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)
# Printed for people beside END_TO_END: deterministic or workload-specific
# figures, and the unscaled host times with the calibration kernel's time
# (see perfbench/src/calib.rs).
REPORTED = (("states_per_s", "1/s"), ("norm_time", "ratio"), ("host_setup_s", "s"),
            ("host_run_s", "s"), ("host_total_s", "s"), ("calibration_s", "s"))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0:
        fail("--seed must be non-negative")
    return a


def build():
    """Build the benchmark binary; return its path."""
    for need in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found under {ROOT}: run from a full source tree")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    return os.path.join(target, "release", "dirtree-perfbench")


def pin():
    """Pin this process (and so every child) to the highest allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_id():
    """The git commit if the tree is a checkout, else a digest of the sources."""
    # Only this tree's own repository: a parent directory's would name an
    # unrelated commit.
    commit = os.path.exists(os.path.join(ROOT, ".git")) and command_output(
        ["git", "rev-parse", "HEAD"])
    if commit:
        return commit
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            for f in sorted(files):
                if f.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(d, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    for f in ("Cargo.toml", "Cargo.lock"):
        if os.path.isfile(os.path.join(ROOT, f)):
            with open(os.path.join(ROOT, f), "rb") as fh:
                h.update(f.encode() + fh.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def rep(binary, workload, seed, mode, verify, started):
    out = os.path.join(ROOT, ".bench_build", "perfbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--root", ROOT, "--out", out]
    if verify:
        cmd.append("--verify")
    timeout = started + END_DEADLINE_S - time.monotonic()
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=REP_ENV, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} repetition did not finish within {END_DEADLINE_S:g} s of the start")
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail(f"{workload} repetition exited with code {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(reps):
    """The END_TO_END values: each unit's scaled times are reduced to their
    median over the repetitions, then summed over the units."""
    units = list(zip(*(r["units"] for r in reps)))
    setup_s, run_s, work_s = (sum(median([u[k] for u in unit]) for unit in units)
                              for k in range(3))
    work = median([r["work"] for r in reps])
    return (setup_s, run_s, setup_s + run_s, work / work_s,
            median([r["peak_rss_mb"] for r in reps]))


def main():
    args = parse_args()
    binary = build()
    cpu = pin()
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# host={platform.node()} nproc={os.cpu_count()} pinned_cpu={cpu} "
          f"rustc={command_output(['rustc', '--version']) or 'unknown'!r} "
          f"source={source_id()}")
    if args.workload == "check_forest":
        print("# check_forest is an exhaustive search: --seed has no effect on it")

    mode = "trace" if args.trace else "measure"
    started = time.monotonic()
    reps = [rep(binary, args.workload, args.seed, mode, True, started)]
    min_reps = 1 if args.trace else MIN_REPS
    while ((len(reps) < min_reps or time.monotonic() - started < args.seconds)
           and time.monotonic() - started < START_DEADLINE_S):
        reps.append(rep(binary, args.workload, args.seed, mode, False, started))

    # Every repetition must reproduce the verified repetition's records.
    reference = reps[0]["digests"]
    attempted = sum(r["attempted"] for r in reps)
    failed = 0
    for i, r in enumerate(reps):
        bad = {j for j, (a, b) in enumerate(zip(r["digests"], reference)) if a != b}
        bad |= set(range(min(len(r["digests"]), len(reference)),
                         max(len(r["digests"]), len(reference))))
        failed += max(r["failed"], len(bad))
        for why in r["failures"]:
            print(f"FAIL rep {i}: {why}")
        if bad:
            print(f"FAIL rep {i}: records {sorted(bad)} differ from repetition 0")

    print(f"# {len(reps)} repetitions ({mode}), each in a fresh process")
    for i, r in enumerate(reps):
        print(f"# rep {i}: " + " ".join(f"{n}={r[n]:.6g}" for n, _ in END_TO_END)
              + f" host_total_s={r['host_total_s']:.6g} calibration_s={r['calibration_s']:.6g}")
    if not args.trace:
        print(f"# scaled times: each of {len(reps[0]['units'])} units' median over "
              f"{len(reps)} repetitions, summed")
        for (name, unit), value in zip(END_TO_END, end_to_end(reps)):
            print(f"{name:>14} = {value:.6g} {unit}")
    for name, unit in REPORTED:
        values = [r[name] for r in reps if r.get(name) is not None]
        if values:
            print(f"{name:>14} = {median(values):.6g} {unit}  "
                  f"(median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})")
    print(f"{'fail_ratio':>14} = {failed / attempted:.6g} ratio  ({failed} of {attempted} "
          f"configs or shapes)")

    if args.trace:
        units = {k: v["unit"] for k, v in reps[0]["layers"].items()}
        metrics = {k: {"value": median([r["layers"][k]["value"] for r in reps]), "unit": u}
                   for k, u in units.items()}
        for k, m in metrics.items():
            print(f"  {k:<28} {m['value']:>16.6g} {m['unit']}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for (name, unit), value in zip(END_TO_END, end_to_end(reps))}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
