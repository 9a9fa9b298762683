//! # dirtree-perfbench — the repository benchmark
//!
//! Runs one named workload per process and prints one JSON line with its
//! end-to-end timings, the digests of its records and, in the traced
//! mode, host time per crate. `run.py` drives the repetitions, pins the
//! process to one CPU and reduces the lines to medians.
//!
//! - [`calib`]: the host-speed calibration that scales end-to-end times
//! - [`workload`]: the three workloads and one pass over each
//! - [`wrap`]: transparent timing wrappers for `Driver`, `Protocol` and
//!   `ProtoCtx`
//! - [`trace`]: in-memory coarse spans and aggregated per-call spans
//! - [`gate`]: record comparisons against the golden, `Runner::run` and
//!   `Machine::run`
//! - [`report`]: the process's JSON line

pub mod calib;
pub mod gate;
pub mod report;
pub mod trace;
pub mod workload;
pub mod wrap;
