//! # dirtree-workloads — application workloads, recorded and replayed
//!
//! The paper evaluates coherence protocols by running four applications on
//! the Proteus execution-driven simulator. This crate keeps that
//! methodology's inputs: the *real algorithms* (LU decomposition, FFT,
//! Floyd-Warshall, an MP3D-style particle-in-cell code) run as Rust
//! closures on OS threads, one per simulated processor, and compute real
//! results through a shared word array. There is one way to run them:
//! record each node's stream of shared references, barriers and locks
//! once, with the threads running freely, then replay the streams on the
//! simulated machine for every protocol. Replay is valid because every
//! bundled app is data-race-free, which the recorder checks on every run
//! ([`trace`] module docs).
//!
//! * [`rendezvous`] — the application-side API ([`Env`]) and the threads,
//!   barrier, lock table and data-race check behind it;
//! * [`trace`] — [`record_ops`] and the replaying [`ReplayDriver`];
//! * [`layout`] — a bump allocator + typed views over the shared address
//!   space;
//! * [`apps`] — the four paper applications plus synthetic
//!   microbenchmarks;
//! * [`phases`] — seeded phase-structured random traces;
//! * [`WorkloadKind`] — a uniform constructor used by the experiment
//!   harness.

pub mod apps;
pub mod kind;
pub mod layout;
pub mod phases;
pub mod rendezvous;
pub mod trace;

pub use kind::WorkloadKind;
pub use layout::{Alloc, SharedArray};
pub use rendezvous::{Env, ThreadedWorkload};
pub use trace::{record_and_run, record_ops, OpTrace, ReplayDriver};
