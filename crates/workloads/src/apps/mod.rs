//! The paper's four applications plus synthetic microbenchmarks.
//!
//! Each application module provides a parameter struct with:
//! * `build(nprocs) -> ThreadedWorkload` — the parallel program, one
//!   closure per processor,
//! * a sequential reference used by tests to validate the parallel result,
//! * unit tests recording the app and replaying it on small configurations
//!   under several protocols with coherence verification enabled.

pub mod fft;
pub mod floyd;
pub mod jacobi;
pub mod lu;
pub mod lu_blocked;
pub mod mp3d;
pub mod patterns;
pub mod synthetic;
