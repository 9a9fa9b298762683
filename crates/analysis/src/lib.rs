//! # dirtree-analysis — analytic models and run helpers
//!
//! The closed-form side of the paper's tables, plus the record→replay
//! helpers for running one workload by hand:
//!
//! * [`formulas`] — Table 1 message-count models and the §2 directory
//!   memory-requirement formulas;
//! * [`tree_capacity`] — the Table 3 recurrences and the Table 4
//!   insertion replay for Dir<sub>i</sub>Tree₂ forests;
//! * [`experiments`] — record a workload once and replay it on a
//!   machine ([`experiments::run_workload`] does both);
//! * [`tables`] — aligned ASCII table rendering for the experiment
//!   reports.
//!
//! The experiment grids themselves (Figures 8–11 and every other
//! table, figure and ablation) live in `dirtree-bench`, which runs them
//! through its parallel, cached sweep runner.

pub mod experiments;
pub mod formulas;
pub mod tables;
pub mod tree_capacity;
