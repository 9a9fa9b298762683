//! Sharing-pattern detection — the part of the hybrid of the paper's
//! title that *chooses* a block's write policy.
//!
//! Dir<sub>i</sub>Tree<sub>k</sub> ([`crate::dir::dir_tree`]) runs every
//! block under one of two write policies over the same sharer forest:
//! invalidation or update. Its adaptive policy consults
//! [`detector::PatternDetector`], a per-block sharing-pattern classifier
//! driven by the request stream the home directory already sees (plus
//! read-hit notes from the machine, which keep update-mode blocks
//! observable), with a Schmitt-trigger score so alternating patterns
//! cannot flap the policy. A block flips only when it is *drained* (no
//! in-flight messages, no unretired completion, no open home transaction,
//! clean directory entry), and the flip changes only its mode bit — the
//! forest, zombie edges included, stays where it is.
//!
//! See DESIGN.md system #24 for the state machine and the transition-drain
//! rule.

pub mod detector;

pub use detector::{PatternDetector, SharingPattern};
