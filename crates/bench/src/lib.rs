//! Experiment harness behind the `repro` binary and the benches.
//!
//! `experiments` runs the paper's evaluation (see DESIGN.md's
//! per-experiment index); `repro` reads the command line and renders
//! each table or figure once, for one artifact or for `repro all`, the
//! paper-vs-measured summary used in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod paper;
pub mod repro;
pub mod scaling;

pub use experiments::*;
pub use scaling::{scaling_experiment, scaling_json, ScalePoint};
