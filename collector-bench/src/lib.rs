//! The tracenet collector benchmark.
//!
//! Three workloads on the 4-ISP internet (`topogen::isp_internet`):
//! `isp-batch` (what `tracenet batch` runs), `isp-record` (the batch
//! with the cache off and every exchange recorded, as `tracenet record`
//! runs it) and `isp-replay` (what `tracenet replay` runs on that log).
//! An untraced run reports the end-to-end metrics; a traced run times
//! the calls into each crate from this package's own files and reports
//! the per-layer metrics. See README.md.

#![forbid(unsafe_code)]

pub mod check;
pub mod run;
pub mod stats;
pub mod sys;
pub mod traced;
pub mod workload;

pub use run::{result_line, run, Config, Report};
pub use workload::{isp_scenario_json, Workload};
