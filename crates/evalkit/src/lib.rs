//! Evaluation toolkit for the tracenet reproduction.
//!
//! Everything §4 of the paper computes lives here:
//!
//! * [`classify`](mod@classify) — matching collected subnets against ground truth into
//!   the row vocabulary of Tables 1–2: exact, missing, underestimated,
//!   overestimated, split, merged, each split by responsiveness
//!   (`∖unrs`);
//! * [`SubnetTable`] — the tables themselves, with exact-match rates
//!   including and excluding unresponsive subnets;
//! * [`similarity`] — the paper's equations (1)–(5): prefix and size
//!   distance factors and their normalized order-1 Minkowski sums;
//! * [`crossval`] — the three-vantage Venn partition of Figure 6 and the
//!   agreement rates quoted in §4.2;
//! * [`audit`] — the §4.1.1 unresponsiveness audit: ping sweeps over
//!   missed/underestimated subnets, so the `∖unrs` table rows are
//!   measured rather than assumed;
//! * [`accounting`] — Figure 7's target/subnetized/un-subnetized IP
//!   counts, Figure 8's subnets-per-ISP counts and Figure 9's
//!   prefix-length histogram;
//! * [`graph`] — the subnet-level topology map assembled from sessions
//!   (nodes = collected subnets, edges = consecutive-hop adjacency),
//!   with Graphviz DOT export;
//! * [`run`] — experiment drivers: run tracenet (or traceroute) over a
//!   scenario's target list and collect the deduplicated subnet set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod audit;
pub mod classify;
pub mod crossval;
pub mod graph;
pub mod render;
pub mod run;
pub mod similarity;

pub use classify::SubnetTable;
pub use classify::{classify, Classification, MatchClass};
pub use run::CollectedSet;
