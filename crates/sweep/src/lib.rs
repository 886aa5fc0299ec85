//! Parallel batch collection for tracenet.
//!
//! One tracenet session maps the path to one target. Mapping a whole
//! address block means many sessions from the same vantage, and those
//! sessions share most of their path — so this crate adds the two
//! pieces that make batch collection cheap and safe:
//!
//! - a [`SubnetCache`] — a stop set of explored `(prev, v, d)` hops and
//!   their outcomes shared **across sessions**, extending a session's own
//!   skip of hops inside subnets it already collected to the whole batch
//!   (and, via the [`tracenet::SubnetStore`] seam, to anything
//!   longer-lived); and
//! - one batch driver ([`run_batch`]) that every collection in the
//!   workspace goes through: one worker loop, run by the calling thread
//!   and `jobs − 1` helpers over one shared network, that stores each
//!   report in its target's slot, with probe idents drawn from disjoint
//!   namespaces ([`IdentSpace`]) as a pure function of the target index.
//!   At one job no worker is spawned and the sessions run in target
//!   order. A recorded batch adds one drain thread, which alone feeds
//!   the recorder's sink the events the workers hand over in batches.
//!
//! The engine is *proven observation-equivalent, not assumed*, on
//! history-independent topologies: the conformance suite
//! (`tests/conformance.rs`) pins that batch runs at any thread count,
//! cache on or off, collect exactly the same subnets as a plain
//! sequential loop — only probe counts may drop. Those topologies have
//! no rate limits, no fluctuation and no per-packet load balancing,
//! because each of those makes a reply depend on how the sessions'
//! probes interleave. On the ISP internet, which has them, a jobs>1 run
//! is not yet reproducible: its answers depend on thread timing
//! (ROADMAP item 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod drain;
pub mod engine;

pub use cache::{CacheStats, SubnetCache};
pub use engine::{run_batch, BatchConfig, BatchResult};
pub use probe::ident::{IdentAllocator, IdentBlock, IdentSpace};
