//! **tracenet** — subnet-level Internet topology collection.
//!
//! An implementation of *TraceNET: An Internet Topology Data Collector*
//! (M. Engin Tozal and Kamil Sarac, ACM IMC 2010). Where traceroute
//! returns one IP address per hop, tracenet returns, for each visited hop,
//! the **subnet** accommodating that hop's address: all its alive
//! interface addresses, the "being on the same LAN" relation among them,
//! and the observed subnet mask.
//!
//! The collection pipeline per hop, exactly as in the paper's §3:
//!
//! 1. **Trace collection** — obtain an address `v` at hop `d` by indirect
//!    (TTL-scoped) probing, like traceroute.
//! 2. **Subnet positioning** ([`position`], Algorithm 2) — find the
//!    perceived direct distance to `v`, decide whether the subnet to be
//!    explored is on- or off-the-trace-path, and designate the **pivot**
//!    (the far-side interface the subnet is grown around) and the
//!    **ingress** interface (the entry point into the subnet).
//! 3. **Subnet exploration** ([`explore`], Algorithm 1) — grow a /31
//!    around the pivot, prefix by prefix, direct-probing each candidate
//!    address and testing it against the heuristics **H2–H8**
//!    ([`heuristics`]); stop-and-shrink on the first violation (**H1**),
//!    stop on under-utilization (Algorithm 1 lines 19–21), and apply
//!    boundary-address reduction (**H9**) afterwards.
//!
//! The crate is written entirely against [`probe::Prober`], so it runs
//! unmodified over the packet-level simulator (`netsim` + `probe::SimProber`)
//! or any future raw-socket backend.
//!
//! # Quickstart
//!
//! ```
//! use netsim::samples;
//! use probe::{Protocol, SharedNetwork};
//! use tracenet::{Session, TracenetOptions};
//!
//! let (topo, names) = samples::figure3();
//! let net = SharedNetwork::new(topo);
//! let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
//! let report = Session::new(&mut prober, TracenetOptions::default())
//!     .run(names.addr("dest"));
//! assert!(report.destination_reached);
//! // Hop 3 visits the paper's subnet S = 10.0.2.0/29 and discovers all
//! // four interfaces on it.
//! let s = report.hops[2].subnet.as_ref().unwrap();
//! assert_eq!(s.record.prefix().to_string(), "10.0.2.0/29");
//! assert_eq!(s.record.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod explore;
pub mod heuristics;
mod hop;
mod observed;
mod options;
pub mod position;
mod report;
mod session;

pub use cache::{CacheLookup, SubnetStore};
pub use observed::{AddressRole, ObservedSubnet, StopCause};
pub use options::{HeuristicSet, TracenetOptions};
pub use position::Positioning;
pub use report::{Completeness, HopRecord, PhaseCost, TraceReport};
pub use session::Session;
