//! A deterministic, packet-level IPv4 network simulator.
//!
//! This crate is the workspace's substitute for the live Internet the
//! TraceNET paper (IMC 2010) measures. It models exactly the machinery the
//! paper's algorithms observe and reason about:
//!
//! * **Topology** (`topology`): routers hosting interfaces, subnets
//!   (point-to-point and multi-access LANs) identified by CIDR prefixes,
//!   and hosts (vantage points, trace targets) — the router/subnet graph of
//!   the paper's §3.
//! * **Routing** (`routing`): hop-count shortest paths with equal-cost
//!   multipath sets, matching the paper's unweighted-hop-distance model.
//! * **Forwarding engine** (`engine`): a packet walker with real TTL
//!   semantics. Probes are injected as wire bytes (encoded by the `wire`
//!   crate), parsed, walked hop by hop, and answered — or dropped — exactly
//!   as a chain of configured routers would.
//! * **Response policies** (`policy`): the paper's five router response
//!   configurations (§3.1) — *nil*, *probed*, *incoming*, *shortest-path*
//!   and *default* interface — separately for direct and indirect probes,
//!   with per-protocol responsiveness, ICMP rate limiting and filtering
//!   firewalls (§4's unresponsive and partially-unresponsive subnets).
//! * **Dynamics** (`engine`): per-flow and per-packet load balancing over
//!   ECMP sets and scheduled path fluctuations (§3.7).
//! * **Fault injection** (`fault`): a seeded [`FaultPlan`] over the
//!   engine's probe-tick clock — transient forward/reply loss, link
//!   flaps, rate-limit storms and mid-run route withdrawals — replayable
//!   from the seed and composable with the response policies.
//! * **Samples** (`samples`): ready-made topologies, including the paper's
//!   Figure 2 and Figure 3 networks, reused by tests, examples and
//!   documentation across the workspace.
//!
//! Everything is deterministic: load-balancer choices are pure hashes of
//! (flow, epoch, router), and all randomness used by generators lives
//! upstream in `topogen` behind explicit seeds.
//!
//! # Example
//!
//! ```
//! use netsim::{samples, ConcurrentNetwork};
//! use wire::builder;
//!
//! let (topo, names) = samples::figure3();
//! let net = ConcurrentNetwork::new(topo);
//! let vantage = names.addr("vantage");
//! let pivot = names.addr("R4.e");
//!
//! // Direct probe: large TTL, expect an echo reply from the pivot itself.
//! let probe = builder::icmp_probe(vantage, pivot, 64, 1, 1);
//! let reply = net.inject(&probe).reply().expect("pivot responds");
//! assert_eq!(reply.header.src, pivot);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod fault;
mod policy;
mod routing;
pub mod samples;
mod topology;

pub use engine::{ConcurrentNetwork, Verdict};
pub use fault::{FaultPlan, FaultProfile, RateStorm};
pub use policy::{LbMode, ProtoSet, RateLimit, ResponsePolicy, RouterConfig};
pub use routing::{NextHops, Path, RoutingTable, UNREACHABLE};
pub use topology::{
    Iface, IfaceId, Router, RouterId, Subnet, SubnetId, Topology, TopologyBuilder, TopologyError,
};
pub use wire::Protocol;
