//! Workspace-spanning glue for the integration tests and examples.
//!
//! The real library surface lives in the member crates (`tracenet`,
//! `netsim`, `probe`, `topogen`, `evalkit`, …); this crate only hosts the
//! `tests/` directory that exercises them together and a couple of small
//! helpers those tests and the `examples/` binaries share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use evalkit::CollectedSet;
use inet::Addr;
use netsim::Topology;
use probe::{Protocol, SharedNetwork};
use sweep::BatchConfig;
use tracenet::{Session, TraceReport, TracenetOptions};

/// Runs one tracenet session with default options over a fresh network —
/// the three lines every example starts with.
pub fn trace_once(topology: Topology, vantage: Addr, destination: Addr) -> TraceReport {
    let net = SharedNetwork::new(topology);
    let mut prober = net.prober(vantage, Protocol::Icmp);
    Session::new(&mut prober, TracenetOptions::default()).run(destination)
}

/// Collects the subnets behind `targets` the way the paper's evaluation
/// does: one default session per target, in target order, with no
/// cross-session cache — `sweep::run_batch` at one job, folded.
pub fn collect(
    net: &SharedNetwork,
    vantage: Addr,
    targets: &[Addr],
    protocol: Protocol,
) -> CollectedSet {
    let cfg = BatchConfig { use_cache: false, protocol, ..BatchConfig::default() };
    evalkit::run::run_tracenet(net, vantage, targets, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::samples;

    #[test]
    fn trace_once_runs_a_session() {
        let (topo, names) = samples::chain(2);
        let report = trace_once(topo, names.addr("vantage"), names.addr("dest"));
        assert!(report.destination_reached);
        assert_eq!(report.hops.len(), 3);
    }
}
