//! Classic traceroute over the [`probe::Prober`] seam.

use std::collections::BTreeSet;
use std::fmt;

use inet::Addr;
use probe::{ProbeOutcome, Prober};

/// Traceroute configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracerouteOptions {
    /// Maximum hop count (`-m`), default 30.
    pub max_ttl: u8,
    /// Probes sent per hop (`-q`), default 3.
    pub probes_per_hop: u8,
    /// Pin the whole trace to one flow (Paris traceroute, the default)
    /// or vary the flow per probe (classic behavior: consecutive probes
    /// may take different load-balanced paths).
    pub paris: bool,
}

impl Default for TracerouteOptions {
    fn default() -> Self {
        TracerouteOptions { max_ttl: 30, probes_per_hop: 3, paris: true }
    }
}

/// One hop of a traceroute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHop {
    /// Hop number (1-based).
    pub hop: u8,
    /// Reply source per probe; `None` renders as `*`.
    pub replies: Vec<Option<Addr>>,
    /// Whether some probe of this hop was answered by the destination.
    pub reached_destination: bool,
}

impl TraceHop {
    /// The distinct responding addresses of this hop.
    pub fn addresses(&self) -> BTreeSet<Addr> {
        self.replies.iter().flatten().copied().collect()
    }
}

/// A complete traceroute result.
#[derive(Clone, Debug)]
pub struct TracerouteReport {
    /// The vantage address.
    pub vantage: Addr,
    /// The trace target.
    pub destination: Addr,
    /// Whether the destination was reached.
    pub destination_reached: bool,
    /// Hop records, in order.
    pub hops: Vec<TraceHop>,
    /// Total probes sent.
    pub total_probes: u64,
}

impl TracerouteReport {
    /// Every distinct address observed — what traceroute contributes to a
    /// topology map.
    pub fn all_addresses(&self) -> BTreeSet<Addr> {
        self.hops.iter().flat_map(|h| h.addresses()).collect()
    }

    /// (address, hop) pairs for offline subnet inference.
    pub fn addresses_with_hops(&self) -> Vec<(Addr, u16)> {
        let mut out = Vec::new();
        for h in &self.hops {
            for a in h.addresses() {
                out.push((a, h.hop as u16));
            }
        }
        out
    }
}

impl fmt::Display for TracerouteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "traceroute to {} from {}", self.destination, self.vantage)?;
        for hop in &self.hops {
            write!(f, "{:3} ", hop.hop)?;
            for r in &hop.replies {
                match r {
                    Some(a) => write!(f, " {a}")?,
                    None => write!(f, " *")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Runs a traceroute toward `destination`.
pub fn traceroute<P: Prober>(
    prober: &mut P,
    destination: Addr,
    opts: TracerouteOptions,
) -> TracerouteReport {
    let vantage = prober.src();
    let start = prober.stats().sent;
    let mut hops = Vec::new();
    let mut destination_reached = false;
    let mut flow_counter: u16 = 0;

    for d in 1..=opts.max_ttl {
        let mut replies = Vec::with_capacity(opts.probes_per_hop as usize);
        let mut reached = false;
        for _ in 0..opts.probes_per_hop {
            let flow = if opts.paris {
                0
            } else {
                flow_counter = flow_counter.wrapping_add(1);
                flow_counter
            };
            let reply = match prober.probe_with_flow(destination, d, flow) {
                ProbeOutcome::TtlExceeded { from } => Some(from),
                ProbeOutcome::DirectReply { from } | ProbeOutcome::Unreachable { from, .. } => {
                    reached = true;
                    Some(from)
                }
                ProbeOutcome::Timeout => None,
            };
            replies.push(reply);
        }
        hops.push(TraceHop { hop: d, replies, reached_destination: reached });
        if reached {
            destination_reached = true;
            break;
        }
    }

    TracerouteReport {
        vantage,
        destination,
        destination_reached,
        hops,
        total_probes: prober.stats().sent - start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::samples;
    use probe::{Protocol, SharedNetwork};

    #[test]
    fn chain_trace_lists_one_router_per_hop() {
        let (topo, names) = samples::chain(3);
        let net = SharedNetwork::new(topo);
        let mut p = net.prober(names.addr("vantage"), Protocol::Icmp);
        let report = traceroute(&mut p, names.addr("dest"), TracerouteOptions::default());
        assert!(report.destination_reached);
        assert_eq!(report.hops.len(), 4);
        for hop in &report.hops {
            assert_eq!(hop.addresses().len(), 1, "stable path, one address per hop");
        }
        // traceroute sees 4 addresses where the chain owns 8.
        assert_eq!(report.all_addresses().len(), 4);
    }

    #[test]
    fn classic_trace_splits_over_load_balancers_paris_does_not() {
        // Classic UDP-style probing varies the flow per probe; over the
        // ECMP diamond the middle hop shows both branch routers.
        let (topo, names) = samples::diamond();
        let net = SharedNetwork::new(topo);
        let mut p = net.prober(names.addr("vantage"), Protocol::Icmp);
        let mut opts =
            TracerouteOptions { probes_per_hop: 8, paris: false, ..TracerouteOptions::default() };
        let classic = traceroute(&mut p, names.addr("dest"), opts);
        let mid = &classic.hops[1];
        assert_eq!(mid.addresses().len(), 2, "classic probing straddles the diamond");

        let mut p = net.prober(names.addr("vantage"), Protocol::Icmp);
        opts.paris = true;
        let paris = traceroute(&mut p, names.addr("dest"), opts);
        assert_eq!(paris.hops[1].addresses().len(), 1, "paris pins one path");

        // The default options are Paris: a plain prober stays on one path.
        let mut p = net.prober(names.addr("vantage"), Protocol::Icmp);
        let opts = TracerouteOptions { probes_per_hop: 8, ..TracerouteOptions::default() };
        let default = traceroute(&mut p, names.addr("dest"), opts);
        assert_eq!(default.hops[1].addresses().len(), 1, "the default pins one path");
    }

    #[test]
    fn unreachable_target_fills_max_ttl_with_stars() {
        let (topo, names) = samples::chain(1);
        let net = SharedNetwork::new(topo);
        let mut p = net.prober(names.addr("vantage"), Protocol::Icmp);
        let opts = TracerouteOptions { max_ttl: 5, ..TracerouteOptions::default() };
        let report = traceroute(&mut p, "99.9.9.9".parse().unwrap(), opts);
        assert!(!report.destination_reached);
        assert_eq!(report.hops.len(), 5);
        assert!(report.all_addresses().is_empty());
        let text = report.to_string();
        assert!(text.contains('*'));
    }

    #[test]
    fn addresses_with_hops_pairs_each_address_with_its_ttl() {
        let (topo, names) = samples::chain(2);
        let net = SharedNetwork::new(topo);
        let mut p = net.prober(names.addr("vantage"), Protocol::Icmp);
        let report = traceroute(&mut p, names.addr("dest"), TracerouteOptions::default());
        let pairs = report.addresses_with_hops();
        assert_eq!(pairs.len(), 3);
        assert!(pairs.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
