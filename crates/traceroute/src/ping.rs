//! Ping: direct-probe aliveness testing.
//!
//! "The well-known ping tool uses direct probing to check if a given IP
//! address is in use or not" (§2). The evaluation also uses it to
//! distinguish unresponsive subnets from tracenet misses: "we further
//! probed every IP address within the address range of the missing and
//! underestimated subnets to identify the unresponsive subnets" (§4.1.1).

use inet::Addr;
use probe::{ProbeOutcome, Prober};

/// Result of pinging one address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PingReport {
    /// The probed address.
    pub target: Addr,
    /// Probes sent.
    pub sent: u8,
    /// Direct replies received.
    pub received: u8,
    /// Source address of the first reply (normally `target`; differs
    /// under *default*/*shortest-path* response policies).
    pub reply_from: Option<Addr>,
}

impl PingReport {
    /// Whether the address answered at all — "in use".
    pub fn alive(&self) -> bool {
        self.received > 0
    }
}

/// Pings `target` `count` times with a large TTL.
pub fn ping<P: Prober>(prober: &mut P, target: Addr, count: u8) -> PingReport {
    let mut received = 0;
    let mut reply_from = None;
    for _ in 0..count {
        if let ProbeOutcome::DirectReply { from } = prober.probe(target, 64) {
            received += 1;
            reply_from.get_or_insert(from);
        }
    }
    PingReport { target, sent: count, received, reply_from }
}

/// Pings every probeable address of `prefix` once and returns the alive
/// ones — the census-style sweep the paper's evaluation uses to separate
/// tracenet misses from unresponsive subnets: "we further probed every
/// IP address within the address range of the missing and
/// underestimated subnets to identify the unresponsive subnets"
/// (§4.1.1).
pub fn ping_sweep<P: Prober>(prober: &mut P, prefix: inet::Prefix) -> Vec<Addr> {
    prefix
        .probe_addrs()
        .filter(|&addr| matches!(prober.probe(addr, 64), ProbeOutcome::DirectReply { .. }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::samples;
    use probe::{Protocol, SharedNetwork};

    #[test]
    fn alive_and_dead_addresses() {
        let (topo, names) = samples::chain(2);
        let net = SharedNetwork::new(topo);
        let mut p = net.prober(names.addr("vantage"), Protocol::Icmp);
        let alive = ping(&mut p, names.addr("dest"), 3);
        assert!(alive.alive());
        assert_eq!(alive.received, 3);
        assert_eq!(alive.reply_from, Some(names.addr("dest")));

        let dead = ping(&mut p, "99.9.9.9".parse().unwrap(), 2);
        assert!(!dead.alive());
        assert_eq!(dead.reply_from, None);
        assert_eq!(dead.sent, 2);
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;
    use netsim::samples;
    use probe::{Protocol, SharedNetwork};

    #[test]
    fn sweep_finds_exactly_the_alive_range() {
        let (topo, names) = samples::figure3();
        let net = SharedNetwork::new(topo);
        let mut p = net.prober(names.addr("vantage"), Protocol::Icmp);
        // The paper's subnet S: members .1-.4 of 10.0.2.0/29.
        let alive = ping_sweep(&mut p, "10.0.2.0/29".parse().unwrap());
        let got: Vec<String> = alive.iter().map(|a| a.to_string()).collect();
        assert_eq!(got, ["10.0.2.1", "10.0.2.2", "10.0.2.3", "10.0.2.4"]);
    }

    #[test]
    fn sweep_of_dead_space_is_empty() {
        let (topo, names) = samples::chain(1);
        let net = SharedNetwork::new(topo);
        let mut p = net.prober(names.addr("vantage"), Protocol::Icmp);
        assert!(ping_sweep(&mut p, "99.0.0.0/29".parse().unwrap()).is_empty());
    }
}
