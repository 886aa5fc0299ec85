//! IP and subnet accounting — Figures 7, 8 and 9.

use inet::{Addr, Prefix};

use crate::run::CollectedSet;

/// Figure 7's three bars for one ISP at one vantage point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IpAccounting {
    /// ISP name.
    pub isp: String,
    /// Target IP addresses aimed at this ISP.
    pub target_ips: usize,
    /// Addresses found and placed into subnets of ≥ 2 members.
    pub subnetized: usize,
    /// Addresses found but never placed into a subnet larger than /32.
    pub unsubnetized: usize,
}

/// Computes Figure 7's bars for one ISP region.
pub fn ip_accounting(
    collected: &CollectedSet,
    isp: &str,
    region: Prefix,
    targets: &[Addr],
) -> IpAccounting {
    IpAccounting {
        isp: isp.to_string(),
        target_ips: targets.iter().filter(|t| region.contains(**t)).count(),
        subnetized: collected.subnetized_addresses(Some(region)).len(),
        unsubnetized: collected.unsubnetized_addresses(Some(region)).len(),
    }
}

/// Figure 8: number of collected subnets inside one ISP region.
pub fn subnet_count(collected: &CollectedSet, region: Prefix) -> usize {
    collected.prefixes_in(region).len()
}

/// Figure 9: collected prefix-length histogram over a set of regions
/// (all four ISPs), as (length, count) pairs for /20…/31.
pub fn prefix_length_series(collected: &CollectedSet, regions: &[Prefix]) -> Vec<(u8, usize)> {
    (20u8..=31)
        .map(|len| {
            let count = collected
                .prefixes()
                .iter()
                .filter(|p| p.len() == len && regions.iter().any(|r| r.covers(**p)))
                .count();
            (len, count)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::samples;
    use probe::SharedNetwork;
    use sweep::BatchConfig;

    fn collect_chain() -> (CollectedSet, Addr) {
        let (topo, names) = samples::chain(3);
        let set = crate::run::run_tracenet(
            &SharedNetwork::new(topo),
            names.addr("vantage"),
            &[names.addr("dest")],
            &BatchConfig { use_cache: false, ..BatchConfig::default() },
        );
        (set, names.addr("dest"))
    }

    #[test]
    fn accounting_counts_chain_addresses() {
        let (set, dest) = collect_chain();
        let region: Prefix = "10.0.0.0/8".parse().unwrap();
        let acct = ip_accounting(&set, "chain", region, &[dest]);
        assert_eq!(acct.target_ips, 1);
        assert_eq!(acct.subnetized, 8);
        assert_eq!(acct.unsubnetized, 0);
        assert_eq!(subnet_count(&set, region), 4);
    }

    #[test]
    fn histogram_series_spans_20_to_31() {
        let (set, _) = collect_chain();
        let region: Prefix = "10.0.0.0/8".parse().unwrap();
        let series = prefix_length_series(&set, &[region]);
        assert_eq!(series.len(), 12);
        assert_eq!(series[0].0, 20);
        assert_eq!(series[11], (31, 4), "the chain's four /31 links");
        let outside = prefix_length_series(&set, &["99.0.0.0/8".parse().unwrap()]);
        assert!(outside.iter().all(|&(_, n)| n == 0));
    }
}
