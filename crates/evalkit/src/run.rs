//! Experiment drivers: run tracenet or traceroute over a target list and
//! collect the deduplicated subnet set.

use std::collections::{BTreeMap, BTreeSet};

use inet::{Addr, Prefix, SubnetRecord};
use probe::{IdentAllocator, IdentSpace, Prober, Protocol, SharedNetwork};
use sweep::{BatchConfig, BatchResult, CacheStats};
use tracenet::{PhaseCost, TraceReport};
use traceroute::{TracerouteOptions, TracerouteReport};

/// Everything one vantage point collected over a target list.
#[derive(Clone, Debug, Default)]
pub struct CollectedSet {
    /// Deduplicated observed subnets (≥ 2 members), merged by prefix.
    subnets: BTreeMap<Prefix, SubnetRecord>,
    /// Trace-collected addresses that ended up in no subnet of ≥ 2
    /// members (the paper's "no subnet larger than /32").
    unsubnetized: BTreeSet<Addr>,
    /// Every address seen (trace addresses and subnet members).
    addresses: BTreeSet<Addr>,
    /// Total wire probes spent.
    pub probes: u64,
    /// The reports' phase costs, summed: the per-phase probe budget.
    pub cost: PhaseCost,
    /// Sessions run.
    pub sessions: usize,
    /// Cross-session subnet-cache counters (all zero when the batch ran
    /// without the cache).
    pub cache: CacheStats,
}

impl CollectedSet {
    /// Folds one tracenet report in.
    pub fn add_report(&mut self, report: &TraceReport) {
        self.sessions += 1;
        self.cost += report.phase_totals();
        self.addresses.extend(report.all_addresses());
        for s in report.subnets() {
            if s.record.len() >= 2 {
                self.subnets
                    .entry(s.record.prefix())
                    .and_modify(|existing| {
                        for &m in s.record.members() {
                            existing.insert(m);
                        }
                    })
                    .or_insert_with(|| s.record.clone());
            }
        }
        for a in report.unsubnetized_addresses() {
            self.unsubnetized.insert(a);
        }
    }

    /// Folds a whole batch result in (reports in target order).
    pub fn from_batch(batch: &BatchResult) -> CollectedSet {
        let mut out = CollectedSet::default();
        for report in &batch.reports {
            out.add_report(report);
        }
        out.probes = batch.probes;
        out.cache = batch.cache;
        out
    }

    /// The collected subnet prefixes.
    pub fn prefixes(&self) -> BTreeSet<Prefix> {
        self.subnets.keys().copied().collect()
    }

    /// Prefixes restricted to a region (e.g. one ISP's address space).
    pub fn prefixes_in(&self, region: Prefix) -> BTreeSet<Prefix> {
        self.subnets.keys().copied().filter(|p| region.covers(*p)).collect()
    }

    /// The collected subnet records.
    pub fn records(&self) -> Vec<SubnetRecord> {
        self.subnets.values().cloned().collect()
    }

    /// Addresses placed into a ≥ 2-member subnet, optionally restricted
    /// to a region.
    pub fn subnetized_addresses(&self, region: Option<Prefix>) -> BTreeSet<Addr> {
        self.subnets
            .values()
            .flat_map(|s| s.members().iter().copied())
            .filter(|a| region.is_none_or(|r| r.contains(*a)))
            .collect()
    }

    /// Trace addresses never placed into a subnet, optionally restricted
    /// to a region. An address subnetized by a *later* session is not
    /// unsubnetized.
    pub fn unsubnetized_addresses(&self, region: Option<Prefix>) -> BTreeSet<Addr> {
        let sub = self.subnetized_addresses(None);
        self.unsubnetized
            .iter()
            .copied()
            .filter(|a| !sub.contains(a))
            .filter(|a| region.is_none_or(|r| r.contains(*a)))
            .collect()
    }

    /// Every distinct address observed.
    pub fn addresses(&self) -> &BTreeSet<Addr> {
        &self.addresses
    }
}

/// Runs one tracenet session per target from `vantage` through
/// [`sweep::run_batch`], recording nothing, and folds the reports into a
/// [`CollectedSet`].
pub fn run_tracenet(
    net: &SharedNetwork,
    vantage: Addr,
    targets: &[Addr],
    cfg: &BatchConfig,
) -> CollectedSet {
    let batch = sweep::run_batch(net, vantage, targets, cfg, &obs::Recorder::disabled());
    CollectedSet::from_batch(&batch)
}

/// Runs one traceroute per target (the baseline's view of the same
/// network): returns the reports plus the distinct addresses seen.
pub fn run_traceroute(
    net: &SharedNetwork,
    vantage: Addr,
    targets: &[Addr],
    protocol: Protocol,
    opts: &TracerouteOptions,
) -> (Vec<TracerouteReport>, BTreeSet<Addr>, u64) {
    let mut reports = Vec::with_capacity(targets.len());
    let mut addrs = BTreeSet::new();
    let mut probes = 0;
    // The traceroute namespace is disjoint from the tracenet sessions'.
    let idents = IdentAllocator::new().block(IdentSpace::Traceroute, targets.len());
    for (k, &target) in targets.iter().enumerate() {
        let mut prober = net.prober(vantage, protocol).ident(idents.get(k));
        let report = traceroute::traceroute(&mut prober, target, *opts);
        probes += prober.stats().sent;
        addrs.extend(report.all_addresses());
        reports.push(report);
    }
    (reports, addrs, probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::samples;

    /// The sequential, cache-off collection the evaluation tables use.
    fn sequential(net: &SharedNetwork, vantage: Addr, targets: &[Addr]) -> CollectedSet {
        let cfg = BatchConfig { use_cache: false, ..BatchConfig::default() };
        run_tracenet(net, vantage, targets, &cfg)
    }

    #[test]
    fn run_tracenet_collects_the_chain() {
        let (topo, names) = samples::chain(3);
        let net = SharedNetwork::new(topo);
        let set = sequential(&net, names.addr("vantage"), &[names.addr("dest")]);
        assert_eq!(set.sessions, 1);
        assert_eq!(set.prefixes().len(), 4, "all four /31 links collected");
        assert_eq!(set.addresses().len(), 8);
        assert!(set.unsubnetized_addresses(None).is_empty());
        assert!(set.probes > 0);
        assert_eq!(set.cost.total(), set.probes);
        assert_eq!(set.cache, CacheStats::default());
    }

    #[test]
    fn duplicate_subnets_merge_members() {
        let (topo, names) = samples::figure3();
        let net = SharedNetwork::new(topo);
        // Two targets behind the same path: subnets collected twice must
        // merge, not duplicate.
        let targets = [names.addr("dest"), names.addr("R5.n")];
        let set = sequential(&net, names.addr("vantage"), &targets);
        let prefixes = set.prefixes();
        let distinct: BTreeSet<_> = prefixes.iter().collect();
        assert_eq!(prefixes.len(), distinct.len());
    }

    #[test]
    fn region_filters_work() {
        let (topo, names) = samples::chain(2);
        let net = SharedNetwork::new(topo);
        let set = sequential(&net, names.addr("vantage"), &[names.addr("dest")]);
        let everything: Prefix = "10.0.0.0/8".parse().unwrap();
        let nothing: Prefix = "99.0.0.0/8".parse().unwrap();
        assert_eq!(set.prefixes_in(everything).len(), set.prefixes().len());
        assert!(set.prefixes_in(nothing).is_empty());
        assert!(!set.subnetized_addresses(Some(everything)).is_empty());
        assert!(set.subnetized_addresses(Some(nothing)).is_empty());
    }

    #[test]
    fn traceroute_driver_sees_fewer_addresses() {
        let (topo, names) = samples::chain(3);
        let net = SharedNetwork::new(topo);
        let v = names.addr("vantage");
        let d = names.addr("dest");
        let (reports, tr_addrs, probes) =
            run_traceroute(&net, v, &[d], Protocol::Icmp, &TracerouteOptions::default());
        assert_eq!(reports.len(), 1);
        assert!(probes > 0);
        let tn = sequential(&net, v, &[d]);
        assert!(
            tn.addresses().len() > tr_addrs.len(),
            "tracenet must discover more addresses ({} vs {})",
            tn.addresses().len(),
            tr_addrs.len()
        );
    }
}
