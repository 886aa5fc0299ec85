//! Session output: hop records and the trace report.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use inet::Addr;

use crate::observed::ObservedSubnet;

/// Probes spent in each phase of one hop (§3.6's cost model: initial cost
/// = trace collection + positioning, intermediate/final cost =
/// exploration).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Wire probes spent obtaining the hop address (trace collection).
    pub trace: u64,
    /// Wire probes spent in subnet positioning (Algorithm 2).
    pub position: u64,
    /// Wire probes spent in subnet exploration (Algorithm 1 + H2–H8).
    pub explore: u64,
}

impl PhaseCost {
    /// Total wire probes of the hop.
    pub fn total(&self) -> u64 {
        self.trace + self.position + self.explore
    }
}

impl std::ops::AddAssign for PhaseCost {
    fn add_assign(&mut self, other: PhaseCost) {
        self.trace += other.trace;
        self.position += other.position;
        self.explore += other.explore;
    }
}

/// How trustworthy one hop's observations are under faults.
///
/// Ordered by severity so "worst of" is `Iterator::max`: a hop (or a
/// whole report, via [`TraceReport::completeness`]) is only as good as
/// its worst phase. Fault-free runs are always [`Completeness::Complete`]
/// — the other variants appear only when the probing substrate reported
/// fault-attributed timeouts (see `probe::ProbeStats::fault_timeouts`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Completeness {
    /// No fault-attributed timeouts: the collected subnet is as complete
    /// as the heuristics allow.
    #[default]
    Complete,
    /// Some probes were lost to transient forward/reply loss or link
    /// outages; members may be missing from the collected subnet.
    DegradedByTimeout,
    /// Some probes were silently eaten by a rate limiter; members may be
    /// missing and re-running later may recover them.
    DegradedByRateLimit,
    /// The per-hop fault budget tripped: exploration was cut short and
    /// the hop's subnet (if any) is a best-effort partial view.
    Abandoned,
}

impl Completeness {
    /// Whether any degradation was observed.
    pub fn is_degraded(&self) -> bool {
        *self != Completeness::Complete
    }

    /// A short lowercase label, stable for machine consumption.
    pub fn label(&self) -> &'static str {
        match self {
            Completeness::Complete => "complete",
            Completeness::DegradedByTimeout => "degraded-by-timeout",
            Completeness::DegradedByRateLimit => "degraded-by-rate-limit",
            Completeness::Abandoned => "abandoned",
        }
    }
}

impl fmt::Display for Completeness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What one hop of a tracenet session produced.
#[derive(Clone, Debug)]
pub struct HopRecord {
    /// Hop number (1-based TTL).
    pub hop: u8,
    /// The trace-collected address, `None` for an anonymous hop.
    pub addr: Option<Addr>,
    /// Whether this hop's reply was a direct reply from the destination
    /// (trace complete).
    pub reached_destination: bool,
    /// The hop address already belonged to a subnet collected at an
    /// earlier hop, so exploration was skipped.
    pub repeated: bool,
    /// The hop was resolved from a cross-session subnet store instead of
    /// being positioned and explored (see `tracenet::cache`).
    pub cached: bool,
    /// The subnet collected at this hop, if any. A hop the cross-session
    /// store resolved shares the store's subnet: every session that hit
    /// the same stop-set key points at one allocation.
    pub subnet: Option<Arc<ObservedSubnet>>,
    /// Probe accounting for this hop.
    pub cost: PhaseCost,
    /// How much the hop's observations suffered from injected or real
    /// faults (always [`Completeness::Complete`] on a quiet network).
    pub completeness: Completeness,
}

/// The full result of one tracenet session — the paper's "sequence of
/// subnets between the source and destination hosts".
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// The vantage address the session probed from.
    pub vantage: Addr,
    /// The trace target.
    pub destination: Addr,
    /// Whether the destination answered before `max_ttl`.
    pub destination_reached: bool,
    /// Per-hop results.
    pub hops: Vec<HopRecord>,
    /// Total wire probes spent by the session.
    pub total_probes: u64,
    /// Probes answered from the merge cache instead of the wire.
    pub cache_hits: u64,
    /// The session died before producing a normal report (it panicked or
    /// was isolated by a batch driver); the hops list is whatever was
    /// salvaged, possibly empty.
    pub aborted: bool,
}

impl TraceReport {
    /// Every distinct address the session discovered: trace addresses
    /// plus all subnet members. This is the paper's headline claim (1):
    /// "discovers new IP addresses that are missed by traceroute".
    pub fn all_addresses(&self) -> BTreeSet<Addr> {
        let mut set = BTreeSet::new();
        for hop in &self.hops {
            if let Some(a) = hop.addr {
                set.insert(a);
            }
            if let Some(s) = &hop.subnet {
                set.extend(s.record.members().iter().copied());
            }
        }
        set
    }

    /// The collected subnets in hop order (repeated hops excluded).
    pub fn subnets(&self) -> impl Iterator<Item = &ObservedSubnet> {
        self.hops.iter().filter_map(|h| h.subnet.as_deref())
    }

    /// Addresses that were placed into a subnet with at least two members
    /// — the "subnetized" population of the paper's Figure 7.
    pub fn subnetized_addresses(&self) -> BTreeSet<Addr> {
        let mut set = BTreeSet::new();
        for s in self.subnets() {
            if s.record.len() >= 2 {
                set.extend(s.record.members().iter().copied());
            }
        }
        set
    }

    /// Sums the per-hop phase costs into the session's probe budget —
    /// the per-trace line of the paper's Table 2.
    pub fn phase_totals(&self) -> PhaseCost {
        let mut totals = PhaseCost::default();
        for hop in &self.hops {
            totals += hop.cost;
        }
        totals
    }

    /// The report's overall completeness: [`Completeness::Abandoned`] if
    /// the session itself was aborted, else the worst hop classification
    /// ([`Completeness::Complete`] for an empty trace).
    pub fn completeness(&self) -> Completeness {
        if self.aborted {
            return Completeness::Abandoned;
        }
        self.hops.iter().map(|h| h.completeness).max().unwrap_or_default()
    }

    /// Trace addresses for which no subnet larger than a /32 singleton
    /// was found — Figure 7's "un-subnetized" population.
    pub fn unsubnetized_addresses(&self) -> BTreeSet<Addr> {
        let subnetized = self.subnetized_addresses();
        self.hops.iter().filter_map(|h| h.addr).filter(|a| !subnetized.contains(a)).collect()
    }
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "tracenet to {} from {}", self.destination, self.vantage)?;
        for hop in &self.hops {
            let addr = match hop.addr {
                Some(a) => a.to_string(),
                None => "*".to_string(),
            };
            write!(f, "{:3}  {addr:<17}", hop.hop)?;
            match (&hop.subnet, hop.repeated) {
                (Some(s), _) => write!(f, " {s}")?,
                (None, true) => write!(f, " (subnet already collected)")?,
                (None, false) if hop.cached => write!(f, " (no subnet, cached)")?,
                (None, false) => write!(f, " (no subnet)")?,
            }
            if hop.cached && hop.subnet.is_some() {
                write!(f, " [cached]")?;
            }
            if hop.completeness.is_degraded() {
                write!(f, " [{}]", hop.completeness)?;
            }
            if hop.reached_destination {
                write!(f, "  <- destination")?;
            }
            writeln!(f)?;
        }
        if self.aborted {
            writeln!(f, "session aborted; results are partial")?;
        }
        writeln!(
            f,
            "{} hops, {} addresses, {} probes ({} cache hits)",
            self.hops.len(),
            self.all_addresses().len(),
            self.total_probes,
            self.cache_hits,
        )?;
        let t = self.phase_totals();
        writeln!(
            f,
            "probe budget: trace {} + position {} + explore {} = {}",
            t.trace,
            t.position,
            t.explore,
            t.total(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observed::StopCause;
    use inet::{Prefix, SubnetRecord};

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn sample_subnet(prefix: &str, members: &[&str], pivot: &str) -> ObservedSubnet {
        ObservedSubnet {
            record: SubnetRecord::new(
                prefix.parse::<Prefix>().unwrap(),
                members.iter().map(|m| a(m)),
            )
            .unwrap(),
            pivot: a(pivot),
            pivot_dist: 2,
            contra_pivot: None,
            ingress: None,
            on_path: true,
            stop: StopCause::Underutilized,
        }
    }

    fn sample_report() -> TraceReport {
        TraceReport {
            vantage: a("10.0.0.1"),
            destination: a("10.0.9.9"),
            destination_reached: true,
            hops: vec![
                HopRecord {
                    hop: 1,
                    addr: Some(a("10.0.1.1")),
                    reached_destination: false,
                    repeated: false,
                    cached: false,
                    subnet: Some(Arc::new(sample_subnet(
                        "10.0.1.0/31",
                        &["10.0.1.0", "10.0.1.1"],
                        "10.0.1.1",
                    ))),
                    cost: PhaseCost { trace: 1, position: 3, explore: 4 },
                    completeness: Completeness::Complete,
                },
                HopRecord {
                    hop: 2,
                    addr: None,
                    reached_destination: false,
                    repeated: false,
                    cached: false,
                    subnet: None,
                    cost: PhaseCost { trace: 2, position: 0, explore: 0 },
                    completeness: Completeness::Complete,
                },
                HopRecord {
                    hop: 3,
                    addr: Some(a("10.0.9.9")),
                    reached_destination: true,
                    repeated: false,
                    cached: false,
                    subnet: Some(Arc::new(sample_subnet("10.0.9.8/31", &["10.0.9.9"], "10.0.9.9"))),
                    cost: PhaseCost { trace: 1, position: 2, explore: 2 },
                    completeness: Completeness::Complete,
                },
            ],
            total_probes: 15,
            cache_hits: 4,
            aborted: false,
        }
    }

    #[test]
    fn a_hop_record_is_48_bytes() {
        // A report holds one record per hop, a million of them at the
        // paper's scale: the subnet is a pointer, not an inline copy.
        assert_eq!(std::mem::size_of::<HopRecord>(), 48);
    }

    #[test]
    fn all_addresses_unions_trace_and_members() {
        let r = sample_report();
        let addrs = r.all_addresses();
        assert!(addrs.contains(&a("10.0.1.0")), "subnet member beyond trace ips");
        assert!(addrs.contains(&a("10.0.9.9")));
        assert_eq!(addrs.len(), 3);
    }

    #[test]
    fn subnetized_vs_unsubnetized_split() {
        let r = sample_report();
        // The /31 with two members is subnetized; the destination's
        // singleton is not.
        assert!(r.subnetized_addresses().contains(&a("10.0.1.1")));
        assert!(r.unsubnetized_addresses().contains(&a("10.0.9.9")));
        assert!(!r.unsubnetized_addresses().contains(&a("10.0.1.1")));
    }

    #[test]
    fn phase_cost_totals() {
        let r = sample_report();
        assert_eq!(r.hops[0].cost.total(), 8);
        let totals = r.phase_totals();
        assert_eq!(totals, PhaseCost { trace: 4, position: 5, explore: 6 });
        assert_eq!(totals.total(), 15);
    }

    #[test]
    fn display_includes_the_probe_budget_line() {
        let text = sample_report().to_string();
        assert!(text.contains("probe budget: trace 4 + position 5 + explore 6 = 15"), "{text}");
    }

    #[test]
    fn display_shows_anonymous_and_destination() {
        let text = sample_report().to_string();
        assert!(text.contains("  *"), "anonymous hop rendered as *");
        assert!(text.contains("<- destination"));
        assert!(text.contains("10.0.1.0/31"));
    }

    #[test]
    fn completeness_is_the_worst_hop() {
        let mut r = sample_report();
        assert_eq!(r.completeness(), Completeness::Complete);
        r.hops[0].completeness = Completeness::DegradedByTimeout;
        assert_eq!(r.completeness(), Completeness::DegradedByTimeout);
        r.hops[2].completeness = Completeness::DegradedByRateLimit;
        assert_eq!(r.completeness(), Completeness::DegradedByRateLimit);
        r.hops[1].completeness = Completeness::Abandoned;
        assert_eq!(r.completeness(), Completeness::Abandoned);
    }

    #[test]
    fn aborted_report_is_abandoned_regardless_of_hops() {
        let mut r = sample_report();
        r.aborted = true;
        assert_eq!(r.completeness(), Completeness::Abandoned);
    }

    #[test]
    fn degradation_markers_render_only_when_degraded() {
        let clean = sample_report().to_string();
        assert!(!clean.contains("degraded"), "{clean}");
        assert!(!clean.contains("abandoned"), "{clean}");
        assert!(!clean.contains("aborted"), "{clean}");

        let mut r = sample_report();
        r.hops[0].completeness = Completeness::DegradedByTimeout;
        r.hops[2].completeness = Completeness::Abandoned;
        r.aborted = true;
        let text = r.to_string();
        assert!(text.contains("[degraded-by-timeout]"), "{text}");
        assert!(text.contains("[abandoned]"), "{text}");
        assert!(text.contains("session aborted"), "{text}");
    }

    #[test]
    fn completeness_labels_round_trip_severity_order() {
        let order = [
            Completeness::Complete,
            Completeness::DegradedByTimeout,
            Completeness::DegradedByRateLimit,
            Completeness::Abandoned,
        ];
        for w in order.windows(2) {
            assert!(w[0] < w[1], "{} < {}", w[0], w[1]);
        }
        assert!(!Completeness::Complete.is_degraded());
        assert!(Completeness::Abandoned.is_degraded());
    }
}
