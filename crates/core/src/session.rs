//! The tracenet session driver: trace collection + per-hop positioning
//! and exploration.
//!
//! "Similar to traceroute, tracenet gradually extends a trace path by
//! obtaining an IP address (or anonymous) via indirect probing at each hop
//! on the way from a vantage point to a destination. However, after
//! obtaining IP address lip at a particular hop, tracenet collects other
//! IP addresses that are hosted on the same subnet which accommodates
//! interface l before moving to the next hop." (§3.3)

use std::sync::Arc;

use inet::Addr;
use obs::{CacheOutcome, Cause, DecisionEvent, DecisionVerdict, Phase, Recorder};
use probe::{ProbeOutcome, ProbeStats, Prober};

use crate::cache::{CacheLookup, SubnetStore};
use crate::explore::explore;
use crate::hop::HopProber;
use crate::options::TracenetOptions;
use crate::position::position;
use crate::report::{Completeness, HopRecord, PhaseCost, TraceReport};

/// A configured tracenet session over a borrowed prober.
pub struct Session<P: Prober> {
    prober: HopProber<P>,
    opts: TracenetOptions,
    recorder: Recorder,
    store: Option<Arc<dyn SubnetStore>>,
}

impl<P: Prober> Session<P> {
    /// Creates a session. The prober is wrapped in a per-hop memo
    /// (§3.5's merged-rule optimization) and fault budget (governed by
    /// `TracenetOptions::hop_fault_budget`); both reset at every hop so
    /// stale answers never cross path-dynamics boundaries.
    pub fn new(prober: P, opts: TracenetOptions) -> Session<P> {
        Session {
            prober: HopProber::new(prober, opts.hop_fault_budget),
            opts,
            recorder: Recorder::disabled(),
            store: None,
        }
    }

    /// Attaches a session-level recorder. This does *not* make the
    /// prober emit events (attach a recorder to the prober for that); it
    /// feeds session-derived metrics, e.g. the probes-per-hop histogram.
    pub fn with_recorder(mut self, recorder: Recorder) -> Session<P> {
        self.recorder = recorder;
        self
    }

    /// Attaches a cross-session subnet store (see [`crate::cache`]). The
    /// session consults it before positioning a hop and admits whatever
    /// the hop produced, so a batch of sessions sharing one store never
    /// re-explores an already-resolved hop.
    pub fn with_subnet_store(mut self, store: Arc<dyn SubnetStore>) -> Session<P> {
        self.store = Some(store);
        self
    }

    /// Traces toward `destination`, exploring the subnet at every hop.
    pub fn run(mut self, destination: Addr) -> TraceReport {
        let mut hops: Vec<HopRecord> = Vec::new();
        let mut prev_addr: Option<Addr> = None;
        let mut destination_reached = false;

        for d in 1..=self.opts.max_ttl {
            self.prober.start_hop();
            let hop_before = self.prober.stats();
            let sent_before = hop_before.sent;

            // --- Trace collection: one indirect probe at TTL d. --------
            let trace_t0 = self.prober.clock();
            let outcome = {
                let _phase = obs::phase_scope(Phase::Trace);
                let _cause = obs::cause_scope(Cause::TraceCollection);
                self.prober.probe(destination, d)
            };
            self.recorder
                .record_phase_ticks(Phase::Trace, self.prober.clock().saturating_sub(trace_t0));
            let (addr, reached) = match outcome {
                ProbeOutcome::TtlExceeded { from } => (Some(from), false),
                ProbeOutcome::DirectReply { from } => (Some(from), true),
                // A terminal unreachable still names a router but ends
                // the trace (like traceroute's !H/!N annotations).
                ProbeOutcome::Unreachable { from, .. } => (Some(from), true),
                ProbeOutcome::Timeout => (None, false),
            };
            let trace_cost = self.prober.stats().sent - sent_before;

            // --- Positioning + exploration. ----------------------------
            let mut record = HopRecord {
                hop: d,
                addr,
                reached_destination: reached,
                repeated: false,
                cached: false,
                subnet: None,
                cost: PhaseCost { trace: trace_cost, position: 0, explore: 0 },
                completeness: Completeness::Complete,
            };
            let mut admit = false;

            if let Some(v) = addr {
                let known = self.opts.reuse_known_subnets
                    && hops.iter().any(|h: &HopRecord| {
                        h.subnet.as_ref().is_some_and(|s| s.record.contains(v))
                    });
                let lookup = if known {
                    None
                } else {
                    self.store.as_ref().map(|c| c.lookup(prev_addr, v, d))
                };
                if known {
                    record.repeated = true;
                    self.recorder.record_decision(|| DecisionEvent {
                        session: None,
                        hop: d,
                        phase: Some(Phase::Trace),
                        cause: None,
                        subject: Some(v),
                        verdict: DecisionVerdict::Repeated,
                        evidence: "already inside a subnet collected at an earlier hop".to_string(),
                    });
                } else if let Some(CacheLookup::Hit(outcome)) = lookup {
                    record.cached = true;
                    let reusable = outcome.is_some();
                    record.subnet = outcome;
                    self.recorder.record_cache(if reusable {
                        CacheOutcome::Hit
                    } else {
                        CacheOutcome::Skip
                    });
                    self.recorder.record_decision(|| DecisionEvent {
                        session: None,
                        hop: d,
                        phase: Some(Phase::Trace),
                        cause: None,
                        subject: Some(v),
                        verdict: if reusable {
                            DecisionVerdict::CacheHit
                        } else {
                            DecisionVerdict::CacheSkip
                        },
                        evidence: "resolved from the cross-session subnet cache".to_string(),
                    });
                } else {
                    if lookup.is_some() {
                        self.recorder.record_cache(CacheOutcome::Miss);
                    }
                    let before = self.prober.stats().sent;
                    let pos_t0 = self.prober.clock();
                    let positioning = {
                        let _phase = obs::phase_scope(Phase::Position);
                        position(&mut self.prober, prev_addr, v, d, &self.opts)
                    };
                    self.recorder.record_phase_ticks(
                        Phase::Position,
                        self.prober.clock().saturating_sub(pos_t0),
                    );
                    record.cost.position = self.prober.stats().sent - before;

                    match &positioning {
                        Some(pos) => {
                            self.recorder.record_decision(|| DecisionEvent {
                                session: None,
                                hop: d,
                                phase: Some(Phase::Position),
                                cause: Some(Cause::PivotDesignation),
                                subject: Some(pos.pivot),
                                verdict: if pos.on_path {
                                    DecisionVerdict::OnPath
                                } else {
                                    DecisionVerdict::OffPath
                                },
                                evidence: format!(
                                    "pivot at jh={} (perceived {}), ingress {}",
                                    pos.pivot_dist,
                                    pos.perceived_dist,
                                    pos.ingress
                                        .map_or_else(|| "anonymous".to_string(), |i| i.to_string()),
                                ),
                            });
                        }
                        None => {
                            self.recorder.record_decision(|| DecisionEvent {
                                session: None,
                                hop: d,
                                phase: Some(Phase::Position),
                                cause: Some(Cause::PivotDesignation),
                                subject: Some(v),
                                verdict: DecisionVerdict::Rejected,
                                evidence: "positioning designated no pivot".to_string(),
                            });
                        }
                    }

                    if let Some(pos) = positioning {
                        if pos.on_path || self.opts.explore_off_path {
                            let before = self.prober.stats().sent;
                            let explore_t0 = self.prober.clock();
                            let subnet = {
                                let _phase = obs::phase_scope(Phase::Explore);
                                explore(
                                    &mut self.prober,
                                    &self.recorder,
                                    &pos,
                                    prev_addr,
                                    &self.opts,
                                )
                            };
                            self.recorder.record_phase_ticks(
                                Phase::Explore,
                                self.prober.clock().saturating_sub(explore_t0),
                            );
                            record.cost.explore = self.prober.stats().sent - before;
                            record.subnet = Some(subnet);
                        }
                    }
                    admit = self.store.is_some();
                }
            }

            // Classify the hop from the fault-attributed timeout deltas
            // accumulated across all three phases, then admit to the
            // cross-session store only when the hop is clean: a degraded
            // observation must never be replayed into a healthy session.
            let tripped = self.prober.tripped();
            let hop_stats = self.prober.stats();
            record.completeness = classify(&hop_before, &hop_stats, tripped);
            if record.completeness != Completeness::Complete {
                // Attach the silence cause to the hop's final event so
                // `tnet explain` can say *why* the hop degraded.
                let completeness = record.completeness;
                let fault_timeouts = hop_stats.fault_timeouts() - hop_before.fault_timeouts();
                self.recorder.record_decision(|| DecisionEvent {
                    session: None,
                    hop: d,
                    phase: None,
                    cause: None,
                    subject: addr,
                    verdict: if completeness == Completeness::Abandoned {
                        DecisionVerdict::Abandoned
                    } else {
                        DecisionVerdict::Degraded
                    },
                    evidence: format!(
                        "{} after {} fault timeout(s); last silence cause: {}",
                        completeness.label(),
                        fault_timeouts,
                        hop_stats
                            .last_fault_cause
                            .map_or_else(|| "unknown".to_string(), |c| c.label().to_string()),
                    ),
                });
            }
            if admit && record.completeness == Completeness::Complete {
                if let (Some(store), Some(v)) = (&self.store, addr) {
                    store.admit(prev_addr, v, d, record.subnet.as_ref());
                }
            }

            self.recorder.record_hop_cost(record.cost.total());
            hops.push(record);
            prev_addr = addr;
            if reached {
                destination_reached = true;
                break;
            }
        }

        let stats = self.prober.stats();
        TraceReport {
            vantage: self.prober.src(),
            destination,
            destination_reached,
            hops,
            total_probes: stats.sent,
            cache_hits: self.prober.memo_hits(),
            aborted: false,
        }
    }
}

/// Grades one hop's observations from the fault-attributed timeout
/// deltas it accrued. A tripped fault budget dominates; otherwise the
/// worse of the two degradation causes wins (rate-limit silence outranks
/// plain loss because backing off and re-running can recover it).
fn classify(before: &ProbeStats, after: &ProbeStats, tripped: bool) -> Completeness {
    if tripped {
        Completeness::Abandoned
    } else if after.timeouts_rate_limited > before.timeouts_rate_limited {
        Completeness::DegradedByRateLimit
    } else if after.timeouts_loss > before.timeouts_loss {
        Completeness::DegradedByTimeout
    } else {
        Completeness::Complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{samples, ConcurrentNetwork};
    use probe::{Protocol, SharedNetwork};

    #[test]
    fn chain_trace_collects_every_link() {
        let (topo, names) = samples::chain(3);
        let net = SharedNetwork::new(topo);
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let report = Session::new(&mut prober, TracenetOptions::default()).run(names.addr("dest"));
        assert!(report.destination_reached);
        assert_eq!(report.hops.len(), 4);
        // Every hop's subnet is the /31 link it crossed.
        for (k, hop) in report.hops.iter().enumerate() {
            let s = hop.subnet.as_ref().unwrap_or_else(|| panic!("hop {k} has a subnet"));
            assert_eq!(s.record.prefix().len(), 31, "hop {k}");
            assert_eq!(s.record.len(), 2, "hop {k}");
            assert!(s.is_point_to_point());
        }
        // tracenet found both sides of each link: 8 addresses, where
        // traceroute would name 4.
        assert_eq!(report.all_addresses().len(), 8);
    }

    #[test]
    fn figure3_collects_the_papers_subnet() {
        let (topo, names) = samples::figure3();
        let net = SharedNetwork::new(topo);
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let report = Session::new(&mut prober, TracenetOptions::default()).run(names.addr("dest"));
        assert!(report.destination_reached);

        // Hop 3 visits S = 10.0.2.0/29 and discovers exactly its four
        // interfaces, despite the three fringe categories sitting at
        // adjacent addresses.
        let s = report.hops[2].subnet.as_ref().expect("hop 3 subnet");
        assert_eq!(s.record.prefix().to_string(), "10.0.2.0/29");
        let got: Vec<String> = s.record.members().iter().map(|m| m.to_string()).collect();
        assert_eq!(got, ["10.0.2.1", "10.0.2.2", "10.0.2.3", "10.0.2.4"]);
        // The contra-pivot is the ingress router's interface R2.w.
        assert_eq!(s.contra_pivot, Some(names.addr("R2.w")));
        assert!(s.on_path);
    }

    #[test]
    fn anonymous_hop_yields_no_subnet_but_trace_continues() {
        use inet::Prefix;
        use netsim::{RouterConfig, TopologyBuilder};
        let mut b = TopologyBuilder::new();
        let v = b.host("vantage");
        let r1 = b.router("r1", RouterConfig::cooperative());
        let r2 = b.router("r2", RouterConfig::anonymous());
        let d = b.host("dest");
        let mk = |b: &mut TopologyBuilder, x, y, base: &str| {
            let s = b.subnet(base.parse::<Prefix>().unwrap());
            let lo: Addr = base.split('/').next().unwrap().parse().unwrap();
            b.attach(x, s, lo).unwrap();
            b.attach(y, s, lo.mate31()).unwrap();
            lo
        };
        let v_addr = mk(&mut b, v, r1, "10.0.0.0/31");
        mk(&mut b, r1, r2, "10.0.1.0/31");
        let d_side = mk(&mut b, r2, d, "10.0.2.0/31");
        let net = SharedNetwork::new(b.build().unwrap());
        let mut prober = net.prober(v_addr, Protocol::Icmp);
        let report = Session::new(&mut prober, TracenetOptions::default()).run(d_side.mate31());
        assert!(report.destination_reached);
        assert_eq!(report.hops.len(), 3);
        assert_eq!(report.hops[1].addr, None, "r2 is anonymous");
        assert!(report.hops[1].subnet.is_none());
    }

    #[test]
    fn unreachable_destination_ends_with_partial_trace() {
        let (topo, names) = samples::chain(2);
        let net = SharedNetwork::new(topo);
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let opts = TracenetOptions { max_ttl: 6, ..TracenetOptions::default() };
        let report = Session::new(&mut prober, opts).run("99.9.9.9".parse().unwrap());
        assert!(!report.destination_reached);
        assert_eq!(report.hops.len(), 6);
        assert!(report.hops.iter().all(|h| h.addr.is_none()));
    }

    #[test]
    fn repeated_subnets_are_not_reexplored() {
        // In chain(3) the hop-2 link 10.0.1.0/31 is collected at hop 2;
        // no later hop revisits it, so craft a revisit by tracing twice
        // toward two addresses of one subnet: run one session to the far
        // side of a link whose near side was already collected at the
        // previous hop. The session-internal reuse shows up as hop
        // addresses already contained in earlier subnets.
        let (topo, names) = samples::chain(2);
        let net = SharedNetwork::new(topo);
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let report = Session::new(&mut prober, TracenetOptions::default()).run(names.addr("dest"));
        // The destination (10.0.2.1) sits on the same /31 as hop 2's
        // collected subnet... hop 3 = dest: its address is in hop-3
        // subnet? Verify at least that no subnet is collected twice.
        let prefixes: Vec<String> =
            report.subnets().map(|s| s.record.prefix().to_string()).collect();
        let mut dedup = prefixes.clone();
        dedup.dedup();
        assert_eq!(prefixes, dedup, "no duplicate subnets in one session");
    }

    #[test]
    fn reuse_skip_fires_exactly_once_and_keeps_both_hops() {
        // A multi-hop scenario where hop k's subnet contains hop k+1's
        // ingress: r2 reports its *egress* interface (10.0.2.0) in
        // TTL-exceeded errors, so hop 2 explores 10.0.2.0/31 and collects
        // both sides of the r2–r3 link. Hop 3 then traces as r3's
        // ingress 10.0.2.1 — already a member of hop 2's subnet — and the
        // `reuse_known_subnets` skip must fire exactly once while the
        // report still lists both hops.
        use inet::Prefix;
        use netsim::{ResponsePolicy, RouterConfig, TopologyBuilder};
        let mut b = TopologyBuilder::new();
        let v = b.host("vantage");
        let r1 = b.router("r1", RouterConfig::cooperative());
        let mut egress_cfg = RouterConfig::cooperative();
        egress_cfg.indirect = ResponsePolicy::Default("10.0.2.0".parse().unwrap());
        let r2 = b.router("r2", egress_cfg);
        let r3 = b.router("r3", RouterConfig::cooperative());
        let d = b.host("dest");
        let mk = |b: &mut TopologyBuilder, x, y, base: &str| {
            let s = b.subnet(base.parse::<Prefix>().unwrap());
            let lo: Addr = base.split('/').next().unwrap().parse().unwrap();
            b.attach(x, s, lo).unwrap();
            b.attach(y, s, lo.mate31()).unwrap();
            lo
        };
        let v_addr = mk(&mut b, v, r1, "10.0.0.0/31");
        mk(&mut b, r1, r2, "10.0.1.0/31");
        mk(&mut b, r2, r3, "10.0.2.0/31");
        let d_side = mk(&mut b, r3, d, "10.0.3.0/31");
        let net = SharedNetwork::new(b.build().unwrap());
        let mut prober = net.prober(v_addr, Protocol::Icmp);
        let report = Session::new(&mut prober, TracenetOptions::default()).run(d_side.mate31());

        assert!(report.destination_reached);
        assert_eq!(report.hops.len(), 4, "both the skipped hop and its successors are listed");
        let ingress: Addr = "10.0.2.1".parse().unwrap();
        assert_eq!(report.hops[1].addr, Some("10.0.2.0".parse().unwrap()));
        let s2 = report.hops[1].subnet.as_ref().expect("hop 2 explored the r2-r3 link");
        assert!(s2.record.contains(ingress), "hop 2's subnet contains hop 3's ingress");
        assert_eq!(report.hops[2].addr, Some(ingress));
        assert!(report.hops[2].repeated, "hop 3 reuses hop 2's subnet");
        assert!(report.hops[2].subnet.is_none(), "a reused hop is not re-explored");
        assert_eq!(report.hops[2].cost.position + report.hops[2].cost.explore, 0);
        let repeats = report.hops.iter().filter(|h| h.repeated).count();
        assert_eq!(repeats, 1, "the skip fires exactly once");
    }

    #[test]
    fn subnet_store_replays_resolved_hops_without_probing() {
        use crate::cache::{CacheLookup, SubnetStore};
        use crate::observed::ObservedSubnet;
        use std::collections::BTreeMap;
        use std::sync::Mutex;

        type HopKey = (Option<Addr>, Addr, u8);

        /// A minimal exact-key store: enough to prove the session seam.
        #[derive(Default)]
        struct MapStore {
            map: Mutex<BTreeMap<HopKey, Option<ObservedSubnet>>>,
        }
        impl SubnetStore for MapStore {
            fn lookup(&self, prev: Option<Addr>, v: Addr, d: u8) -> CacheLookup {
                match self.map.lock().unwrap().get(&(prev, v, d)) {
                    Some(outcome) => CacheLookup::Hit(outcome.clone()),
                    None => CacheLookup::Miss,
                }
            }
            fn admit(&self, prev: Option<Addr>, v: Addr, d: u8, outcome: Option<&ObservedSubnet>) {
                self.map.lock().unwrap().insert((prev, v, d), outcome.cloned());
            }
        }

        let (topo, names) = samples::chain(3);
        let net = SharedNetwork::new(topo);
        let store = Arc::new(MapStore::default());
        let run = |net: &SharedNetwork, store: Arc<MapStore>| {
            let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
            Session::new(&mut prober, TracenetOptions::default())
                .with_subnet_store(store)
                .run(names.addr("dest"))
        };
        let first = run(&net, Arc::clone(&store));
        let second = run(&net, Arc::clone(&store));

        assert!(first.hops.iter().all(|h| !h.cached), "a cold store resolves nothing");
        assert!(second.hops.iter().all(|h| h.cached), "a warm store resolves every hop");
        let prefixes = |r: &TraceReport| -> Vec<String> {
            r.subnets().map(|s| s.record.prefix().to_string()).collect()
        };
        assert_eq!(prefixes(&first), prefixes(&second), "replay is observation-equivalent");
        assert_eq!(first.all_addresses(), second.all_addresses());
        assert!(
            second.total_probes < first.total_probes,
            "replayed hops spend trace probes only ({} vs {})",
            second.total_probes,
            first.total_probes
        );
    }

    #[test]
    fn disabling_reuse_reexplores_the_contained_hop() {
        // Same scene as above with `reuse_known_subnets` off: hop 3 must
        // be explored (and re-collect the same link) instead of skipped.
        use inet::Prefix;
        use netsim::{ResponsePolicy, RouterConfig, TopologyBuilder};
        let mut b = TopologyBuilder::new();
        let v = b.host("vantage");
        let r1 = b.router("r1", RouterConfig::cooperative());
        let mut egress_cfg = RouterConfig::cooperative();
        egress_cfg.indirect = ResponsePolicy::Default("10.0.2.0".parse().unwrap());
        let r2 = b.router("r2", egress_cfg);
        let r3 = b.router("r3", RouterConfig::cooperative());
        let d = b.host("dest");
        let mk = |b: &mut TopologyBuilder, x, y, base: &str| {
            let s = b.subnet(base.parse::<Prefix>().unwrap());
            let lo: Addr = base.split('/').next().unwrap().parse().unwrap();
            b.attach(x, s, lo).unwrap();
            b.attach(y, s, lo.mate31()).unwrap();
            lo
        };
        let v_addr = mk(&mut b, v, r1, "10.0.0.0/31");
        mk(&mut b, r1, r2, "10.0.1.0/31");
        mk(&mut b, r2, r3, "10.0.2.0/31");
        let d_side = mk(&mut b, r3, d, "10.0.3.0/31");
        let net = SharedNetwork::new(b.build().unwrap());
        let mut prober = net.prober(v_addr, Protocol::Icmp);
        let opts = TracenetOptions { reuse_known_subnets: false, ..TracenetOptions::default() };
        let report = Session::new(&mut prober, opts).run(d_side.mate31());
        assert!(report.destination_reached);
        assert!(report.hops.iter().all(|h| !h.repeated));
        assert!(report.hops[2].subnet.is_some(), "without reuse, hop 3 is explored");
    }

    #[test]
    fn fault_free_hops_are_all_complete() {
        let (topo, names) = samples::chain(3);
        let net = SharedNetwork::new(topo);
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let report = Session::new(&mut prober, TracenetOptions::default()).run(names.addr("dest"));
        assert!(report.hops.iter().all(|h| h.completeness == Completeness::Complete));
        assert_eq!(report.completeness(), Completeness::Complete);
        assert!(!report.aborted);
    }

    #[test]
    fn total_reply_loss_with_a_budget_abandons_every_hop() {
        use netsim::FaultPlan;
        let (topo, names) = samples::chain(3);
        let plan = FaultPlan { reply_loss: 1.0, ..FaultPlan::new(7) };
        let net =
            SharedNetwork::from_concurrent(ConcurrentNetwork::new(topo).with_fault_plan(plan));
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let opts =
            TracenetOptions { max_ttl: 4, hop_fault_budget: Some(1), ..TracenetOptions::default() };
        let report = Session::new(&mut prober, opts).run(names.addr("dest"));
        assert!(!report.destination_reached);
        assert!(report.hops.iter().all(|h| h.addr.is_none()));
        assert!(report.hops.iter().all(|h| h.completeness == Completeness::Abandoned));
        assert_eq!(report.completeness(), Completeness::Abandoned);
    }

    #[test]
    fn total_reply_loss_without_a_budget_degrades_every_hop() {
        use netsim::FaultPlan;
        let (topo, names) = samples::chain(3);
        let plan = FaultPlan { reply_loss: 1.0, ..FaultPlan::new(7) };
        let net =
            SharedNetwork::from_concurrent(ConcurrentNetwork::new(topo).with_fault_plan(plan));
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let opts = TracenetOptions { max_ttl: 4, ..TracenetOptions::default() };
        let report = Session::new(&mut prober, opts).run(names.addr("dest"));
        assert!(report.hops.iter().all(|h| h.completeness == Completeness::DegradedByTimeout));
        assert_eq!(report.completeness(), Completeness::DegradedByTimeout);
    }

    #[test]
    fn lossy_session_discovers_a_sound_subset() {
        use netsim::FaultPlan;
        let (topo, names) = samples::chain(3);
        let clean = {
            let net = SharedNetwork::new(topo.clone());
            let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
            Session::new(&mut prober, TracenetOptions::default()).run(names.addr("dest"))
        };
        let plan = FaultPlan { reply_loss: 0.3, forward_loss: 0.2, ..FaultPlan::new(2010) };
        let net =
            SharedNetwork::from_concurrent(ConcurrentNetwork::new(topo).with_fault_plan(plan));
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let opts = TracenetOptions { hop_fault_budget: Some(8), ..TracenetOptions::default() };
        let lossy = Session::new(&mut prober, opts).run(names.addr("dest"));
        // Faults only remove observations, never invent them.
        assert!(
            lossy.all_addresses().is_subset(&clean.all_addresses()),
            "lossy run invented addresses: {:?} vs {:?}",
            lossy.all_addresses(),
            clean.all_addresses(),
        );
    }

    #[test]
    fn degraded_hops_are_not_admitted_to_the_subnet_store() {
        use crate::cache::{CacheLookup, SubnetStore};
        use crate::observed::ObservedSubnet;
        use netsim::FaultPlan;
        use std::collections::BTreeMap;
        use std::sync::Mutex;

        type HopKey = (Option<Addr>, Addr, u8);

        #[derive(Default)]
        struct MapStore {
            map: Mutex<BTreeMap<HopKey, Option<ObservedSubnet>>>,
        }
        impl SubnetStore for MapStore {
            fn lookup(&self, prev: Option<Addr>, v: Addr, d: u8) -> CacheLookup {
                match self.map.lock().unwrap().get(&(prev, v, d)) {
                    Some(outcome) => CacheLookup::Hit(outcome.clone()),
                    None => CacheLookup::Miss,
                }
            }
            fn admit(&self, prev: Option<Addr>, v: Addr, d: u8, outcome: Option<&ObservedSubnet>) {
                self.map.lock().unwrap().insert((prev, v, d), outcome.cloned());
            }
        }

        let (topo, names) = samples::chain(2);
        let store = Arc::new(MapStore::default());

        // A heavily lossy session: every hop it manages to resolve is
        // degraded, so nothing may enter the store.
        let plan = FaultPlan { reply_loss: 0.6, ..FaultPlan::new(11) };
        let net = SharedNetwork::from_concurrent(
            ConcurrentNetwork::new(topo.clone()).with_fault_plan(plan),
        );
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let faulty = Session::new(&mut prober, TracenetOptions::default())
            .with_subnet_store(store.clone())
            .run(names.addr("dest"));
        for hop in &faulty.hops {
            if hop.completeness.is_degraded() {
                let key = hop.addr;
                if let Some(v) = key {
                    assert!(
                        !store.map.lock().unwrap().keys().any(|(_, a, _)| *a == v),
                        "degraded hop {v} leaked into the store"
                    );
                }
            }
        }

        // A later fault-free session over the same store must produce
        // exactly what a store-less clean session produces: the store
        // never replays degraded observations.
        let net = SharedNetwork::new(topo.clone());
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let warm = Session::new(&mut prober, TracenetOptions::default())
            .with_subnet_store(store)
            .run(names.addr("dest"));
        let net = SharedNetwork::new(topo);
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let reference =
            Session::new(&mut prober, TracenetOptions::default()).run(names.addr("dest"));
        assert_eq!(warm.all_addresses(), reference.all_addresses());
        assert_eq!(warm.completeness(), Completeness::Complete);
    }

    #[test]
    fn decision_stream_narrates_positioning_and_collection() {
        use obs::{SinkHandle, VecSink};
        let (topo, names) = samples::figure3();
        let net = SharedNetwork::new(topo);
        let sink = VecSink::new();
        let reader = sink.clone();
        let recorder = Recorder::new().with_sink(SinkHandle::new(sink));
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let report = Session::new(&mut prober, TracenetOptions::default())
            .with_recorder(recorder)
            .run(names.addr("dest"));
        assert!(report.destination_reached);

        let decisions = reader.decisions();
        let verdicts: Vec<DecisionVerdict> = decisions.iter().map(|e| e.verdict).collect();
        assert!(verdicts.contains(&DecisionVerdict::OnPath), "positioning verdicts are logged");
        assert!(verdicts.contains(&DecisionVerdict::Accepted), "member admissions are logged");
        assert!(verdicts.contains(&DecisionVerdict::Collected), "each subnet ends in Collected");
        // One Collected event per explored hop, at that hop's distance.
        let collected: Vec<u8> = decisions
            .iter()
            .filter(|e| e.verdict == DecisionVerdict::Collected)
            .map(|e| e.hop)
            .collect();
        let explored: Vec<u8> =
            report.hops.iter().filter(|h| h.subnet.is_some()).map(|h| h.hop).collect();
        assert_eq!(collected, explored);
        // Heuristic verdicts carry the rule that fired as their cause.
        assert!(decisions.iter().any(
            |e| e.verdict == DecisionVerdict::AcceptedContraPivot && e.cause == Some(Cause::H3)
        ));
    }

    #[test]
    fn degraded_hops_log_their_silence_cause() {
        use netsim::FaultPlan;
        use obs::{SinkHandle, VecSink};
        let (topo, names) = samples::chain(2);
        let plan = FaultPlan { reply_loss: 1.0, ..FaultPlan::new(7) };
        let net =
            SharedNetwork::from_concurrent(ConcurrentNetwork::new(topo).with_fault_plan(plan));
        let sink = VecSink::new();
        let reader = sink.clone();
        let recorder = Recorder::new().with_sink(SinkHandle::new(sink));
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let opts =
            TracenetOptions { max_ttl: 3, hop_fault_budget: Some(1), ..TracenetOptions::default() };
        let report =
            Session::new(&mut prober, opts).with_recorder(recorder).run(names.addr("dest"));
        assert!(report.hops.iter().all(|h| h.completeness == Completeness::Abandoned));

        let decisions = reader.decisions();
        let abandoned: Vec<_> =
            decisions.iter().filter(|e| e.verdict == DecisionVerdict::Abandoned).collect();
        assert_eq!(abandoned.len(), report.hops.len(), "one Abandoned event per abandoned hop");
        for e in abandoned {
            assert!(
                e.evidence.contains("last silence cause: reply_loss"),
                "the fault cause is attached to the hop's final event: {}",
                e.evidence
            );
        }
    }

    #[test]
    fn probe_budget_respects_paper_upper_bound() {
        // §3.6: exploring a subnet S costs at most 7|S| + 7 probes.
        let (topo, names) = samples::figure3();
        let net = SharedNetwork::new(topo);
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let report = Session::new(&mut prober, TracenetOptions::default()).run(names.addr("dest"));
        for hop in &report.hops {
            if let Some(s) = &hop.subnet {
                let bound = 7 * s.record.len() as u64 + 7;
                let spent = hop.cost.position + hop.cost.explore;
                assert!(
                    spent <= bound + 2 * s.record.prefix().size(),
                    "hop {} spent {spent} probes on a {}-member subnet \
                     (paper bound {bound} + sweep allowance)",
                    hop.hop,
                    s.record.len(),
                );
            }
        }
    }
}
