//! [`SimProber`]: the raw-socket prober's simulated twin, over a
//! [`SharedNetwork`].
//!
//! Every probe is encoded to real wire bytes, injected into the
//! simulator, and the reply is *validated* the way a live prober must: an
//! echo reply only counts if it carries this session's identifier, and an
//! ICMP error only counts if the quoted datagram matches the probe that
//! was sent. Stray or forged replies are treated as silence.
//!
//! The paper's cross-validation experiment (§4.2, Figure 6) runs the same
//! target list from three PlanetLab sites against the *same* Internet.
//! [`SharedNetwork`] wraps a `netsim::ConcurrentNetwork` — the engine's
//! lock-free shared handle — so one [`SimProber`] per vantage (or per
//! batch worker) probes it concurrently: the topology and routing tables
//! are immutable and read without any lock, the packet clock is atomic,
//! and rate limiters live behind per-router shards inside the engine.
//! Shared state (rate limiters, the fluctuation clock) therefore stays
//! honest across vantages without serializing the probe hot path.

use std::sync::Arc;
use std::time::Duration;

use inet::Addr;
use netsim::{ConcurrentNetwork, SilenceReason, Topology, Verdict};
use obs::{ProbeEvent, Recorder, TimeoutCause, UnreachReason};
use wire::{builder, IcmpMessage, Packet, Payload, Protocol, UnreachableCode};

use crate::ident::{IdentAllocator, IdentSpace};
use crate::outcome::ProbeOutcome;
use crate::prober::{FlowMode, ProbeStats, Prober};
use crate::retry::{RetryPolicy, RetryState};

/// A cloneable handle to a concurrently probeable network.
///
/// The handle also owns an [`IdentAllocator`], so probers created without
/// an explicit [`SimProber::ident`] draw collision-free defaults from the
/// `Aux` namespace instead of all sharing one magic constant.
#[derive(Clone)]
pub struct SharedNetwork {
    inner: Arc<ConcurrentNetwork>,
    idents: Arc<IdentAllocator>,
}

impl SharedNetwork {
    /// Builds the engine over a validated topology (see
    /// [`ConcurrentNetwork::new`]).
    pub fn new(topo: Topology) -> SharedNetwork {
        SharedNetwork::from_concurrent(ConcurrentNetwork::new(topo))
    }

    /// Wraps an already configured engine (fault plan, fluctuation).
    pub fn from_concurrent(net: ConcurrentNetwork) -> SharedNetwork {
        SharedNetwork { inner: Arc::new(net), idents: Arc::new(IdentAllocator::new()) }
    }

    /// Runs `f` with the shared network. Purely a convenience — access is
    /// lock-free, so `f` runs concurrently with other holders.
    pub fn with<R>(&self, f: impl FnOnce(&ConcurrentNetwork) -> R) -> R {
        f(&self.inner)
    }

    /// Creates a Paris-mode prober for the given vantage address and
    /// protocol. The session ident defaults to a fresh slot in the `Aux`
    /// namespace; override with [`SimProber::ident`] for a pinned flow.
    ///
    /// # Panics
    /// Panics when `src` is not an interface of the network (scenario
    /// loading rejects such vantages up front).
    pub fn prober(&self, src: Addr, protocol: Protocol) -> SimProber {
        let known = self.inner.topology().owner_of(src).is_some();
        assert!(known, "prober source {src} is not an interface of the network");
        SimProber {
            net: Arc::clone(&self.inner),
            src,
            protocol,
            flow_mode: FlowMode::Paris,
            ident: self.idents.ident(IdentSpace::Aux),
            seq: 0,
            rtt: Duration::ZERO,
            retry: RetryState::new(RetryPolicy::default()),
            stats: ProbeStats::default(),
            recorder: Recorder::disabled(),
        }
    }
}

/// The [`Prober`] over a [`SharedNetwork`].
pub struct SimProber {
    net: Arc<ConcurrentNetwork>,
    src: Addr,
    protocol: Protocol,
    flow_mode: FlowMode,
    ident: u16,
    seq: u16,
    rtt: Duration,
    retry: RetryState,
    stats: ProbeStats,
    recorder: Recorder,
}

impl SimProber {
    /// Sets the flow mode (Paris vs classic port behavior).
    pub fn flow_mode(mut self, mode: FlowMode) -> Self {
        self.flow_mode = mode;
        self
    }

    /// Sets the session identifier (echo ident / base port discriminator).
    pub fn ident(mut self, ident: u16) -> Self {
        self.ident = ident;
        self
    }

    /// Models a per-probe round-trip time: every wire send blocks this
    /// thread for `rtt` while the (simulated-instantaneous) reply is "in
    /// flight". `Duration::ZERO` (the default) skips the sleep entirely,
    /// keeping single-job runs byte- and time-identical; a nonzero RTT
    /// makes batch probing latency-bound, which is what `--jobs`
    /// parallelism overlaps — exactly as real probes overlap network
    /// waits.
    pub fn rtt(mut self, rtt: Duration) -> Self {
        self.rtt = rtt;
        self
    }

    /// Sets the retry policy governing re-probes after silence.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = RetryState::new(policy);
        self
    }

    /// Attaches a recorder that observes every wire attempt.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    fn build_probe(&mut self, dst: Addr, ttl: u8, flow: u16) -> Packet {
        self.seq = self.seq.wrapping_add(1);
        let classic = self.flow_mode == FlowMode::Classic;
        match self.protocol {
            Protocol::Icmp => {
                // The echo ident pins the flow; Paris keeps it fixed,
                // classic folds `flow` in.
                let ident = if classic { self.ident ^ flow } else { self.ident };
                builder::icmp_probe(self.src, dst, ttl, ident, self.seq)
            }
            Protocol::Udp => {
                // Classic traceroute's flow counter runs past the port
                // space on long traces; ports wrap like a real stack's.
                let base = builder::UDP_PROBE_BASE_PORT;
                let dport = if classic { base.wrapping_add(flow) } else { base };
                builder::udp_probe(self.src, dst, ttl, 0x8000 | self.ident, dport)
            }
            Protocol::Tcp => {
                let sport = 0x9000 | self.ident;
                let sport = if classic { sport ^ flow } else { sport };
                builder::tcp_probe(self.src, dst, ttl, sport, 80)
            }
        }
    }
}

/// Validates a reply against the probe that drew it and classifies it.
///
/// A live raw-socket prober must do exactly this: an echo reply counts
/// only when it carries the session's identifier; an ICMP error counts
/// only when the quoted datagram matches the outstanding probe; a port
/// unreachable is a success for UDP probing and noise otherwise.
fn classify_reply(
    protocol: Protocol,
    prober_src: Addr,
    probe: &Packet,
    reply: &Packet,
) -> ProbeOutcome {
    if reply.header.dst != prober_src {
        return ProbeOutcome::Timeout;
    }
    match &reply.payload {
        Payload::Icmp(IcmpMessage::EchoReply { ident, .. }) => {
            if protocol != Protocol::Icmp {
                return ProbeOutcome::Timeout;
            }
            let expect = match &probe.payload {
                Payload::Icmp(IcmpMessage::EchoRequest { ident, .. }) => *ident,
                _ => return ProbeOutcome::Timeout,
            };
            if *ident != expect {
                return ProbeOutcome::Timeout;
            }
            ProbeOutcome::DirectReply { from: reply.header.src }
        }
        Payload::Icmp(IcmpMessage::TtlExceeded { quoted }) => {
            if quoted.header.dst != probe.header.dst {
                return ProbeOutcome::Timeout;
            }
            ProbeOutcome::TtlExceeded { from: reply.header.src }
        }
        Payload::Icmp(IcmpMessage::Unreachable { code, quoted }) => {
            if quoted.header.dst != probe.header.dst {
                return ProbeOutcome::Timeout;
            }
            match code {
                UnreachableCode::Port => {
                    // Port unreachable is UDP's success signal.
                    if protocol == Protocol::Udp {
                        ProbeOutcome::DirectReply { from: reply.header.src }
                    } else {
                        ProbeOutcome::Timeout
                    }
                }
                UnreachableCode::Host => {
                    ProbeOutcome::Unreachable { from: reply.header.src, kind: UnreachReason::Host }
                }
                UnreachableCode::Net => {
                    ProbeOutcome::Unreachable { from: reply.header.src, kind: UnreachReason::Net }
                }
                UnreachableCode::AdminProhibited => ProbeOutcome::Unreachable {
                    from: reply.header.src,
                    kind: UnreachReason::AdminProhibited,
                },
            }
        }
        Payload::Tcp(seg) if seg.flags.rst() && protocol == Protocol::Tcp => {
            ProbeOutcome::DirectReply { from: reply.header.src }
        }
        _ => ProbeOutcome::Timeout,
    }
}

/// Maps the simulator's silence reason onto the obs attribution
/// vocabulary. A live prober has no such signal and leaves causes unset;
/// the simulated prober is allowed to know, because the attribution only
/// feeds metrics and degradation accounting, never the algorithms.
fn silence_cause(reason: SilenceReason) -> TimeoutCause {
    match reason {
        SilenceReason::UnknownSource => TimeoutCause::UnknownSource,
        SilenceReason::NoRoute => TimeoutCause::NoRoute,
        SilenceReason::Filtered => TimeoutCause::Filtered,
        SilenceReason::Unassigned => TimeoutCause::Unassigned,
        SilenceReason::PolicySilence => TimeoutCause::PolicySilence,
        SilenceReason::TtlExpiredSilently => TimeoutCause::TtlExpiredSilently,
        SilenceReason::RateLimited => TimeoutCause::RateLimited,
        SilenceReason::Malformed => TimeoutCause::Malformed,
        SilenceReason::ForwardLoss => TimeoutCause::ForwardLoss,
        SilenceReason::ReplyLoss => TimeoutCause::ReplyLoss,
        SilenceReason::LinkDown => TimeoutCause::LinkDown,
    }
}

impl Prober for SimProber {
    fn src(&self) -> Addr {
        self.src
    }

    fn protocol(&self) -> Protocol {
        self.protocol
    }

    fn probe_with_flow(&mut self, dst: Addr, ttl: u8, flow: u16) -> ProbeOutcome {
        self.stats.requests += 1;
        let mut outcome = ProbeOutcome::Timeout;
        let mut cause: Option<TimeoutCause> = None;
        for attempt in 0..=self.retry.budget() {
            if attempt > 0 {
                self.stats.retries += 1;
                let delay = self.retry.delay(attempt);
                if delay > 0 {
                    self.net.advance(delay);
                }
            }
            let probe = self.build_probe(dst, ttl, flow);
            self.stats.sent += 1;
            // The injection's own tick, not `tick()` afterwards: other
            // workers may have injected in between.
            let (verdict, tick) = self.net.inject_bytes_ticked(&probe.encode());
            if self.rtt > Duration::ZERO {
                std::thread::sleep(self.rtt);
            }
            (outcome, cause) = match verdict {
                Verdict::Reply(reply) => {
                    let o = classify_reply(self.protocol, self.src, &probe, &reply);
                    let c = (o == ProbeOutcome::Timeout).then_some(TimeoutCause::StrayReply);
                    (o, c)
                }
                Verdict::Silent(reason) => (ProbeOutcome::Timeout, Some(silence_cause(reason))),
            };
            self.recorder.record(|| {
                let (kind, from) = outcome.observed();
                ProbeEvent {
                    tick,
                    session: None,
                    vantage: self.src,
                    dst,
                    ttl,
                    protocol: self.protocol,
                    flow,
                    attempt,
                    outcome: kind,
                    from,
                    phase: None,
                    cause: None,
                    timeout_cause: cause,
                    unreach: outcome.unreach_reason(),
                }
            });
            if outcome != ProbeOutcome::Timeout {
                cause = None;
                break;
            }
        }
        self.retry.note(outcome == ProbeOutcome::Timeout);
        self.stats.record(&outcome, cause);
        outcome
    }

    fn stats(&self) -> ProbeStats {
        self.stats
    }

    fn clock(&self) -> u64 {
        self.net.tick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::samples;

    fn chain(n: u32) -> (SharedNetwork, samples::Names) {
        let (topo, names) = samples::chain(n);
        (SharedNetwork::new(topo), names)
    }

    #[test]
    fn icmp_probe_outcomes() {
        let (net, names) = chain(2);
        let d = names.addr("dest");
        let mut p = net.prober(names.addr("vantage"), Protocol::Icmp);
        assert_eq!(p.probe(d, 64), ProbeOutcome::DirectReply { from: d });
        match p.probe(d, 1) {
            ProbeOutcome::TtlExceeded { from } => {
                assert_ne!(from, d);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let s = p.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.direct_replies, 1);
        assert_eq!(s.ttl_exceeded, 1);
    }

    #[test]
    fn udp_port_unreachable_counts_as_direct_reply() {
        let (net, names) = chain(1);
        let d = names.addr("dest");
        let mut p = net.prober(names.addr("vantage"), Protocol::Udp);
        assert_eq!(p.probe(d, 64), ProbeOutcome::DirectReply { from: d });
    }

    #[test]
    fn tcp_rst_counts_as_direct_reply() {
        let (net, names) = chain(1);
        let d = names.addr("dest");
        let mut p = net.prober(names.addr("vantage"), Protocol::Tcp);
        assert_eq!(p.probe(d, 64), ProbeOutcome::DirectReply { from: d });
    }

    #[test]
    fn classic_udp_ports_wrap_at_the_top_of_the_flow_space() {
        let (net, names) = chain(1);
        let d = names.addr("dest");
        let mut p =
            net.prober(names.addr("vantage"), Protocol::Udp).flow_mode(FlowMode::Classic).ident(5);
        assert_eq!(p.probe_with_flow(d, 64, u16::MAX), ProbeOutcome::DirectReply { from: d });
        let probe = p.build_probe(d, 64, u16::MAX);
        match probe.payload {
            Payload::Udp(u) => {
                assert_eq!(u.dst_port, builder::UDP_PROBE_BASE_PORT.wrapping_add(u16::MAX));
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn silence_is_retried_then_timeout() {
        let (net, names) = chain(1);
        let mut p = net
            .prober(names.addr("vantage"), Protocol::Icmp)
            .retry_policy(RetryPolicy::Fixed { retries: 2 });
        // 99.0.0.1 is not routed: timeout after 3 attempts.
        assert_eq!(p.probe("99.0.0.1".parse().unwrap(), 64), ProbeOutcome::Timeout);
        let s = p.stats();
        assert_eq!(s.sent, 3);
        assert_eq!(s.retries, 2);
        assert_eq!(s.timeouts, 1);
    }

    /// The ProbeStats bookkeeping contract every prober must keep.
    fn assert_stats_invariants(s: &ProbeStats) {
        assert_eq!(s.sent, s.requests + s.retries, "every send is a request or a retry");
        assert_eq!(
            s.requests,
            s.direct_replies + s.ttl_exceeded + s.unreachable + s.timeouts,
            "every request resolves to exactly one outcome"
        );
    }

    #[test]
    fn stats_invariants_hold_across_mixed_outcomes() {
        let (net, names) = chain(3);
        let d = names.addr("dest");
        let mut p = net
            .prober(names.addr("vantage"), Protocol::Icmp)
            .retry_policy(RetryPolicy::Fixed { retries: 2 });
        let _ = p.probe(d, 64); // direct reply
        let _ = p.probe(d, 1); // ttl exceeded
        let _ = p.probe(d, 2); // ttl exceeded
        let _ = p.probe("99.0.0.1".parse().unwrap(), 64); // timeout ×3 attempts
        let s = p.stats();
        assert_eq!(s.requests, 4);
        assert_eq!(s.retries, 2);
        assert_stats_invariants(&s);
    }

    #[test]
    fn backoff_policy_idles_the_clock_between_retries() {
        let (net, names) = chain(1);
        let mut p = net
            .prober(names.addr("vantage"), Protocol::Icmp)
            .retry_policy(RetryPolicy::Backoff { retries: 2, base: 10 });
        let _ = p.probe("99.0.0.1".parse().unwrap(), 64);
        // 3 injections plus 10 + 20 idle ticks of backoff.
        assert_eq!(p.clock(), 3 + 10 + 20);
        assert_eq!(p.stats().sent, 3);
    }

    #[test]
    fn adaptive_policy_widens_budget_under_timeouts() {
        let (net, names) = chain(1);
        let dead: Addr = "99.0.0.1".parse().unwrap();
        let mut p = net
            .prober(names.addr("vantage"), Protocol::Icmp)
            .retry_policy(RetryPolicy::Adaptive { min: 1, max: 4 });
        // First probe: empty window, budget = min = 1 → 2 sends.
        let _ = p.probe(dead, 64);
        assert_eq!(p.stats().sent, 2);
        // After a run of timeouts the budget grows toward max.
        for _ in 0..16 {
            let _ = p.probe(dead, 64);
        }
        let before = p.stats().sent;
        let _ = p.probe(dead, 64);
        assert_eq!(p.stats().sent - before, 5, "dirty window widens to max = 4 retries");
        // Clean replies shrink it back down.
        let d = names.addr("dest");
        for _ in 0..16 {
            let _ = p.probe(d, 64);
        }
        let before = p.stats().sent;
        let _ = p.probe(dead, 64);
        assert_eq!(p.stats().sent - before, 2, "clean window shrinks to min = 1 retry");
    }

    fn faulted_chain(plan: netsim::FaultPlan) -> (SharedNetwork, samples::Names) {
        let (topo, names) = samples::chain(1);
        let net = ConcurrentNetwork::new(topo).with_fault_plan(plan);
        (SharedNetwork::from_concurrent(net), names)
    }

    #[test]
    fn timeout_causes_reach_events_and_stats() {
        use obs::{SinkHandle, VecSink};

        let mut plan = netsim::FaultPlan::new(7);
        plan.reply_loss = 1.0;
        let (net, names) = faulted_chain(plan);
        let d = names.addr("dest");
        let sink = VecSink::new();
        let reader = sink.clone();
        let recorder = Recorder::new().with_sink(SinkHandle::new(sink));
        let mut p = net
            .prober(names.addr("vantage"), Protocol::Icmp)
            .retry_policy(RetryPolicy::Fixed { retries: 1 })
            .recorder(recorder);
        assert_eq!(p.probe(d, 64), ProbeOutcome::Timeout);
        let events = reader.events();
        assert_eq!(events.len(), 2);
        assert!(
            events.iter().all(|e| e.timeout_cause == Some(obs::TimeoutCause::ReplyLoss)),
            "{events:?}"
        );
        let s = p.stats();
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.timeouts_loss, 1, "final fault timeout is attributed");
        assert_eq!(s.fault_timeouts(), 1);
    }

    #[test]
    fn recovered_retry_is_not_a_fault_timeout() {
        // Reply loss on exactly the first injection tick: retry recovers,
        // so the logical probe is clean and nothing is attributed.
        let seed = (0..u64::MAX)
            .find(|&s| {
                let mut plan = netsim::FaultPlan::new(s);
                plan.reply_loss = 0.5;
                plan.drops_reply(1) && !plan.drops_reply(2)
            })
            .unwrap();
        let mut plan = netsim::FaultPlan::new(seed);
        plan.reply_loss = 0.5;
        let (net, names) = faulted_chain(plan);
        let d = names.addr("dest");
        let mut p = net
            .prober(names.addr("vantage"), Protocol::Icmp)
            .retry_policy(RetryPolicy::Fixed { retries: 1 });
        assert_eq!(p.probe(d, 64), ProbeOutcome::DirectReply { from: d });
        let s = p.stats();
        assert_eq!(s.retries, 1, "first attempt was lost");
        assert_eq!(s.timeouts, 0);
        assert_eq!(s.fault_timeouts(), 0, "a recovered probe is clean");
    }

    #[test]
    fn recorder_sees_every_wire_attempt() {
        use obs::{Registry, SinkHandle, VecSink};

        let (net, names) = chain(2);
        let d = names.addr("dest");
        let sink = VecSink::new();
        let reader = sink.clone();
        let metrics = Arc::new(Registry::new());
        let recorder =
            Recorder::new().with_sink(SinkHandle::new(sink)).with_metrics(Arc::clone(&metrics));
        let mut p = net
            .prober(names.addr("vantage"), Protocol::Icmp)
            .retry_policy(RetryPolicy::Fixed { retries: 1 })
            .recorder(recorder);

        let _ = p.probe(d, 64);
        let _ = p.probe("99.0.0.1".parse().unwrap(), 64); // 2 attempts, both silent

        let events = reader.events();
        assert_eq!(events.len() as u64, p.stats().sent, "one event per wire send");
        assert_eq!(events[0].outcome, obs::Outcome::DirectReply);
        assert_eq!(events[0].from, Some(d));
        assert_eq!(events[1].attempt, 0);
        assert_eq!(events[2].attempt, 1, "retry attempts are numbered");
        assert_eq!(metrics.snapshot().sent_total(), p.stats().sent);
    }

    #[test]
    #[should_panic(expected = "not an interface")]
    fn bogus_source_panics_early() {
        let (net, _) = chain(1);
        let _ = net.prober("203.0.113.99".parse().unwrap(), Protocol::Icmp);
    }

    #[test]
    fn two_vantages_share_one_network() {
        let (topo, names) = samples::figure2();
        let shared = SharedNetwork::new(topo);
        let mut pa = shared.prober(names.addr("A"), Protocol::Icmp).ident(1);
        let mut pb = shared.prober(names.addr("B"), Protocol::Icmp).ident(2);
        let (c, d) = (names.addr("C"), names.addr("D"));
        assert_eq!(pa.probe(d, 64), ProbeOutcome::DirectReply { from: d });
        assert_eq!(pb.probe(c, 64), ProbeOutcome::DirectReply { from: c });
        // Engine clock advanced for both (shared state).
        assert!(shared.with(|n| n.tick()) >= 2);
    }

    #[test]
    fn default_idents_are_distinct_per_prober() {
        let (topo, names) = samples::figure2();
        let shared = SharedNetwork::new(topo);
        let a = shared.prober(names.addr("A"), Protocol::Icmp);
        let b = shared.prober(names.addr("B"), Protocol::Icmp);
        assert_ne!(a.ident, b.ident, "two default probers must not share a flow ident");
        for p in [&a, &b] {
            let base = IdentSpace::Aux.base();
            assert!(p.ident >= base, "default idents come from the Aux namespace");
        }
    }

    #[test]
    fn rtt_sleep_does_not_change_outcomes() {
        let (net, names) = chain(1);
        let mut p = net
            .prober(names.addr("vantage"), Protocol::Icmp)
            .ident(7)
            .rtt(Duration::from_micros(50));
        let d = names.addr("dest");
        assert_eq!(p.probe(d, 64), ProbeOutcome::DirectReply { from: d });
        assert_eq!(net.with(|n| n.tick()), 1);
    }
}
