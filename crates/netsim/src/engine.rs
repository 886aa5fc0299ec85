//! The packet-walking engine.
//!
//! [`ConcurrentNetwork::inject`] takes a probe packet (as built by `wire::builder`),
//! walks it hop by hop through the topology with real TTL semantics, and
//! returns either the reply packet the network would produce or the reason
//! for silence. All behavior the TraceNET heuristics depend on originates
//! here:
//!
//! * delivery happens at the router *owning* the destination address, so
//!   every interface of a router shares that router's hop distance — which
//!   is precisely what creates the paper's ingress/far/close fringe
//!   false positives that heuristics H3, H7 and H8 exist to catch;
//! * TTL is decremented by each forwarding router, and expiry draws a
//!   TTL-exceeded whose source address follows the router's *indirect*
//!   response policy;
//! * direct replies (echo reply, port unreachable, TCP RST) follow the
//!   *direct* policy;
//! * equal-cost multipath choices hash the flow key — ICMP flows are keyed
//!   by (src, dst, echo ident) and UDP/TCP by (src, dst, ports), so
//!   classic UDP traceroute (incrementing ports) fluctuates across load
//!   balancers while ICMP and Paris-style probing stay pinned (§3.7);
//! * replies are subject to per-router ICMP rate limiting.
//!
//! Reverse paths are assumed deliverable: a generated reply is returned to
//! the caller directly. The paper's algorithms never reason about reverse
//! hop counts, only about *which* address answered and *what kind* of
//! message it sent.
//!
//! # Concurrency
//!
//! [`ConcurrentNetwork`] is built for lock-free parallel probing (see
//! DESIGN.md, "Engine concurrency & the probe hot path"): an immutable
//! core (`Arc<Topology>` + `Arc<RoutingTable>`, whose per-destination
//! routes are built once on first touch and then read without any lock)
//! plus the minimal mutable state — an atomic tick clock and per-router
//! token-bucket / round-robin / storm counters behind per-router sharded
//! locks. Every injection method takes `&self`, so any number of worker
//! threads probe simultaneously; a probe only touches a router's lock
//! when that router actually rate-limits, storms, or balances per packet.
//! Used from one thread, every walk decision is a pure function of the
//! injection's tick, so sequential runs are fully deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use inet::Addr;
use parking_lot::Mutex;
use wire::{builder, IcmpMessage, Packet, Payload, UnreachableCode};

use crate::events::SilenceReason;
use crate::fault::{mix, FaultPlan};
use crate::policy::{LbMode, ResponsePolicy};
use crate::routing::RoutingTable;
use crate::topology::{RouterId, SubnetId, Topology};

/// Maximum routers a walk may traverse before being declared lost; above
/// any real topology diameter, below pathological looping.
const MAX_WALK: usize = 512;

/// Outcome of injecting one packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The network produced this reply packet.
    Reply(Packet),
    /// The probe drew no response.
    Silent(SilenceReason),
}

impl Verdict {
    /// The reply packet, if any.
    pub fn reply(self) -> Option<Packet> {
        match self {
            Verdict::Reply(p) => Some(p),
            Verdict::Silent(_) => None,
        }
    }

    /// The silence reason, if silent.
    pub fn silence(&self) -> Option<SilenceReason> {
        match self {
            Verdict::Reply(_) => None,
            Verdict::Silent(r) => Some(*r),
        }
    }
}

#[derive(Clone, Copy, Default)]
struct Bucket {
    tokens: u32,
    last_refill_tick: u64,
    initialized: bool,
}

/// The mutable per-router engine state: rate-limiter bucket, per-packet
/// round-robin counter, and the storm-window reply count.
#[derive(Clone, Copy, Default)]
struct RouterState {
    bucket: Bucket,
    rr: u64,
    /// `(storm window id, replies used)`.
    storm: (u64, u32),
}

/// One router's lock shard, padded to a cache line so adjacent routers'
/// locks never false-share under concurrent probing.
#[repr(align(64))]
#[derive(Default)]
struct Slot {
    state: Mutex<RouterState>,
}

/// A live network shareable across probe worker threads: immutable
/// topology + routing behind `Arc`s, an atomic packet clock, and
/// per-router sharded counters. All probing methods take `&self`.
///
/// Decisions for one injection are pure functions of the tick that
/// injection claimed from the atomic clock, so a single-threaded caller
/// observes exactly the classic sequential engine; concurrent callers
/// contend only on the per-router shards they actually touch.
pub struct ConcurrentNetwork {
    topo: Arc<Topology>,
    routing: Arc<RoutingTable>,
    tick: AtomicU64,
    fluctuation_period: Option<u64>,
    fault: Option<FaultPlan>,
    slots: Vec<Slot>,
}

impl ConcurrentNetwork {
    /// Builds a concurrent network over a validated topology (builds the
    /// routing graph; routes toward each destination are computed on
    /// first use).
    pub fn new(topo: Topology) -> ConcurrentNetwork {
        let routing = RoutingTable::compute(&topo);
        let n = topo.router_count();
        ConcurrentNetwork {
            topo: Arc::new(topo),
            routing: Arc::new(routing),
            tick: AtomicU64::new(0),
            fluctuation_period: None,
            fault: None,
            slots: (0..n).map(|_| Slot::default()).collect(),
        }
    }

    /// Installs a seeded fault plan (builder form). A zero plan (see
    /// [`FaultPlan::is_zero`]) leaves behavior bit-identical to no plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> ConcurrentNetwork {
        self.fault = Some(plan);
        self
    }

    /// Installs or clears the fault plan. Setup-time only: requires
    /// exclusive access, so a plan can never change mid-probe.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault
    }

    /// Enables path fluctuations: every `period` injected packets the ECMP
    /// hash epoch advances, re-rolling load-balancer decisions (§3.7).
    pub fn with_fluctuation(mut self, period: u64) -> ConcurrentNetwork {
        assert!(period > 0, "fluctuation period must be positive");
        self.fluctuation_period = Some(period);
        self
    }

    /// Advances the engine clock by `ticks` without injecting anything —
    /// idle time, as spent by backoff delays between retries. Rate-limit
    /// buckets refill naturally because refills are computed from tick
    /// deltas, and scheduled faults (flaps, storms, withdrawals) move
    /// along with the clock.
    pub fn advance(&self, ticks: u64) {
        self.tick.fetch_add(ticks, Ordering::Relaxed);
    }

    /// The underlying topology (ground truth for evaluation).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The routing table.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Number of packets injected so far (the engine clock).
    pub fn tick(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// Ground-truth hop distance from the host owning `vantage` to the
    /// router owning `target` (`None` if either is unassigned or
    /// unreachable). Handy for tests and evaluation; the algorithms under
    /// test never call this.
    pub fn true_hop_distance(&self, vantage: Addr, target: Addr) -> Option<u16> {
        let from = self.topo.owner_of(vantage)?;
        let to = self.topo.owner_of(target)?;
        let d = self.routing.dist(from, to);
        (d != crate::routing::UNREACHABLE).then_some(d)
    }

    /// Claims the next tick for one injection.
    fn bump_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Injects a probe packet and walks it to a verdict.
    pub fn inject(&self, probe: &Packet) -> Verdict {
        let tick = self.bump_tick();
        self.inject_with(probe, tick)
    }

    /// Injects raw wire bytes; the canonical entry point for probers.
    pub fn inject_bytes(&self, bytes: &[u8]) -> Verdict {
        self.inject_bytes_ticked(bytes).0
    }

    /// [`ConcurrentNetwork::inject_bytes`], also returning the tick this
    /// injection claimed — under concurrency `tick()` after the fact may
    /// already include other workers' probes, so probers that timestamp
    /// events must use the claimed tick.
    pub fn inject_bytes_ticked(&self, bytes: &[u8]) -> (Verdict, u64) {
        match Packet::decode(bytes) {
            Ok(p) => {
                let tick = self.bump_tick();
                (self.inject_with(&p, tick), tick)
            }
            Err(_) => (Verdict::Silent(SilenceReason::Malformed), self.bump_tick()),
        }
    }

    fn inject_with(&self, probe: &Packet, tick: u64) -> Verdict {
        // Reverse-path loss: the reply was generated (tokens spent) but
        // never makes it back to the caller.
        match self.walk(probe, tick) {
            Verdict::Reply(_) if self.fault.is_some_and(|plan| plan.drops_reply(tick)) => {
                Verdict::Silent(SilenceReason::ReplyLoss)
            }
            v => v,
        }
    }

    fn walk(&self, probe: &Packet, tick: u64) -> Verdict {
        let origin = match self.topo.owner_of(probe.header.src) {
            Some(r) => r,
            None => return Verdict::Silent(SilenceReason::UnknownSource),
        };
        let dst = probe.header.dst;

        // Resolve the routing target.
        let (target_router, assigned_iface) = match self.topo.iface_by_addr(dst) {
            Some(ifid) => (Some(self.topo.iface(ifid).router), Some(ifid)),
            None => (None, None),
        };
        let dst_subnet = match assigned_iface {
            Some(ifid) => Some(self.topo.iface(ifid).subnet),
            None => self.topo.subnet_containing(dst),
        };
        if target_router.is_none() && dst_subnet.is_none() {
            return Verdict::Silent(SilenceReason::NoRoute);
        }

        let flow = flow_key(probe);
        let mut current = origin;
        let mut prev_subnet: Option<SubnetId> = None;
        let mut ttl = probe.header.ttl;

        for step in 0..MAX_WALK {
            // 1. Delivery check (before TTL processing, as real stacks do).
            let deliver_here = match target_router {
                Some(tr) => current == tr,
                None => self.topo.iface_on(current, dst_subnet.unwrap()).is_some(),
            };
            if deliver_here {
                return self.deliver(probe, current, prev_subnet, origin, assigned_iface, tick);
            }

            // 2. TTL decrement — but not at the originating host itself.
            if step > 0 {
                ttl -= 1;
                if ttl == 0 {
                    return self.ttl_exceeded(probe, current, prev_subnet, origin, tick);
                }
            }

            // 3. Forward along the destination's ECMP column — no
            // per-hop allocation. Unassigned destinations route toward
            // the subnet's ingress: the attached router nearest to here,
            // one load from the subnet's ingress column.
            let hops: &[(RouterId, SubnetId)] = match target_router {
                Some(tr) => self.routing.next_hops(current, tr),
                None => match self.routing.ingress(current, dst_subnet.unwrap()) {
                    Some(nearest) => self.routing.next_hops(current, nearest),
                    None => &[],
                },
            };
            if hops.is_empty() {
                return Verdict::Silent(SilenceReason::NoRoute);
            }
            // Fault-plan link filtering without materializing the
            // filtered list: count the live hops, balance over that
            // count, then index into the same filtered sequence —
            // exactly what retain-then-choose produced.
            let (next, via) = match self.fault {
                Some(plan) => {
                    let up = |&&(_, sn): &&(RouterId, SubnetId)| !plan.link_down(tick, sn);
                    let live = hops.iter().filter(up).count();
                    if live == 0 {
                        return Verdict::Silent(SilenceReason::LinkDown);
                    }
                    let idx = self.lb_index(current, live, flow, tick);
                    if live == hops.len() {
                        hops[idx]
                    } else {
                        *hops.iter().filter(up).nth(idx).expect("idx < live")
                    }
                }
                None => hops[self.lb_index(current, hops.len(), flow, tick)],
            };
            if let Some(plan) = self.fault {
                if plan.drops_forward(tick, step as u64, via, current) {
                    return Verdict::Silent(SilenceReason::ForwardLoss);
                }
            }
            current = next;
            prev_subnet = Some(via);
        }
        Verdict::Silent(SilenceReason::NoRoute)
    }

    /// Picks the index of one ECMP next hop among `len` candidates
    /// deterministically. Per-flow balancing is a pure hash; per-packet
    /// balancing takes the router's shard lock for its counter — and
    /// neither touches the lock when the choice is forced.
    fn lb_index(&self, at: RouterId, len: usize, flow: u64, tick: u64) -> usize {
        if len == 1 {
            return 0;
        }
        match self.topo.router(at).config.lb {
            LbMode::PerFlow => {
                let epoch = match self.fluctuation_period {
                    Some(p) => tick / p,
                    None => 0,
                };
                (mix(flow ^ mix(at.0 as u64 ^ (epoch << 32))) % len as u64) as usize
            }
            LbMode::PerPacket => {
                let mut st = self.slots[at.0 as usize].state.lock();
                st.rr += 1;
                (st.rr % len as u64) as usize
            }
        }
    }

    /// Direct delivery: the probe reached the router owning its
    /// destination (or the destination subnet, for unassigned addresses).
    fn deliver(
        &self,
        probe: &Packet,
        at: RouterId,
        prev_subnet: Option<SubnetId>,
        origin: RouterId,
        assigned_iface: Option<crate::topology::IfaceId>,
        tick: u64,
    ) -> Verdict {
        let proto = probe.header.protocol;
        let config = self.topo.router(at).config;

        let blocked = |sn: &crate::topology::Subnet| {
            sn.filtered || sn.filtered_sources.contains(&probe.header.src)
        };
        let Some(ifid) = assigned_iface else {
            // Unassigned address inside an attached subnet.
            let sn =
                self.topo.subnet_containing(probe.header.dst).expect("delivery implies subnet");
            if blocked(self.topo.subnet(sn)) {
                return Verdict::Silent(SilenceReason::Filtered);
            }
            if !config.unreachable_replies {
                return Verdict::Silent(SilenceReason::Unassigned);
            }
            let Some(src) = self.reply_src(config.indirect, at, prev_subnet, origin, None) else {
                return Verdict::Silent(SilenceReason::PolicySilence);
            };
            if !self.take_token(at, tick) {
                return Verdict::Silent(SilenceReason::RateLimited);
            }
            return Verdict::Reply(builder::unreachable(probe, src, UnreachableCode::Host));
        };

        let iface = self.topo.iface(ifid).clone();
        if blocked(self.topo.subnet(iface.subnet)) {
            return Verdict::Silent(SilenceReason::Filtered);
        }
        if !iface.responsive || !config.direct_protos.allows(proto) {
            return Verdict::Silent(SilenceReason::PolicySilence);
        }
        let Some(src) = self.reply_src(config.direct, at, prev_subnet, origin, Some(iface.addr))
        else {
            return Verdict::Silent(SilenceReason::PolicySilence);
        };
        let reply = match &probe.payload {
            Payload::Icmp(IcmpMessage::EchoRequest { .. }) => {
                builder::echo_reply(probe, src).expect("echo request")
            }
            Payload::Icmp(_) => return Verdict::Silent(SilenceReason::PolicySilence),
            Payload::Udp(_) => builder::unreachable(probe, src, UnreachableCode::Port),
            Payload::Tcp(seg) if seg.flags.syn() => {
                builder::tcp_rst(probe, src).expect("syn probe")
            }
            Payload::Tcp(_) => return Verdict::Silent(SilenceReason::PolicySilence),
        };
        if !self.take_token(at, tick) {
            return Verdict::Silent(SilenceReason::RateLimited);
        }
        Verdict::Reply(reply)
    }

    /// TTL expired at `at`.
    fn ttl_exceeded(
        &self,
        probe: &Packet,
        at: RouterId,
        prev_subnet: Option<SubnetId>,
        origin: RouterId,
        tick: u64,
    ) -> Verdict {
        let config = self.topo.router(at).config;
        if !config.indirect_protos.allows(probe.header.protocol) {
            return Verdict::Silent(SilenceReason::TtlExpiredSilently);
        }
        // "a router cannot be configured as probed interface router for
        // indirect queries" (§3.1): treat Probed as Incoming here.
        let policy = match config.indirect {
            ResponsePolicy::Probed => ResponsePolicy::Incoming,
            p => p,
        };
        let Some(src) = self.reply_src(policy, at, prev_subnet, origin, None) else {
            return Verdict::Silent(SilenceReason::TtlExpiredSilently);
        };
        if !self.take_token(at, tick) {
            return Verdict::Silent(SilenceReason::RateLimited);
        }
        Verdict::Reply(builder::ttl_exceeded(probe, src))
    }

    /// Chooses the reply source address per the response policy.
    ///
    /// `probed` carries the probed interface address for direct replies.
    fn reply_src(
        &self,
        policy: ResponsePolicy,
        at: RouterId,
        prev_subnet: Option<SubnetId>,
        origin: RouterId,
        probed: Option<Addr>,
    ) -> Option<Addr> {
        let first_iface_addr =
            || self.topo.router(at).ifaces.first().map(|&i| self.topo.iface(i).addr);
        match policy {
            ResponsePolicy::Nil => None,
            ResponsePolicy::Probed => probed.or_else(|| self.incoming_addr(at, prev_subnet)),
            ResponsePolicy::Incoming => {
                self.incoming_addr(at, prev_subnet).or(probed).or_else(first_iface_addr)
            }
            ResponsePolicy::ShortestPath => {
                let hops = self.routing.next_hops(at, origin);
                let via = hops.first().map(|&(_, sn)| sn).or(prev_subnet)?;
                self.topo.iface_on(at, via).map(|i| self.topo.iface(i).addr)
            }
            ResponsePolicy::Default(addr) => Some(addr),
        }
    }

    fn incoming_addr(&self, at: RouterId, prev_subnet: Option<SubnetId>) -> Option<Addr> {
        let sn = prev_subnet?;
        self.topo.iface_on(at, sn).map(|i| self.topo.iface(i).addr)
    }

    /// Consumes one rate-limit token at `at`, if a limiter is configured.
    /// During a fault-plan storm window the router is additionally capped
    /// to the storm's per-window reply budget.
    ///
    /// Fast path: a router with no limiter and no active storm replies
    /// without ever taking its shard lock.
    fn take_token(&self, at: RouterId, tick: u64) -> bool {
        let storm = self.fault.and_then(|plan| plan.storm_window(tick, at));
        let rl = self.topo.router(at).config.rate_limit;
        if storm.is_none() && rl.is_none() {
            return true;
        }
        let mut st = self.slots[at.0 as usize].state.lock();
        if let Some((window, capacity)) = storm {
            if st.storm.0 != window {
                st.storm = (window, 0);
            }
            if st.storm.1 >= capacity {
                return false;
            }
            st.storm.1 += 1;
        }
        let Some(rl) = rl else {
            return true;
        };
        let b = &mut st.bucket;
        if !b.initialized {
            b.tokens = rl.capacity;
            b.last_refill_tick = tick;
            b.initialized = true;
        }
        let elapsed = tick.saturating_sub(b.last_refill_tick);
        let refill = elapsed / rl.refill_every;
        if refill > 0 {
            b.tokens = (b.tokens as u64 + refill).min(rl.capacity as u64) as u32;
            b.last_refill_tick += refill * rl.refill_every;
        }
        if b.tokens == 0 {
            return false;
        }
        b.tokens -= 1;
        true
    }
}

/// Extracts the load-balancer flow key: ICMP flows are pinned by echo
/// identifier; UDP/TCP by their port pair.
#[inline]
fn flow_key(p: &Packet) -> u64 {
    let l4: u32 = match &p.payload {
        Payload::Icmp(IcmpMessage::EchoRequest { ident, .. }) => *ident as u32,
        Payload::Icmp(_) => 0,
        Payload::Udp(d) => ((d.src_port as u32) << 16) | d.dst_port as u32,
        Payload::Tcp(s) => ((s.src_port as u32) << 16) | s.dst_port as u32,
    };
    let a = (p.header.src.to_u32() as u64) << 32 | p.header.dst.to_u32() as u64;
    mix(a ^ ((l4 as u64) << 8) ^ p.header.protocol.number() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ProtoSet, RateLimit, RouterConfig};
    use crate::samples;
    use inet::Prefix;
    use wire::builder::{icmp_probe, tcp_probe, udp_probe};

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    /// vantage -- r1 -- r2 -- r3 -- dest, /31 links, all cooperative.
    fn chain_net() -> (ConcurrentNetwork, Addr, Addr) {
        let (topo, names) = samples::chain(3);
        let net = ConcurrentNetwork::new(topo);
        (net, names.addr("vantage"), names.addr("dest"))
    }

    #[test]
    fn direct_probe_reaches_destination() {
        let (net, v, d) = chain_net();
        let reply = net.inject(&icmp_probe(v, d, 64, 1, 1)).reply().unwrap();
        assert_eq!(reply.header.src, d);
        assert!(matches!(
            reply.payload,
            Payload::Icmp(IcmpMessage::EchoReply { ident: 1, seq: 1 })
        ));
    }

    #[test]
    fn ttl_scoping_walks_the_chain() {
        let (net, v, d) = chain_net();
        // TTL k yields TTL-exceeded from the k-th router (1-based).
        for k in 1..=3u8 {
            let verdict = net.inject(&icmp_probe(v, d, k, 1, k as u16));
            let reply = verdict.reply().expect("router responds");
            match reply.payload {
                Payload::Icmp(IcmpMessage::TtlExceeded { quoted }) => {
                    assert_eq!(quoted.header.dst, d);
                }
                ref other => panic!("unexpected payload {other:?}"),
            }
            let owner = net.topology().owner_of(reply.header.src).unwrap();
            assert_eq!(net.topology().router(owner).name, format!("r{k}"));
        }
        // TTL 4 reaches the destination host.
        let reply = net.inject(&icmp_probe(v, d, 4, 1, 9)).reply().unwrap();
        assert_eq!(reply.header.src, d);
    }

    #[test]
    fn true_hop_distance_matches_ttl_behavior() {
        let (net, v, d) = chain_net();
        assert_eq!(net.true_hop_distance(v, d), Some(4));
    }

    #[test]
    fn udp_probe_gets_port_unreachable_tcp_gets_rst() {
        let (net, v, d) = chain_net();
        let r = net.inject(&udp_probe(v, d, 64, 40000, 33434)).reply().unwrap();
        assert!(matches!(
            r.payload,
            Payload::Icmp(IcmpMessage::Unreachable { code: UnreachableCode::Port, .. })
        ));
        let r = net.inject(&tcp_probe(v, d, 64, 40000, 80)).reply().unwrap();
        match r.payload {
            Payload::Tcp(seg) => assert!(seg.flags.rst()),
            ref other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn unknown_source_and_no_route_are_silent() {
        let (net, v, _) = chain_net();
        let bogus = icmp_probe(a("99.99.99.99"), v, 64, 1, 1);
        assert_eq!(net.inject(&bogus).silence(), Some(SilenceReason::UnknownSource));
        let unrouted = icmp_probe(v, a("99.99.99.99"), 64, 1, 1);
        assert_eq!(net.inject(&unrouted).silence(), Some(SilenceReason::NoRoute));
    }

    #[test]
    fn unassigned_addr_in_known_subnet_is_silent_by_default() {
        // chain() uses /31 links so every address is assigned; build a /29
        // with spare addresses instead.
        let mut b = crate::TopologyBuilder::new();
        let v = b.host("vantage");
        let r1 = b.router("r1", RouterConfig::cooperative());
        let lan = b.subnet("10.0.0.0/29".parse::<Prefix>().unwrap());
        b.attach(v, lan, a("10.0.0.1")).unwrap();
        b.attach(r1, lan, a("10.0.0.2")).unwrap();
        let net = ConcurrentNetwork::new(b.build().unwrap());
        let verdict = net.inject(&icmp_probe(a("10.0.0.1"), a("10.0.0.5"), 64, 1, 1));
        assert_eq!(verdict.silence(), Some(SilenceReason::Unassigned));
    }

    #[test]
    fn unassigned_addr_draws_host_unreachable_when_configured() {
        let mut b = crate::TopologyBuilder::new();
        let v = b.host("vantage");
        let mut cfg = RouterConfig::cooperative();
        cfg.unreachable_replies = true;
        let r1 = b.router("r1", cfg);
        let lan = b.subnet("10.0.0.0/29".parse::<Prefix>().unwrap());
        b.attach(v, lan, a("10.0.0.1")).unwrap();
        b.attach(r1, lan, a("10.0.0.2")).unwrap();
        // Another subnet so delivery happens at r1, arriving via `lan`.
        let far = b.subnet("10.0.1.0/29".parse::<Prefix>().unwrap());
        b.attach(r1, far, a("10.0.1.1")).unwrap();
        let net = ConcurrentNetwork::new(b.build().unwrap());
        let verdict = net.inject(&icmp_probe(a("10.0.0.1"), a("10.0.1.5"), 64, 1, 1));
        let reply = verdict.reply().unwrap();
        assert!(matches!(
            reply.payload,
            Payload::Icmp(IcmpMessage::Unreachable { code: UnreachableCode::Host, .. })
        ));
    }

    #[test]
    fn filtered_subnet_swallows_probes() {
        let mut b = crate::TopologyBuilder::new();
        let v = b.host("vantage");
        let r1 = b.router("r1", RouterConfig::cooperative());
        let lan = b.subnet("10.0.0.0/30".parse::<Prefix>().unwrap());
        b.attach(v, lan, a("10.0.0.1")).unwrap();
        b.attach(r1, lan, a("10.0.0.2")).unwrap();
        let fw = b.filtered_subnet("10.0.1.0/29".parse::<Prefix>().unwrap());
        b.attach(r1, fw, a("10.0.1.1")).unwrap();
        let net = ConcurrentNetwork::new(b.build().unwrap());
        // Assigned address behind the firewall: silence.
        let verdict = net.inject(&icmp_probe(a("10.0.0.1"), a("10.0.1.1"), 64, 1, 1));
        assert_eq!(verdict.silence(), Some(SilenceReason::Filtered));
        // Unassigned address behind the firewall: also silence.
        let verdict = net.inject(&icmp_probe(a("10.0.0.1"), a("10.0.1.5"), 64, 1, 1));
        assert_eq!(verdict.silence(), Some(SilenceReason::Filtered));
    }

    #[test]
    fn unresponsive_iface_is_silent_but_still_routes() {
        let (topo, names) = samples::chain(2);
        // Rebuild with r1's far-side iface unresponsive is fiddly; instead
        // flip responsiveness via a fresh builder.
        let mut b = crate::TopologyBuilder::new();
        let v = b.host("vantage");
        let r1 = b.router("r1", RouterConfig::cooperative());
        let d = b.host("dest");
        let l1 = b.subnet("10.0.0.0/31".parse::<Prefix>().unwrap());
        b.attach(v, l1, a("10.0.0.0")).unwrap();
        b.attach(r1, l1, a("10.0.0.1")).unwrap();
        let l2 = b.subnet("10.0.0.2/31".parse::<Prefix>().unwrap());
        b.attach_with(r1, l2, a("10.0.0.2"), false).unwrap(); // unresponsive
        b.attach(d, l2, a("10.0.0.3")).unwrap();
        let net = ConcurrentNetwork::new(b.build().unwrap());
        // Direct probe to the unresponsive interface: silence.
        let verdict = net.inject(&icmp_probe(a("10.0.0.0"), a("10.0.0.2"), 64, 1, 1));
        assert_eq!(verdict.silence(), Some(SilenceReason::PolicySilence));
        // But traffic still flows through r1 to the destination.
        let reply =
            net.inject(&icmp_probe(a("10.0.0.0"), a("10.0.0.3"), 64, 1, 2)).reply().unwrap();
        assert_eq!(reply.header.src, a("10.0.0.3"));
        let _ = (topo, names);
    }

    #[test]
    fn icmp_only_router_ignores_udp_and_tcp() {
        let mut b = crate::TopologyBuilder::new();
        let v = b.host("vantage");
        let mut cfg = RouterConfig::cooperative();
        cfg.direct_protos = ProtoSet::ICMP_ONLY;
        let r1 = b.router("r1", cfg);
        let l1 = b.subnet("10.0.0.0/31".parse::<Prefix>().unwrap());
        b.attach(v, l1, a("10.0.0.0")).unwrap();
        b.attach(r1, l1, a("10.0.0.1")).unwrap();
        let net = ConcurrentNetwork::new(b.build().unwrap());
        let v_addr = a("10.0.0.0");
        let t = a("10.0.0.1");
        assert!(net.inject(&icmp_probe(v_addr, t, 64, 1, 1)).reply().is_some());
        assert_eq!(
            net.inject(&udp_probe(v_addr, t, 64, 1, 33434)).silence(),
            Some(SilenceReason::PolicySilence)
        );
        assert_eq!(
            net.inject(&tcp_probe(v_addr, t, 64, 1, 80)).silence(),
            Some(SilenceReason::PolicySilence)
        );
    }

    #[test]
    fn nil_router_is_anonymous_for_indirect_probes() {
        let mut b = crate::TopologyBuilder::new();
        let v = b.host("vantage");
        let r1 = b.router("r1", RouterConfig::anonymous());
        let d = b.host("dest");
        let l1 = b.subnet("10.0.0.0/31".parse::<Prefix>().unwrap());
        b.attach(v, l1, a("10.0.0.0")).unwrap();
        b.attach(r1, l1, a("10.0.0.1")).unwrap();
        let l2 = b.subnet("10.0.0.2/31".parse::<Prefix>().unwrap());
        b.attach(r1, l2, a("10.0.0.2")).unwrap();
        b.attach(d, l2, a("10.0.0.3")).unwrap();
        let net = ConcurrentNetwork::new(b.build().unwrap());
        let verdict = net.inject(&icmp_probe(a("10.0.0.0"), a("10.0.0.3"), 1, 1, 1));
        assert_eq!(verdict.silence(), Some(SilenceReason::TtlExpiredSilently));
        // The destination is still reachable through it.
        assert!(net.inject(&icmp_probe(a("10.0.0.0"), a("10.0.0.3"), 64, 1, 2)).reply().is_some());
    }

    #[test]
    fn default_policy_reports_fixed_address() {
        let mut b = crate::TopologyBuilder::new();
        let v = b.host("vantage");
        let mut cfg = RouterConfig::cooperative();
        cfg.indirect = ResponsePolicy::Default(a("10.0.0.2"));
        let r1 = b.router("r1", cfg);
        let d = b.host("dest");
        let l1 = b.subnet("10.0.0.0/31".parse::<Prefix>().unwrap());
        b.attach(v, l1, a("10.0.0.0")).unwrap();
        b.attach(r1, l1, a("10.0.0.1")).unwrap();
        let l2 = b.subnet("10.0.0.2/31".parse::<Prefix>().unwrap());
        b.attach(r1, l2, a("10.0.0.2")).unwrap();
        b.attach(d, l2, a("10.0.0.3")).unwrap();
        let net = ConcurrentNetwork::new(b.build().unwrap());
        let reply = net.inject(&icmp_probe(a("10.0.0.0"), a("10.0.0.3"), 1, 1, 1)).reply().unwrap();
        assert_eq!(reply.header.src, a("10.0.0.2"));
    }

    #[test]
    fn shortest_path_policy_reports_vantage_facing_iface() {
        let mut b = crate::TopologyBuilder::new();
        let v = b.host("vantage");
        let mut cfg = RouterConfig::cooperative();
        cfg.indirect = ResponsePolicy::ShortestPath;
        let r1 = b.router("r1", cfg);
        let d = b.host("dest");
        let l1 = b.subnet("10.0.0.0/31".parse::<Prefix>().unwrap());
        b.attach(v, l1, a("10.0.0.0")).unwrap();
        b.attach(r1, l1, a("10.0.0.1")).unwrap();
        let l2 = b.subnet("10.0.0.2/31".parse::<Prefix>().unwrap());
        b.attach(r1, l2, a("10.0.0.2")).unwrap();
        b.attach(d, l2, a("10.0.0.3")).unwrap();
        let net = ConcurrentNetwork::new(b.build().unwrap());
        let reply = net.inject(&icmp_probe(a("10.0.0.0"), a("10.0.0.3"), 1, 1, 1)).reply().unwrap();
        // The vantage-facing interface is 10.0.0.1 (on l1).
        assert_eq!(reply.header.src, a("10.0.0.1"));
    }

    #[test]
    fn incoming_policy_reports_entry_iface() {
        let (net, v, d) = chain_net();
        // chain() routers are cooperative => indirect = Incoming. The
        // TTL=2 expiry happens at r2, entered via the r1-r2 link.
        let reply = net.inject(&icmp_probe(v, d, 2, 1, 1)).reply().unwrap();
        let src_iface = net.topology().iface_by_addr(reply.header.src).unwrap();
        let iface = net.topology().iface(src_iface);
        let owner = net.topology().router(iface.router);
        assert_eq!(owner.name, "r2");
        // Entry subnet is the one shared with r1.
        let r1 = net.topology().router_by_name("r1").unwrap();
        let shares_with_r1 = net
            .topology()
            .subnet(iface.subnet)
            .ifaces
            .iter()
            .any(|&i| net.topology().iface(i).router == r1);
        assert!(shares_with_r1, "incoming iface must face r1");
    }

    #[test]
    fn rate_limited_router_eventually_goes_silent_and_recovers() {
        let mut b = crate::TopologyBuilder::new();
        let v = b.host("vantage");
        let mut cfg = RouterConfig::cooperative();
        cfg.rate_limit = Some(RateLimit { capacity: 3, refill_every: 100 });
        let r1 = b.router("r1", cfg);
        let l1 = b.subnet("10.0.0.0/31".parse::<Prefix>().unwrap());
        b.attach(v, l1, a("10.0.0.0")).unwrap();
        b.attach(r1, l1, a("10.0.0.1")).unwrap();
        let net = ConcurrentNetwork::new(b.build().unwrap());
        let probe = icmp_probe(a("10.0.0.0"), a("10.0.0.1"), 64, 1, 1);
        for _ in 0..3 {
            assert!(net.inject(&probe).reply().is_some());
        }
        assert_eq!(net.inject(&probe).silence(), Some(SilenceReason::RateLimited));
        // After ~100 quiet ticks the bucket refills one token.
        for _ in 0..100 {
            let _ = net.inject(&icmp_probe(a("10.0.0.0"), a("99.0.0.1"), 64, 1, 1));
        }
        assert!(net.inject(&probe).reply().is_some());
    }

    #[test]
    fn per_flow_lb_is_stable_per_packet_lb_alternates() {
        let (topo, names) = samples::diamond();
        let v = names.addr("vantage");
        let d = names.addr("dest");
        let net = ConcurrentNetwork::new(topo);

        // Same flow key (same ident): the TTL=2 hop must be stable.
        let mut seen = std::collections::HashSet::new();
        for seq in 0..16 {
            let reply = net.inject(&icmp_probe(v, d, 2, 7, seq)).reply().unwrap();
            seen.insert(reply.header.src);
        }
        assert_eq!(seen.len(), 1, "per-flow LB must pin the path for one flow");

        // Different flow keys (different idents): both branches appear.
        let mut seen = std::collections::HashSet::new();
        for ident in 0..32 {
            let reply = net.inject(&icmp_probe(v, d, 2, ident, 0)).reply().unwrap();
            seen.insert(reply.header.src);
        }
        assert_eq!(seen.len(), 2, "distinct flows should spread over the diamond");
    }

    #[test]
    fn fluctuation_rerolls_flows_across_epochs() {
        let (topo, names) = samples::diamond();
        let v = names.addr("vantage");
        let d = names.addr("dest");
        let net = ConcurrentNetwork::new(topo).with_fluctuation(8);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let reply = net.inject(&icmp_probe(v, d, 2, 7, 0)).reply().unwrap();
            seen.insert(reply.header.src);
        }
        assert_eq!(seen.len(), 2, "epoch changes must eventually re-roll the path");
    }

    #[test]
    fn inject_bytes_accepts_wire_and_rejects_garbage() {
        let (net, v, d) = chain_net();
        let probe = icmp_probe(v, d, 64, 1, 1);
        match net.inject_bytes(&probe.encode()) {
            Verdict::Reply(r) => assert_eq!(r.header.src, d),
            other => panic!("unexpected verdict {other:?}"),
        }
        assert_eq!(net.inject_bytes(&[0xff; 9]).silence(), Some(SilenceReason::Malformed));
    }

    #[test]
    fn zero_fault_plan_is_invisible() {
        use crate::fault::FaultPlan;
        let (plain, v, d) = chain_net();
        let (topo, _) = samples::chain(3);
        let faulted = ConcurrentNetwork::new(topo).with_fault_plan(FaultPlan::new(42));
        for ttl in 1..=6u8 {
            let probe = icmp_probe(v, d, ttl, 1, ttl as u16);
            assert_eq!(plain.inject(&probe), faulted.inject(&probe), "ttl {ttl}");
        }
        assert_eq!(plain.tick(), faulted.tick());
    }

    #[test]
    fn total_reply_loss_surfaces_as_reply_loss() {
        let (mut net, v, d) = chain_net();
        let mut plan = crate::fault::FaultPlan::new(3);
        plan.reply_loss = 1.0;
        net.set_fault_plan(Some(plan));
        let verdict = net.inject(&icmp_probe(v, d, 64, 1, 1));
        assert_eq!(verdict.silence(), Some(SilenceReason::ReplyLoss));
    }

    #[test]
    fn withdrawn_links_drop_probes_as_link_down() {
        let (mut net, v, d) = chain_net();
        let mut plan = crate::fault::FaultPlan::new(3);
        plan.withdraw_fraction = 1.0;
        plan.withdraw_at = 3;
        net.set_fault_plan(Some(plan));
        assert!(net.inject(&icmp_probe(v, d, 64, 1, 1)).reply().is_some());
        net.advance(10);
        let verdict = net.inject(&icmp_probe(v, d, 64, 1, 2));
        assert_eq!(verdict.silence(), Some(SilenceReason::LinkDown));
    }

    #[test]
    fn storm_caps_replies_and_lets_the_window_pass() {
        use crate::fault::{FaultPlan, RateStorm};
        let (mut net, v, d) = chain_net();
        let mut plan = FaultPlan::new(9);
        plan.storm =
            Some(RateStorm { period: 1000, active: 500, capacity: 2, router_fraction: 1.0 });
        net.set_fault_plan(Some(plan));
        let probe = icmp_probe(v, d, 64, 1, 1);
        assert!(net.inject(&probe).reply().is_some());
        assert!(net.inject(&probe).reply().is_some());
        assert_eq!(net.inject(&probe).silence(), Some(SilenceReason::RateLimited));
        // Outside the active window the cap is gone.
        net.advance(600);
        assert!(net.inject(&probe).reply().is_some());
    }

    #[test]
    fn inject_bytes_ticked_returns_the_claimed_tick() {
        let (topo, names) = samples::chain(1);
        let net = ConcurrentNetwork::new(topo);
        let probe = icmp_probe(names.addr("vantage"), names.addr("dest"), 64, 1, 1);
        let (_, t1) = net.inject_bytes_ticked(&probe.encode());
        let (v2, t2) = net.inject_bytes_ticked(&[0xff; 9]);
        assert_eq!((t1, t2), (1, 2), "malformed bytes still consume a tick");
        assert_eq!(v2.silence(), Some(SilenceReason::Malformed));
    }

    #[test]
    fn flow_key_distinguishes_ports_not_icmp_seq() {
        let v = a("10.0.0.1");
        let d = a("10.9.9.9");
        // ICMP: same ident, different seq => same flow.
        assert_eq!(flow_key(&icmp_probe(v, d, 9, 7, 1)), flow_key(&icmp_probe(v, d, 3, 7, 2)));
        // ICMP: different ident => different flow.
        assert_ne!(flow_key(&icmp_probe(v, d, 9, 7, 1)), flow_key(&icmp_probe(v, d, 9, 8, 1)));
        // UDP: different dst port => different flow (classic traceroute).
        assert_ne!(
            flow_key(&udp_probe(v, d, 9, 500, 33434)),
            flow_key(&udp_probe(v, d, 9, 500, 33435))
        );
        // UDP: same ports => same flow (Paris style).
        assert_eq!(
            flow_key(&udp_probe(v, d, 9, 500, 33434)),
            flow_key(&udp_probe(v, d, 3, 500, 33434))
        );
    }
}
