//! [`HopProber`]: the session's per-hop probe economy.
//!
//! Two rules bound what one hop may spend on the wire:
//!
//! * **Merged rules** (§3.5): "our tracenet implementation is optimized
//!   to collect the subnets with the least number of probes and some of
//!   the rules are merged together." Heuristics H3 and H6 both need the
//!   result of `⟨l, jʰ−1⟩`, and subnet positioning re-asks questions that
//!   trace collection already answered. Memoizing on `(dst, ttl, flow)`
//!   makes the merged-probe behavior fall out naturally while leaving the
//!   heuristics written exactly as the paper states them. Timeouts are
//!   memoized too: the inner prober already re-probed the silence (§3.8).
//! * **A fault budget**: when transient loss or a rate-limit storm makes a
//!   hop unresponsive, every candidate address would time out through its
//!   full retry budget. Once the hop has accrued `budget` fault-attributed
//!   timeouts ([`ProbeStats::fault_timeouts`]), every further probe of the
//!   hop answers [`ProbeOutcome::Timeout`] without touching the wire; the
//!   session notices the trip and marks the hop abandoned.
//!   Short-circuited probes are invisible in [`ProbeStats`], so probe
//!   accounting keeps describing real wire traffic.
//!
//! Both reset at every hop, so stale answers never cross path-dynamics
//! boundaries.

use std::collections::HashMap;

use inet::Addr;
use probe::{ProbeOutcome, ProbeStats, Prober, Protocol};

/// A prober wrapper owning one hop's memo and fault budget. The memo is
/// consulted first; on a miss a tripped budget answers
/// [`ProbeOutcome::Timeout`], and either answer is memoized.
pub(crate) struct HopProber<P> {
    inner: P,
    memo: HashMap<(Addr, u8, u16), ProbeOutcome>,
    hits: u64,
    /// Fault-attributed timeouts tolerated per hop; `None` never trips.
    budget: Option<u16>,
    hop_base: u64,
}

impl<P: Prober> HopProber<P> {
    /// Wraps `inner` with the per-hop fault `budget`.
    pub(crate) fn new(inner: P, budget: Option<u16>) -> HopProber<P> {
        let hop_base = inner.stats().fault_timeouts();
        HopProber { inner, memo: HashMap::new(), hits: 0, budget, hop_base }
    }

    /// Starts a new hop: forgets the memo and resets the fault budget.
    pub(crate) fn start_hop(&mut self) {
        self.memo.clear();
        self.hop_base = self.inner.stats().fault_timeouts();
    }

    /// Number of probes answered from the memo.
    pub(crate) fn memo_hits(&self) -> u64 {
        self.hits
    }

    /// Whether the current hop has exhausted its fault budget.
    pub(crate) fn tripped(&self) -> bool {
        self.budget.is_some_and(|b| self.inner.stats().fault_timeouts() - self.hop_base >= b as u64)
    }
}

impl<P: Prober> Prober for HopProber<P> {
    fn src(&self) -> Addr {
        self.inner.src()
    }

    fn protocol(&self) -> Protocol {
        self.inner.protocol()
    }

    fn probe_with_flow(&mut self, dst: Addr, ttl: u8, flow: u16) -> ProbeOutcome {
        if let Some(&hit) = self.memo.get(&(dst, ttl, flow)) {
            self.hits += 1;
            return hit;
        }
        let outcome = if self.tripped() {
            ProbeOutcome::Timeout
        } else {
            self.inner.probe_with_flow(dst, ttl, flow)
        };
        self.memo.insert((dst, ttl, flow), outcome);
        outcome
    }

    fn stats(&self) -> ProbeStats {
        self.inner.stats()
    }

    fn clock(&self) -> u64 {
        self.inner.clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probe::ScriptedProber;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn target() -> Addr {
        a("10.0.0.9")
    }

    #[test]
    fn second_identical_probe_is_free() {
        let mut inner = ScriptedProber::new(a("10.0.0.1"));
        inner.script(target(), 3, ProbeOutcome::DirectReply { from: target() });
        let mut p = HopProber::new(inner, None);
        let first = p.probe(target(), 3);
        let second = p.probe(target(), 3);
        assert_eq!(first, second);
        assert_eq!(p.memo_hits(), 1);
        assert_eq!(p.stats().sent, 1, "only one wire probe");
    }

    #[test]
    fn different_ttl_or_flow_is_not_a_hit() {
        let mut inner = ScriptedProber::new(a("10.0.0.1"));
        inner.script(target(), 3, ProbeOutcome::DirectReply { from: target() });
        let mut p = HopProber::new(inner, None);
        let _ = p.probe(target(), 3);
        let _ = p.probe(target(), 2);
        let _ = p.probe_with_flow(target(), 3, 7);
        assert_eq!(p.memo_hits(), 0);
        assert_eq!(p.stats().sent, 3);
    }

    #[test]
    fn timeouts_are_memoized_and_start_hop_forgets() {
        let inner = ScriptedProber::new(a("10.0.0.1"));
        let mut p = HopProber::new(inner, None);
        assert_eq!(p.probe(target(), 3), ProbeOutcome::Timeout);
        assert_eq!(p.probe(target(), 3), ProbeOutcome::Timeout);
        assert_eq!(p.memo_hits(), 1);
        p.start_hop();
        let _ = p.probe(target(), 3);
        assert_eq!(p.memo_hits(), 1, "a new hop must not hit");
        assert_eq!(p.stats().sent, 2);
    }

    #[test]
    fn no_budget_is_a_pass_through() {
        let mut inner = ScriptedProber::new(a("10.0.0.1"));
        inner.script(target(), 3, ProbeOutcome::DirectReply { from: target() });
        let mut p = HopProber::new(inner, None);
        assert_eq!(p.probe(target(), 3), ProbeOutcome::DirectReply { from: target() });
        assert!(!p.tripped());
        assert_eq!(p.stats().requests, 1);
    }

    /// A prober whose every probe is a fault-attributed timeout.
    struct AlwaysLost {
        stats: ProbeStats,
    }

    impl Prober for AlwaysLost {
        fn src(&self) -> Addr {
            a("10.0.0.1")
        }

        fn protocol(&self) -> Protocol {
            Protocol::Icmp
        }

        fn probe_with_flow(&mut self, _dst: Addr, _ttl: u8, _flow: u16) -> ProbeOutcome {
            self.stats.requests += 1;
            self.stats.sent += 1;
            self.stats.timeouts += 1;
            self.stats.timeouts_loss += 1;
            ProbeOutcome::Timeout
        }

        fn stats(&self) -> ProbeStats {
            self.stats
        }
    }

    fn always_lost(budget: u16) -> HopProber<AlwaysLost> {
        HopProber::new(AlwaysLost { stats: ProbeStats::default() }, Some(budget))
    }

    #[test]
    fn budget_trips_and_stops_wire_traffic() {
        let mut p = always_lost(3);
        for ttl in 1..=10 {
            assert_eq!(p.probe(target(), ttl), ProbeOutcome::Timeout);
        }
        assert!(p.tripped());
        // Only the three budgeted probes hit the wire; the rest were
        // short-circuited without touching the stats.
        assert_eq!(p.stats().sent, 3);
        assert_eq!(p.stats().timeouts, 3);
        assert_eq!(p.memo_hits(), 0);
    }

    #[test]
    fn start_hop_resets_the_budget() {
        let mut p = always_lost(2);
        let _ = p.probe(target(), 1);
        let _ = p.probe(target(), 2);
        assert!(p.tripped());
        p.start_hop();
        assert!(!p.tripped());
        let _ = p.probe(target(), 3);
        assert_eq!(p.stats().sent, 3);
    }

    #[test]
    fn tripped_answers_are_memoized_until_the_next_hop() {
        let mut p = always_lost(1);
        let _ = p.probe(target(), 1);
        assert!(p.tripped());
        // A short-circuited answer is memoized like a wire answer.
        assert_eq!(p.probe(target(), 2), ProbeOutcome::Timeout);
        assert_eq!(p.probe(target(), 2), ProbeOutcome::Timeout);
        assert_eq!(p.memo_hits(), 1);
        assert_eq!(p.stats().sent, 1, "neither probe of TTL 2 touched the wire");
        // A new hop forgets both the trip and the memo: TTL 2 goes out.
        p.start_hop();
        assert_eq!(p.probe(target(), 2), ProbeOutcome::Timeout);
        assert_eq!(p.memo_hits(), 1);
        assert_eq!(p.stats().sent, 2);
    }
}
