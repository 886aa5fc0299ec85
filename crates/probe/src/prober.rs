//! The [`Prober`] trait and probe accounting.

use inet::Addr;
use obs::{ProbeOutcome, TimeoutCause};
use wire::Protocol;

/// Counters over everything a prober sent and saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Packets actually put on the (simulated) wire, retries included.
    pub sent: u64,
    /// Logical probes requested (one per `probe*` call).
    pub requests: u64,
    /// Retries performed after silence.
    pub retries: u64,
    /// Direct replies received.
    pub direct_replies: u64,
    /// TTL-exceeded replies received.
    pub ttl_exceeded: u64,
    /// Non-success unreachables received.
    pub unreachable: u64,
    /// Probes that ended in timeout after all retries.
    pub timeouts: u64,
    /// Final timeouts attributed to injected transient loss (forward
    /// loss, reply loss, a link held down). Subset of `timeouts`.
    pub timeouts_loss: u64,
    /// Final timeouts attributed to reply rate limiting. Subset of
    /// `timeouts`.
    pub timeouts_rate_limited: u64,
    /// The cause of the most recent fault-attributed timeout (the one
    /// that last bumped `timeouts_loss` or `timeouts_rate_limited`).
    /// Lets the session say *why* a hop degraded, not just that it did.
    pub last_fault_cause: Option<TimeoutCause>,
}

impl ProbeStats {
    /// Records a logical probe's final outcome. `cause` attributes a
    /// final timeout when the prober can see why the wire stayed silent;
    /// it must be `None` for non-timeout outcomes.
    pub(crate) fn record(&mut self, outcome: &ProbeOutcome, cause: Option<TimeoutCause>) {
        match outcome {
            ProbeOutcome::DirectReply { .. } => self.direct_replies += 1,
            ProbeOutcome::TtlExceeded { .. } => self.ttl_exceeded += 1,
            ProbeOutcome::Unreachable { .. } => self.unreachable += 1,
            ProbeOutcome::Timeout => {
                self.timeouts += 1;
                match cause {
                    Some(c) if c.is_fault() => {
                        self.timeouts_loss += 1;
                        self.last_fault_cause = Some(c);
                    }
                    Some(TimeoutCause::RateLimited) => {
                        self.timeouts_rate_limited += 1;
                        self.last_fault_cause = Some(TimeoutCause::RateLimited);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Final timeouts caused by transient faults or rate limiting — the
    /// counters that degrade a hop's completeness and feed the per-hop
    /// fault budget. Normal exploration silence (unassigned addresses,
    /// nil policies, filtered subnets) is deliberately excluded.
    pub fn fault_timeouts(&self) -> u64 {
        self.timeouts_loss + self.timeouts_rate_limited
    }
}

/// A source of probes: the seam between the collection algorithms and the
/// network (simulated here; raw sockets in a live deployment).
///
/// Implementations must be deterministic given the same call sequence —
/// all experiment reproducibility rests on that.
pub trait Prober {
    /// The vantage address probes are sent from.
    fn src(&self) -> Addr;

    /// The probe protocol in use (ICMP, UDP or TCP — §3.1).
    fn protocol(&self) -> Protocol;

    /// Sends one probe to `dst` with the given `ttl` on flow `flow`.
    ///
    /// The flow is folded into the fields a per-flow load balancer
    /// hashes: the echo ident (ICMP), the destination port (UDP) or the
    /// source port (TCP). Probes with one `flow` value stay on one path
    /// (Paris traceroute, Augustin et al., IMC 2006); classic traceroute
    /// varies it per probe.
    fn probe_with_flow(&mut self, dst: Addr, ttl: u8, flow: u16) -> ProbeOutcome;

    /// Sends one probe on the session's default flow.
    ///
    /// TraceNET keeps every probe of a session on a single flow: "our
    /// implementation of tracenet is completely based on ICMP probes
    /// which are shown to be the least affected by load balancing" (§3.7).
    fn probe(&mut self, dst: Addr, ttl: u8) -> ProbeOutcome {
        self.probe_with_flow(dst, ttl, 0)
    }

    /// Accumulated counters.
    fn stats(&self) -> ProbeStats;

    /// The prober's notion of elapsed time, in wall ticks; 0 unless a
    /// prober overrides it. Nothing in the collector reads it; it stays
    /// for collector-bench's timing prober.
    fn clock(&self) -> u64 {
        0
    }
}

/// Blanket impl so `&mut P` is a prober too (lets a session borrow its
/// caller's prober).
impl<P: Prober + ?Sized> Prober for &mut P {
    fn src(&self) -> Addr {
        (**self).src()
    }

    fn protocol(&self) -> Protocol {
        (**self).protocol()
    }

    fn probe_with_flow(&mut self, dst: Addr, ttl: u8, flow: u16) -> ProbeOutcome {
        (**self).probe_with_flow(dst, ttl, flow)
    }

    fn stats(&self) -> ProbeStats {
        (**self).stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_record_each_kind() {
        let a: Addr = "1.1.1.1".parse().unwrap();
        let mut s = ProbeStats::default();
        s.record(&ProbeOutcome::DirectReply { from: a }, None);
        s.record(&ProbeOutcome::TtlExceeded { from: a }, None);
        s.record(&ProbeOutcome::Unreachable { from: a, kind: obs::UnreachReason::Host }, None);
        s.record(&ProbeOutcome::Timeout, None);
        assert_eq!(s.direct_replies, 1);
        assert_eq!(s.ttl_exceeded, 1);
        assert_eq!(s.unreachable, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.fault_timeouts(), 0);
    }

    #[test]
    fn timeout_causes_split_fault_counters() {
        let mut s = ProbeStats::default();
        s.record(&ProbeOutcome::Timeout, Some(TimeoutCause::ForwardLoss));
        s.record(&ProbeOutcome::Timeout, Some(TimeoutCause::ReplyLoss));
        s.record(&ProbeOutcome::Timeout, Some(TimeoutCause::LinkDown));
        s.record(&ProbeOutcome::Timeout, Some(TimeoutCause::RateLimited));
        s.record(&ProbeOutcome::Timeout, Some(TimeoutCause::PolicySilence));
        s.record(&ProbeOutcome::Timeout, Some(TimeoutCause::Unassigned));
        assert_eq!(s.timeouts, 6);
        assert_eq!(s.timeouts_loss, 3);
        assert_eq!(s.timeouts_rate_limited, 1);
        assert_eq!(s.fault_timeouts(), 4, "ordinary silence never counts as a fault");
        assert_eq!(
            s.last_fault_cause,
            Some(TimeoutCause::RateLimited),
            "ordinary silence does not overwrite the last fault cause"
        );
    }
}
