//! Why an injected packet drew no reply.

/// Why an injected probe produced no reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SilenceReason {
    /// The source address of the injected packet is not an interface of
    /// any host in the topology.
    UnknownSource,
    /// No subnet covers the destination address; the packet fell off the
    /// routed universe.
    NoRoute,
    /// The destination subnet is behind a filtering firewall.
    Filtered,
    /// The destination address lies in a known subnet but is unassigned,
    /// and the delivering router is configured not to send Host
    /// Unreachable.
    Unassigned,
    /// The packet was delivered but the interface/owner does not respond
    /// (unresponsive interface, nil policy, or protocol not answered).
    PolicySilence,
    /// TTL expired at a router that does not emit TTL-exceeded for this
    /// protocol (or is nil-configured).
    TtlExpiredSilently,
    /// A reply was due but the router's ICMP rate limiter had no token.
    RateLimited,
    /// The packet could not be decoded as a supported probe.
    Malformed,
    /// An injected fault dropped the packet on the forward path
    /// (transient per-link or per-router loss from the fault plan).
    ForwardLoss,
    /// A reply was generated but an injected fault lost it on the
    /// reverse path.
    ReplyLoss,
    /// Every candidate next hop was on a link the fault plan holds down
    /// (flap or withdrawal).
    LinkDown,
}
