//! Subnet positioning — the paper's §3.4, Algorithm 2.
//!
//! After trace collection obtains an address `v` at hop `d`, positioning
//! answers four questions before any growing starts:
//!
//! 1. What is the *perceived direct distance* `vʰ` to `v`? (Usually `d`,
//!    "in some other cases, however, it might differ by one or a few
//!    hops".)
//! 2. Is the subnet to be explored **on-the-trace-path** (the indirect
//!    probe passed through it) or off it?
//! 3. Which interface is the **pivot** — the far-side interface the
//!    subnet is grown around? (`v` itself, or its mate-31/mate-30 when
//!    `v` turns out to sit on the near side.)
//! 4. Which interface is the **ingress** — the entry point reported at
//!    `pivotʰ − 1`?

use inet::Addr;
use obs::Cause;
use probe::{ProbeOutcome, Prober};

use crate::options::{TracenetOptions, DISTANCE_SEARCH_SPAN};

/// The result of Algorithm 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Positioning {
    /// The pivot interface `l_pivot` the subnet will be grown around.
    pub pivot: Addr,
    /// Hop distance of the pivot from the vantage point (`l_pivot^h`).
    pub pivot_dist: u8,
    /// The ingress interface, unless the ingress router is anonymous.
    pub ingress: Option<Addr>,
    /// Whether the subnet to be explored is on-the-trace-path.
    pub on_path: bool,
    /// The perceived direct distance `vʰ` to the trace-collected address.
    pub perceived_dist: u8,
}

/// Measures the perceived direct distance to `v`, seeded at the trace hop
/// `d` (the paper's `dst(·)` function).
///
/// Sends probes "with increasing (forward) and decreasing (backward) TTL
/// values starting from d until it locates the exact location" — i.e. the
/// minimum TTL that elicits a direct reply. Returns `None` when `v` never
/// answers a direct probe within [`DISTANCE_SEARCH_SPAN`] hops of `d`
/// (a completely unresponsive interface cannot be positioned).
pub fn perceived_distance<P: Prober>(
    prober: &mut P,
    v: Addr,
    d: u8,
    opts: &TracenetOptions,
) -> Option<u8> {
    let _cause = obs::cause_scope(Cause::DistanceSearch);
    match prober.probe(v, d) {
        ProbeOutcome::DirectReply { .. } => {
            // Walk backward to the minimal delivering TTL.
            let mut t = d;
            while t > 1 {
                match prober.probe(v, t - 1) {
                    ProbeOutcome::DirectReply { .. } => t -= 1,
                    _ => break,
                }
            }
            Some(t)
        }
        ProbeOutcome::TtlExceeded { .. } => {
            // v is farther than d: walk forward a few hops.
            let limit = d.saturating_add(DISTANCE_SEARCH_SPAN).min(opts.max_ttl);
            (d + 1..=limit)
                .find(|&t| matches!(prober.probe(v, t), ProbeOutcome::DirectReply { .. }))
        }
        _ => {
            // Silence at d: scan the window around d before giving up.
            let hi = d.saturating_add(DISTANCE_SEARCH_SPAN).min(opts.max_ttl);
            for t in d + 1..=hi {
                if matches!(prober.probe(v, t), ProbeOutcome::DirectReply { .. }) {
                    return Some(t);
                }
            }
            let lo = d.saturating_sub(DISTANCE_SEARCH_SPAN).max(1);
            (lo..d).rev().find(|&t| matches!(prober.probe(v, t), ProbeOutcome::DirectReply { .. }))
        }
    }
}

/// Runs Algorithm 2 for the trace-collected pair (`u` at hop `d−1`, `v` at
/// hop `d`). `u` is `None` when the previous hop was anonymous.
///
/// Returns `None` when no perceived distance could be established — the
/// hop then stays unsubnetized (a `/32` in the paper's Figure 7
/// accounting).
pub fn position<P: Prober>(
    prober: &mut P,
    u: Option<Addr>,
    v: Addr,
    d: u8,
    opts: &TracenetOptions,
) -> Option<Positioning> {
    let vh = perceived_distance(prober, v, d, opts)?;

    // Lines 2–10: on/off-the-trace-path.
    let on_path = if vh != d {
        false
    } else if vh >= 2 {
        let _cause = obs::cause_scope(Cause::OnPathCheck);
        match prober.probe(v, vh - 1) {
            ProbeOutcome::TtlExceeded { from } => match u {
                // "⟨v, vh−1⟩ ↪ ⟨u, TTL_EXCD⟩" — the hop-(d−1) router is
                // the reporter: on-path.
                Some(u) => from == u,
                // Previous hop anonymous: cannot refute; assume on-path.
                None => true,
            },
            // Anonymous reporter at vh−1: cannot refute either.
            _ => true,
        }
    } else {
        // vh == 1: the subnet hangs off the vantage's first router.
        true
    };

    // Lines 11–21: pivot designation via mate-31 adjacency.
    let (pivot, pivot_dist) = designate_pivot(prober, v, vh, opts);

    // Line 22: the ingress interface answers ⟨pivot, pivotʰ−1⟩.
    let ingress = if pivot_dist >= 2 {
        let _cause = obs::cause_scope(Cause::IngressQuery);
        prober.probe(pivot, pivot_dist - 1).ttl_exceeded()
    } else {
        None
    };

    Some(Positioning { pivot, pivot_dist, ingress, on_path, perceived_dist: vh })
}

/// Lines 11–21 of Algorithm 2: if probing `mate31(v)` with TTL `vʰ`
/// expires in transit, the subnet lies one hop beyond `v` and the pivot is
/// the mate-31 (or mate-30) of `v` at distance `vʰ+1`; otherwise `v`
/// itself serves as pivot. Per §3.4, "similar argument applies to /30
/// mate in case probing /31 does not yield any response" — so a *silent*
/// /31 mate (e.g. the unassigned network address of a /30 link) falls
/// back to interrogating the /30 mate the same way.
fn designate_pivot<P: Prober>(
    prober: &mut P,
    v: Addr,
    vh: u8,
    opts: &TracenetOptions,
) -> (Addr, u8) {
    let _cause = obs::cause_scope(Cause::PivotDesignation);
    let beyond = match vh.checked_add(1) {
        Some(t) if t <= opts.max_ttl => t,
        _ => return (v, vh),
    };
    match prober.probe(v.mate31(), vh) {
        ProbeOutcome::TtlExceeded { .. } => {
            if in_use(prober, v.mate31(), beyond) {
                return (v.mate31(), beyond);
            }
            if in_use(prober, v.mate30(), beyond) {
                return (v.mate30(), beyond);
            }
        }
        outcome
            if outcome.is_silentish()
                && matches!(prober.probe(v.mate30(), vh), ProbeOutcome::TtlExceeded { .. })
                && in_use(prober, v.mate30(), beyond) =>
        {
            return (v.mate30(), beyond);
        }
        _ => {}
    }
    (v, vh)
}

/// "Is in use": a direct probe at the expected distance draws a reply.
fn in_use<P: Prober>(prober: &mut P, addr: Addr, ttl: u8) -> bool {
    let _cause = obs::cause_scope(Cause::InUseCheck);
    matches!(prober.probe(addr, ttl), ProbeOutcome::DirectReply { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use probe::ScriptedProber;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn opts() -> TracenetOptions {
        TracenetOptions::default()
    }

    #[test]
    fn perceived_distance_exact_at_d() {
        let mut p = ScriptedProber::new(a("10.0.0.1"));
        p.script_path(a("10.0.9.9"), 4, &[a("10.0.1.1"), a("10.0.2.1"), a("10.0.3.1")]);
        assert_eq!(perceived_distance(&mut p, a("10.0.9.9"), 4, &opts()), Some(4));
    }

    #[test]
    fn perceived_distance_searches_backward() {
        let mut p = ScriptedProber::new(a("10.0.0.1"));
        p.script_path(a("10.0.9.9"), 3, &[a("10.0.1.1"), a("10.0.2.1")]);
        // Seeded two hops beyond the true distance.
        assert_eq!(perceived_distance(&mut p, a("10.0.9.9"), 5, &opts()), Some(3));
    }

    #[test]
    fn perceived_distance_searches_forward() {
        let mut p = ScriptedProber::new(a("10.0.0.1"));
        p.script_path(
            a("10.0.9.9"),
            5,
            &[a("10.0.1.1"), a("10.0.2.1"), a("10.0.3.1"), a("10.0.4.1")],
        );
        assert_eq!(perceived_distance(&mut p, a("10.0.9.9"), 3, &opts()), Some(5));
    }

    #[test]
    fn perceived_distance_gives_up_outside_span() {
        let mut p = ScriptedProber::new(a("10.0.0.1"));
        // Nothing scripted: always timeout.
        assert_eq!(perceived_distance(&mut p, a("10.0.9.9"), 4, &opts()), None);
    }

    /// Scripted version of the common case: v is the incoming interface of
    /// the hop-d router; the subnet between R_{d-1} and R_d is on-path and
    /// v is its own pivot.
    #[test]
    fn position_on_path_with_v_as_pivot() {
        let v = a("10.0.2.1"); // v and its mate31 10.0.2.0 form the link
        let u = a("10.0.1.1");
        let mut p = ScriptedProber::new(a("10.0.0.1"));
        p.script_path(v, 3, &[a("10.0.0.2"), u]);
        // mate31(v) = 10.0.2.0 is the upstream router's side: distance 2.
        p.script_path(v.mate31(), 2, &[a("10.0.0.2")]);
        let pos = position(&mut p, Some(u), v, 3, &opts()).unwrap();
        assert_eq!(pos.pivot, v);
        assert_eq!(pos.pivot_dist, 3);
        assert!(pos.on_path);
        assert_eq!(pos.perceived_dist, 3);
        assert_eq!(pos.ingress, Some(u));
    }

    /// v is a far-side interface of the hop-d router pointing away from
    /// the vantage: its mate31 expires at TTL vʰ and is alive at vʰ+1, so
    /// the mate becomes the pivot one hop out.
    #[test]
    fn position_promotes_mate31_to_pivot() {
        let v = a("10.0.2.2"); // reported off-path iface
        let mate = v.mate31(); // 10.0.2.3, one hop beyond
        let u = a("10.0.1.1");
        let hops = [a("10.0.0.2"), u];
        let mut p = ScriptedProber::new(a("10.0.0.1"));
        p.script_path(v, 3, &hops);
        // mate31(v): TTL 3 expires (still in transit), TTL 4 delivers.
        p.script(mate, 3, ProbeOutcome::TtlExceeded { from: v });
        for t in 4..=30 {
            p.script(mate, t, ProbeOutcome::DirectReply { from: mate });
        }
        // Ingress of the pivot: ⟨mate, 3⟩ also answers the ingress query.
        let pos = position(&mut p, Some(u), v, 3, &opts()).unwrap();
        assert_eq!(pos.pivot, mate);
        assert_eq!(pos.pivot_dist, 4);
        assert_eq!(pos.ingress, Some(v), "ingress reported by ⟨pivot, 3⟩");
    }

    /// mate31 not in use but mate30 is: the /30 mate becomes pivot.
    #[test]
    fn position_falls_back_to_mate30() {
        let v = a("10.0.2.1");
        let mate31 = v.mate31(); // 10.0.2.0
        let mate30 = v.mate30(); // 10.0.2.3
        let u = a("10.0.1.1");
        let mut p = ScriptedProber::new(a("10.0.0.1"));
        p.script_path(v, 3, &[a("10.0.0.2"), u]);
        // mate31 probed at 3 expires, and is dead at 4 (never answers).
        p.script(mate31, 3, ProbeOutcome::TtlExceeded { from: v });
        p.script(mate30, 3, ProbeOutcome::TtlExceeded { from: v });
        for t in 4..=30 {
            p.script(mate30, t, ProbeOutcome::DirectReply { from: mate30 });
        }
        let pos = position(&mut p, Some(u), v, 3, &opts()).unwrap();
        assert_eq!(pos.pivot, mate30);
        assert_eq!(pos.pivot_dist, 4);
    }

    /// Perceived distance differing from the trace hop means off-path.
    #[test]
    fn position_off_path_when_distance_disagrees() {
        let v = a("10.0.2.1");
        let mut p = ScriptedProber::new(a("10.0.0.1"));
        p.script_path(v, 2, &[a("10.0.0.2")]);
        p.script_path(v.mate31(), 2, &[a("10.0.0.2")]);
        // Trace said hop 3, direct distance is 2.
        let pos = position(&mut p, Some(a("10.0.1.1")), v, 3, &opts()).unwrap();
        assert!(!pos.on_path);
        assert_eq!(pos.perceived_dist, 2);
    }

    /// A TTL-exceeded at vh−1 from a stranger (≠ u) marks off-path.
    #[test]
    fn position_off_path_on_stranger_entry() {
        let v = a("10.0.2.1");
        let u = a("10.0.1.1");
        let stranger = a("10.0.7.7");
        let mut p = ScriptedProber::new(a("10.0.0.1"));
        p.script_path(v, 3, &[a("10.0.0.2"), stranger]);
        p.script_path(v.mate31(), 2, &[a("10.0.0.2")]);
        let pos = position(&mut p, Some(u), v, 3, &opts()).unwrap();
        assert!(!pos.on_path);
    }

    /// Anonymous previous hop: on-path cannot be refuted.
    #[test]
    fn position_assumes_on_path_when_u_anonymous() {
        let v = a("10.0.2.1");
        let mut p = ScriptedProber::new(a("10.0.0.1"));
        p.script_path(v, 3, &[a("10.0.0.2"), a("10.0.1.1")]);
        p.script_path(v.mate31(), 2, &[a("10.0.0.2")]);
        let pos = position(&mut p, None, v, 3, &opts()).unwrap();
        assert!(pos.on_path);
    }

    #[test]
    fn position_returns_none_for_mute_interface() {
        let mut p = ScriptedProber::new(a("10.0.0.1"));
        assert!(position(&mut p, None, a("10.0.2.1"), 3, &opts()).is_none());
    }

    #[test]
    fn position_hop_one_is_on_path_with_no_ingress() {
        let v = a("10.0.0.2");
        let mut p = ScriptedProber::new(a("10.0.0.1"));
        p.script_path(v, 1, &[]);
        p.script_path(v.mate31(), 1, &[]);
        let pos = position(&mut p, None, v, 1, &opts()).unwrap();
        assert!(pos.on_path);
        assert_eq!(pos.pivot_dist, 1);
        assert_eq!(pos.ingress, None);
    }
}
