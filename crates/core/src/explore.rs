//! Subnet exploration — the paper's §3.3, Algorithm 1.
//!
//! Starting from a /31 covering the pivot, grow the temporary subnet `S′`
//! one prefix bit at a time. At each level every not-yet-examined
//! candidate address is direct-probed and run through the heuristics
//! (H2–H8, [`crate::heuristics`]); the first violation triggers H1
//! *stop-and-shrink* ("the subnet gets shrunk to its last known valid
//! state"), and a /29-or-larger level that ends at most half utilized
//! stops growth (lines 19–21). H9 *boundary address reduction* then
//! repeatedly halves any result that contains its own network or
//! broadcast address, keeping the half that houses the pivot.

use inet::{Addr, Prefix, SubnetRecord};
use obs::{Cause, DecisionVerdict, Recorder};
use probe::Prober;

use crate::heuristics::{examine, Context, Decision};
use crate::hop::LocalSet;
use crate::observed::{ObservedSubnet, StopCause};
use crate::options::{TracenetOptions, MIN_PREFIX_LEN};
use crate::position::Positioning;

/// Runs Algorithm 1 around the pivot positioned from trace hop `d`.
///
/// `trace_prev` is the hop `d−1` trace interface `u` (an H6 entry point
/// when the subnet is on-the-trace-path). Growth-control decisions (H1
/// stop-and-shrink, the utilization stop, H9 boundary reduction, the
/// final collection) are mirrored into `recorder`'s decision stream,
/// under hop `d` like the positioning decision before them.
pub fn explore<P: Prober>(
    prober: &mut P,
    recorder: &Recorder,
    d: u8,
    pos: &Positioning,
    trace_prev: Option<Addr>,
    opts: &TracenetOptions,
) -> ObservedSubnet {
    let ctx = Context {
        hop: d,
        pivot: pos.pivot,
        jh: pos.pivot_dist,
        ingress: pos.ingress,
        trace_prev,
        on_path: pos.on_path,
        set: opts.heuristics,
    };

    // S starts as {pivot} inside the widest prefix we may ever grow to,
    // so membership bookkeeping never needs re-allocation on growth.
    let arena = Prefix::containing(pos.pivot, MIN_PREFIX_LEN);
    let mut record = SubnetRecord::new(arena, [pos.pivot]).expect("pivot is inside its arena");
    let mut contra_pivot: Option<Addr> = None;
    let mut examined: LocalSet<Addr> = std::iter::once(pos.pivot).collect();
    let mut stop = StopCause::PrefixFloor;
    let mut level = MIN_PREFIX_LEN; // last fully swept level

    'grow: for m in (MIN_PREFIX_LEN..=31).rev() {
        let sweep = Prefix::containing(pos.pivot, m);
        for l in sweep.probe_addrs() {
            if !examined.insert(l) {
                continue;
            }
            match examine(prober, recorder, &ctx, &record, contra_pivot, l) {
                Decision::Add => {
                    record.insert(l);
                }
                Decision::AddContraPivot => {
                    record.insert(l);
                    contra_pivot = Some(l);
                }
                Decision::Skip => {}
                Decision::StopAndShrink { by } => {
                    // H1: revert to the last known valid prefix (m+1); the
                    // members outside it are dropped below.
                    let valid = Prefix::containing(pos.pivot, m + 1);
                    recorder.decide(
                        d,
                        Some(Cause::H1),
                        Some(l),
                        DecisionVerdict::StoppedAndShrunk,
                        || format!("H{by} violated at {l}; S′ shrunk to {valid}"),
                    );
                    stop = StopCause::Shrunk { by };
                    level = m + 1;
                    break 'grow;
                }
            }
        }
        level = m;
        // Lines 19–21: stop growing a /29-or-larger level at most half
        // utilized.
        if opts.utilization_stop && m <= 29 && record.len() as u64 <= sweep.size() / 2 {
            recorder.decide(d, None, Some(pos.pivot), DecisionVerdict::Underutilized, || {
                format!("{} members fill at most half of {sweep}: growth stops", record.len())
            });
            stop = StopCause::Underutilized;
            break 'grow;
        }
    }

    // The observed prefix. A stop-and-shrink pins it at m+1 (the paper's
    // explicit rule); the other stop causes report the tightest prefix
    // covering every member — the paper's "observable subnet" reading
    // ("if a network administrator utilizes only a /30 portion of a
    // subnet which is assigned a /29 subnet mask, tracenet collects it as
    // a /30 subnet", §4).
    let final_prefix = match stop {
        StopCause::Shrunk { .. } => Prefix::containing(pos.pivot, level),
        _ => covering_prefix(record.members(), level),
    };
    record.shrink_to(final_prefix);
    if opts.heuristics.enabled(9) {
        let before = record.prefix();
        boundary_reduce(&mut record, pos.pivot);
        let after = record.prefix();
        if after != before {
            recorder.decide(
                d,
                Some(Cause::H9),
                Some(pos.pivot),
                DecisionVerdict::BoundaryReduced,
                || format!("boundary member inside {before}: reduced to {after}"),
            );
        }
    }
    let observed = ObservedSubnet {
        // A contra-pivot the shrinking left outside is no member.
        contra_pivot: contra_pivot.filter(|&c| record.contains(c)),
        record,
        pivot: pos.pivot,
        pivot_dist: pos.pivot_dist,
        ingress: pos.ingress,
        on_path: pos.on_path,
        stop,
    };
    recorder.decide(d, None, Some(pos.pivot), DecisionVerdict::Collected, || {
        format!(
            "{} with {} members ({})",
            observed.record.prefix(),
            observed.record.len(),
            match observed.stop {
                StopCause::Shrunk { by } => format!("stopped by H{by}"),
                StopCause::Underutilized => "stopped by utilization".to_string(),
                StopCause::PrefixFloor => "grew to the prefix floor".to_string(),
            }
        )
    });
    observed
}

/// The tightest prefix containing every member, never wider than
/// `widest` (the last swept level) and never narrower than /31.
fn covering_prefix(members: &[Addr], widest: u8) -> Prefix {
    let (&lo, &hi) = match (members.first(), members.last()) {
        (Some(lo), Some(hi)) => (lo, hi),
        _ => unreachable!("the pivot is always a member"),
    };
    let len = lo.common_prefix_len(hi).min(31).max(widest);
    Prefix::containing(lo, len)
}

/// H9: "as long as the subnet contains a boundary address, tracenet
/// divides the subnet S into S1 and S2 … drops Si if j ∉ Si", `j` being
/// the pivot.
fn boundary_reduce(record: &mut SubnetRecord, pivot: Addr) {
    while record.prefix().len() < 31 && record.has_boundary_member() {
        let (lo, hi) = record.prefix().halves().expect("len < 31 splits");
        record.shrink_to(if lo.contains(pivot) { lo } else { hi });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hop::HopProber;
    use probe::{ProbeOutcome, ScriptedProber};

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn opts() -> TracenetOptions {
        TracenetOptions::default()
    }

    fn pos(pivot: &str, dist: u8, ingress: &str) -> Positioning {
        Positioning {
            pivot: a(pivot),
            pivot_dist: dist,
            ingress: Some(a(ingress)),
            on_path: true,
            perceived_dist: dist,
        }
    }

    /// Scripts a live member of the subnet at hop `jh` entered via
    /// `ingress`.
    fn script_member(p: &mut ScriptedProber, l: Addr, jh: u8, ingress: Addr) {
        for t in jh..=30 {
            p.script(l, t, ProbeOutcome::DirectReply { from: l });
        }
        p.script(l, jh - 1, ProbeOutcome::TtlExceeded { from: ingress });
    }

    /// A /31 point-to-point link: pivot + its mate31, nothing beyond.
    #[test]
    fn explores_point_to_point_slash31() {
        let ingress = a("10.0.1.1");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        script_member(&mut p, a("10.0.2.0"), 3, ingress);
        script_member(&mut p, a("10.0.2.1"), 3, ingress);
        // Everything else in range is silent; growth stops by
        // under-utilization at /29.
        let mut p = HopProber::new(p, None);
        let s = explore(
            &mut p,
            &Recorder::disabled(),
            3,
            &pos("10.0.2.1", 3, "10.0.1.1"),
            Some(ingress),
            &opts(),
        );
        assert_eq!(s.record.prefix().to_string(), "10.0.2.0/31");
        assert_eq!(s.record.len(), 2);
        assert!(s.is_point_to_point());
        assert_eq!(s.stop, StopCause::Underutilized);
    }

    /// Every exploration decision, the per-candidate verdicts included,
    /// is filed under the trace hop the pivot was positioned from, even
    /// when the pivot sits at another distance.
    #[test]
    fn decisions_are_filed_under_the_trace_hop() {
        let ingress = a("10.0.1.1");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        script_member(&mut p, a("10.0.2.0"), 3, ingress);
        script_member(&mut p, a("10.0.2.1"), 3, ingress);
        let mut p = HopProber::new(p, None);
        let sink = obs::VecSink::new();
        let recorder = Recorder::new().with_sink(obs::SinkHandle::new(sink.clone()));
        explore(&mut p, &recorder, 4, &pos("10.0.2.1", 3, "10.0.1.1"), Some(ingress), &opts());
        let hops: Vec<u8> = sink.decisions().iter().map(|d| d.hop).collect();
        assert!(hops.len() > 2 && hops.iter().all(|&h| h == 4), "{hops:?}");
    }

    /// The /30 case: members .1/.2, boundaries silent.
    #[test]
    fn explores_point_to_point_slash30() {
        let ingress = a("10.0.1.1");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        script_member(&mut p, a("10.0.2.1"), 3, ingress);
        script_member(&mut p, a("10.0.2.2"), 3, ingress);
        let mut p = HopProber::new(p, None);
        let s = explore(
            &mut p,
            &Recorder::disabled(),
            3,
            &pos("10.0.2.2", 3, "10.0.1.1"),
            Some(ingress),
            &opts(),
        );
        assert_eq!(s.record.prefix().to_string(), "10.0.2.0/30");
        assert_eq!(s.record.len(), 2);
        assert_eq!(s.stop, StopCause::Underutilized);
    }

    /// A well-populated /29 with a contra-pivot: the full multi-access
    /// case. Growth into /28 hits silence everywhere and the utilization
    /// rule reports exactly the /29.
    #[test]
    fn explores_multiaccess_slash29_with_contra_pivot() {
        let ingress = a("10.0.1.1");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        // Members at hop 3: .2 .3 .4 .5 .6; contra-pivot .1 (answers at 2).
        for host in ["10.0.2.2", "10.0.2.3", "10.0.2.4", "10.0.2.5", "10.0.2.6"] {
            script_member(&mut p, a(host), 3, ingress);
        }
        let contra = a("10.0.2.1");
        for t in 2..=30 {
            p.script(contra, t, ProbeOutcome::DirectReply { from: contra });
        }
        let mut p = HopProber::new(p, None);
        let s = explore(
            &mut p,
            &Recorder::disabled(),
            3,
            &pos("10.0.2.6", 3, "10.0.1.1"),
            Some(ingress),
            &opts(),
        );
        assert_eq!(s.record.prefix().to_string(), "10.0.2.0/29");
        assert_eq!(s.record.len(), 6);
        assert_eq!(s.contra_pivot, Some(contra));
        assert!(!s.is_point_to_point());
    }

    /// A far-fringe interface (mate expires one hop out) stops growth and
    /// shrinks back (the Figure 3 / H7 scenario).
    #[test]
    fn far_fringe_triggers_stop_and_shrink() {
        let ingress = a("10.0.1.1");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        // True members: .1 (contra), .2, .3 (pivot), .4, .5 — enough to
        // pass the /29 utilization gate and grow into /28.
        for host in ["10.0.2.2", "10.0.2.3", "10.0.2.4", "10.0.2.5"] {
            script_member(&mut p, a(host), 3, ingress);
        }
        let contra = a("10.0.2.1");
        for t in 2..=30 {
            p.script(contra, t, ProbeOutcome::DirectReply { from: contra });
        }
        // Far fringe at .8: alive at 3, entered via ingress, but its mate
        // .9 expires in transit at TTL 3.
        script_member(&mut p, a("10.0.2.8"), 3, ingress);
        p.script(a("10.0.2.9"), 3, ProbeOutcome::TtlExceeded { from: a("10.0.2.8") });
        let mut p = HopProber::new(p, None);
        let s = explore(
            &mut p,
            &Recorder::disabled(),
            3,
            &pos("10.0.2.3", 3, "10.0.1.1"),
            Some(ingress),
            &opts(),
        );
        assert_eq!(s.stop, StopCause::Shrunk { by: 7 });
        assert_eq!(s.record.prefix().to_string(), "10.0.2.0/29");
        assert_eq!(s.record.len(), 5);
        assert!(!s.record.contains(a("10.0.2.8")), "fringe must be dropped");
    }

    /// §3.8: "sparsely utilized subnets might potentially get
    /// underestimated" — a true /28 using only two addresses in one /29
    /// half is collected as the covering /29.
    #[test]
    fn sparse_subnet_is_underestimated() {
        let ingress = a("10.0.1.1");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        // Only 2 members alive in a real (sparsely used) /28.
        script_member(&mut p, a("10.0.2.1"), 3, ingress);
        script_member(&mut p, a("10.0.2.6"), 3, ingress);
        let mut p = HopProber::new(p, None);
        let s = explore(
            &mut p,
            &Recorder::disabled(),
            3,
            &pos("10.0.2.6", 3, "10.0.1.1"),
            Some(ingress),
            &opts(),
        );
        // |S| = 2 ≤ 4 after the /29 sweep → stop; covering prefix of
        // {.1, .6} is /29 — an underestimate of the true /28.
        assert_eq!(s.stop, StopCause::Underutilized);
        assert_eq!(s.record.prefix().to_string(), "10.0.2.0/29");
        assert_eq!(s.record.len(), 2);
    }

    /// H9: a member on the /29 boundary (alive network address of the
    /// final prefix) halves the subnet toward the pivot.
    #[test]
    fn boundary_reduction_halves_toward_pivot() {
        let prefix: Prefix = "10.0.2.8/29".parse().unwrap();
        let members = [a("10.0.2.8"), a("10.0.2.9"), a("10.0.2.10")];
        let mut record = SubnetRecord::new(prefix, members).unwrap();
        boundary_reduce(&mut record, a("10.0.2.10"));
        // .8 is the /29 network address → halve to /30 keeping the pivot;
        // .8 is STILL the /30 network address → halve to /31.
        assert_eq!(record.prefix().to_string(), "10.0.2.10/31");
        assert!(record.contains(a("10.0.2.10")));
        assert!(!record.contains(a("10.0.2.8")));
    }

    /// A contra-pivot that H9 leaves outside the kept half is no longer
    /// the subnet's contra-pivot.
    #[test]
    fn a_contra_pivot_outside_the_reduced_subnet_is_dropped() {
        let ingress = a("10.0.1.1");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        // Members .8 and .11–.13 around the pivot .10, and the
        // contra-pivot .9 one hop early: growth stops at /28 half used,
        // the covering .8/29 starts at a member, and H9 halves it twice.
        for host in ["10.0.2.8", "10.0.2.11", "10.0.2.12", "10.0.2.13"] {
            script_member(&mut p, a(host), 3, ingress);
        }
        let contra = a("10.0.2.9");
        for t in 2..=30 {
            p.script(contra, t, ProbeOutcome::DirectReply { from: contra });
        }
        let mut p = HopProber::new(p, None);
        let sink = obs::VecSink::new();
        let recorder = Recorder::new().with_sink(obs::SinkHandle::new(sink.clone()));
        let s =
            explore(&mut p, &recorder, 3, &pos("10.0.2.10", 3, "10.0.1.1"), Some(ingress), &opts());
        assert_eq!(s.record.prefix().to_string(), "10.0.2.10/31");
        assert_eq!(s.contra_pivot, None, "contra outside the kept half is dropped");
        let verdicts: Vec<DecisionVerdict> = sink.decisions().iter().map(|d| d.verdict).collect();
        assert!(verdicts.contains(&DecisionVerdict::AcceptedContraPivot), "{verdicts:?}");
        assert!(verdicts.contains(&DecisionVerdict::BoundaryReduced), "{verdicts:?}");
    }

    /// The utilization stop can be ablated: growth then only stops on a
    /// heuristic violation or the /20 prefix floor.
    #[test]
    fn ablating_utilization_stop_reaches_prefix_floor() {
        let ingress = a("10.0.1.1");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        script_member(&mut p, a("10.0.2.1"), 3, ingress);
        let mut o = opts();
        o.utilization_stop = false;
        let mut p = HopProber::new(p, None);
        let s = explore(
            &mut p,
            &Recorder::disabled(),
            3,
            &pos("10.0.2.1", 3, "10.0.1.1"),
            Some(ingress),
            &o,
        );
        assert_eq!(s.stop, StopCause::PrefixFloor);
    }

    /// Probe cost envelope (§3.6): an on-path point-to-point /31 costs
    /// few probes; the paper's model says the subnet part is ~4 probes
    /// plus the stop condition.
    #[test]
    fn point_to_point_probe_cost_is_small() {
        let ingress = a("10.0.1.1");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        script_member(&mut p, a("10.0.2.0"), 3, ingress);
        script_member(&mut p, a("10.0.2.1"), 3, ingress);
        let mut p = HopProber::new(p, None);
        let before = p.stats().sent;
        let _ = explore(
            &mut p,
            &Recorder::disabled(),
            3,
            &pos("10.0.2.1", 3, "10.0.1.1"),
            Some(ingress),
            &opts(),
        );
        let cost = p.stats().sent - before;
        // H2+H5 on the mate (2 probes incl. shortcut) plus the silent
        // sweep of the /30 and /29 levels (4 more dead addresses probed
        // once each at TTL jh).
        assert!(cost <= 12, "p2p exploration took {cost} probes");
    }
}
