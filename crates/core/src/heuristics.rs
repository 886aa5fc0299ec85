//! The growth heuristics H2–H8 (§3.5 of the paper).
//!
//! Each candidate address `l` inside the temporary subnet `S′` is examined
//! by [`examine`], which applies the rules in the paper's order with the
//! paper's probe-merging optimization (H3 and H6 share the single
//! `⟨l, jʰ−1⟩` probe; the session's per-hop prober memoizes every
//! answer, so repeated questions are free).
//!
//! Notation, following the paper: `j` is the pivot (`jʰ` its hop
//! distance), `i` the ingress interface found by subnet positioning, `u`
//! the interface obtained at hop `d−1` in trace-collection mode, and `l`
//! the candidate being tested. H1 (stop-and-shrink) and H9 (boundary
//! address reduction) are implemented by the exploration driver in
//! [`crate::explore`].
//!
//! ## Documented interpretation choices
//!
//! The published pseudocode leaves a few situations open; this module
//! resolves them as follows (each is marked in the code):
//!
//! * **H6 with anonymous entry points** — the paper notes "the rule is
//!   valid in case i and/or u are anonymous". We treat a TTL-exceeded
//!   from an unknown reporter as a violation only when at least one entry
//!   point is known; if both `i` and `u` are anonymous (or the reply
//!   itself times out) the rule cannot refute membership and passes.
//! * **H4 at tiny distances** — `⟨l, jʰ−2⟩` is only meaningful for
//!   `jʰ ≥ 3`; closer subnets skip the confidence check.
//! * **H7/H8 mates already in the subnet** — if `mate31(l)` is the pivot
//!   or an accepted member, router-contiguity cannot be violated and both
//!   rules pass without probing.

use inet::{Addr, SubnetRecord};
use obs::{Cause, DecisionVerdict, Recorder};
use probe::{ProbeOutcome, Prober};

use crate::options::HeuristicSet;

/// Shared inputs of one exploration run, in the paper's notation.
#[derive(Clone, Copy, Debug)]
pub struct Context {
    /// The trace hop `d` whose address the subnet was positioned from:
    /// every verdict is recorded under it.
    pub hop: u8,
    /// The pivot interface `j`.
    pub pivot: Addr,
    /// The pivot's hop distance `jʰ`.
    pub jh: u8,
    /// The ingress interface `i` (None when the ingress router is
    /// anonymous).
    pub ingress: Option<Addr>,
    /// The hop `d−1` trace interface `u` (None when anonymous).
    pub trace_prev: Option<Addr>,
    /// Whether the subnet is on-the-trace-path (enables `u` as a valid
    /// entry point in H6).
    pub on_path: bool,
    /// Active rules.
    pub set: HeuristicSet,
}

/// The verdict on one candidate address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// `l` passed every test: add it to `S`.
    Add,
    /// `l` is the (single) contra-pivot: add it and remember the role.
    AddContraPivot,
    /// `l` is not alive here: *continue-with-next-address*.
    Skip,
    /// `l` violated rule `by`: *stop-and-shrink* (H1).
    StopAndShrink {
        /// The violated rule number (2..=8).
        by: u8,
    },
}

/// Examines candidate `l` against H2–H8.
///
/// `contra_pivot` carries the already-identified contra-pivot, if any;
/// `members` holds the pivot and the already-accepted addresses. The
/// function performs only probing and classification — set mutation
/// stays with the caller. Every verdict is mirrored into `recorder`'s
/// decision stream with the rule that produced it and the observed
/// evidence.
pub fn examine<P: Prober>(
    prober: &mut P,
    recorder: &Recorder,
    ctx: &Context,
    members: &SubnetRecord,
    contra_pivot: Option<Addr>,
    l: Addr,
) -> Decision {
    debug_assert_ne!(l, ctx.pivot, "the pivot is never examined");
    let jh = ctx.jh;
    let decide = |cause: Cause, verdict: DecisionVerdict, evidence: &dyn Fn() -> String| {
        recorder.decide(ctx.hop, Some(cause), Some(l), verdict, evidence);
    };

    // ---- H2: upper-bound subnet contiguity -------------------------------
    // "ensures that the examined IP address is in use and is not located
    // farther from the investigated subnet": ⟨l, jʰ⟩ must draw ECHO_RPLY;
    // TTL_EXCD means l lies beyond the subnet → stop-and-shrink; silence
    // means not in use → next address.
    let aliveness = {
        let _cause = obs::cause_scope(Cause::H2);
        prober.probe(l, jh)
    };
    match aliveness {
        ProbeOutcome::DirectReply { .. } => {}
        ProbeOutcome::TtlExceeded { from } => {
            if ctx.set.enabled(2) {
                decide(Cause::H2, DecisionVerdict::StoppedAndShrunk, &|| {
                    format!("⟨l,{jh}⟩ ↪ TTL_EXCD from {from}: l lies beyond the subnet")
                });
                return Decision::StopAndShrink { by: 2 };
            }
            // Ablated H2 keeps the aliveness gate but not the stop.
            decide(Cause::H2, DecisionVerdict::Rejected, &|| {
                format!("⟨l,{jh}⟩ ↪ TTL_EXCD from {from}; H2 ablated, skipping")
            });
            return Decision::Skip;
        }
        other => {
            decide(Cause::H2, DecisionVerdict::Rejected, &|| {
                format!("⟨l,{jh}⟩ ↪ {other}: not in use here")
            });
            return Decision::Skip;
        }
    }

    // ---- H5: mate-31 subnet contiguity (shortcut) ------------------------
    // "a shortcut to add l to S if it is the /31 mate of the pivot"; the
    // /30 mate qualifies only when the /31 mate is not in use.
    if ctx.set.enabled(5) {
        if l == ctx.pivot.mate31() {
            decide(Cause::H5, DecisionVerdict::Accepted, &|| {
                format!("l is the /31 mate of pivot {}", ctx.pivot)
            });
            return Decision::Add;
        }
        if l == ctx.pivot.mate30() && {
            let _cause = obs::cause_scope(Cause::H5);
            !matches!(prober.probe(ctx.pivot.mate31(), jh), ProbeOutcome::DirectReply { .. })
        } {
            decide(Cause::H5, DecisionVerdict::Accepted, &|| {
                format!("l is the /30 mate of pivot {} and its /31 mate is not in use", ctx.pivot)
            });
            return Decision::Add;
        }
    }

    // Shared probe for H3/H6 (the paper's merged single probe).
    let below = if jh >= 2 {
        let _cause = obs::cause_scope(Cause::H3);
        Some(prober.probe(l, jh - 1))
    } else {
        None
    };

    // ---- H3: single contra-pivot interface -------------------------------
    // An ECHO_RPLY at jʰ−1 marks l as contra-pivot material; a second one
    // is an ingress-fringe interface → stop-and-shrink.
    if ctx.set.enabled(3) {
        if let Some(ProbeOutcome::DirectReply { .. }) = below {
            if let Some(cp) = contra_pivot {
                decide(Cause::H3, DecisionVerdict::StoppedAndShrunk, &|| {
                    format!("second contra-pivot candidate; {cp} already holds the role")
                });
                return Decision::StopAndShrink { by: 3 };
            }
            // ---- H4: lower-bound subnet contiguity ------------------
            // Confidence check on the contra-pivot: it must NOT answer
            // at jʰ−2 (else it is closer than a contra-pivot can be).
            if ctx.set.enabled(4) && jh >= 3 {
                let _cause = obs::cause_scope(Cause::H4);
                if let ProbeOutcome::DirectReply { .. } = prober.probe(l, jh - 2) {
                    decide(Cause::H4, DecisionVerdict::StoppedAndShrunk, &|| {
                        format!("ECHO_RPLY at {}: closer than a contra-pivot can be", jh - 2)
                    });
                    return Decision::StopAndShrink { by: 4 };
                }
            }
            decide(Cause::H3, DecisionVerdict::AcceptedContraPivot, &|| {
                format!("ECHO_RPLY at {}: l sits one hop before the pivot", jh - 1)
            });
            return Decision::AddContraPivot;
        }
    }

    // ---- H6: fixed entry points ------------------------------------------
    // Packets for a true member must enter the subnet through a known
    // ingress: ⟨l, jʰ−1⟩ ↪ ⟨i, TTL_EXCD⟩, or ⟨u, TTL_EXCD⟩ when the
    // subnet is on-the-trace-path. A TTL-exceeded from any other router
    // means l sits on a different subnet at the same distance.
    if ctx.set.enabled(6) {
        match below {
            Some(ProbeOutcome::TtlExceeded { from }) => {
                let mut valid = false;
                if ctx.ingress == Some(from) {
                    valid = true;
                }
                if ctx.on_path && ctx.trace_prev == Some(from) {
                    valid = true;
                }
                // Interpretation: with every entry point anonymous the
                // rule cannot refute (see module docs).
                let no_known_entry =
                    ctx.ingress.is_none() && (!ctx.on_path || ctx.trace_prev.is_none());
                if !valid && !no_known_entry {
                    decide(Cause::H6, DecisionVerdict::StoppedAndShrunk, &|| {
                        format!(
                            "⟨l,{}⟩ entered via stranger {from}, not ingress {:?}",
                            jh - 1,
                            ctx.ingress
                        )
                    });
                    return Decision::StopAndShrink { by: 6 };
                }
            }
            Some(ProbeOutcome::DirectReply { .. }) => {
                // Reached only when H3 is ablated: the paper's
                // "⟨l, jʰ−1⟩ ↪ ⟨i, ECHO_RPLY⟩ → stop-and-shrink" arm.
                decide(Cause::H6, DecisionVerdict::StoppedAndShrunk, &|| {
                    format!("ECHO_RPLY at {} with H3 ablated", jh - 1)
                });
                return Decision::StopAndShrink { by: 6 };
            }
            _ => {}
        }
    }

    // ---- H7 / H8: router contiguity via the candidate's mate ------------
    if ctx.set.enabled(7) || ctx.set.enabled(8) {
        if let Some((mate, outcome)) = mate_view(prober, members, ctx, l) {
            // H7: a true member's mate may not be *farther* — a
            // TTL-exceeded when probing the mate at jʰ exposes a far
            // fringe interface (the mate lives one hop beyond S).
            if ctx.set.enabled(7) {
                if let ProbeOutcome::TtlExceeded { from } = outcome {
                    decide(Cause::H7, DecisionVerdict::StoppedAndShrunk, &|| {
                        format!("mate {mate} expires at {jh} (via {from}): far fringe")
                    });
                    return Decision::StopAndShrink { by: 7 };
                }
            }
            // H8: a true member's mate may not be *closer* (unless it is
            // the contra-pivot): an ECHO_RPLY at jʰ−1 exposes a close
            // fringe interface whose mate sits on the ingress router.
            if ctx.set.enabled(8) && contra_pivot != Some(mate) && jh >= 2 && {
                let _cause = obs::cause_scope(Cause::H8);
                matches!(prober.probe(mate, jh - 1), ProbeOutcome::DirectReply { .. })
            } {
                decide(Cause::H8, DecisionVerdict::StoppedAndShrunk, &|| {
                    format!("mate {mate} answers at {}: close fringe on the ingress router", jh - 1)
                });
                return Decision::StopAndShrink { by: 8 };
            }
        }
    }

    // A clean pass is attributable to no single rule, so it has no cause.
    recorder.decide(ctx.hop, None, Some(l), DecisionVerdict::Accepted, || {
        format!("passed H2–H8 at hop {jh}")
    });
    Decision::Add
}

/// Picks the mate H7/H8 reason about: `mate31(l)`, falling back to
/// `mate30(l)` when the /31 mate is silent or host-unreachable ("In case
/// probing /31 mate of l does not yield any response or yields an ICMP
/// Host-Unreachable the same heuristic is performed with /30 mate").
///
/// Returns `None` when the chosen mate is the pivot or an accepted member
/// (contiguity is then self-evident) or when both mates are mute.
fn mate_view<P: Prober>(
    prober: &mut P,
    members: &SubnetRecord,
    ctx: &Context,
    l: Addr,
) -> Option<(Addr, ProbeOutcome)> {
    let _cause = obs::cause_scope(Cause::H7);
    let m31 = l.mate31();
    if m31 == ctx.pivot || members.contains(m31) {
        return None;
    }
    let o31 = prober.probe(m31, ctx.jh);
    if !o31.is_silentish() {
        return Some((m31, o31));
    }
    let m30 = l.mate30();
    if m30 == ctx.pivot || members.contains(m30) || m30 == m31 {
        return None;
    }
    let o30 = prober.probe(m30, ctx.jh);
    if o30.is_silentish() {
        return None;
    }
    Some((m30, o30))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet::Prefix;
    use probe::ScriptedProber;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    /// Context mirroring the paper's Figure 3: pivot R4.e = 10.0.2.3 at
    /// hop 3, ingress R2.e = 10.0.1.1, u = R2.e, on-path.
    fn ctx() -> Context {
        Context {
            hop: 3,
            pivot: a("10.0.2.3"),
            jh: 3,
            ingress: Some(a("10.0.1.1")),
            trace_prev: Some(a("10.0.1.1")),
            on_path: true,
            set: HeuristicSet::all(),
        }
    }

    fn empty_members() -> SubnetRecord {
        SubnetRecord::new("10.0.2.0/24".parse::<Prefix>().unwrap(), [a("10.0.2.3")]).unwrap()
    }

    /// A fully-passing member: alive at jh, TTL_EXCD from ingress at jh−1,
    /// mate checks clean.
    #[test]
    fn clean_member_is_added() {
        let c = ctx();
        let l = a("10.0.2.4");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        p.script(l, 2, ProbeOutcome::TtlExceeded { from: a("10.0.1.1") });
        // mate31(l) = 10.0.2.5: silent; mate30(l) = 10.0.2.6: silent.
        let members = empty_members();
        assert_eq!(examine(&mut p, &Recorder::disabled(), &c, &members, None, l), Decision::Add);
    }

    #[test]
    fn silent_address_is_skipped() {
        let c = ctx();
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        let members = empty_members();
        assert_eq!(
            examine(&mut p, &Recorder::disabled(), &c, &members, None, a("10.0.2.5")),
            Decision::Skip
        );
    }

    #[test]
    fn h2_stops_on_farther_interface() {
        let c = ctx();
        let l = a("10.0.2.9");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::TtlExceeded { from: a("10.0.2.3") });
        let members = empty_members();
        assert_eq!(
            examine(&mut p, &Recorder::disabled(), &c, &members, None, l),
            Decision::StopAndShrink { by: 2 }
        );
        // Ablated: same outcome degrades to a skip.
        let mut c2 = ctx();
        c2.set = HeuristicSet::without(2);
        assert_eq!(examine(&mut p, &Recorder::disabled(), &c2, &members, None, l), Decision::Skip);
    }

    #[test]
    fn h5_mate31_of_pivot_shortcuts_in() {
        let c = ctx();
        let l = c.pivot.mate31(); // 10.0.2.2
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        let members = empty_members();
        assert_eq!(examine(&mut p, &Recorder::disabled(), &c, &members, None, l), Decision::Add);
        // Only the H2 aliveness probe was needed.
        assert_eq!(p.stats().sent, 1);
    }

    #[test]
    fn h5_mate30_shortcut_requires_dead_mate31() {
        let c = ctx();
        let l = c.pivot.mate30(); // 10.0.2.1
        let mate31 = c.pivot.mate31(); // 10.0.2.2
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        // mate31 of pivot is NOT in use: shortcut applies.
        let members = empty_members();
        assert_eq!(examine(&mut p, &Recorder::disabled(), &c, &members, None, l), Decision::Add);
        assert_eq!(p.stats().sent, 2, "H2 probe + mate31 aliveness check");

        // With mate31 alive the shortcut is off; l becomes the
        // contra-pivot candidate instead (ECHO_RPLY at jh−1 scripted).
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        p.script(mate31, 3, ProbeOutcome::DirectReply { from: mate31 });
        p.script(l, 2, ProbeOutcome::DirectReply { from: l });
        // H4 confidence: silent at jh−2 = 1.
        assert_eq!(
            examine(&mut p, &Recorder::disabled(), &c, &members, None, l),
            Decision::AddContraPivot
        );
    }

    #[test]
    fn h3_first_closer_interface_becomes_contra_pivot() {
        let c = ctx();
        let l = a("10.0.2.1"); // R2.w in Figure 3
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        p.script(l, 2, ProbeOutcome::DirectReply { from: l });
        // jh−2 = 1: silence (not closer than contra) → accept.
        let members = empty_members();
        assert_eq!(
            examine(&mut p, &Recorder::disabled(), &c, &members, None, l),
            Decision::AddContraPivot
        );
    }

    #[test]
    fn h3_second_contra_pivot_stops() {
        let c = ctx();
        let l = a("10.0.2.6");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        p.script(l, 2, ProbeOutcome::DirectReply { from: l });
        let members = empty_members();
        assert_eq!(
            examine(&mut p, &Recorder::disabled(), &c, &members, Some(a("10.0.2.1")), l),
            Decision::StopAndShrink { by: 3 }
        );
    }

    #[test]
    fn h4_rejects_contra_pivot_that_is_too_close() {
        let c = ctx();
        let l = a("10.0.2.1");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        p.script(l, 2, ProbeOutcome::DirectReply { from: l });
        p.script(l, 1, ProbeOutcome::DirectReply { from: l }); // answers at jh−2!
        let members = empty_members();
        assert_eq!(
            examine(&mut p, &Recorder::disabled(), &c, &members, None, l),
            Decision::StopAndShrink { by: 4 }
        );
        // Ablated H4: accepted as contra-pivot despite the near reply.
        let mut c2 = ctx();
        c2.set = HeuristicSet::without(4);
        assert_eq!(
            examine(&mut p, &Recorder::disabled(), &c2, &members, None, l),
            Decision::AddContraPivot
        );
    }

    #[test]
    fn h6_stops_on_stranger_entry_point() {
        let c = ctx();
        let l = a("10.0.2.4");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        // Entered through a router that is neither i nor u.
        p.script(l, 2, ProbeOutcome::TtlExceeded { from: a("10.0.7.7") });
        let members = empty_members();
        assert_eq!(
            examine(&mut p, &Recorder::disabled(), &c, &members, None, l),
            Decision::StopAndShrink { by: 6 }
        );
    }

    #[test]
    fn h6_accepts_u_only_when_on_path() {
        let mut c = ctx();
        c.ingress = Some(a("10.0.8.8")); // i differs from u
        let l = a("10.0.2.4");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        p.script(l, 2, ProbeOutcome::TtlExceeded { from: a("10.0.1.1") }); // = u
        let members = empty_members();
        assert_eq!(examine(&mut p, &Recorder::disabled(), &c, &members, None, l), Decision::Add);

        // Same reply off-path: u is no longer a valid entry point.
        c.on_path = false;
        let mut p2 = ScriptedProber::new(a("10.0.0.0"));
        p2.script(l, 3, ProbeOutcome::DirectReply { from: l });
        p2.script(l, 2, ProbeOutcome::TtlExceeded { from: a("10.0.1.1") });
        assert_eq!(
            examine(&mut p2, &Recorder::disabled(), &c, &members, None, l),
            Decision::StopAndShrink { by: 6 }
        );
    }

    #[test]
    fn h6_passes_when_all_entry_points_anonymous() {
        let mut c = ctx();
        c.ingress = None;
        c.trace_prev = None;
        let l = a("10.0.2.4");
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        p.script(l, 2, ProbeOutcome::TtlExceeded { from: a("10.0.7.7") });
        let members = empty_members();
        assert_eq!(examine(&mut p, &Recorder::disabled(), &c, &members, None, l), Decision::Add);
    }

    #[test]
    fn h7_catches_far_fringe() {
        let c = ctx();
        let l = a("10.0.2.8"); // R4.s in Figure 3
        let mate = l.mate31(); // R5.n, one hop beyond
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        p.script(l, 2, ProbeOutcome::TtlExceeded { from: a("10.0.1.1") });
        p.script(mate, 3, ProbeOutcome::TtlExceeded { from: l });
        let members = empty_members();
        assert_eq!(
            examine(&mut p, &Recorder::disabled(), &c, &members, None, l),
            Decision::StopAndShrink { by: 7 }
        );
    }

    #[test]
    fn h7_falls_back_to_mate30_on_silence() {
        let c = ctx();
        let l = a("10.0.2.8");
        let m30 = l.mate30(); // 10.0.2.10
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        p.script(l, 2, ProbeOutcome::TtlExceeded { from: a("10.0.1.1") });
        // mate31 silent, mate30 expires in transit → far fringe via /30.
        p.script(m30, 3, ProbeOutcome::TtlExceeded { from: l });
        let members = empty_members();
        assert_eq!(
            examine(&mut p, &Recorder::disabled(), &c, &members, None, l),
            Decision::StopAndShrink { by: 7 }
        );
    }

    #[test]
    fn h8_catches_close_fringe() {
        let c = ctx();
        let l = a("10.0.2.11"); // R7.n in Figure 3
        let mate = l.mate31(); // R2.s on the ingress router
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        p.script(l, 2, ProbeOutcome::TtlExceeded { from: a("10.0.1.1") });
        p.script(mate, 3, ProbeOutcome::DirectReply { from: mate });
        p.script(mate, 2, ProbeOutcome::DirectReply { from: mate }); // closer!
        let members = empty_members();
        assert_eq!(
            examine(&mut p, &Recorder::disabled(), &c, &members, None, l),
            Decision::StopAndShrink { by: 8 }
        );
    }

    #[test]
    fn h8_exempts_the_contra_pivot_mate() {
        let c = ctx();
        let contra = a("10.0.2.1");
        let l = a("10.0.2.0"); // its mate31 IS the contra-pivot
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        p.script(l, 2, ProbeOutcome::TtlExceeded { from: a("10.0.1.1") });
        p.script(contra, 3, ProbeOutcome::DirectReply { from: contra });
        p.script(contra, 2, ProbeOutcome::DirectReply { from: contra });
        let members = empty_members();
        assert_eq!(
            examine(&mut p, &Recorder::disabled(), &c, &members, Some(contra), l),
            Decision::Add
        );
    }

    #[test]
    fn mates_already_in_subnet_skip_router_contiguity() {
        let c = ctx();
        let l = a("10.0.2.2"); // mate31 = 10.0.2.3 = pivot
        let mut p = ScriptedProber::new(a("10.0.0.0"));
        p.script(l, 3, ProbeOutcome::DirectReply { from: l });
        p.script(l, 2, ProbeOutcome::TtlExceeded { from: a("10.0.1.1") });
        // Disable H5 so the pivot-mate path reaches H7/H8.
        let mut c2 = c;
        c2.set = HeuristicSet::without(5);
        let members = empty_members();
        assert_eq!(examine(&mut p, &Recorder::disabled(), &c2, &members, None, l), Decision::Add);
        // No probe to 10.0.2.3's ttl-3 beyond the scripted ones was
        // needed: mate_view returned None.
        assert!(p.misses().iter().all(|&(addr, _)| addr != c.pivot));
    }
}
