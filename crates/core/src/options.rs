//! Session configuration.

/// Which growth heuristics are active — all of them, in the paper's
/// configuration; individual rules can be switched off for the ablation
/// experiments (experiment A1 in DESIGN.md).
///
/// H1 (stop-and-shrink itself) and H9 (boundary reduction) are structural
/// rather than per-address tests; H9 has its own switch, H1 cannot be
/// disabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror the paper's rule numbers
pub struct HeuristicSet {
    pub h2_upper_bound_subnet_contiguity: bool,
    pub h3_single_contra_pivot: bool,
    pub h4_lower_bound_subnet_contiguity: bool,
    pub h5_mate31_shortcut: bool,
    pub h6_fixed_entry_points: bool,
    pub h7_upper_bound_router_contiguity: bool,
    pub h8_lower_bound_router_contiguity: bool,
    pub h9_boundary_reduction: bool,
}

impl HeuristicSet {
    /// Every rule on — the paper's tracenet.
    pub const fn all() -> HeuristicSet {
        HeuristicSet {
            h2_upper_bound_subnet_contiguity: true,
            h3_single_contra_pivot: true,
            h4_lower_bound_subnet_contiguity: true,
            h5_mate31_shortcut: true,
            h6_fixed_entry_points: true,
            h7_upper_bound_router_contiguity: true,
            h8_lower_bound_router_contiguity: true,
            h9_boundary_reduction: true,
        }
    }

    /// All rules on except the one named by `rule` (2..=9) — the ablation
    /// configurations.
    ///
    /// # Panics
    /// Panics for rule numbers outside 2..=9.
    pub fn without(rule: u8) -> HeuristicSet {
        let mut s = HeuristicSet::all();
        match rule {
            2 => s.h2_upper_bound_subnet_contiguity = false,
            3 => s.h3_single_contra_pivot = false,
            4 => s.h4_lower_bound_subnet_contiguity = false,
            5 => s.h5_mate31_shortcut = false,
            6 => s.h6_fixed_entry_points = false,
            7 => s.h7_upper_bound_router_contiguity = false,
            8 => s.h8_lower_bound_router_contiguity = false,
            9 => s.h9_boundary_reduction = false,
            other => panic!("no switchable heuristic H{other}"),
        }
        s
    }
}

impl Default for HeuristicSet {
    fn default() -> Self {
        HeuristicSet::all()
    }
}

/// Smallest prefix length (largest subnet) exploration grows to. The
/// paper's Algorithm 1 runs `m` down to 0 but is always stopped by the
/// utilization rule first; /20 matches the largest subnets the paper
/// observed (NTT America, §4.2) and bounds worst-case probing.
pub const MIN_PREFIX_LEN: u8 = 20;

/// How many hops beyond (and, after silence, before) `d` the positioning
/// distance search looks ("in some other cases, however, it might differ
/// by one or a few hops", §3.4).
pub const DISTANCE_SEARCH_SPAN: u8 = 3;

/// Tunables of a tracenet session.
///
/// What the paper's tracenet always does is not a tunable: a hop whose
/// address lies inside a subnet collected earlier in the session is not
/// re-explored, and subnets positioned off the trace path are explored
/// like on-path ones ("tracenet builds the subnet which accommodates the
/// interface obtained with indirect probing", §3.4). Exploration stops at
/// [`MIN_PREFIX_LEN`] and the distance search spans
/// [`DISTANCE_SEARCH_SPAN`] hops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracenetOptions {
    /// Maximum trace length, like traceroute's `-m` (default 30).
    pub max_ttl: u8,
    /// Apply Algorithm 1's lines 19–21: stop growing a /29-or-larger
    /// subnet that is at most half utilized. Switchable for ablation.
    pub utilization_stop: bool,
    /// Active growth heuristics.
    pub heuristics: HeuristicSet,
    /// Fault-attributed timeouts (loss, outage, rate-limit silence —
    /// `probe::ProbeStats::fault_timeouts`) tolerated per hop before the
    /// hop is abandoned. `None` (the default) never abandons, matching
    /// the paper's tracenet which has no such bound.
    pub hop_fault_budget: Option<u16>,
}

impl Default for TracenetOptions {
    fn default() -> Self {
        TracenetOptions {
            max_ttl: 30,
            utilization_stop: true,
            heuristics: HeuristicSet::all(),
            hop_fault_budget: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_enables_everything() {
        let s = HeuristicSet::all();
        assert!(s.h2_upper_bound_subnet_contiguity && s.h9_boundary_reduction);
        assert_eq!(HeuristicSet::default(), s);
    }

    #[test]
    fn without_disables_exactly_one() {
        for rule in 2..=9u8 {
            let s = HeuristicSet::without(rule);
            let flags = [
                s.h2_upper_bound_subnet_contiguity,
                s.h3_single_contra_pivot,
                s.h4_lower_bound_subnet_contiguity,
                s.h5_mate31_shortcut,
                s.h6_fixed_entry_points,
                s.h7_upper_bound_router_contiguity,
                s.h8_lower_bound_router_contiguity,
                s.h9_boundary_reduction,
            ];
            assert_eq!(flags.iter().filter(|&&f| !f).count(), 1, "rule {rule}");
            assert!(!flags[rule as usize - 2]);
        }
    }

    #[test]
    #[should_panic(expected = "no switchable heuristic")]
    fn without_rejects_h1() {
        let _ = HeuristicSet::without(1);
    }

    #[test]
    fn default_options_match_paper() {
        let o = TracenetOptions::default();
        assert_eq!(o.max_ttl, 30);
        assert!(o.utilization_stop);
        assert!(o.hop_fault_budget.is_none(), "no abandonment bound by default");
    }
}
