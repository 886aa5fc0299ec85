//! Session configuration.

/// Which growth heuristics are active — all of them, in the paper's
/// configuration; individual rules can be switched off for the ablation
/// experiments (experiment A1 in DESIGN.md).
///
/// H1 (stop-and-shrink itself) cannot be disabled; H2–H8 are per-address
/// tests and H9 (boundary reduction) a structural one, each with its own
/// switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeuristicSet {
    /// `on[n - 2]` switches rule H`n`, for `n` in 2..=9: the order of
    /// the exchange-log header's `heuristics` array.
    pub on: [bool; 8],
}

impl HeuristicSet {
    /// Every rule on — the paper's tracenet.
    pub const fn all() -> HeuristicSet {
        HeuristicSet { on: [true; 8] }
    }

    /// Whether rule H`rule` (2..=9) is switched on.
    ///
    /// # Panics
    /// Panics for rule numbers outside 2..=9.
    pub fn enabled(self, rule: u8) -> bool {
        self.on[switch(rule)]
    }

    /// All rules on except the one named by `rule` (2..=9) — the ablation
    /// configurations.
    ///
    /// # Panics
    /// Panics for rule numbers outside 2..=9.
    pub fn without(rule: u8) -> HeuristicSet {
        let mut s = HeuristicSet::all();
        s.on[switch(rule)] = false;
        s
    }
}

/// The index of rule H`rule`'s switch.
fn switch(rule: u8) -> usize {
    match rule {
        2..=9 => usize::from(rule - 2),
        other => panic!("no switchable heuristic H{other}"),
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
        assert!((2..=9).all(|rule| s.enabled(rule)));
        assert_eq!(HeuristicSet::default(), s);
    }

    #[test]
    fn without_disables_exactly_one() {
        for rule in 2..=9u8 {
            let s = HeuristicSet::without(rule);
            let off: Vec<u8> = (2..=9).filter(|&r| !s.enabled(r)).collect();
            assert_eq!(off, [rule]);
            assert!(!s.on[rule as usize - 2], "switch {} is rule H{rule}", rule - 2);
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
