//! Pluggable retry policies: the paper's §3.8 re-probe-on-silence rule,
//! generalized.
//!
//! The paper re-probes a silent address once. Under injected faults that
//! fixed budget is either too small (transient loss eats both attempts)
//! or too large (a genuinely silent subnet burns probes); the policies
//! here let a session pick the trade-off:
//!
//! * [`RetryPolicy::Fixed`] — the paper's behavior, byte-identical to
//!   the historical prober when left at [`DEFAULT_RETRIES`];
//! * [`RetryPolicy::Backoff`] — same budget, but each retry first lets
//!   the simulated clock advance by an exponentially growing number of
//!   ticks (8 before the first, doubling per retry), giving
//!   rate-limiter buckets and fault windows time to drain;
//! * [`RetryPolicy::Adaptive`] — widens the budget toward `max` while
//!   the recent timeout rate is high and shrinks it toward
//!   `min(DEFAULT_RETRIES, max)` when probes come back clean, using a
//!   fixed-size window of final outcomes. Fully deterministic: the
//!   budget is a pure function of the session's own probe history.

/// Default number of re-probes after silence (§3.8: "we re-probe an IP
/// address if we do not get a response for the first probe").
pub const DEFAULT_RETRIES: u8 = 1;

/// Idle ticks [`RetryPolicy::Backoff`] waits before the first retry.
const BACKOFF_BASE_TICKS: u64 = 8;

/// Window length (final probe outcomes) the adaptive policy looks at.
const ADAPTIVE_WINDOW: u32 = 16;

/// Widest backoff shift, so delays can't overflow.
const MAX_BACKOFF_SHIFT: u8 = 16;

/// How many times a logical probe is re-sent after silence, and how long
/// the prober idles before each re-send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Always `retries` re-probes, back to back.
    Fixed {
        /// Re-probes after the first silent attempt.
        retries: u8,
    },
    /// `retries` re-probes, idling `8 << (attempt - 1)` ticks before the
    /// attempt-th retry.
    Backoff {
        /// Re-probes after the first silent attempt.
        retries: u8,
    },
    /// Between `min(DEFAULT_RETRIES, max)` and `max` re-probes, scaled by
    /// the fraction of recent logical probes that ended in timeout.
    Adaptive {
        /// Budget when the recent window is all timeouts.
        max: u8,
    },
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::Fixed { retries: DEFAULT_RETRIES }
    }
}

/// Live retry state carried by a prober: the policy plus the outcome
/// window the adaptive mode feeds on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetryState {
    policy: RetryPolicy,
    /// Bitmask of the last [`ADAPTIVE_WINDOW`] final outcomes; a set bit
    /// is a timeout. Newest outcome in bit 0.
    window: u64,
    /// Outcomes recorded so far, saturating at [`ADAPTIVE_WINDOW`].
    filled: u32,
}

impl RetryState {
    pub(crate) fn new(policy: RetryPolicy) -> RetryState {
        RetryState { policy, window: 0, filled: 0 }
    }

    /// Re-probes allowed for the next logical probe.
    pub(crate) fn budget(&self) -> u8 {
        match self.policy {
            RetryPolicy::Fixed { retries } | RetryPolicy::Backoff { retries } => retries,
            RetryPolicy::Adaptive { max } => {
                let min = DEFAULT_RETRIES.min(max);
                if self.filled == 0 || max == min {
                    return min;
                }
                let timeouts = (self.window & mask(self.filled)).count_ones();
                // Round to nearest so a half-dirty window sits mid-range.
                let span = (max - min) as u32;
                min + ((span * timeouts + self.filled / 2) / self.filled) as u8
            }
        }
    }

    /// Idle ticks before retry `attempt` (1-based; attempt 0 is the
    /// initial send and never waits).
    pub(crate) fn delay(&self, attempt: u8) -> u64 {
        match self.policy {
            RetryPolicy::Backoff { .. } if attempt > 0 => {
                BACKOFF_BASE_TICKS << (attempt - 1).min(MAX_BACKOFF_SHIFT)
            }
            _ => 0,
        }
    }

    /// Records a logical probe's final outcome.
    pub(crate) fn note(&mut self, timed_out: bool) {
        self.window = (self.window << 1) | timed_out as u64;
        self.filled = (self.filled + 1).min(ADAPTIVE_WINDOW);
    }
}

fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_matches_the_paper() {
        let state = RetryState::new(RetryPolicy::default());
        assert_eq!(state.budget(), DEFAULT_RETRIES);
        assert_eq!(state.delay(1), 0);
    }

    #[test]
    fn backoff_delays_double_and_saturate() {
        let state = RetryState::new(RetryPolicy::Backoff { retries: 4 });
        assert_eq!(state.delay(0), 0);
        assert_eq!(state.delay(1), 8);
        assert_eq!(state.delay(2), 16);
        assert_eq!(state.delay(3), 32);
        // The shift is capped, not wrapping.
        assert_eq!(state.delay(255), 8u64 << MAX_BACKOFF_SHIFT);
    }

    #[test]
    fn adaptive_budget_tracks_the_timeout_rate() {
        let mut state = RetryState::new(RetryPolicy::Adaptive { max: 5 });
        assert_eq!(state.budget(), 1, "empty window starts at min");
        for _ in 0..ADAPTIVE_WINDOW {
            state.note(true);
        }
        assert_eq!(state.budget(), 5, "all-timeout window hits max");
        for _ in 0..ADAPTIVE_WINDOW {
            state.note(false);
        }
        assert_eq!(state.budget(), 1, "clean window shrinks back to min");
        // Half-dirty window lands mid-range.
        for i in 0..ADAPTIVE_WINDOW {
            state.note(i % 2 == 0);
        }
        assert_eq!(state.budget(), 3);
    }

    #[test]
    fn adaptive_window_is_bounded() {
        let mut state = RetryState::new(RetryPolicy::Adaptive { max: 4 });
        for _ in 0..1000 {
            state.note(true);
        }
        assert_eq!(state.filled, ADAPTIVE_WINDOW);
        assert_eq!(state.budget(), 4);
        // One clean probe can already nudge the budget down.
        state.note(false);
        assert!(state.budget() <= 4);
    }

    #[test]
    fn degenerate_adaptive_range_is_flat() {
        for max in [0, DEFAULT_RETRIES] {
            let mut state = RetryState::new(RetryPolicy::Adaptive { max });
            state.note(true);
            state.note(true);
            assert_eq!(state.budget(), max);
        }
    }
}
