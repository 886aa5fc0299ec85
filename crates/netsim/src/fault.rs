//! Deterministic fault injection: the [`FaultPlan`].
//!
//! A plan is a pure function of `(seed, tick, entity)` — no mutable PRNG
//! state — so a faulty run is replayable from its seed alone and is
//! independent of the order in which decisions are asked for. Every knob
//! models a phenomenon the paper's collector meets in the wild:
//!
//! * **transient loss** (`forward_loss`, `router_loss`, `reply_loss`):
//!   probes or their replies vanish with a per-link / per-router
//!   probability drawn deterministically from the seed — the silent
//!   packet loss that §3.8's re-probe rule exists to absorb;
//! * **link flaps** (`flap_fraction`, `flap_period`, `flap_down`):
//!   scheduled outages on a seeded subset of links, a coarse version of
//!   the §3.7 path dynamics that invalidate mid-trace state;
//! * **rate-limit storms** ([`RateStorm`]): windows in which a seeded
//!   subset of routers answer only `capacity` replies per window — §4.2's
//!   rate-limited routers, but transient;
//! * **route withdrawals** (`withdraw_fraction`, `withdraw_at`): a seeded
//!   subset of links goes down permanently at a scheduled tick, changing
//!   paths mid-trace.
//!
//! Loss decisions are threshold tests on a hash mapped into `[0, 1)`, so
//! for a fixed seed the drop set at a lower probability is a subset of
//! the drop set at a higher one — degradation is monotone in the knobs
//! by construction at the level of individual decisions.

use crate::topology::{RouterId, SubnetId};

/// A rate-limit storm: recurring windows during which a seeded fraction
/// of routers can emit only a handful of replies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateStorm {
    /// The storm recurs every `period` ticks.
    pub period: u64,
    /// The storm is active for the first `active` ticks of each period.
    pub active: u64,
    /// Replies an affected router may emit per active window.
    pub capacity: u32,
    /// Fraction of routers (seeded choice) the storm affects.
    pub router_fraction: f64,
}

/// A seeded, deterministic fault schedule over the engine's probe-tick
/// clock. All-zero plans (see [`FaultPlan::new`]) inject nothing and are
/// behaviorally identical to having no plan at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every per-entity probability and per-tick decision
    /// is derived.
    pub seed: u64,
    /// Maximum per-link transient forward-drop probability. Each link's
    /// actual probability is a seeded value in `[0, forward_loss]`.
    pub forward_loss: f64,
    /// Maximum per-router transient forward-drop probability, analogous
    /// to `forward_loss` but keyed on the forwarding router.
    pub router_loss: f64,
    /// Probability that a generated reply is lost on the reverse path.
    pub reply_loss: f64,
    /// Fraction of links (seeded choice) that flap.
    pub flap_fraction: f64,
    /// Flap cycle length in ticks (0 disables flapping).
    pub flap_period: u64,
    /// Ticks a flapping link stays down at the start of each cycle.
    pub flap_down: u64,
    /// Fraction of links (seeded choice) withdrawn mid-run.
    pub withdraw_fraction: f64,
    /// Tick at which withdrawn links go down for good.
    pub withdraw_at: u64,
    /// Optional recurring rate-limit storm.
    pub storm: Option<RateStorm>,
}

// Channel salts keep the hash streams of unrelated decisions disjoint.
const SALT_LINK_RATE: u64 = 0x4c49_4e4b_5241_5445;
const SALT_ROUTER_RATE: u64 = 0x5254_5252_4154_45aa;
const SALT_FORWARD: u64 = 0x464f_5257_4152_44bb;
const SALT_ROUTER_DROP: u64 = 0x5244_524f_50cc_dd01;
const SALT_REPLY: u64 = 0x5245_504c_59ee_ff02;
const SALT_FLAP_PICK: u64 = 0x464c_4150_5049_434b;
const SALT_FLAP_PHASE: u64 = 0x464c_4150_5048_4153;
const SALT_WITHDRAW: u64 = 0x5749_5448_4452_4157;
const SALT_STORM: u64 = 0x5354_4f52_4d00_0003;

/// splitmix64 finalizer — a strong, dependency-free mixer, shared with
/// the engine's ECMP hashing.
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Maps a hash onto `[0, 1)` with 53 bits of precision.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Threshold test: for a fixed hash, `hit(h, p1) && p2 >= p1` implies
/// `hit(h, p2)` — the monotone-degradation property.
fn hit(h: u64, p: f64) -> bool {
    p > 0.0 && unit(h) < p
}

impl FaultPlan {
    /// An all-zero (no-op) plan carrying only a seed; callers enable
    /// individual faults by setting fields.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            forward_loss: 0.0,
            router_loss: 0.0,
            reply_loss: 0.0,
            flap_fraction: 0.0,
            flap_period: 0,
            flap_down: 0,
            withdraw_fraction: 0.0,
            withdraw_at: 0,
            storm: None,
        }
    }

    /// Whether the plan injects nothing at all.
    pub fn is_zero(&self) -> bool {
        self.forward_loss == 0.0
            && self.router_loss == 0.0
            && self.reply_loss == 0.0
            && self.flap_fraction == 0.0
            && self.withdraw_fraction == 0.0
            && self.storm.is_none()
    }

    /// Scales every loss probability by `factor` (saturating at 1.0),
    /// keeping the seed — a loss ladder for monotone-degradation tests.
    pub fn scaled_loss(mut self, factor: f64) -> FaultPlan {
        let cap = |p: f64| (p * factor).min(1.0);
        self.forward_loss = cap(self.forward_loss);
        self.router_loss = cap(self.router_loss);
        self.reply_loss = cap(self.reply_loss);
        self
    }

    fn decision(&self, salt: u64, tick: u64, key: u64) -> u64 {
        mix(mix(mix(self.seed ^ salt) ^ tick) ^ key)
    }

    /// This link's seeded forward-drop probability in
    /// `[0, forward_loss]`.
    pub fn link_loss_rate(&self, link: SubnetId) -> f64 {
        self.forward_loss * unit(mix(self.seed ^ SALT_LINK_RATE ^ link.0 as u64))
    }

    /// This router's seeded forward-drop probability in
    /// `[0, router_loss]`.
    pub fn router_loss_rate(&self, router: RouterId) -> f64 {
        self.router_loss * unit(mix(self.seed ^ SALT_ROUTER_RATE ^ router.0 as u64))
    }

    /// Whether the packet injected at `tick` is lost while being
    /// forwarded over `link` by `router` at walk step `step`.
    #[inline]
    pub fn drops_forward(&self, tick: u64, step: u64, link: SubnetId, router: RouterId) -> bool {
        let link_key = (link.0 as u64) << 16 | step;
        if hit(self.decision(SALT_FORWARD, tick, link_key), self.link_loss_rate(link)) {
            return true;
        }
        let router_key = (router.0 as u64) << 16 | step;
        hit(self.decision(SALT_ROUTER_DROP, tick, router_key), self.router_loss_rate(router))
    }

    /// Whether the reply to the packet injected at `tick` is lost on the
    /// reverse path.
    #[inline]
    pub fn drops_reply(&self, tick: u64) -> bool {
        hit(self.decision(SALT_REPLY, tick, 0), self.reply_loss)
    }

    /// Whether `link` is down at `tick` — flapping or withdrawn.
    #[inline]
    pub fn link_down(&self, tick: u64, link: SubnetId) -> bool {
        let l = link.0 as u64;
        if self.flap_period > 0
            && self.flap_down > 0
            && hit(mix(self.seed ^ SALT_FLAP_PICK ^ l), self.flap_fraction)
        {
            // Stagger cycles per link so the whole fabric never blinks at
            // once.
            let phase = mix(self.seed ^ SALT_FLAP_PHASE ^ l) % self.flap_period;
            if (tick + phase) % self.flap_period < self.flap_down {
                return true;
            }
        }
        self.withdraw_fraction > 0.0
            && tick >= self.withdraw_at
            && hit(mix(self.seed ^ SALT_WITHDRAW ^ l), self.withdraw_fraction)
    }

    /// If a storm limits `router` at `tick`: the storm window id (for
    /// per-window reply counting) and the window's reply capacity.
    #[inline]
    pub fn storm_window(&self, tick: u64, router: RouterId) -> Option<(u64, u32)> {
        let s = self.storm?;
        if s.period == 0 || tick % s.period >= s.active {
            return None;
        }
        hit(mix(self.seed ^ SALT_STORM ^ router.0 as u64), s.router_fraction)
            .then_some((tick / s.period, s.capacity))
    }
}

/// Named fault profiles shared by the CLI, the bench binaries and the
/// chaos conformance suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultProfile {
    /// All-zero plan (useful to prove the fault layer itself is free).
    None,
    /// Light transient loss only.
    LightLoss,
    /// Heavy transient loss on links, routers and reply paths.
    HeavyLoss,
    /// Recurring rate-limit storms, no loss.
    RateStorm,
    /// Flapping links plus a mid-run route withdrawal, no loss.
    FlakyLinks,
    /// Everything at once: loss + flaps + storms + withdrawals.
    Chaos,
}

impl FaultProfile {
    /// Every profile, in escalation order.
    pub const ALL: [FaultProfile; 6] = [
        FaultProfile::None,
        FaultProfile::LightLoss,
        FaultProfile::HeavyLoss,
        FaultProfile::RateStorm,
        FaultProfile::FlakyLinks,
        FaultProfile::Chaos,
    ];

    /// Stable kebab-case name used on command lines.
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::None => "none",
            FaultProfile::LightLoss => "light-loss",
            FaultProfile::HeavyLoss => "heavy-loss",
            FaultProfile::RateStorm => "rate-storm",
            FaultProfile::FlakyLinks => "flaky-links",
            FaultProfile::Chaos => "chaos",
        }
    }

    /// Parses a [`FaultProfile::name`] rendering.
    pub fn by_name(s: &str) -> Option<FaultProfile> {
        FaultProfile::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Instantiates the profile's plan for a seed.
    pub fn plan(self, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        match self {
            FaultProfile::None => {}
            FaultProfile::LightLoss => {
                plan.forward_loss = 0.02;
                plan.reply_loss = 0.01;
            }
            FaultProfile::HeavyLoss => {
                plan.forward_loss = 0.20;
                plan.router_loss = 0.10;
                plan.reply_loss = 0.15;
            }
            FaultProfile::RateStorm => {
                plan.storm =
                    Some(RateStorm { period: 64, active: 24, capacity: 2, router_fraction: 0.5 });
            }
            FaultProfile::FlakyLinks => {
                plan.flap_fraction = 0.25;
                plan.flap_period = 96;
                plan.flap_down = 24;
                plan.withdraw_fraction = 0.08;
                plan.withdraw_at = 400;
            }
            FaultProfile::Chaos => {
                plan.forward_loss = 0.10;
                plan.router_loss = 0.05;
                plan.reply_loss = 0.08;
                plan.flap_fraction = 0.15;
                plan.flap_period = 96;
                plan.flap_down = 16;
                plan.withdraw_fraction = 0.05;
                plan.withdraw_at = 600;
                plan.storm =
                    Some(RateStorm { period: 128, active: 32, capacity: 3, router_fraction: 0.35 });
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(id: u32) -> SubnetId {
        SubnetId(id)
    }

    #[test]
    fn decisions_are_replayable_from_the_seed() {
        let a = FaultProfile::Chaos.plan(7);
        let b = FaultProfile::Chaos.plan(7);
        for tick in 0..512 {
            assert_eq!(a.drops_reply(tick), b.drops_reply(tick));
            assert_eq!(
                a.drops_forward(tick, 3, l(5), RouterId(2)),
                b.drops_forward(tick, 3, l(5), RouterId(2))
            );
            assert_eq!(a.link_down(tick, l(4)), b.link_down(tick, l(4)));
            assert_eq!(a.storm_window(tick, RouterId(1)), b.storm_window(tick, RouterId(1)));
        }
    }

    #[test]
    fn different_seeds_disagree_somewhere() {
        let a = FaultProfile::HeavyLoss.plan(1);
        let b = FaultProfile::HeavyLoss.plan(2);
        let diverged = (0..2048).any(|t| {
            a.drops_reply(t) != b.drops_reply(t)
                || a.drops_forward(t, 0, l(0), RouterId(0))
                    != b.drops_forward(t, 0, l(0), RouterId(0))
        });
        assert!(diverged, "two seeds produced identical fault streams");
    }

    #[test]
    fn loss_decisions_are_monotone_in_probability() {
        let lo = FaultProfile::Chaos.plan(11).scaled_loss(0.3);
        let hi = FaultProfile::Chaos.plan(11);
        for tick in 0..2048 {
            if lo.drops_reply(tick) {
                assert!(hi.drops_reply(tick), "tick {tick}: reply drop set not nested");
            }
            if lo.drops_forward(tick, 1, l(3), RouterId(4)) {
                assert!(
                    hi.drops_forward(tick, 1, l(3), RouterId(4)),
                    "tick {tick}: forward drop set not nested"
                );
            }
        }
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let plan = FaultPlan::new(99);
        assert!(plan.is_zero());
        for tick in 0..512 {
            assert!(!plan.drops_reply(tick));
            assert!(!plan.drops_forward(tick, 0, l(1), RouterId(1)));
            assert!(!plan.link_down(tick, l(1)));
            assert_eq!(plan.storm_window(tick, RouterId(1)), None);
        }
    }

    #[test]
    fn flaps_cycle_and_withdrawals_are_permanent() {
        let mut plan = FaultPlan::new(5);
        plan.flap_fraction = 1.0;
        plan.flap_period = 10;
        plan.flap_down = 4;
        // Over one full cycle the link is down exactly flap_down ticks.
        let downs = (0..10).filter(|&t| plan.link_down(t, l(2))).count();
        assert_eq!(downs, 4);
        // Withdrawn links never come back.
        let mut plan = FaultPlan::new(5);
        plan.withdraw_fraction = 1.0;
        plan.withdraw_at = 100;
        assert!(!plan.link_down(99, l(2)));
        assert!((100..400).all(|t| plan.link_down(t, l(2))));
    }

    #[test]
    fn profile_names_roundtrip() {
        for p in FaultProfile::ALL {
            assert_eq!(FaultProfile::by_name(p.name()), Some(p));
        }
        assert_eq!(FaultProfile::by_name("nonsense"), None);
        assert!(FaultProfile::None.plan(1).is_zero());
        assert!(!FaultProfile::Chaos.plan(1).is_zero());
    }
}
