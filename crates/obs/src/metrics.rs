//! A dependency-free metrics registry: monotonic counters and
//! fixed-bucket histograms keyed by phase and cause.
//!
//! Everything is a plain atomic so recording is lock-free and safe to
//! share across probing threads behind one `Arc<Registry>`. A
//! [`Registry::snapshot`] freezes the counters into a
//! [`MetricsSnapshot`] that renders as a human table (the shape of the
//! paper's Table 2) or as JSON.

use std::sync::atomic::{AtomicU64, Ordering};

use serde_json::{json, Value};

use crate::event::{Cause, Phase, ProbeEvent, ProbeOutcome, TimeoutCause};

/// Number of phase slots: the three pipeline phases plus one for
/// probes sent outside any phase scope.
const PHASES: usize = Phase::ALL.len() + 1;
const UNATTRIBUTED: usize = Phase::ALL.len();
const CAUSES: usize = Cause::ALL.len();
const OUTCOMES: usize = ProbeOutcome::LABELS.len();
const TIMEOUT_CAUSES: usize = TimeoutCause::ALL.len();

/// TTL histogram buckets: `[1, 2), [2, 4), [4, 8), [8, 16), [16, 32),
/// [32, 64), [64, 256]`. Upper bounds, inclusive-exclusive except the
/// last.
pub const TTL_BUCKETS: [u8; 7] = [2, 4, 8, 16, 32, 64, 255];

fn ttl_bucket(ttl: u8) -> usize {
    TTL_BUCKETS.iter().position(|&hi| ttl < hi).unwrap_or(TTL_BUCKETS.len() - 1)
}

/// Hop-cost histogram buckets (probes spent per collected hop):
/// `[0, 2), [2, 4), [4, 8), [8, 16), [16, 32), [32, ∞)`.
pub const HOP_COST_BUCKETS: [u64; 5] = [2, 4, 8, 16, 32];

fn hop_cost_bucket(cost: u64) -> usize {
    HOP_COST_BUCKETS.iter().position(|&hi| cost < hi).unwrap_or(HOP_COST_BUCKETS.len())
}

/// Phase-latency histogram buckets (wall ticks spent in one phase of one
/// hop): `[0, 4), [4, 16), [16, 64), [64, 256), [256, 1024),
/// [1024, 4096), [4096, ∞)`.
pub const PHASE_TICK_BUCKETS: [u64; 6] = [4, 16, 64, 256, 1024, 4096];

fn phase_tick_bucket(ticks: u64) -> usize {
    PHASE_TICK_BUCKETS.iter().position(|&hi| ticks < hi).unwrap_or(PHASE_TICK_BUCKETS.len())
}

/// What a cross-session subnet-cache lookup resolved to. Fed into the
/// registry by the session driver so saved probes are attributable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The cache supplied an already-accepted subnet for the hop.
    Hit,
    /// The cache knew the hop was explored before and yielded no subnet,
    /// so positioning/exploration were skipped without a reusable subnet.
    Skip,
    /// The hop was not in the cache; it was positioned and explored.
    Miss,
}

impl CacheOutcome {
    /// All outcomes, in slot order.
    pub const ALL: [CacheOutcome; 3] = [CacheOutcome::Hit, CacheOutcome::Skip, CacheOutcome::Miss];

    fn index(self) -> usize {
        match self {
            CacheOutcome::Hit => 0,
            CacheOutcome::Skip => 1,
            CacheOutcome::Miss => 2,
        }
    }

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Skip => "skip",
            CacheOutcome::Miss => "miss",
        }
    }
}

fn phase_slot(phase: Option<Phase>) -> usize {
    phase.map(Phase::index).unwrap_or(UNATTRIBUTED)
}

fn slot_label(slot: usize) -> &'static str {
    Phase::ALL.get(slot).map(|p| p.label()).unwrap_or("unattributed")
}

/// Thread-safe counters for probe traffic. Construct once per session
/// (or per experiment), share via `Arc`, feed through a
/// [`crate::Recorder`], and snapshot at the end.
#[derive(Debug, Default)]
pub struct Registry {
    /// Wire sends per phase slot.
    sent: [AtomicU64; PHASES],
    /// Retries (attempt > 0) per phase slot.
    retries: [AtomicU64; PHASES],
    /// Outcome counts per phase slot.
    outcomes: [[AtomicU64; OUTCOMES]; PHASES],
    /// Wire sends per cause.
    by_cause: [AtomicU64; CAUSES],
    /// Probe TTL distribution.
    ttl_hist: [AtomicU64; TTL_BUCKETS.len()],
    /// Probes-per-hop distribution, fed by the session after trace
    /// collection.
    hop_cost_hist: [AtomicU64; HOP_COST_BUCKETS.len() + 1],
    /// Cross-session subnet-cache lookups by outcome (hit/skip/miss).
    cache: [AtomicU64; CacheOutcome::ALL.len()],
    /// Timed-out attempts by attributed silence cause.
    timeout_causes: [AtomicU64; TIMEOUT_CAUSES],
    /// Per-phase wall-tick latency histogram (ticks spent in one phase
    /// of one hop), fed by the session driver.
    phase_ticks: [[AtomicU64; PHASE_TICK_BUCKETS.len() + 1]; PHASES],
    /// Per-phase completed-measurement count backing `phase_ticks`.
    phase_tick_count: [AtomicU64; PHASES],
    /// Per-phase total ticks backing `phase_ticks`.
    phase_tick_total: [AtomicU64; PHASES],
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Records one wire attempt. Called by [`crate::Recorder::record`];
    /// exposed for tools that replay a JSONL log into fresh metrics.
    pub fn record(&self, event: &ProbeEvent) {
        let slot = phase_slot(event.phase);
        self.sent[slot].fetch_add(1, Ordering::Relaxed);
        if event.attempt > 0 {
            self.retries[slot].fetch_add(1, Ordering::Relaxed);
        }
        self.outcomes[slot][event.outcome.index()].fetch_add(1, Ordering::Relaxed);
        if let Some(cause) = event.cause {
            self.by_cause[cause.index()].fetch_add(1, Ordering::Relaxed);
        }
        if let Some(cause) = event.timeout_cause {
            self.timeout_causes[cause.index()].fetch_add(1, Ordering::Relaxed);
        }
        self.ttl_hist[ttl_bucket(event.ttl)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records the probe cost of one collected hop (probes spent per
    /// hop discovered during trace collection).
    pub fn record_hop_cost(&self, probes: u64) {
        self.hop_cost_hist[hop_cost_bucket(probes)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cross-session subnet-cache lookup.
    pub fn record_cache(&self, outcome: CacheOutcome) {
        self.cache[outcome.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records the wall-tick latency of one completed phase of one hop.
    pub fn record_phase_ticks(&self, phase: Phase, ticks: u64) {
        let slot = phase.index();
        self.phase_ticks[slot][phase_tick_bucket(ticks)].fetch_add(1, Ordering::Relaxed);
        self.phase_tick_count[slot].fetch_add(1, Ordering::Relaxed);
        self.phase_tick_total[slot].fetch_add(ticks, Ordering::Relaxed);
    }

    /// Freezes the current counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            sent: std::array::from_fn(|i| load(&self.sent[i])),
            retries: std::array::from_fn(|i| load(&self.retries[i])),
            outcomes: std::array::from_fn(|i| std::array::from_fn(|j| load(&self.outcomes[i][j]))),
            by_cause: std::array::from_fn(|i| load(&self.by_cause[i])),
            ttl_hist: std::array::from_fn(|i| load(&self.ttl_hist[i])),
            hop_cost_hist: std::array::from_fn(|i| load(&self.hop_cost_hist[i])),
            cache: std::array::from_fn(|i| load(&self.cache[i])),
            timeout_causes: std::array::from_fn(|i| load(&self.timeout_causes[i])),
            phase_ticks: std::array::from_fn(|i| {
                std::array::from_fn(|j| load(&self.phase_ticks[i][j]))
            }),
            phase_tick_count: std::array::from_fn(|i| load(&self.phase_tick_count[i])),
            phase_tick_total: std::array::from_fn(|i| load(&self.phase_tick_total[i])),
        }
    }
}

/// A frozen view of a [`Registry`], suitable for rendering and
/// comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    sent: [u64; PHASES],
    retries: [u64; PHASES],
    outcomes: [[u64; OUTCOMES]; PHASES],
    by_cause: [u64; CAUSES],
    ttl_hist: [u64; TTL_BUCKETS.len()],
    hop_cost_hist: [u64; HOP_COST_BUCKETS.len() + 1],
    cache: [u64; CacheOutcome::ALL.len()],
    timeout_causes: [u64; TIMEOUT_CAUSES],
    phase_ticks: [[u64; PHASE_TICK_BUCKETS.len() + 1]; PHASES],
    phase_tick_count: [u64; PHASES],
    phase_tick_total: [u64; PHASES],
}

impl MetricsSnapshot {
    /// Cache lookups that resolved to `outcome`.
    pub fn cache_count(&self, outcome: CacheOutcome) -> u64 {
        self.cache[outcome.index()]
    }

    /// Wire sends attributed to `phase`.
    pub fn sent_in(&self, phase: Phase) -> u64 {
        self.sent[phase.index()]
    }

    /// Wire sends with no phase attribution.
    pub fn sent_unattributed(&self) -> u64 {
        self.sent[UNATTRIBUTED]
    }

    /// Wire sends attributed to `cause`.
    pub fn sent_for(&self, cause: Cause) -> u64 {
        self.by_cause[cause.index()]
    }

    /// Total wire sends across every phase slot.
    pub fn sent_total(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Completed phase-latency measurements for `phase`.
    pub fn phase_tick_count(&self, phase: Phase) -> u64 {
        self.phase_tick_count[phase.index()]
    }

    /// Total wall ticks measured in `phase`.
    pub fn phase_tick_total(&self, phase: Phase) -> u64 {
        self.phase_tick_total[phase.index()]
    }

    /// Renders the snapshot as an aligned human-readable table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "phase", "sent", "retries", "direct", "ttl_exc", "unreach", "timeout"
        );
        for slot in 0..PHASES {
            if slot == UNATTRIBUTED && self.sent[slot] == 0 {
                continue;
            }
            let o = &self.outcomes[slot];
            let _ = writeln!(
                out,
                "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                slot_label(slot),
                self.sent[slot],
                self.retries[slot],
                o[0],
                o[1],
                o[2],
                o[3]
            );
        }
        let _ = writeln!(out, "{:<14} {:>8}", "total", self.sent_total());
        let attributed: Vec<(Cause, u64)> = Cause::ALL
            .into_iter()
            .map(|c| (c, self.by_cause[c.index()]))
            .filter(|&(_, n)| n > 0)
            .collect();
        if !attributed.is_empty() {
            let _ = writeln!(out, "\n{:<18} {:>8}", "cause", "probes");
            for (cause, n) in attributed {
                let _ = writeln!(out, "{:<18} {:>8}", cause.label(), n);
            }
        }
        let attributed_timeouts: Vec<(TimeoutCause, u64)> = TimeoutCause::ALL
            .into_iter()
            .map(|c| (c, self.timeout_causes[c.index()]))
            .filter(|&(_, n)| n > 0)
            .collect();
        if !attributed_timeouts.is_empty() {
            let _ = writeln!(out, "\n{:<22} {:>8}", "timeout cause", "count");
            for (cause, n) in attributed_timeouts {
                let _ = writeln!(out, "{:<22} {:>8}", cause.label(), n);
            }
        }
        if Phase::ALL.iter().any(|&p| self.phase_tick_count(p) > 0) {
            let _ = writeln!(
                out,
                "\n{:<14} {:>8} {:>10} {:>10}",
                "phase latency", "hops", "ticks", "avg"
            );
            for phase in Phase::ALL {
                let count = self.phase_tick_count(phase);
                if count == 0 {
                    continue;
                }
                let total = self.phase_tick_total(phase);
                let _ = writeln!(
                    out,
                    "{:<14} {:>8} {:>10} {:>10.1}",
                    phase.label(),
                    count,
                    total,
                    total as f64 / count as f64,
                );
            }
        }
        out
    }

    /// Serializes the snapshot as a JSON object.
    ///
    /// Shape: `phases` maps phase label (plus `"unattributed"`) to
    /// `{sent, retries, outcomes: {...}}`; `causes` maps cause labels
    /// to send counts (zero counts omitted); `total_sent` is the grand
    /// total; `ttl_histogram` and `hop_cost_histogram` list
    /// `{le, count}` buckets.
    pub fn to_json(&self) -> Value {
        let mut phases = Vec::new();
        for slot in 0..PHASES {
            let o = &self.outcomes[slot];
            let outcomes = Value::Object(
                ProbeOutcome::LABELS
                    .into_iter()
                    .zip(o)
                    .map(|(label, n)| (label.to_string(), json!(*n)))
                    .collect(),
            );
            phases.push((
                slot_label(slot).to_string(),
                json!({
                    "sent": self.sent[slot],
                    "retries": self.retries[slot],
                    "outcomes": outcomes,
                }),
            ));
        }
        let causes = Value::Object(
            Cause::ALL
                .into_iter()
                .filter(|c| self.by_cause[c.index()] > 0)
                .map(|c| (c.label().to_string(), json!(self.by_cause[c.index()])))
                .collect(),
        );
        let ttl_hist = Value::Array(
            TTL_BUCKETS
                .iter()
                .zip(self.ttl_hist.iter())
                .map(|(&le, &count)| json!({ "le": le, "count": count }))
                .collect(),
        );
        let hop_hist = Value::Array(
            HOP_COST_BUCKETS
                .iter()
                .map(|&b| b.to_string())
                .chain(std::iter::once("inf".to_string()))
                .zip(self.hop_cost_hist.iter())
                .map(|(le, &count)| json!({ "le": le, "count": count }))
                .collect(),
        );
        let cache = Value::Object(
            CacheOutcome::ALL
                .into_iter()
                .map(|o| (o.label().to_string(), json!(self.cache_count(o))))
                .collect(),
        );
        let timeout_causes = Value::Object(
            TimeoutCause::ALL
                .into_iter()
                .filter(|c| self.timeout_causes[c.index()] > 0)
                .map(|c| (c.label().to_string(), json!(self.timeout_causes[c.index()])))
                .collect(),
        );
        let phase_latency = Value::Object(
            Phase::ALL
                .into_iter()
                .map(|p| {
                    let slot = p.index();
                    let buckets = Value::Array(
                        PHASE_TICK_BUCKETS
                            .iter()
                            .map(|b| b.to_string())
                            .chain(std::iter::once("inf".to_string()))
                            .zip(self.phase_ticks[slot].iter())
                            .map(|(le, &count)| json!({ "le": le, "count": count }))
                            .collect(),
                    );
                    (
                        p.label().to_string(),
                        json!({
                            "count": self.phase_tick_count[slot],
                            "total_ticks": self.phase_tick_total[slot],
                            "buckets": buckets,
                        }),
                    )
                })
                .collect(),
        );
        json!({
            "total_sent": self.sent_total(),
            "phases": Value::Object(phases),
            "causes": causes,
            "ttl_histogram": ttl_hist,
            "hop_cost_histogram": hop_hist,
            "cache": cache,
            "timeout_causes": timeout_causes,
            "phase_latency": phase_latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::Protocol;

    fn ev(phase: Option<Phase>, cause: Option<Cause>, ttl: u8, attempt: u8) -> ProbeEvent {
        ProbeEvent {
            tick: 0,
            session: None,
            vantage: "10.0.0.1".parse().unwrap(),
            dst: "10.0.9.6".parse().unwrap(),
            ttl,
            protocol: Protocol::Icmp,
            flow: 0,
            attempt,
            outcome: if attempt > 0 {
                ProbeOutcome::Timeout
            } else {
                ProbeOutcome::DirectReply { from: "10.0.9.6".parse().unwrap() }
            },
            phase,
            cause,
            timeout_cause: if attempt > 0 { Some(TimeoutCause::PolicySilence) } else { None },
        }
    }

    #[test]
    fn counters_accumulate_by_phase_and_cause() {
        let reg = Registry::new();
        reg.record(&ev(Some(Phase::Trace), Some(Cause::TraceCollection), 3, 0));
        reg.record(&ev(Some(Phase::Trace), Some(Cause::TraceCollection), 3, 1));
        reg.record(&ev(Some(Phase::Explore), Some(Cause::H2), 5, 0));
        reg.record(&ev(None, None, 9, 0));

        let snap = reg.snapshot();
        assert_eq!(snap.sent_in(Phase::Trace), 2);
        assert_eq!(snap.sent_in(Phase::Explore), 1);
        assert_eq!(snap.sent_unattributed(), 1);
        assert_eq!(snap.sent_total(), 4);
        assert_eq!(snap.sent_for(Cause::H2), 1);
        let trace = &snap.to_json()["phases"]["trace"];
        assert_eq!(trace["retries"], 1u64);
        assert_eq!(trace["outcomes"]["timeout"], 1u64);
        assert_eq!(trace["outcomes"]["direct_reply"], 1u64);
    }

    #[test]
    fn timeout_causes_accumulate_and_render() {
        let reg = Registry::new();
        reg.record(&ev(Some(Phase::Trace), None, 3, 1));
        let mut lost = ev(Some(Phase::Explore), None, 5, 0);
        lost.outcome = ProbeOutcome::Timeout;
        lost.timeout_cause = Some(TimeoutCause::ForwardLoss);
        reg.record(&lost);
        let snap = reg.snapshot();
        let table = snap.render_table();
        assert!(table.contains("timeout cause"), "{table}");
        assert!(table.contains("forward_loss"), "{table}");
        let v = snap.to_json();
        assert_eq!(v["timeout_causes"]["policy_silence"], 1u64);
        assert_eq!(v["timeout_causes"]["forward_loss"], 1u64);
        assert!(v["timeout_causes"]["link_down"].is_null(), "zero causes omitted");
    }

    #[test]
    fn ttl_buckets_cover_the_full_range() {
        for ttl in 0..=255u8 {
            let b = ttl_bucket(ttl);
            assert!(b < TTL_BUCKETS.len(), "ttl {ttl} got bucket {b}");
        }
        assert_eq!(ttl_bucket(1), 0);
        assert_eq!(ttl_bucket(2), 1);
        assert_eq!(ttl_bucket(63), 5);
        assert_eq!(ttl_bucket(64), 6);
        assert_eq!(ttl_bucket(255), 6);
    }

    #[test]
    fn snapshot_json_has_expected_shape() {
        let reg = Registry::new();
        reg.record(&ev(Some(Phase::Position), Some(Cause::DistanceSearch), 4, 0));
        reg.record_hop_cost(3);
        let v = reg.snapshot().to_json();
        assert_eq!(v["total_sent"], 1u64);
        assert_eq!(v["phases"]["position"]["sent"], 1u64);
        assert_eq!(v["phases"]["position"]["outcomes"]["direct_reply"], 1u64);
        assert_eq!(v["causes"]["distance_search"], 1u64);
        assert!(v["causes"]["h2"].is_null(), "zero causes omitted");
        assert_eq!(v["hop_cost_histogram"][1]["count"], 1u64);
    }

    #[test]
    fn cache_counters_accumulate_and_render() {
        let reg = Registry::new();
        reg.record_cache(CacheOutcome::Miss);
        reg.record_cache(CacheOutcome::Hit);
        reg.record_cache(CacheOutcome::Hit);
        reg.record_cache(CacheOutcome::Skip);
        let snap = reg.snapshot();
        assert_eq!(snap.cache_count(CacheOutcome::Hit), 2);
        assert_eq!(snap.cache_count(CacheOutcome::Skip), 1);
        assert_eq!(snap.cache_count(CacheOutcome::Miss), 1);
        // The batch summary prints the cache line; the table never
        // repeats it.
        let table = snap.render_table();
        assert!(!table.contains("subnet cache"), "{table}");
        let v = snap.to_json();
        assert_eq!(v["cache"]["hit"], 2u64);
        assert_eq!(v["cache"]["miss"], 1u64);
    }

    #[test]
    fn phase_tick_histogram_accumulates_and_renders() {
        let reg = Registry::new();
        reg.record_phase_ticks(Phase::Trace, 3);
        reg.record_phase_ticks(Phase::Explore, 100);
        reg.record_phase_ticks(Phase::Explore, 5000);
        let snap = reg.snapshot();
        assert_eq!(snap.phase_tick_count(Phase::Explore), 2);
        assert_eq!(snap.phase_tick_total(Phase::Explore), 5100);
        assert_eq!(snap.phase_tick_count(Phase::Trace), 1);
        assert_eq!(snap.phase_tick_total(Phase::Trace), 3);

        let v = snap.to_json();
        assert_eq!(v["phase_latency"]["explore"]["count"], 2u64);
        assert_eq!(v["phase_latency"]["explore"]["total_ticks"], 5100u64);
        // 100 lands in [64, 256); 5000 overflows into the "inf" bucket.
        assert_eq!(v["phase_latency"]["explore"]["buckets"][3]["count"], 1u64);
        assert_eq!(v["phase_latency"]["explore"]["buckets"][6]["le"], "inf");
        assert_eq!(v["phase_latency"]["explore"]["buckets"][6]["count"], 1u64);

        let table = snap.render_table();
        assert!(table.contains("phase latency"), "{table}");
        assert!(table.contains("2550.0"), "explore average rendered: {table}");
    }

    #[test]
    fn phase_latency_section_hidden_without_measurements() {
        let reg = Registry::new();
        reg.record(&ev(Some(Phase::Trace), None, 3, 0));
        let table = reg.snapshot().render_table();
        assert!(!table.contains("phase latency"), "{table}");
    }

    #[test]
    fn render_table_lists_phases_and_causes() {
        let reg = Registry::new();
        reg.record(&ev(Some(Phase::Explore), Some(Cause::H5), 6, 0));
        let table = reg.snapshot().render_table();
        assert!(table.contains("explore"), "{table}");
        assert!(table.contains("h5"), "{table}");
        assert!(table.contains("total"), "{table}");
        assert!(!table.contains("unattributed"), "empty slot hidden: {table}");
    }
}
