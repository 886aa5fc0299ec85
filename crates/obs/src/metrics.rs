//! A dependency-free metrics registry: monotonic counters and
//! fixed-bucket histograms keyed by phase and cause.
//!
//! The registry is a pure fold of [`ProbeEvent`]s: [`Registry::record`]
//! is its only input, so folding the probe lines of an exchange log (the
//! [`Entry::Probe`](crate::exchange::Entry::Probe)s an
//! [`ExchangeReader`](crate::exchange::ExchangeReader) yields) rebuilds
//! the snapshot of the run that wrote the log.
//!
//! Everything is a plain atomic so recording is lock-free and safe to
//! share across probing threads behind one `Arc<Registry>`. A
//! [`Registry::snapshot`] freezes the counters into a
//! [`MetricsSnapshot`] that renders as a human table (the shape of the
//! paper's Table 2) or as JSON.

use std::sync::atomic::{AtomicU64, Ordering};

use serde_json::{json, Value};

use crate::event::{Cause, OutcomeKind, Phase, ProbeEvent, TimeoutCause};

/// Number of phase slots: the three pipeline phases plus one for
/// probes sent outside any cause scope.
const PHASES: usize = Phase::ALL.len() + 1;
const UNATTRIBUTED: usize = Phase::ALL.len();
const CAUSES: usize = Cause::ALL.len();
const OUTCOMES: usize = OutcomeKind::ALL.len();
const TIMEOUT_CAUSES: usize = TimeoutCause::ALL.len();

/// TTL histogram buckets: `[1, 2), [2, 4), [4, 8), [8, 16), [16, 32),
/// [32, 64), [64, 256]`. Upper bounds, inclusive-exclusive except the
/// last.
pub const TTL_BUCKETS: [u8; 7] = [2, 4, 8, 16, 32, 64, 255];

fn ttl_bucket(ttl: u8) -> usize {
    TTL_BUCKETS.iter().position(|&hi| ttl < hi).unwrap_or(TTL_BUCKETS.len() - 1)
}

fn phase_slot(phase: Option<Phase>) -> usize {
    phase.map(Phase::index).unwrap_or(UNATTRIBUTED)
}

fn slot_label(slot: usize) -> &'static str {
    Phase::ALL.get(slot).map(|p| p.label()).unwrap_or("unattributed")
}

/// Each label of a set with its count, zero counts left out: `counts` is
/// indexed like `all`.
fn nonzero<T, const N: usize>(
    all: [T; N],
    label: fn(T) -> &'static str,
    counts: &[u64; N],
) -> Vec<(&'static str, u64)> {
    all.into_iter().zip(counts).filter(|(_, &n)| n > 0).map(|(t, &n)| (label(t), n)).collect()
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
    /// Timed-out attempts by attributed silence cause.
    timeout_causes: [AtomicU64; TIMEOUT_CAUSES],
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Records one wire attempt. Called by [`crate::Recorder::record`];
    /// exposed for tools that replay a JSONL log into fresh metrics.
    pub fn record(&self, event: &ProbeEvent) {
        let slot = phase_slot(event.phase());
        self.sent[slot].fetch_add(1, Ordering::Relaxed);
        if event.attempt > 0 {
            self.retries[slot].fetch_add(1, Ordering::Relaxed);
        }
        self.outcomes[slot][event.outcome.kind().index()].fetch_add(1, Ordering::Relaxed);
        if let Some(cause) = event.cause {
            self.by_cause[cause.index()].fetch_add(1, Ordering::Relaxed);
        }
        if let Some(cause) = event.timeout_cause {
            self.timeout_causes[cause.index()].fetch_add(1, Ordering::Relaxed);
        }
        self.ttl_hist[ttl_bucket(event.ttl)].fetch_add(1, Ordering::Relaxed);
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
            timeout_causes: std::array::from_fn(|i| load(&self.timeout_causes[i])),
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
    timeout_causes: [u64; TIMEOUT_CAUSES],
}

impl MetricsSnapshot {
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
        let sections = [
            ("cause", "probes", 18, nonzero(Cause::ALL, Cause::label, &self.by_cause)),
            (
                "timeout cause",
                "count",
                22,
                nonzero(TimeoutCause::ALL, TimeoutCause::label, &self.timeout_causes),
            ),
        ];
        for (title, unit, width, counts) in sections {
            if !counts.is_empty() {
                let _ = writeln!(out, "\n{title:<width$} {unit:>8}");
                for (label, n) in counts {
                    let _ = writeln!(out, "{label:<width$} {n:>8}");
                }
            }
        }
        out
    }

    /// Serializes the snapshot as a JSON object.
    ///
    /// Shape: `phases` maps phase label (plus `"unattributed"`) to
    /// `{sent, retries, outcomes: {...}}`; `causes` maps cause labels
    /// to send counts (zero counts omitted); `total_sent` is the grand
    /// total; `ttl_histogram` lists `{le, count}` buckets;
    /// `timeout_causes` maps silence causes to timed-out attempts (zero
    /// counts omitted).
    pub fn to_json(&self) -> Value {
        let mut phases = Vec::new();
        for slot in 0..PHASES {
            let o = &self.outcomes[slot];
            let outcomes = Value::Object(
                OutcomeKind::ALL
                    .into_iter()
                    .zip(o)
                    .map(|(kind, n)| (kind.label().to_string(), json!(*n)))
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
        let object = |counts: Vec<(&str, u64)>| {
            Value::Object(
                counts.into_iter().map(|(label, n)| (label.to_string(), json!(n))).collect(),
            )
        };
        let causes = object(nonzero(Cause::ALL, Cause::label, &self.by_cause));
        let timeout_causes =
            object(nonzero(TimeoutCause::ALL, TimeoutCause::label, &self.timeout_causes));
        let ttl_hist = Value::Array(
            TTL_BUCKETS
                .iter()
                .zip(self.ttl_hist.iter())
                .map(|(&le, &count)| json!({ "le": le, "count": count }))
                .collect(),
        );
        json!({
            "total_sent": self.sent_total(),
            "phases": Value::Object(phases),
            "causes": causes,
            "ttl_histogram": ttl_hist,
            "timeout_causes": timeout_causes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProbeOutcome;
    use wire::Protocol;

    fn ev(cause: Option<Cause>, ttl: u8, attempt: u8) -> ProbeEvent {
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
            cause,
            timeout_cause: if attempt > 0 { Some(TimeoutCause::PolicySilence) } else { None },
        }
    }

    #[test]
    fn counters_accumulate_by_phase_and_cause() {
        let reg = Registry::new();
        reg.record(&ev(Some(Cause::TraceCollection), 3, 0));
        reg.record(&ev(Some(Cause::TraceCollection), 3, 1));
        reg.record(&ev(Some(Cause::H2), 5, 0));
        reg.record(&ev(None, 9, 0));

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
        reg.record(&ev(Some(Cause::TraceCollection), 3, 1));
        let mut lost = ev(Some(Cause::H2), 5, 0);
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
        reg.record(&ev(Some(Cause::DistanceSearch), 4, 0));
        let v = reg.snapshot().to_json();
        assert_eq!(v["total_sent"], 1u64);
        assert_eq!(v["phases"]["position"]["sent"], 1u64);
        assert_eq!(v["phases"]["position"]["outcomes"]["direct_reply"], 1u64);
        assert_eq!(v["causes"]["distance_search"], 1u64);
        assert!(v["causes"]["h2"].is_null(), "zero causes omitted");
    }

    #[test]
    fn render_table_lists_phases_and_causes() {
        let reg = Registry::new();
        reg.record(&ev(Some(Cause::H5), 6, 0));
        let table = reg.snapshot().render_table();
        assert!(table.contains("explore"), "{table}");
        assert!(table.contains("h5"), "{table}");
        assert!(table.contains("total"), "{table}");
        assert!(!table.contains("unattributed"), "empty slot hidden: {table}");
    }
}
