//! `tnet-obs`: the observability layer for the tracenet workspace.
//!
//! The paper's whole evaluation (§4, Figures 7–9, Tables 2–3) is an
//! accounting exercise over probe traffic: how many probes each phase
//! spends and which heuristic triggered them. This crate makes that
//! accounting a first-class, always-available artifact instead of
//! something each experiment recomputes:
//!
//! - [`event::ProbeEvent`] — one record per packet put on the wire, with
//!   the originating step or heuristic and session (target index)
//!   attached; its phase follows from the former.
//! - [`decision::DecisionEvent`] — one record per algorithmic verdict of
//!   the collection pipeline: which heuristic fired, on which address,
//!   with what evidence. Its `Display` line is what `tracenet explain` and
//!   the CLI's `-v`/`-vv` print.
//! - [`exchange`] — the flight-recorder capture format: a versioned
//!   JSONL log interleaving probes, decisions, and per-session reports,
//!   read once as a stream by an [`exchange::ExchangeReader`] for
//!   deterministic replay, run diffing and explaining, or, held in
//!   memory, indexed by session in an [`exchange::ExchangeLog`], the
//!   seam the replay prober builds a session's script from. Probe and
//!   decision lines come from one writer per type,
//!   [`ProbeEvent::write_line`] and [`DecisionEvent::write_line`], whose
//!   fields the exchange writer renders straight into its one byte
//!   buffer; their bytes are identical to the vendored `serde_json`
//!   shim's rendering of the same fields as a `Value`. They are read
//!   back by [`ProbeEvent::read_line`] and [`DecisionEvent::read_line`],
//!   which build no `Value`.
//! - [`sink::EventSink`] — pluggable event consumers:
//!   [`exchange::ExchangeSink`] (the flight recorder, and what
//!   `--trace-log` writes) and [`sink::VecSink`] (tests); a pair of
//!   sinks feeds both.
//! - [`metrics::Registry`] — thread-safe monotonic counters and
//!   fixed-bucket histograms keyed by phase and heuristic, with
//!   human-table and JSON snapshots. It is a fold of probe events only,
//!   so a log's probe lines rebuild a run's metrics.
//! - [`ctx`] — the thread-local cause that the collection algorithms
//!   set and the probers' recorders read, so attribution needs no
//!   signature changes through the `Prober` seam. A probe's phase is
//!   its cause's ([`Cause::phase`]); a decision's is its cause's or, with
//!   none, its verdict's. No event stores a phase, and the readers refuse
//!   a line that logs another than the one derived.
//! - [`Recorder`] — the handle probers and sessions carry: sink +
//!   metrics + session tag bundled, free when disabled.
//!
//! Each vocabulary the log lines and the metrics print is declared once,
//! as one `labels!` table: the line keys and line types in `read`
//! (`Key`, `LineType`), the header's own keys in [`exchange`]
//! (`HeaderKey`), [`Phase`], [`Cause`], [`TimeoutCause`],
//! [`UnreachReason`] and the outcome kinds in [`event`], and
//! [`DecisionVerdict`] in [`decision`]. The protocol labels are
//! `wire::Protocol`'s. The writers print each key from the key table and
//! the readers name it in their errors from the same table.
//!
//! Everything here is dependency-light by design (inet, wire, and the
//! vendored serde_json shim) so any crate in the workspace can afford
//! to depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Declares a label set: a fieldless enum whose every variant carries the
/// snake_case label the log lines and the metrics print. One
/// `Variant = "label"` row per variant gives the enum, `ALL` in row
/// order, `label`, `from_label`, `Display` and the crate-private `index`
/// (the position in `ALL`), and `member`, the label as a line prints
/// it for a key (`,"label":`), which only `read::Key` uses.
macro_rules! labels {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$doc:meta])* $variant:ident = $label:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        $vis enum $name {
            $($(#[$doc])* $variant,)*
        }

        #[allow(dead_code)] // Not every set uses every item.
        impl $name {
            /// Every value, in declaration order.
            pub const ALL: [$name; [$($name::$variant),*].len()] = [$($name::$variant),*];

            /// Stable snake_case label used in JSON and metrics keys.
            pub const fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)*
                }
            }

            /// Parses a [`label`](Self::label) rendering.
            pub fn from_label(s: &str) -> Option<$name> {
                match s {
                    $($label => Some($name::$variant),)*
                    _ => None,
                }
            }

            /// The value's position in `ALL`.
            pub(crate) const fn index(self) -> usize {
                self as usize
            }

            /// The label as a line prints it for a key after another
            /// member: `,"label":`.
            pub(crate) const fn member(self) -> &'static str {
                match self {
                    $($name::$variant => concat!(",\"", $label, "\":"),)*
                }
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.label())
            }
        }
    };
}

pub mod ctx;
pub mod decision;
pub mod event;
pub mod exchange;
mod line;
pub mod metrics;
mod read;
pub mod recorder;
pub mod sink;

pub use ctx::cause_scope;
pub use decision::{DecisionEvent, DecisionVerdict};
pub use event::{Cause, Phase, ProbeEvent, ProbeOutcome, TimeoutCause, UnreachReason};
pub use exchange::{
    Entry, ExchangeHeader, ExchangeLog, ExchangeReader, ExchangeSink, ExchangeWriter,
    FORMAT_VERSION,
};
pub use metrics::{MetricsSnapshot, Registry};
pub use recorder::Recorder;
pub use sink::{EventBatch, EventSink, SinkHandle, VecSink};

#[cfg(test)]
mod tests {
    use wire::Protocol;

    use super::*;

    /// Every label and key name the exchange log and the metrics print,
    /// spelled out: moving a vocabulary must not change one of them.
    #[test]
    fn every_label_is_pinned() {
        assert_eq!(Phase::ALL.map(Phase::label), ["trace", "position", "explore"]);
        assert_eq!(
            Cause::ALL.map(Cause::label),
            [
                "trace_collection",
                "distance_search",
                "on_path_check",
                "pivot_designation",
                "in_use_check",
                "ingress_query",
                "h1",
                "h2",
                "h3",
                "h4",
                "h5",
                "h6",
                "h7",
                "h8",
                "h9",
            ]
        );
        assert_eq!(
            TimeoutCause::ALL.map(TimeoutCause::label),
            [
                "unknown_source",
                "no_route",
                "filtered",
                "unassigned",
                "policy_silence",
                "ttl_expired_silently",
                "rate_limited",
                "malformed",
                "forward_loss",
                "reply_loss",
                "link_down",
                "stray_reply",
            ]
        );
        assert_eq!(
            UnreachReason::ALL.map(UnreachReason::label),
            ["host", "net", "admin_prohibited"]
        );
        assert_eq!(
            DecisionVerdict::ALL.map(DecisionVerdict::label),
            [
                "accepted",
                "accepted_contra_pivot",
                "rejected",
                "stopped_and_shrunk",
                "on_path",
                "off_path",
                "cache_hit",
                "cache_skip",
                "repeated",
                "underutilized",
                "boundary_reduced",
                "collected",
                "degraded",
                "abandoned",
            ]
        );
        assert_eq!(
            event::OutcomeKind::ALL.map(event::OutcomeKind::label),
            ["direct_reply", "ttl_exceeded", "unreachable", "timeout"]
        );
        let protocols = [Protocol::Icmp, Protocol::Udp, Protocol::Tcp];
        assert_eq!(protocols.map(Protocol::label), ["icmp", "udp", "tcp"]);
        for p in protocols {
            assert_eq!(Protocol::from_label(p.label()), Some(p));
        }
        assert_eq!(
            read::Key::ALL.map(read::Key::label),
            [
                "tick",
                "session",
                "vantage",
                "dst",
                "ttl",
                "proto",
                "flow",
                "attempt",
                "outcome",
                "from",
                "phase",
                "cause",
                "timeout_cause",
                "unreach",
                "type",
                "hop",
                "subject",
                "verdict",
                "evidence",
                "report",
            ]
        );
        assert_eq!(
            exchange::HeaderKey::ALL.map(exchange::HeaderKey::label),
            ["format", "version", "targets", "jobs", "options"]
        );
    }
}
