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
//!   with what evidence. Its `Display` line is what `tnet explain` and
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
//! Everything here is dependency-light by design (inet, wire, and the
//! vendored serde_json shim) so any crate in the workspace can afford
//! to depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
pub use sink::{EventSink, SinkHandle, VecSink};
