//! End-to-end observability: run full sessions over simulated topologies
//! with a recorder installed and check that the event stream and metrics
//! agree exactly with the session's own probe accounting.

use std::sync::Arc;

use netsim::samples;
use obs::{Phase, Recorder, Registry, SinkHandle, VecSink};
use probe::{Protocol, SharedNetwork};
use tracenet::{Session, TracenetOptions};

fn recorded_session(
    sample: (netsim::Topology, samples::Names),
    vantage: &str,
    dest: &str,
) -> (tracenet::TraceReport, Vec<obs::ProbeEvent>, Arc<Registry>) {
    let (topo, names) = sample;
    let net = SharedNetwork::new(topo);
    let sink = VecSink::new();
    let reader = sink.clone();
    let metrics = Arc::new(Registry::new());
    let recorder =
        Recorder::new().with_sink(SinkHandle::new(sink)).with_metrics(Arc::clone(&metrics));
    let mut prober = net.prober(names.addr(vantage), Protocol::Icmp).recorder(recorder.clone());
    let report = Session::new(&mut prober, TracenetOptions::default())
        .with_recorder(recorder)
        .run(names.addr(dest));
    (report, reader.events(), metrics)
}

#[test]
fn every_figure2_probe_carries_phase_and_cause() {
    let (report, events, _) = recorded_session(samples::figure2(), "A", "D");
    assert!(report.destination_reached);
    assert!(!events.is_empty());
    for ev in &events {
        assert!(ev.phase().is_some(), "unattributed phase on probe to {} ttl {}", ev.dst, ev.ttl);
        assert!(ev.cause.is_some(), "unattributed cause on probe to {} ttl {}", ev.dst, ev.ttl);
    }
    assert_eq!(events.len() as u64, report.total_probes, "one event per wire probe");
}

#[test]
fn metrics_phase_totals_match_the_reports_phase_costs_exactly() {
    let (report, _, metrics) = recorded_session(samples::figure3(), "vantage", "dest");
    assert!(report.destination_reached);
    let totals = report.phase_totals();
    let snap = metrics.snapshot();
    assert_eq!(snap.sent_in(Phase::Trace), totals.trace);
    assert_eq!(snap.sent_in(Phase::Position), totals.position);
    assert_eq!(snap.sent_in(Phase::Explore), totals.explore);
    assert_eq!(snap.sent_unattributed(), 0);
    assert_eq!(snap.sent_total(), report.total_probes);
}

#[test]
fn heuristic_causes_show_up_in_a_multiaccess_exploration() {
    // figure3's /29 exercises the growth heuristics; at least the
    // aliveness gate (H2) and the merged below-probe (H3) must appear.
    let (_, events, metrics) = recorded_session(samples::figure3(), "vantage", "dest");
    let snap = metrics.snapshot();
    assert!(snap.sent_for(obs::Cause::TraceCollection) > 0);
    assert!(snap.sent_for(obs::Cause::DistanceSearch) > 0);
    assert!(snap.sent_for(obs::Cause::H2) > 0, "{}", snap.render_table());
    assert!(snap.sent_for(obs::Cause::H3) > 0, "{}", snap.render_table());
    // Events in the explore phase are exactly the heuristic-caused ones.
    let explore_events = events.iter().filter(|e| e.phase() == Some(Phase::Explore)).count() as u64;
    assert_eq!(explore_events, snap.sent_in(Phase::Explore));
}

#[test]
fn jsonl_roundtrip_of_a_whole_session_log() {
    let (_, events, _) = recorded_session(samples::chain(3), "vantage", "dest");
    for ev in &events {
        let mut line = String::new();
        ev.write_line(&mut line);
        let parsed = obs::ProbeEvent::read_line(&line).expect("every logged event parses back");
        assert_eq!(&parsed, ev);
    }
}
