//! Output checks every collection must pass, and the accuracy figures
//! computed from its output.

use evalkit::{CollectedSet, SubnetTable};
use inet::{Addr, Prefix};
use topogen::GroundTruth;
use tracenet::TraceReport;

/// Sessions that failed: a target without a report, an aborted
/// session, or a report for some other destination. Returns the failure
/// count and one line per failure.
pub fn failed_sessions(reports: &[TraceReport], targets: &[Addr]) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut problems = Vec::new();
    if reports.len() != targets.len() {
        let missing = targets.len().saturating_sub(reports.len());
        failed += missing as u64;
        problems.push(format!("{} reports for {} targets", reports.len(), targets.len()));
    }
    for (k, (report, &target)) in reports.iter().zip(targets).enumerate() {
        if report.aborted || report.destination != target {
            failed += 1;
            problems.push(format!(
                "session {k} ({target}): aborted={} destination={}",
                report.aborted, report.destination
            ));
        }
    }
    (failed, problems)
}

/// Collected prefixes that overlap no ground-truth subnet at all: a
/// subnet the collector (or its cache) invented.
pub fn invented_prefixes(collected: &CollectedSet, truth: &GroundTruth) -> Vec<Prefix> {
    collected
        .prefixes()
        .into_iter()
        .filter(|&p| !truth.subnets.iter().any(|gt| gt.prefix.covers(p) || p.covers(gt.prefix)))
        .collect()
}

/// The exact-match rate against ground truth, excluding unresponsive
/// subnets (`SubnetTable::exact_rate_responsive`), in percent.
pub fn exact_match_pct(collected: &CollectedSet, truth: &GroundTruth) -> f64 {
    let evaluated: Vec<_> = truth.evaluated().collect();
    let table = SubnetTable::build(&evalkit::classify(&evaluated, &collected.records()));
    table.exact_rate_responsive() * 100.0
}

/// Probe lines in an exchange log: every line a `ProbeEvent` renders
/// starts with its `tick` key; header, decision and report lines start
/// with `type`.
pub fn probe_lines(log: &[u8]) -> u64 {
    log.split(|&b| b == b'\n').filter(|l| l.starts_with(b"{\"tick\":")).count() as u64
}
