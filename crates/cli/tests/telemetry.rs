//! Acceptance test for the observability flags: `--trace-log` must
//! stream one parseable ProbeEvent per wire probe, and `--metrics` must
//! write per-phase totals that agree exactly with the session's own
//! PhaseCost accounting (as exposed by `--json`).

use std::path::PathBuf;

fn run(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    tracenet_cli::run(&argv)
}

fn temp_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("tracenet-telemetry-{tag}-{}.json", std::process::id()));
    path
}

#[test]
fn trace_log_and_metrics_agree_with_the_session_accounting() {
    let scenario_path = temp_path("scenario");
    run(&[
        "generate",
        "random",
        "--seed",
        "5",
        "--size",
        "4",
        "--out",
        scenario_path.to_str().unwrap(),
    ])
    .expect("generate succeeds");
    let scenario =
        topogen::io::from_json(&std::fs::read_to_string(&scenario_path).unwrap()).unwrap();
    let target = scenario.targets[0].to_string();

    let log_path = temp_path("events");
    let metrics_path = temp_path("metrics");
    let out = run(&[
        "trace",
        scenario_path.to_str().unwrap(),
        "--target",
        &target,
        "--json",
        "--trace-log",
        log_path.to_str().unwrap(),
        "--metrics",
        metrics_path.to_str().unwrap(),
    ])
    .unwrap();

    // The session's own accounting, from the report JSON.
    let reports: serde_json::Value = serde_json::from_str(&out).unwrap();
    let report = &reports[0];
    assert_eq!(report["reached"], true);
    let cost = &report["cost"];
    let probes = report["probes"].as_u64().unwrap();
    assert!(probes > 0);
    assert_eq!(cost["total"].as_u64().unwrap(), probes);

    // Every JSONL line parses back as a ProbeEvent; one line per probe.
    let log = std::fs::read_to_string(&log_path).unwrap();
    let mut events = 0u64;
    for line in log.lines() {
        let ev = obs::ProbeEvent::read_line(line).expect("line is a ProbeEvent");
        assert!(ev.phase.is_some(), "probe without phase attribution: {line}");
        events += 1;
    }
    assert_eq!(events, probes, "one event per wire probe");

    // The metrics per-phase totals equal the PhaseCost totals exactly.
    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    assert_eq!(metrics["total_sent"].as_u64().unwrap(), probes);
    for phase in ["trace", "position", "explore"] {
        assert_eq!(
            metrics["phases"][phase]["sent"].as_u64(),
            cost[phase].as_u64(),
            "phase {phase} disagrees"
        );
    }

    std::fs::remove_file(scenario_path).ok();
    std::fs::remove_file(log_path).ok();
    std::fs::remove_file(metrics_path).ok();
}

#[test]
fn metrics_json_writes_one_machine_readable_object() {
    let scenario_path = temp_path("mj-scenario");
    run(&[
        "generate",
        "random",
        "--seed",
        "5",
        "--size",
        "4",
        "--out",
        scenario_path.to_str().unwrap(),
    ])
    .expect("generate succeeds");
    let scenario =
        topogen::io::from_json(&std::fs::read_to_string(&scenario_path).unwrap()).unwrap();
    let target = scenario.targets[0].to_string();

    let metrics_path = temp_path("mj-metrics");
    let out = run(&[
        "trace",
        scenario_path.to_str().unwrap(),
        "--target",
        &target,
        "--json",
        "--metrics-json",
        metrics_path.to_str().unwrap(),
    ])
    .unwrap();
    let reports: serde_json::Value = serde_json::from_str(&out).unwrap();
    let probes = reports[0]["probes"].as_u64().unwrap();

    // One compact JSON object whose totals agree with the session.
    let text = std::fs::read_to_string(&metrics_path).unwrap();
    assert_eq!(text.lines().count(), 1, "compact form is a single line");
    let metrics: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(metrics["total_sent"].as_u64().unwrap(), probes);
    assert!(!metrics["phase_latency"].is_null(), "wall-tick histograms present");

    // `batch` takes the flag too.
    let batch_metrics_path = temp_path("mj-batch-metrics");
    run(&[
        "batch",
        scenario_path.to_str().unwrap(),
        "--jobs",
        "2",
        "--metrics-json",
        batch_metrics_path.to_str().unwrap(),
    ])
    .unwrap();
    let batch_metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&batch_metrics_path).unwrap()).unwrap();
    assert!(batch_metrics["total_sent"].as_u64().unwrap() > 0);

    std::fs::remove_file(scenario_path).ok();
    std::fs::remove_file(metrics_path).ok();
    std::fs::remove_file(batch_metrics_path).ok();
}

#[test]
fn metrics_table_is_appended_to_human_output() {
    let scenario_path = temp_path("table-scenario");
    run(&[
        "generate",
        "random",
        "--seed",
        "5",
        "--size",
        "4",
        "--out",
        scenario_path.to_str().unwrap(),
    ])
    .expect("generate succeeds");
    let scenario =
        topogen::io::from_json(&std::fs::read_to_string(&scenario_path).unwrap()).unwrap();
    let target = scenario.targets[0].to_string();

    let metrics_path = temp_path("table-metrics");
    let out = run(&[
        "trace",
        scenario_path.to_str().unwrap(),
        "--target",
        &target,
        "--metrics",
        metrics_path.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("phase"), "{out}");
    assert!(out.contains("explore"), "{out}");

    std::fs::remove_file(scenario_path).ok();
    std::fs::remove_file(metrics_path).ok();
}
