//! Acceptance test for the observability flags: `--trace-log` must
//! write an exchange log with one probe line per wire probe, which
//! replays and explains like a recorded one, and `--metrics` must
//! write per-phase totals that agree exactly with the session's own
//! PhaseCost accounting (as exposed by `--json`).

use std::path::{Path, PathBuf};

fn run(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    tracenet_cli::run(&argv)
}

/// Every entry of an exchange log after its header, read as a stream.
fn entries(path: &Path) -> (obs::ExchangeHeader, Vec<obs::Entry>) {
    let file = std::fs::File::open(path).expect("the log was written");
    let mut log = obs::ExchangeReader::new(std::io::BufReader::new(file))
        .expect("the log is an exchange log");
    let entries = log.by_ref().map(|entry| entry.expect("every line reads").1).collect();
    (log.header, entries)
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

    // The log is an exchange log: one probe line per wire probe, every
    // probe attributed to the session and a phase.
    let (_, entries) = entries(&log_path);
    let mut events = 0u64;
    for entry in &entries {
        if let obs::Entry::Probe(ev) = entry {
            assert_eq!(ev.session, Some(0), "probe of another session: {ev:?}");
            assert!(ev.phase().is_some(), "probe without phase attribution: {ev:?}");
            events += 1;
        }
    }
    assert_eq!(events, probes, "one event per wire probe");

    // It replays byte-identically, and `explain` reads it.
    let path = log_path.to_str().unwrap();
    let replayed = run(&["replay", path]).expect("the trace log replays");
    assert!(replayed.contains("byte-identical"), "{replayed}");
    let prefix = entries
        .iter()
        .filter_map(|entry| match entry {
            obs::Entry::Report { report, .. } => Some(report.to_tree()),
            _ => None,
        })
        .flat_map(|r| r["hops"].as_array().cloned().unwrap_or_default())
        .find_map(|h| h["subnet"]["prefix"].as_str().map(str::to_string))
        .expect("the session collected a subnet");
    let explained = run(&["explain", path, &prefix]).expect("explain reads the trace log");
    assert!(explained.contains("collected"), "{explained}");

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

/// The registry is a fold of probe events and nothing else: folding the
/// probe lines of a run's trace log, session by session, rebuilds the
/// run's `--metrics-json` file byte for byte, its `--metrics` file, and
/// the table `--metrics` appends to stdout. Checked for a sequential
/// `trace --all` and for two-worker batches with the cache off and on.
#[test]
fn folding_a_trace_logs_probe_lines_rebuilds_the_metrics() {
    let scenario_path = temp_path("fold-scenario");
    let scenario = scenario_path.to_str().unwrap();
    run(&["generate", "internet2", "--seed", "2010", "--out", scenario]).unwrap();
    let (log_path, json_path, pretty_path) =
        (temp_path("fold-log"), temp_path("fold-json"), temp_path("fold-pretty"));
    let observed = [
        "--trace-log",
        log_path.to_str().unwrap(),
        "--metrics-json",
        json_path.to_str().unwrap(),
        "--metrics",
        pretty_path.to_str().unwrap(),
    ];

    let plain_trace = run(&["trace", scenario, "--all"]).unwrap();
    let runs: [&[&str]; 3] = [
        &["trace", scenario, "--all"],
        &["batch", scenario, "--no-cache", "--jobs", "2"],
        &["batch", scenario, "--jobs", "2"],
    ];
    for args in runs {
        let out = run(&[args, &observed[..]].concat()).unwrap();

        let (header, entries) = entries(&log_path);
        let folded = obs::Registry::new();
        for entry in &entries {
            if let obs::Entry::Probe(ev) = entry {
                let k = ev.session.expect("every probe line carries its session");
                assert!(k < header.targets.len() as u64, "{args:?}: session {k}");
                folded.record(ev);
            }
        }
        let snap = folded.snapshot();

        let json = std::fs::read_to_string(&json_path).unwrap();
        assert_eq!(snap.to_json().to_string() + "\n", json, "{args:?}: --metrics-json");
        let pretty = std::fs::read_to_string(&pretty_path).unwrap();
        assert_eq!(
            serde_json::to_string_pretty(&snap.to_json()).unwrap() + "\n",
            pretty,
            "{args:?}: --metrics"
        );
        let table = snap.render_table();
        if args[0] == "trace" {
            assert_eq!(out, format!("{plain_trace}{table}"), "the appended table");
        } else {
            assert!(out.ends_with(&table), "{args:?}: the appended table\n{out}");
        }
    }

    for path in [scenario_path, log_path, json_path, pretty_path] {
        std::fs::remove_file(path).ok();
    }
}

/// The per-phase and per-cause counts of two internet2 batches are
/// pinned byte for byte: one with the subnet cache on, one with it off
/// under heavy loss and a fault budget of 3. The golden exchange log
/// (cache off, no faults) covers neither.
#[test]
fn batch_metrics_json_matches_the_golden_files() {
    let scenario_path = temp_path("golden-metrics-scenario");
    let scenario = scenario_path.to_str().unwrap();
    run(&["generate", "internet2", "--seed", "2010", "--out", scenario]).unwrap();
    let json_path = temp_path("golden-metrics");
    let json = json_path.to_str().unwrap();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let runs: [(&str, &[&str]); 2] = [
        ("metrics-internet2-seed2010.json", &[]),
        (
            "metrics-internet2-seed2010-heavy-loss.json",
            &["--no-cache", "--fault-profile", "heavy-loss", "--fault-budget", "3"],
        ),
    ];
    for (file, flags) in runs {
        let args =
            [&["batch", scenario, "--jobs", "1", "--metrics-json", json][..], flags].concat();
        run(&args).unwrap();
        let want = std::fs::read(golden.join(file)).expect("the golden metrics are checked in");
        assert!(std::fs::read(&json_path).unwrap() == want, "{args:?} differs from {file}");
    }
    std::fs::remove_file(scenario_path).ok();
    std::fs::remove_file(json_path).ok();
}

/// Runs the `tracenet` binary; returns stdout and stderr.
fn tracenet(args: &[&str]) -> (String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tracenet"))
        .args(args)
        .output()
        .expect("the tracenet binary runs");
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    (String::from_utf8(out.stdout).unwrap(), String::from_utf8(out.stderr).unwrap())
}

#[test]
fn verbose_output_is_the_decision_stream_and_changes_no_answer() {
    let scenario_path = temp_path("verbose-scenario");
    let scenario = scenario_path.to_str().unwrap();
    run(&["generate", "internet2", "--seed", "2010", "--out", scenario]).unwrap();
    let log_path = temp_path("verbose-log");
    let log = log_path.to_str().unwrap();

    let (plain, quiet) = tracenet(&["trace", scenario, "--all"]);
    assert_eq!(quiet, "");
    let (vv_out, vv_err) = tracenet(&["trace", scenario, "--all", "-vv", "--trace-log", log]);
    let (v_out, v_err) = tracenet(&["trace", scenario, "--all", "-v"]);
    assert!(vv_out == plain, "-vv changed stdout");
    assert!(v_out == plain, "-v changed stdout");

    // `-vv` prints every decision of the log, in log order: session and
    // hop, then the decision indented by phase.
    let decisions: Vec<obs::DecisionEvent> = std::fs::read_to_string(&log_path)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with(r#"{"type":"decision""#))
        .map(|l| obs::DecisionEvent::read_line(l).unwrap())
        .collect();
    assert!(!decisions.is_empty());
    let rendered: Vec<String> = decisions
        .iter()
        .map(|d| {
            let indent = match d.phase() {
                Some(obs::Phase::Position) => "  ",
                Some(obs::Phase::Explore) => "    ",
                _ => "",
            };
            format!("session {} hop {}: {indent}{d}", d.session.unwrap(), d.hop)
        })
        .collect();
    let vv_lines: Vec<&str> = vv_err.lines().collect();
    assert_eq!(vv_lines, rendered);

    // `-v` is `-vv` without exploration's per-candidate verdicts.
    let per_candidate = |d: &obs::DecisionEvent| {
        use obs::DecisionVerdict::{Accepted, AcceptedContraPivot, Rejected};
        d.phase() == Some(obs::Phase::Explore)
            && matches!(d.verdict, Accepted | AcceptedContraPivot | Rejected)
    };
    let want: Vec<&str> = vv_lines
        .iter()
        .zip(&decisions)
        .filter(|(_, d)| !per_candidate(d))
        .map(|(line, _)| *line)
        .collect();
    assert!(want.len() < vv_lines.len(), "the run has per-candidate verdicts");
    assert_eq!(v_err.lines().collect::<Vec<_>>(), want);

    std::fs::remove_file(scenario_path).ok();
    std::fs::remove_file(log_path).ok();
}
