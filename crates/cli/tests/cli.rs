//! CLI integration tests: drive the commands exactly as a shell user
//! would (argv in, text out), against a temp-dir scenario file.

use std::path::PathBuf;

fn run(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    tracenet_cli::run(&argv)
}

/// Generates a small random scenario file in a fresh temp path.
fn scenario_file(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("tracenet-cli-test-{tag}-{}.json", std::process::id()));
    let out = run(&[
        "generate",
        "random",
        "--seed",
        "5",
        "--size",
        "4",
        "--out",
        path.to_str().expect("utf8 temp path"),
    ])
    .expect("generate succeeds");
    assert!(out.contains("wrote"));
    path
}

/// `generate isp --size K` builds the 4-ISP internet scaled by `K`; the
/// default is `K = 1`, the unscaled internet, byte for byte.
#[test]
fn generate_isp_size_scales_the_internet() {
    let unscaled = run(&["generate", "isp", "--seed", "3"]).unwrap();
    assert_eq!(run(&["generate", "isp", "--seed", "3", "--size", "1"]).unwrap(), unscaled);
    let scaled = run(&["generate", "isp", "--seed", "3", "--size", "2"]).unwrap();
    assert_eq!(run(&["generate", "isp", "--seed", "3", "--size", "2"]).unwrap(), scaled);
    let targets = |json: &str| {
        let v: serde_json::Value = serde_json::from_str(json).unwrap();
        v["targets"].as_array().unwrap().len()
    };
    assert!(targets(&scaled) > targets(&unscaled), "a doubled internet has more targets");
    for bad in ["0", "1001", "-1", "two"] {
        let err = run(&["generate", "isp", "--size", bad]).unwrap_err();
        assert!(err.contains("--size"), "{bad}: {err}");
    }
}

#[test]
fn help_and_unknown_commands() {
    assert!(run(&["help"]).unwrap().contains("USAGE"));
    assert!(run(&[]).is_err());
    let err = run(&["frobnicate"]).unwrap_err();
    assert!(err.contains("unknown command"));
}

/// `--help` or `-h` after any command prints the usage and exits 0,
/// wherever it stands among the command's arguments, and runs nothing.
#[test]
fn help_after_any_command_prints_the_usage() {
    let commands = [
        "generate",
        "info",
        "trace",
        "traceroute",
        "ping",
        "sweep",
        "batch",
        "record",
        "replay",
        "diff",
        "explain",
        "eval",
        "map",
        "crossval",
    ];
    for name in commands {
        for help in ["--help", "-h"] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_tracenet"))
                .args([name, help])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{name} {help}: {stderr}");
            assert_eq!(String::from_utf8_lossy(&out.stdout), tracenet_cli::USAGE, "{name} {help}");
        }
    }
    let out = std::env::temp_dir().join(format!("tracenet-cli-test-help-{}", std::process::id()));
    let out = out.to_str().unwrap();
    let usage = Ok(tracenet_cli::USAGE.to_string());
    assert_eq!(run(&["record", "/nonexistent.json", "--out", out, "--help"]), usage);
    assert_eq!(run(&["batch", "-h", "--jobs", "2", "/nonexistent.json"]), usage);
    assert!(!std::path::Path::new(out).exists(), "help ran nothing");
}

#[test]
fn generate_to_stdout_is_valid_scenario_json() {
    let json = run(&["generate", "internet2", "--seed", "3"]).unwrap();
    let scenario = topogen::io::from_json(&json).expect("valid scenario");
    assert_eq!(scenario.name, "internet2");
    assert_eq!(scenario.targets.len(), 179);
}

#[test]
fn info_summarizes_the_file() {
    let path = scenario_file("info");
    let out = run(&["info", path.to_str().unwrap()]).unwrap();
    assert!(out.contains("scenario: random-5-4"));
    assert!(out.contains("vantages:"));
    assert!(out.contains("vantage: "));
    std::fs::remove_file(path).ok();
}

#[test]
fn trace_single_target_prints_hops() {
    let path = scenario_file("trace");
    let json = std::fs::read_to_string(&path).unwrap();
    let scenario = topogen::io::from_json(&json).unwrap();
    let target = scenario.targets[0].to_string();
    let out = run(&["trace", path.to_str().unwrap(), "--target", &target]).unwrap();
    assert!(out.contains(&format!("tracenet to {target}")));
    assert!(out.contains("hops"));
    std::fs::remove_file(path).ok();
}

#[test]
fn trace_json_output_parses_and_reaches() {
    let path = scenario_file("trace-json");
    let json = std::fs::read_to_string(&path).unwrap();
    let scenario = topogen::io::from_json(&json).unwrap();
    let target = scenario.targets[0].to_string();
    let out = run(&["trace", path.to_str().unwrap(), "--target", &target, "--json"]).unwrap();
    let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
    assert_eq!(v[0]["destination"], target);
    assert_eq!(v[0]["reached"], true);
    assert!(!v[0]["hops"].as_array().unwrap().is_empty());
    std::fs::remove_file(path).ok();
}

#[test]
fn traceroute_ping_and_sweep_work() {
    let path = scenario_file("baselines");
    let json = std::fs::read_to_string(&path).unwrap();
    let scenario = topogen::io::from_json(&json).unwrap();
    let target = scenario.targets[0].to_string();
    let p = path.to_str().unwrap();

    let tr = run(&["traceroute", p, "--target", &target, "--paris"]).unwrap();
    assert!(tr.contains(&format!("traceroute to {target}")));

    let ping = run(&["ping", p, "--target", &target]).unwrap();
    assert!(ping.contains("3/3 replies"), "{ping}");

    // Sweep the /30 of a target that is not a /30 boundary address —
    // sweeps skip network/broadcast addresses by design, so a target
    // sitting on one would never appear no matter how alive it is.
    let sweep_target = scenario
        .targets
        .iter()
        .copied()
        .find(|&t| !inet::Prefix::containing(t, 30).is_boundary(t))
        .expect("scenario has a target off /30 boundaries");
    let prefix = format!("{}/30", inet::Prefix::containing(sweep_target, 30).network());
    let sweep = run(&["sweep", p, "--prefix", &prefix]).unwrap();
    assert!(sweep.contains("alive"));
    assert!(sweep.contains(&sweep_target.to_string()), "{sweep}");
    std::fs::remove_file(path).ok();
}

#[test]
fn help_documents_batch_flags() {
    let help = run(&["help"]).unwrap();
    assert!(help.contains("batch <scenario>"), "{help}");
    assert!(help.contains("--jobs"), "{help}");
    assert!(help.contains("--no-cache"), "{help}");
    assert!(help.contains("--fault-profile"), "{help}");
    assert!(help.contains("--backoff"), "{help}");
}

#[test]
fn trace_under_faults_reports_completeness() {
    let path = scenario_file("trace-faults");
    let json = std::fs::read_to_string(&path).unwrap();
    let scenario = topogen::io::from_json(&json).unwrap();
    let target = scenario.targets[0].to_string();
    let p = path.to_str().unwrap();

    // A zero plan (seed only) must not change the clean run's output.
    let clean = run(&["trace", p, "--target", &target]).unwrap();
    let zeroed = run(&["trace", p, "--target", &target, "--fault-seed", "9"]).unwrap();
    assert_eq!(clean, zeroed, "a zero fault plan changed the output");

    // Heavy loss with a budget and adaptive retries still completes and
    // flags the JSON report.
    let out = run(&[
        "trace",
        p,
        "--target",
        &target,
        "--json",
        "--fault-profile",
        "heavy-loss",
        "--fault-seed",
        "2010",
        "--fault-budget",
        "16",
        "--retries",
        "3",
        "--backoff",
        "adaptive",
    ])
    .unwrap();
    let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
    assert!(v[0]["completeness"].as_str().is_some());
    assert_eq!(v[0]["aborted"], false);
    assert!(v[0]["hops"][0]["completeness"].as_str().is_some());

    // Unknown profile and backoff names are rejected with the choices.
    let err = run(&["trace", p, "--target", &target, "--fault-profile", "nope"]).unwrap_err();
    assert!(err.contains("chaos"), "{err}");
    let err = run(&["trace", p, "--target", &target, "--backoff", "cubic"]).unwrap_err();
    assert!(err.contains("adaptive"), "{err}");
    std::fs::remove_file(path).ok();
}

#[test]
fn batch_under_faults_completes() {
    let path = scenario_file("batch-faults");
    let p = path.to_str().unwrap();
    let out = run(&[
        "batch",
        p,
        "--jobs",
        "2",
        "--fault-profile",
        "chaos",
        "--fault-seed",
        "424242",
        "--fault-budget",
        "24",
        "--backoff",
        "exp",
        "--retries",
        "2",
    ])
    .unwrap();
    assert!(out.contains("collected"), "{out}");
    std::fs::remove_file(path).ok();
}

#[test]
fn batch_collects_with_cache_and_workers() {
    let path = scenario_file("batch");
    let p = path.to_str().unwrap();
    let out = run(&["batch", p, "--jobs", "4"]).unwrap();
    assert!(out.contains("collected"), "{out}");
    assert!(out.contains("(4 jobs)"), "{out}");
    assert!(out.contains("subnet cache:"), "{out}");
    assert!(out.contains("hits"), "{out}");

    let off = run(&["batch", p, "--jobs", "1", "--no-cache"]).unwrap();
    assert!(off.contains("subnet cache: disabled"), "{off}");
    std::fs::remove_file(path).ok();
}

#[test]
fn batch_json_matches_eval_subnets() {
    let path = scenario_file("batch-json");
    let p = path.to_str().unwrap();
    let json = run(&["batch", p, "--jobs", "8", "--json"]).unwrap();
    let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let cached_subnets = v["subnets"].as_array().unwrap().len();
    assert!(cached_subnets > 0);
    assert!(v["cache"]["hits"].as_u64().is_some());

    // The cached parallel run reports the same subnet count as the
    // sequential no-cache run (the conformance property, end to end).
    let plain = run(&["batch", p, "--jobs", "1", "--no-cache", "--json"]).unwrap();
    let w: serde_json::Value = serde_json::from_str(&plain).expect("valid JSON");
    assert_eq!(w["subnets"].as_array().unwrap().len(), cached_subnets);
    assert!(w["probes"].as_u64().unwrap() >= v["probes"].as_u64().unwrap());
    std::fs::remove_file(path).ok();
}

#[test]
fn batch_explicit_targets_and_metrics() {
    let path = scenario_file("batch-targets");
    let p = path.to_str().unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    let scenario = topogen::io::from_json(&json).unwrap();
    let pair = format!("{},{}", scenario.targets[0], scenario.targets[0]);

    let mut metrics_path = std::env::temp_dir();
    metrics_path.push(format!("tracenet-batch-metrics-{}.json", std::process::id()));
    let m = metrics_path.to_str().unwrap();
    let out = run(&["batch", p, "--targets", &pair, "--jobs", "1", "--metrics", m]).unwrap();
    assert!(out.contains("over 2 sessions"), "{out}");
    // Tracing the same target twice must hit the cache.
    assert!(out.contains("subnet cache:"), "{out}");
    assert!(!out.contains(" 0 hits"), "{out}");
    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    assert!(metrics["total_sent"].as_u64().unwrap() > 0, "{metrics}");

    let err = run(&["batch", p, "--targets", "not-an-addr"]).unwrap_err();
    assert!(err.contains("invalid target address"), "{err}");
    std::fs::remove_file(path).ok();
    std::fs::remove_file(metrics_path).ok();
}

/// The batch summary names the subnet cache; the appended metrics table
/// must not repeat it from a second counter.
#[test]
fn batch_metrics_print_the_subnet_cache_once() {
    let path = scenario_file("batch-cache-once");
    let mut metrics_path = std::env::temp_dir();
    metrics_path.push(format!("tracenet-batch-cache-once-{}.json", std::process::id()));
    let out = run(&[
        "batch",
        path.to_str().unwrap(),
        "--jobs",
        "2",
        "--metrics",
        metrics_path.to_str().unwrap(),
    ])
    .unwrap();
    let lines = out.lines().filter(|l| l.contains("subnet cache:")).count();
    assert_eq!(lines, 1, "{out}");
    std::fs::remove_file(path).ok();
    std::fs::remove_file(metrics_path).ok();
}

#[test]
fn eval_scores_against_ground_truth() {
    let path = scenario_file("eval");
    let out = run(&["eval", path.to_str().unwrap()]).unwrap();
    assert!(out.contains("== random =="));
    assert!(out.contains("exact match:"));
    assert!(out.contains("collected"));
    std::fs::remove_file(path).ok();
}

#[test]
fn helpful_errors() {
    let err = run(&["trace", "/nonexistent.json", "--target", "1.2.3.4"]).unwrap_err();
    assert!(err.contains("/nonexistent.json"));

    let path = scenario_file("errors");
    let p = path.to_str().unwrap();
    let err = run(&["trace", p]).unwrap_err();
    assert!(err.contains("--target"), "{err}");
    let err = run(&["trace", p, "--target", "1.2.3.4", "--vantage", "nope"]).unwrap_err();
    assert!(err.contains("no vantage"), "{err}");
    let err = run(&["trace", p, "--target", "1.2.3.4", "--protocol", "gre"]).unwrap_err();
    assert!(err.contains("unknown protocol"), "{err}");
    std::fs::remove_file(path).ok();
}

/// A flag the command does not read is an error naming the command and
/// the flag, raised before anything runs or is written.
#[test]
fn commands_reject_flags_they_do_not_read() {
    let path = scenario_file("foreign-flags");
    let p = path.to_str().unwrap();
    let dir = std::env::temp_dir();
    let out = dir.join(format!("tracenet-cli-test-foreign-{}.jsonl", std::process::id()));
    let metrics = dir.join(format!("tracenet-cli-test-foreign-{}.json", std::process::id()));
    let (out_s, metrics_s) = (out.to_str().unwrap(), metrics.to_str().unwrap());
    let cases: &[(&[&str], &str)] = &[
        (&["batch", p, "--max-ttl", "3"], "batch: unrecognized flag --max-ttl"),
        (
            &["record", p, "--out", out_s, "--metrics", metrics_s],
            "record: unrecognized flag --metrics",
        ),
        (
            &["trace", p, "--all", "--jobs", "8", "--targets", "10.0.0.1"],
            "trace: unrecognized flag --jobs",
        ),
        (&["eval", p, "--fault-profile", "heavy-loss"], "eval: unrecognized flag --fault-profile"),
        (&["map", p, "--fault-seed", "7"], "map: unrecognized flag --fault-seed"),
        (&["crossval", p, "--fault-budget", "3"], "crossval: unrecognized flag --fault-budget"),
    ];
    for &(argv, message) in cases {
        assert_eq!(run(argv).unwrap_err(), message, "{argv:?}");
    }
    assert!(!out.exists() && !metrics.exists(), "a rejected record wrote a file");
    std::fs::remove_file(path).ok();
}

#[test]
fn map_emits_graphviz_dot() {
    let path = scenario_file("map");
    let out = run(&["map", path.to_str().unwrap()]).unwrap();
    assert!(out.starts_with("graph subnets {"));
    assert!(out.contains("--"), "has adjacencies");
    assert!(out.trim_end().ends_with('}'));
    std::fs::remove_file(path).ok();
}

#[test]
fn crossval_requires_three_vantages() {
    let path = scenario_file("crossval");
    // random scenarios have one vantage: a clear error.
    let err = run(&["crossval", path.to_str().unwrap()]).unwrap_err();
    assert!(err.contains("3 vantage points"), "{err}");
    std::fs::remove_file(path).ok();
}

#[test]
fn a_vantage_that_is_not_an_interface_is_a_load_error() {
    let mut path = std::env::temp_dir();
    path.push(format!("tracenet-cli-test-bogus-vantage-{}.json", std::process::id()));
    let json = run(&["generate", "internet2", "--seed", "3"]).unwrap();
    let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
    v["vantages"][0]["addr"] = serde_json::json!("203.0.113.99");
    std::fs::write(&path, v.to_string()).unwrap();
    let p = path.to_str().unwrap();

    let target = "10.32.0.1";
    for args in [
        vec!["trace", p, "--target", target],
        vec!["batch", p],
        vec!["eval", p],
        vec!["ping", p, "--target", target],
    ] {
        let err = run(&args).unwrap_err();
        assert!(err.contains("203.0.113.99") && err.contains("not an interface"), "{err}");
    }
    // The binary reports the load error and exits 2, not with a panic.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tracenet"))
        .args(["trace", p, "--target", target])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not an interface") && !stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(path).ok();
}

/// `trace --all` and `batch --jobs 1 --no-cache` run the same driver
/// with the same idents, so they send the same probes and collect the
/// same subnets.
#[test]
fn trace_all_agrees_with_a_single_job_uncached_batch() {
    let mut path = std::env::temp_dir();
    path.push(format!("tracenet-cli-test-trace-batch-{}.json", std::process::id()));
    let p = path.to_str().unwrap();
    run(&["generate", "random", "--size", "12", "--seed", "1", "--out", p]).unwrap();

    let trace: serde_json::Value =
        serde_json::from_str(&run(&["trace", p, "--all", "--json"]).unwrap()).unwrap();
    let batch: serde_json::Value =
        serde_json::from_str(&run(&["batch", p, "--jobs", "1", "--no-cache", "--json"]).unwrap())
            .unwrap();

    let reports = trace.as_array().unwrap();
    let trace_probes: u64 = reports.iter().map(|r| r["probes"].as_u64().unwrap()).sum();
    assert_eq!(trace_probes, batch["probes"].as_u64().unwrap());

    // Fold the trace reports the way a batch folds its collection:
    // subnets with at least two members, merged by prefix.
    type Subnets = std::collections::BTreeMap<String, std::collections::BTreeSet<String>>;
    let mut traced = Subnets::new();
    for hop in reports.iter().flat_map(|r| r["hops"].as_array().unwrap()) {
        let members = hop["subnet"]["members"].as_array().map(Vec::as_slice).unwrap_or(&[]);
        if members.len() >= 2 {
            let prefix = hop["subnet"]["prefix"].as_str().unwrap().to_string();
            let entry = traced.entry(prefix).or_default();
            entry.extend(members.iter().map(|m| m.as_str().unwrap().to_string()));
        }
    }
    let batched: Subnets = batch["subnets"]
        .as_array()
        .unwrap()
        .iter()
        .map(|s| {
            let members = s["members"].as_array().unwrap();
            let members = members.iter().map(|m| m.as_str().unwrap().to_string()).collect();
            (s["prefix"].as_str().unwrap().to_string(), members)
        })
        .collect();
    assert!(!batched.is_empty());
    assert_eq!(traced, batched);
    std::fs::remove_file(path).ok();
}
