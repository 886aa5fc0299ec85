//! Flight-recorder acceptance: `record` → `replay` must reproduce
//! byte-identical reports across seeds and worker counts, `diff` must
//! flag fault-injected divergence with a readable report, `explain`
//! must print the inference tree of a collected subnet, and the
//! checked-in golden log must keep replaying bit-for-bit.

use std::path::{Path, PathBuf};

fn run(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    tracenet_cli::run(&argv)
}

/// Every entry of an exchange log after its header, with its line
/// number, read as a stream.
fn entries(path: &Path) -> (obs::ExchangeHeader, Vec<(usize, obs::Entry)>) {
    let file = std::fs::File::open(path).expect("the log was written");
    let mut log = obs::ExchangeReader::new(std::io::BufReader::new(file)).expect("log reads");
    let entries = log.by_ref().collect::<Result<_, _>>().expect("every line reads");
    (log.header, entries)
}

fn temp_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("tracenet-replay-{tag}-{}.jsonl", std::process::id()));
    path
}

/// Generates internet2 under `seed`, records every scenario target
/// with `jobs` workers, and returns the scenario and log paths.
fn record_internet2(seed: &str, jobs: &str, tag: &str) -> (PathBuf, PathBuf) {
    let scenario = temp_path(&format!("scenario-{tag}"));
    run(&["generate", "internet2", "--seed", seed, "--out", scenario.to_str().unwrap()])
        .expect("generate succeeds");
    let log = temp_path(&format!("log-{tag}"));
    let out = run(&[
        "record",
        scenario.to_str().unwrap(),
        "--out",
        log.to_str().unwrap(),
        "--jobs",
        jobs,
    ])
    .expect("record succeeds");
    assert!(out.contains("recorded"), "{out}");
    (scenario, log)
}

fn assert_replays_byte_identically(seed: &str, jobs: &str, tag: &str) {
    let (scenario, log) = record_internet2(seed, jobs, tag);
    let out = run(&["replay", log.to_str().unwrap()]).expect("replay succeeds");
    assert!(out.contains("byte-identical"), "{out}");
    std::fs::remove_file(scenario).ok();
    std::fs::remove_file(log).ok();
}

#[test]
fn internet2_seed_1_replays_byte_identically_sequential() {
    assert_replays_byte_identically("1", "1", "s1-j1");
}

#[test]
fn internet2_seed_1_replays_byte_identically_concurrent() {
    assert_replays_byte_identically("1", "8", "s1-j8");
}

#[test]
fn internet2_seed_2010_replays_byte_identically_sequential() {
    assert_replays_byte_identically("2010", "1", "s2010-j1");
}

#[test]
fn internet2_seed_2010_replays_byte_identically_concurrent() {
    assert_replays_byte_identically("2010", "8", "s2010-j8");
}

#[test]
fn internet2_seed_424242_replays_byte_identically_sequential() {
    assert_replays_byte_identically("424242", "1", "s424242-j1");
}

#[test]
fn internet2_seed_424242_replays_byte_identically_concurrent() {
    assert_replays_byte_identically("424242", "8", "s424242-j8");
}

#[test]
fn identical_recordings_diff_as_equivalent() {
    let (scenario, a) = record_internet2("2010", "8", "diff-a");
    let log_b = temp_path("diff-b");
    run(&["record", scenario.to_str().unwrap(), "--out", log_b.to_str().unwrap(), "--jobs", "1"])
        .expect("record succeeds");
    // Worker count must not affect what was collected.
    let out = run(&["diff", a.to_str().unwrap(), log_b.to_str().unwrap()])
        .expect("identical runs are equivalent");
    assert!(out.contains("equivalent"), "{out}");
    std::fs::remove_file(scenario).ok();
    std::fs::remove_file(a).ok();
    std::fs::remove_file(log_b).ok();
}

/// `diff` of a clean and a fault-injected recording prints exactly the
/// checked-in text, every per-hop line included. The logs' paths are
/// part of the text, so they are put back as `clean.jsonl` and
/// `faulty.jsonl`, the names the checked-in text was made with.
#[test]
fn fault_injection_diffs_as_divergence() {
    let (scenario, clean) = record_internet2("2010", "1", "fault-clean");
    let faulty = temp_path("fault-faulty");
    run(&[
        "record",
        scenario.to_str().unwrap(),
        "--out",
        faulty.to_str().unwrap(),
        "--jobs",
        "1",
        "--fault-profile",
        "heavy-loss",
        "--fault-seed",
        "7",
        "--fault-budget",
        "3",
    ])
    .expect("faulty record succeeds");
    // The CLI maps Err to exit code 2, so an Err here IS the nonzero exit.
    let report = run(&["diff", clean.to_str().unwrap(), faulty.to_str().unwrap()])
        .expect_err("fault-injected log must diverge");
    let report = report
        .replace(clean.to_str().unwrap(), "clean.jsonl")
        .replace(faulty.to_str().unwrap(), "faulty.jsonl");
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/diff-internet2-seed2010-heavy-loss.txt");
    let want = std::fs::read_to_string(&golden).unwrap();
    // The binary prints the error with a newline after it.
    let report = report + "\n";
    let first = report.lines().zip(want.lines()).position(|(got, want)| got != want);
    assert!(report == want, "diff differs from {} (lines differ from {first:?})", golden.display());

    // The faulty log still replays against itself: divergence is
    // between runs, not a replay failure.
    let out = run(&["replay", faulty.to_str().unwrap()]).expect("faulty log replays");
    assert!(out.contains("byte-identical"), "{out}");
    std::fs::remove_file(scenario).ok();
    std::fs::remove_file(clean).ok();
    std::fs::remove_file(faulty).ok();
}

#[test]
fn explain_prints_the_inference_tree_of_a_collected_subnet() {
    let (scenario, log) = record_internet2("2010", "1", "explain");
    // Pull a collected subnet out of the log's own report lines.
    let prefix = entries(&log)
        .1
        .into_iter()
        .filter_map(|(_, entry)| match entry {
            obs::Entry::Report { report, .. } => Some(report.to_tree()),
            _ => None,
        })
        .flat_map(|r| r["hops"].as_array().cloned().unwrap_or_default())
        .find_map(|h| h["subnet"]["prefix"].as_str().map(str::to_string))
        .expect("at least one subnet was collected");

    let out = run(&["explain", log.to_str().unwrap(), &prefix]).expect("explain succeeds");
    assert!(out.contains(&prefix), "{out}");
    assert!(out.contains("collected"), "{out}");
    assert!(out.contains("pivot_designation"), "{out}");

    let err = run(&["explain", log.to_str().unwrap(), "192.0.2.0/29"])
        .expect_err("unknown subnet is an error");
    assert!(err.contains("no recorded decisions"), "{err}");
    assert!(err.contains("collected subnets"), "{err}");
    std::fs::remove_file(scenario).ok();
    std::fs::remove_file(log).ok();
}

#[test]
fn golden_log_replays_and_matches_a_fresh_recording() {
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/internet2-seed2010.jsonl");
    let out = run(&["replay", golden.to_str().unwrap()]).expect("golden log replays");
    assert!(out.contains("byte-identical"), "{out}");

    // Re-recording the same configuration today still matches the
    // checked-in recording.
    let (header, _) = entries(&golden);
    let targets: Vec<String> = header.targets.iter().map(|t| t.to_string()).collect();
    let scenario = temp_path("golden-scenario");
    run(&["generate", "internet2", "--seed", "2010", "--out", scenario.to_str().unwrap()])
        .expect("generate succeeds");
    let fresh = temp_path("golden-fresh");
    run(&[
        "record",
        scenario.to_str().unwrap(),
        "--out",
        fresh.to_str().unwrap(),
        "--targets",
        &targets.join(","),
        "--jobs",
        "1",
    ])
    .expect("record succeeds");
    let out = run(&["diff", golden.to_str().unwrap(), fresh.to_str().unwrap()])
        .expect("fresh recording matches the golden log");
    assert!(out.contains("equivalent"), "{out}");
    // Equivalent is not enough: the line writers must keep every byte.
    let (want, got) = (std::fs::read(&golden).unwrap(), std::fs::read(&fresh).unwrap());
    assert!(want == got, "a fresh jobs=1 recording differs in bytes from the golden log");
    std::fs::remove_file(scenario).ok();
    std::fs::remove_file(fresh).ok();
}

#[test]
fn golden_log_with_crlf_line_ends_replays_and_diffs_as_equivalent() {
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/internet2-seed2010.jsonl");
    let text = std::fs::read_to_string(&golden).unwrap();
    let crlf = temp_path("golden-crlf");
    std::fs::write(&crlf, text.replace('\n', "\r\n")).unwrap();

    let out = run(&["replay", crlf.to_str().unwrap()]).expect("a CRLF log replays");
    assert!(out.contains("byte-identical"), "{out}");
    let out = run(&["diff", golden.to_str().unwrap(), crlf.to_str().unwrap()])
        .expect("a CRLF log diffs as equivalent to the original");
    assert!(out.contains("equivalent"), "{out}");

    assert!(entries(&golden) == entries(&crlf), "a CRLF log reads like the original");
    let crlf_text = std::fs::read_to_string(&crlf).unwrap();
    let (lf, crlf_log) =
        (obs::ExchangeLog::parse(&text).unwrap(), obs::ExchangeLog::parse(&crlf_text).unwrap());
    for session in 0..lf.header.targets.len() as u64 {
        assert!(lf.events_for(session).eq(crlf_log.events_for(session)), "session {session}");
        assert_eq!(lf.report_for(session), crlf_log.report_for(session), "session {session}");
    }
    std::fs::remove_file(crlf).ok();
}

#[test]
fn index_of_a_concurrent_recording_decodes_like_a_full_decode() {
    let (scenario, log) = record_internet2("2010", "8", "index-j8");
    let text = std::fs::read_to_string(&log).unwrap();
    let parsed = obs::ExchangeLog::parse(&text).expect("log parses");
    let lines: Vec<&str> = text.lines().skip(1).collect();
    let probes: Vec<obs::ProbeEvent> = lines
        .iter()
        .filter(|l| !l.starts_with(r#"{"type""#))
        .map(|l| obs::ProbeEvent::read_line(l).unwrap())
        .collect();
    let decisions: Vec<obs::DecisionEvent> = lines
        .iter()
        .filter(|l| l.starts_with(r#"{"type":"decision""#))
        .map(|l| obs::DecisionEvent::read_line(l).unwrap())
        .collect();
    for session in 0..parsed.header.targets.len() as u64 {
        let want: Vec<_> = probes.iter().filter(|e| e.session == Some(session)).cloned().collect();
        assert_eq!(parsed.events_for(session).collect::<Vec<_>>(), want, "session {session}");
    }
    let read: Vec<obs::DecisionEvent> = entries(&log)
        .1
        .into_iter()
        .filter_map(|(_, entry)| match entry {
            obs::Entry::Decision(d) => Some(d),
            _ => None,
        })
        .collect();
    assert!(read == decisions, "the reader yields every decision line in file order");
    std::fs::remove_file(scenario).ok();
    std::fs::remove_file(log).ok();
}

/// `explain` on the golden log prints exactly the checked-in text, for
/// an on-path subnet, for one an H1 shrink cut back, and for one whose
/// pivot sits a hop beyond the trace hop that found it, so its
/// exploration is filed under that trace hop. The log path is relative
/// because it is part of the output; cargo runs integration tests from
/// the package root.
#[test]
fn explain_of_the_golden_log_matches_the_checked_in_text() {
    for (prefix, file) in [
        ("10.40.0.0/29", "tests/golden/explain-10.40.0.0-29.txt"),
        ("10.32.0.4/30", "tests/golden/explain-10.32.0.4-30.txt"),
        ("10.33.0.0/30", "tests/golden/explain-10.33.0.0-30.txt"),
    ] {
        let out = run(&["explain", "tests/golden/internet2-seed2010.jsonl", prefix])
            .expect("explain succeeds");
        let want = std::fs::read_to_string(file).unwrap();
        assert!(out == want, "explain {prefix} differs from {file}:\n{out}");
    }
}

#[test]
fn a_cache_on_trace_log_names_the_cached_hop_when_replay_diverges() {
    let scenario = temp_path("cache-scenario");
    run(&["generate", "internet2", "--seed", "2010", "--out", scenario.to_str().unwrap()])
        .expect("generate succeeds");
    let log = temp_path("cache-log");
    let out = run(&[
        "batch",
        scenario.to_str().unwrap(),
        "--jobs",
        "1",
        "--trace-log",
        log.to_str().unwrap(),
    ])
    .expect("batch succeeds");
    assert!(out.contains("subnet cache:") && !out.contains("disabled"), "{out}");

    let err = run(&["replay", log.to_str().unwrap()]).expect_err("a cache-on log diverges");
    // The first cache verdict of the lowest session that has one.
    let (session, hop) = entries(&log)
        .1
        .into_iter()
        .filter_map(|(_, entry)| match entry {
            obs::Entry::Decision(d)
                if matches!(
                    d.verdict,
                    obs::DecisionVerdict::CacheHit | obs::DecisionVerdict::CacheSkip
                ) =>
            {
                Some((d.session.expect("batch decisions carry their session"), d.hop))
            }
            _ => None,
        })
        .min_by_key(|&(session, _)| session)
        .expect("the cache answered some hop");
    let line = err
        .lines()
        .find(|l| l.trim_start().starts_with(&format!("session {session} (")))
        .unwrap_or_else(|| panic!("session {session} is not reported:\n{err}"));
    assert!(line.contains(&format!("hop {hop} was answered by the subnet cache")), "{line}");
    assert!(line.contains("record with --no-cache"), "{line}");

    // The same batch with the cache off replays.
    run(&[
        "batch",
        scenario.to_str().unwrap(),
        "--jobs",
        "2",
        "--no-cache",
        "--trace-log",
        log.to_str().unwrap(),
    ])
    .expect("batch succeeds");
    let out = run(&["replay", log.to_str().unwrap()]).expect("a cache-off log replays");
    assert!(out.contains("byte-identical"), "{out}");
    std::fs::remove_file(scenario).ok();
    std::fs::remove_file(log).ok();
}
