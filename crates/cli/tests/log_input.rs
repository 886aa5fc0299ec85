//! Exchange logs are outside input: a truncated or corrupted log must
//! come back as an error naming the line, never as a panic, both from
//! `ExchangeLog::parse` and from the `replay` and `diff` commands
//! (which exit 2).

use std::path::PathBuf;
use std::process::Command;

use proptest::prelude::*;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/internet2-seed2010.jsonl")
}

fn golden() -> Vec<u8> {
    std::fs::read(golden_path()).expect("the golden log is checked in")
}

/// Parses `bytes` as a log, decoding invalid UTF-8 lossily. Returning
/// at all (`Ok` or `Err`) is the property.
fn parse(bytes: &[u8]) -> Result<(), String> {
    obs::ExchangeLog::parse(&String::from_utf8_lossy(bytes)).map(drop)
}

proptest! {
    #[test]
    fn truncated_logs_parse_or_fail_cleanly(cut in 0usize..1 << 20) {
        let log = golden();
        let cut = cut % (log.len() + 1);
        let result = parse(&log[..cut]);
        // Only a cut at a line end can still parse.
        if result.is_ok() {
            prop_assert!(cut == log.len() || log[cut - 1] == b'\n' || log[cut] == b'\n');
        }
    }

    #[test]
    fn corrupted_logs_parse_or_fail_cleanly(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), any::<bool>()), 1..8),
    ) {
        let mut log = golden();
        for (at, byte, delete) in edits {
            let at = at % log.len();
            if delete {
                log.remove(at);
            } else {
                log[at] ^= byte.max(1);
            }
        }
        let _ = parse(&log);
    }
}

/// Runs the binary and returns its exit code and stderr.
fn tracenet(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tracenet")).args(args).output().unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn replay_and_diff_reject_a_truncated_log_with_its_line_number() {
    const CUT: usize = 20_000;
    let log = golden();
    let line = log[..CUT].iter().filter(|&&b| b == b'\n').count() + 1;
    let mut path = std::env::temp_dir();
    path.push(format!("tracenet-truncated-{}.jsonl", std::process::id()));
    std::fs::write(&path, &log[..CUT]).unwrap();
    let truncated = path.to_str().unwrap();
    let golden = golden_path();
    let golden = golden.to_str().unwrap();

    for args in [vec!["replay", truncated], vec!["diff", golden, truncated]] {
        let (code, stderr) = tracenet(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("line {line}: ")), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_file(path).ok();
}

/// A report body that is not an object is refused where the log is
/// read, with its line number, by `replay` and by `diff`.
#[test]
fn replay_and_diff_reject_a_report_body_that_is_not_an_object() {
    let log = String::from_utf8(golden()).unwrap();
    let (n, line) = log
        .lines()
        .enumerate()
        .find(|(_, l)| l.starts_with(r#"{"type":"report""#))
        .expect("the golden log carries report lines");
    let (head, _) = line.split_once(r#","report":"#).unwrap();
    let golden = golden_path();
    let golden = golden.to_str().unwrap();
    for (k, body) in ["5", "[1]", r#""text""#, "true"].into_iter().enumerate() {
        let lines: Vec<String> = log
            .lines()
            .enumerate()
            .map(|(i, l)| if i == n { format!(r#"{head},"report":{body}}}"#) } else { l.into() })
            .collect();
        let mut path = std::env::temp_dir();
        path.push(format!("tracenet-report-body-{}-{k}.jsonl", std::process::id()));
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let bad = path.to_str().unwrap();
        for args in [vec!["replay", bad], vec!["diff", golden, bad]] {
            let (code, stderr) = tracenet(&args);
            assert_eq!(code, Some(2), "{body} {args:?}: {stderr}");
            let want = format!("line {}: report body must be an object", n + 1);
            assert!(stderr.contains(&want), "{body} {args:?}: {stderr}");
        }
        std::fs::remove_file(path).ok();
    }
}

/// The settings the collector only runs one way are checked on replay:
/// a header that records another value is refused with the key's name,
/// and one that lacks the key keeps the "missing or invalid" error.
#[test]
fn replay_rejects_a_header_with_other_fixed_options() {
    let log = String::from_utf8(golden()).unwrap();
    let (header, rest) = log.split_once('\n').unwrap();
    let fixed = [
        ("min_prefix_len", "20", "24"),
        ("distance_search_span", "3", "1"),
        ("reuse_known_subnets", "true", "false"),
        ("explore_off_path", "true", "false"),
    ];
    let mut cases: Vec<(String, String, String)> = fixed
        .iter()
        .map(|(key, ours, other)| {
            (
                format!("\"{key}\":{ours}"),
                format!("\"{key}\":{other}"),
                format!("\"{key}\" is {other}"),
            )
        })
        .collect();
    let missing = r#""distance_search_span":3,"#;
    cases.push((
        missing.into(),
        String::new(),
        r#"missing or invalid "distance_search_span""#.into(),
    ));
    for (k, (from, to, want)) in cases.into_iter().enumerate() {
        assert!(header.contains(&from), "the golden header carries {from}");
        let mut path = std::env::temp_dir();
        path.push(format!("tracenet-fixed-option-{}-{k}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{}\n{rest}", header.replacen(&from, &to, 1))).unwrap();
        let (code, stderr) = tracenet(&["replay", path.to_str().unwrap()]);
        std::fs::remove_file(&path).ok();
        assert_eq!(code, Some(2), "{to:?}: {stderr}");
        assert!(stderr.contains(&want), "{to:?}: {stderr}");
    }
}

/// A well-formed log whose probe lines disagree with what the session
/// asks, because one probe line's ttl changed, two were swapped or one
/// was deleted, is a divergence: `replay` names the logical probe where
/// the session went off script and exits 2, and nothing panics.
#[test]
fn replay_reports_an_edited_probe_sequence_as_a_divergence_without_panicking() {
    let log = String::from_utf8(golden()).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    let probes: Vec<(usize, obs::ProbeEvent)> = lines
        .iter()
        .enumerate()
        .filter_map(|(i, l)| obs::ProbeEvent::read_line(l).ok().map(|e| (i, e)))
        .collect();
    let question = |e: &obs::ProbeEvent| (e.dst, e.ttl, e.flow);
    // Three probe lines in a row of one session, each a first attempt,
    // the first two asking different questions: editing the first two
    // leaves a log whose every retry still follows its first attempt.
    let edits: Vec<(usize, usize, &obs::ProbeEvent)> = probes
        .windows(3)
        .filter(|w| w.iter().all(|(_, e)| e.attempt == 0 && e.session == w[0].1.session))
        .filter(|w| question(&w[0].1) != question(&w[1].1))
        .map(|w| (w[0].0, w[1].0, &w[0].1))
        .collect();
    assert!(edits.len() > 50, "the golden log has {} editable pairs", edits.len());
    let mut path = std::env::temp_dir();
    path.push(format!("tracenet-edited-{}.jsonl", std::process::id()));
    let edited = path.to_str().unwrap();
    for &(i, j, first) in edits.iter().step_by(edits.len() / 8) {
        let ttl = format!("\"ttl\":{},", first.ttl);
        let retimed = lines[i].replacen(&ttl, &format!("\"ttl\":{},", first.ttl + 1), 1);
        for (what, edit) in [("ttl changed", 0), ("swapped", 1), ("deleted", 2)] {
            let mut copy: Vec<&str> = lines.clone();
            match edit {
                0 => copy[i] = &retimed,
                1 => copy.swap(i, j),
                _ => {
                    copy.remove(i);
                }
            }
            std::fs::write(&path, copy.join("\n") + "\n").unwrap();
            let (code, stderr) = tracenet(&["replay", edited]);
            let case = format!("line {} {what}", i + 1);
            assert_eq!(code, Some(2), "{case}: {stderr}");
            assert!(stderr.contains("replay diverged at logical probe #"), "{case}: {stderr}");
            assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        }
    }
    std::fs::remove_file(path).ok();
}

/// `line` with the value of its first `"key":` field replaced by
/// `value`, if the line has that key.
fn with_field(line: &str, key: &str, value: &str) -> Option<String> {
    let name = format!("\"{key}\":");
    let start = line.find(&name)? + name.len();
    let end = start + line[start..].find([',', '}'])?;
    Some(format!("{}{value}{}", &line[..start], &line[end..]))
}

/// `explain` reads a truncated or edited log as outside input: whether
/// a field of one line changed, two lines were swapped or one was
/// deleted, it answers or refuses with exit 0, 1 or 2, and nothing
/// panics.
#[test]
fn explain_of_a_truncated_or_edited_log_exits_cleanly() {
    let log = String::from_utf8(golden()).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    let mut copies: Vec<(String, Vec<u8>)> = (1..16)
        .map(|k| k * log.len() / 16)
        .map(|cut| (format!("cut at byte {cut}"), log.as_bytes()[..cut].to_vec()))
        .collect();
    let fields =
        [("session", "7"), ("hop", "0"), ("subject", r#""10.40.0.1""#), ("phase", r#""trace""#)];
    for i in (0..lines.len() - 1).step_by(lines.len() / 12) {
        let mut edited = |what: String, copy: Vec<&str>| {
            copies.push((format!("line {} {what}", i + 1), (copy.join("\n") + "\n").into_bytes()));
        };
        for (key, value) in fields {
            if let Some(changed) = with_field(lines[i], key, value) {
                let mut copy = lines.clone();
                copy[i] = &changed;
                edited(format!("{key} changed"), copy);
            }
        }
        let mut copy = lines.clone();
        copy.swap(i, i + 1);
        edited("swapped with the next".into(), copy);
        let mut copy = lines.clone();
        copy.remove(i);
        edited("deleted".into(), copy);
    }

    let mut path = std::env::temp_dir();
    path.push(format!("tracenet-explain-edited-{}.jsonl", std::process::id()));
    let edited = path.to_str().unwrap();
    for (case, bytes) in &copies {
        std::fs::write(&path, bytes).unwrap();
        for prefix in ["10.40.0.0/29", "10.32.0.4/30"] {
            let (code, stderr) = tracenet(&["explain", edited, prefix]);
            assert!(matches!(code, Some(0..=2)), "{case}, {prefix}: exit {code:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{case}, {prefix}: {stderr}");
        }
    }
    std::fs::remove_file(path).ok();
}

/// A line's phase follows from its cause (and, for a decision without
/// one, its verdict), so a log whose probe or decision line logs another
/// phase is refused: `replay`, `diff` and `explain` exit 2 naming the
/// line, and nothing panics.
#[test]
fn a_line_whose_phase_contradicts_its_cause_is_refused_by_line() {
    let log = String::from_utf8(golden()).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    let first = |kind: &str, cause: &str| {
        let at = lines
            .iter()
            .position(|l| l.starts_with(kind) && l.contains(&format!("\"cause\":\"{cause}\"")));
        at.expect("the golden log has such a line")
    };
    let cases = [
        (first("{\"tick\"", "pivot_designation"), "position", "explore"),
        (first("{\"type\":\"decision\"", "h2"), "explore", "trace"),
    ];
    let golden = golden_path();
    let golden = golden.to_str().unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("tracenet-phase-edited-{}.jsonl", std::process::id()));
    let edited = path.to_str().unwrap();
    for (i, derived, logged) in cases {
        let changed = with_field(lines[i], "phase", &format!("\"{logged}\"")).unwrap();
        assert_ne!(changed, lines[i], "line {} logs phase {derived}", i + 1);
        let mut copy = lines.clone();
        copy[i] = &changed;
        std::fs::write(&path, copy.join("\n") + "\n").unwrap();
        let want = format!("line {}: phase: logged as {logged}, derived as {derived}", i + 1);
        for args in [
            vec!["replay", edited],
            vec!["diff", golden, edited],
            vec!["explain", edited, "10.40.0.0/29"],
        ] {
            let (code, stderr) = tracenet(&args);
            assert_eq!(code, Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains(&want), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
    std::fs::remove_file(path).ok();
}
