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
