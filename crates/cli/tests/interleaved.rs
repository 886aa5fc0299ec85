//! One reader for both layouts an exchange log comes in: a `--jobs 1`
//! log keeps each session's lines together, a `--jobs N` log interleaves
//! them. The golden log with its sessions interleaved in a seeded order
//! must index, replay and diff exactly as the original does.

use std::path::PathBuf;

use obs::ExchangeLog;
use proptest::prelude::*;

#[path = "../../obs/tests/common/mod.rs"]
mod common;

fn run(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    tracenet_cli::run(&argv)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/internet2-seed2010.jsonl")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn an_interleaved_log_reads_replays_and_diffs_like_the_original(seed in any::<u64>()) {
        let golden = std::fs::read_to_string(golden_path()).unwrap();
        let text = common::interleave(&golden, seed);
        let (original, interleaved) =
            (ExchangeLog::parse(&golden).unwrap(), ExchangeLog::parse(&text).unwrap());
        prop_assert_eq!(original.event_total(), interleaved.event_total());
        for session in 0..original.header.targets.len() as u64 + 2 {
            prop_assert!(original.events_for(session).eq(interleaved.events_for(session)));
            prop_assert!(original.decisions_for(session).eq(interleaved.decisions_for(session)));
            prop_assert_eq!(original.event_count(session), interleaved.event_count(session));
            prop_assert_eq!(original.report_for(session), interleaved.report_for(session));
        }

        let mut path = std::env::temp_dir();
        path.push(format!("tracenet-interleaved-{}-{seed}.jsonl", std::process::id()));
        std::fs::write(&path, &text).unwrap();
        let (golden_path, path_str) = (golden_path(), path.to_str().unwrap().to_string());
        let golden_str = golden_path.to_str().unwrap();
        let want = run(&["replay", golden_str]).map(|out| out.replace(golden_str, "LOG"));
        let got = run(&["replay", &path_str]).map(|out| out.replace(&path_str, "LOG"));
        let diff = run(&["diff", golden_str, &path_str]);
        std::fs::remove_file(&path).ok();
        prop_assert!(want.is_ok(), "{want:?}");
        prop_assert_eq!(got, want);
        prop_assert!(diff.as_deref().is_ok_and(|d| d.contains("equivalent")), "{diff:?}");
    }
}
