//! `repro`'s argument reading: which artifacts run, in what order, and
//! under which configuration, and a typed error for every argument it
//! refuses.

use bench_suite::repro::{parse_args, ArgError, ARTIFACTS};
use bench_suite::{ExpArgs, SEED};

/// The artifacts and configuration `argv` asks for, artifacts by name.
fn parse(argv: &[&str]) -> Result<(Vec<&'static str>, ExpArgs), ArgError> {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    parse_args(&argv).map(|(artifacts, args)| (artifacts.iter().map(|a| a.name).collect(), args))
}

#[test]
fn all_expands_in_order_and_repeats_run_once() {
    let (names, args) = parse(&["all"]).unwrap();
    assert_eq!(
        names.join(" "),
        "table1 table2 similarity fig6 fig7 fig8 fig9 table3 overhead ablation"
    );
    assert_eq!(args.seed, SEED);
    let (names, _) = parse(&["fig8", "fig6", "all", "fig8"]).unwrap();
    assert_eq!(names[..3], ["fig8", "fig6", "table1"]);
    assert_eq!(names.len(), ARTIFACTS.len());
}

#[test]
fn the_default_is_the_papers_configuration() {
    let (_, args) = parse(&["fig8"]).unwrap();
    let paper = ExpArgs::sequential(SEED);
    assert_eq!((args.seed, args.cfg.jobs, args.cfg.use_cache), (SEED, 1, false));
    assert_eq!((args.cfg.retry, args.cfg.opts), (paper.cfg.retry, paper.cfg.opts));
    assert!(args.fault.is_none());
    assert!(parse(&["fig8", "--cache"]).unwrap().1.cfg.use_cache);
}

#[test]
fn seed_and_flags_follow_the_artifacts() {
    let argv = ["table2", "fig9", "7", "--jobs", "3", "--retries", "4", "--backoff", "exp"];
    let (names, args) = parse(&argv).unwrap();
    assert_eq!(names, ["table2", "fig9"]);
    assert_eq!((args.seed, args.cfg.jobs, args.cfg.use_cache), (7, 3, false));
    assert_eq!(args.cfg.retry, probe::RetryPolicy::Backoff { retries: 4, base: 8 });
    assert!(args.fault.is_none());

    let argv = ["fig8", "--fault-profile", "heavy-loss", "--fault-budget", "3"];
    let (_, args) = parse(&argv).unwrap();
    assert_eq!(args.cfg.opts.hop_fault_budget, Some(3));
    let heavy = netsim::FaultProfile::by_name("heavy-loss").unwrap();
    assert_eq!(args.fault, Some(heavy.plan(SEED)), "a profile without a seed uses the seed");
}

#[test]
fn bad_arguments_are_typed_errors() {
    use ArgError::*;
    let flag = |msg: &str| Flag(msg.to_string());
    for (argv, err) in [
        (&["fig10"][..], UnknownArtifact("fig10".into())),
        (&["table1", "fig10"], UnknownArtifact("fig10".into())),
        (&["table1", "7x"], BadSeed("7x".into())),
        (&["table1", "--jobs", "2", "seven"], BadSeed("seven".into())),
        (&["table1", "1", "2"], Unexpected("2".into())),
        (&["all", "--jobs"], flag("flag --jobs needs a value")),
        (&["--jobs"], NoArtifact),
        (&[], NoArtifact),
        (&["7"], NoArtifact),
        (&["all", "--no-cache"], flag("unrecognized flag --no-cache")),
        (&["all", "--max-ttl", "9"], flag("unrecognized flag --max-ttl")),
        (&["all", "-v"], flag("unrecognized flag -v")),
        (&["all", "--retries", "300"], flag(r#"invalid value for --retries: "300""#)),
        (&["all", "--fault-budget", "70000"], flag(r#"invalid value for --fault-budget: "70000""#)),
        (
            &["all", "--fault-budget", "0"],
            flag(r#"invalid value for --fault-budget: "0" (must be at least 1)"#),
        ),
        (&["all", "--jobs", "-1"], flag(r#"invalid value for --jobs: "-1""#)),
    ] {
        assert_eq!(parse(argv).err(), Some(err), "{argv:?}");
    }
}
