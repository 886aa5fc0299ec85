//! Random command lines against the argument parser and the flag
//! readers: every argv gives options or a typed `Err`, every flag value
//! gives a value or a typed `Err`, and nothing panics.

use inet::{Addr, Prefix};
use proptest::prelude::*;
use tracenet_cli::args::Opts;
use tracenet_cli::flags;

/// Flag tokens: value-taking, boolean, the bare `--` and one unknown.
const FLAGS: &[&str] = &[
    "--retries",
    "--backoff",
    "--fault-profile",
    "--fault-seed",
    "--fault-budget",
    "--protocol",
    "--jobs",
    "--max-ttl",
    "--seed",
    "--size",
    "--count",
    "--queries",
    "--rtt-us",
    "--target",
    "--prefix",
    "--vantage",
    "--weird",
    "--json",
    "--all",
    "--paris",
    "--no-cache",
    "-v",
    "-vv",
    "--",
];

/// Flags that never take a value.
const BOOLEAN: &[&str] = &["--json", "--all", "--paris", "--no-cache", "-v", "-vv"];

/// Values at and around every reader's edges, and some garbage.
const VALUES: &[&str] = &[
    "0",
    "1",
    "3",
    "255",
    "256",
    "300",
    "65535",
    "65536",
    "70000",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "1e3",
    "",
    " ",
    "none",
    "exp",
    "adaptive",
    "icmp",
    "udp",
    "heavy-loss",
    "chaos",
    "nope",
    "10.0.0.1",
    "10.0.0.0/29",
    "300.1.1.1",
    "10.0.0.1/33",
    "ünïcödé",
    "-",
    "-x",
];

/// One token: a flag, a listed value or random text.
fn token(r: &mut TestRunner) -> String {
    match r.below(3) {
        0 => FLAGS[r.below(FLAGS.len() as u64) as usize].to_string(),
        1 => VALUES[r.below(VALUES.len() as u64) as usize].to_string(),
        _ => {
            const CHARS: &[char] = &['-', '1', '9', '.', '/', 'a', 'é', ' ', '0'];
            let len = r.below(8);
            (0..len).map(|_| CHARS[r.below(CHARS.len() as u64) as usize]).collect()
        }
    }
}

struct Argv;

impl Strategy for Argv {
    type Value = Vec<String>;
    fn generate(&self, r: &mut TestRunner) -> Vec<String> {
        let len = r.below(12);
        (0..len).map(|_| token(r)).collect()
    }
}

/// Whether `Opts::parse` must reject `argv`: a bare `--`, a flag given
/// twice, or a value-taking flag with no value after it. A value is the
/// next token unless that starts with `--`, so `-v` can be a value too.
fn must_fail(argv: &[String]) -> bool {
    let mut seen: Vec<&str> = Vec::new();
    let mut at = 0;
    while let Some(tok) = argv.get(at) {
        let flag = tok == "-v" || tok == "-vv" || tok.starts_with("--");
        if flag {
            if tok == "--" || seen.contains(&tok.as_str()) {
                return true;
            }
            if !BOOLEAN.contains(&tok.as_str()) {
                match argv.get(at + 1) {
                    Some(value) if !value.starts_with("--") => at += 1,
                    _ => return true,
                }
            }
            seen.push(tok);
        }
        at += 1;
    }
    false
}

/// Runs every flag reader; each must answer without panicking, and a
/// numeric flag that does not parse must say which flag and value.
fn read_every_flag(opts: &Opts) {
    let _ = flags::protocol(opts);
    let _ = flags::fault_plan(opts, 2010);
    let _ = opts.verbosity();
    let _ = opts.flag_required::<Addr>("target");
    let _ = opts.flag_required::<Prefix>("prefix");
    for (name, result) in [
        ("retries", flags::retry_policy(opts).map(drop)),
        ("fault-budget", flags::fault_budget(opts).map(drop)),
        ("jobs", opts.flag_parse("jobs", 4usize).map(drop)),
        ("max-ttl", opts.flag_parse("max-ttl", 30u8).map(drop)),
        ("seed", opts.flag_parse("seed", 2010u64).map(drop)),
        ("size", opts.flag_parse("size", 8usize).map(drop)),
        ("count", opts.flag_parse("count", 3u8).map(drop)),
        ("queries", opts.flag_parse("queries", 3u8).map(drop)),
        ("rtt-us", opts.flag_parse("rtt-us", 0u64).map(drop)),
    ] {
        if let Err(e) = result {
            let numeric = e.starts_with(&format!("invalid value for --{name}: "));
            assert!(numeric || e.contains("backoff"), "--{name}: unexpected error {e:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn random_command_lines_parse_or_fail_cleanly(argv in Argv) {
        match Opts::parse(&argv) {
            Ok(opts) => {
                prop_assert!(!must_fail(&argv), "{:?} parsed", argv);
                read_every_flag(&opts);
            }
            Err(e) => {
                prop_assert!(must_fail(&argv), "{:?} failed: {}", argv, e);
                prop_assert!(!e.is_empty());
            }
        }
    }
}

#[test]
fn out_of_range_flag_values_are_typed_errors() {
    let parse = |args: &[&str]| {
        Opts::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    };
    let err = flags::retry_policy(&parse(&["--retries", "300"])).unwrap_err();
    assert_eq!(err, r#"invalid value for --retries: "300""#);
    let err = flags::fault_budget(&parse(&["--fault-budget", "70000"])).unwrap_err();
    assert_eq!(err, r#"invalid value for --fault-budget: "70000""#);
    let err = flags::fault_budget(&parse(&["--fault-budget", "0"])).unwrap_err();
    assert!(err.starts_with(r#"invalid value for --fault-budget: "0""#), "{err}");
    let err = flags::fault_plan(&parse(&["--fault-seed", "-1"]), 2010).unwrap_err();
    assert_eq!(err, r#"invalid value for --fault-seed: "-1""#);
}
