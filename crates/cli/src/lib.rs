//! The `tracenet` command-line tool.
//!
//! A released version of the paper's collector, operating over scenario
//! files (see `topogen::io`): generate a measurement environment once,
//! then trace, ping, sweep and evaluate against it.
//!
//! ```text
//! tracenet generate internet2 --seed 42 --out i2.json
//! tracenet info i2.json
//! tracenet trace i2.json --target 10.48.0.33
//! tracenet trace i2.json --all --json > collected.json
//! tracenet traceroute i2.json --target 10.48.0.33 --paris
//! tracenet ping i2.json --target 10.48.0.33
//! tracenet sweep i2.json --prefix 10.48.0.32/29
//! tracenet eval i2.json
//! ```
//!
//! All commands are pure functions from (scenario file, flags) to text,
//! so the integration tests drive them exactly as a shell user would.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod flags;

use args::Opts;

/// Top-level usage text. Each command's entry lists every flag it
/// reads, and [`run`] rejects any other.
pub const USAGE: &str = "\
tracenet — subnet-level topology collection (TraceNET, IMC 2010)

USAGE:
    tracenet <command> [args]

COMMANDS:
    generate <internet2|geant|isp|random> [--seed N] [--size N] [--out FILE]
                              generate a scenario (JSON to --out or stdout);
                              --size is random's router count and isp's
                              scale factor (40 is the paper's scale)
    info <scenario>           summarize a scenario file
    trace <scenario> (--target ADDR | --all) [--vantage NAME]
                              [--protocol icmp|udp|tcp] [--max-ttl N] [--json]
                              [--retries N] [--backoff none|exp|adaptive]
                              [--fault-profile NAME] [--fault-seed N]
                              [--fault-budget N]
                              [--trace-log FILE] [--metrics FILE]
                              [--metrics-json FILE] [-v|-vv]
                              run tracenet sessions; --trace-log writes an
                              exchange log as `record` does (replay, diff and
                              explain read it), --metrics writes per-phase
                              counters (--metrics-json the compact machine
                              form), -v prints each session's decisions on
                              stderr (positioning, H1-H9 stops, collection),
                              -vv also exploration's per-candidate verdicts;
                              --fault-profile injects seeded faults
                              (none|light-loss|heavy-loss|rate-storm|
                              flaky-links|chaos), --retries/--backoff shape
                              the re-probe policy, --fault-budget abandons a
                              hop after N fault-attributed timeouts
    traceroute <scenario> --target ADDR [--vantage NAME] [--paris]
                              [--queries N] [--protocol icmp|udp|tcp]
                              [--max-ttl N] run the baseline traceroute
    ping <scenario> --target ADDR [--vantage NAME] [--count N]
    sweep <scenario> --prefix P [--vantage NAME]
                              ping every address of a prefix (§4.1.1 audit)
    batch <scenario> [--targets A,B,..] [--jobs N] [--no-cache]
                              [--rtt-us N] [--vantage NAME]
                              [--protocol icmp|udp|tcp] [--json]
                              [--retries N] [--backoff none|exp|adaptive]
                              [--fault-profile NAME] [--fault-seed N]
                              [--fault-budget N]
                              [--trace-log FILE] [--metrics FILE]
                              [--metrics-json FILE] [-v|-vv]
                              trace many targets on a worker pool sharing a
                              cross-session subnet cache; --jobs sets the
                              thread count (default 4), --no-cache disables
                              subnet reuse across sessions, --rtt-us models a
                              per-probe round-trip time in microseconds
                              (latency that --jobs overlaps); fault, retry,
                              log and -v flags as in `trace` (a cache-on log
                              replays only with --no-cache)
    record <scenario> --out FILE [--targets A,B,..] [--jobs N]
                              [--vantage NAME] [--protocol icmp|udp|tcp]
                              [--max-ttl N] [-v|-vv]
                              [fault/retry flags as in `trace`]
                              flight recorder: capture every probe exchange,
                              every heuristic verdict and each session's
                              final report into one exchange log
    replay <log>              re-run every session of a recorded exchange log
                              with no simulator and check each report is
                              byte-identical to the recorded one
    diff <a> <b>              compare two exchange logs session by session;
                              exits nonzero with a divergence report when
                              they disagree
    explain <log> <subnet>    print the inference tree of one collected
                              subnet (or address) from a recorded log:
                              positioning verdicts, H1-H9 decisions, and why
                              degraded hops degraded
    eval <scenario> [--vantage NAME] [--protocol icmp|udp|tcp]
                              collect everything and score against ground truth
    map <scenario> [--vantage NAME] [--protocol icmp|udp|tcp]
                              emit the collected subnet-level map as Graphviz DOT
    crossval <scenario> [--protocol icmp|udp|tcp]
                              run all three vantages and print Figure 6-style
                              agreement rates
";

/// A subcommand: parsed options in, text out.
type Command = fn(&Opts) -> Result<String, String>;

/// The flags `trace` and `batch` share for observing a run.
const OBSERVE_FLAGS: [&str; 5] = ["trace-log", "metrics", "metrics-json", "v", "vv"];

/// A command's runner and the flags its [`USAGE`] entry documents.
fn command(name: &str) -> Option<(Command, Vec<&'static str>)> {
    Some(match name {
        "generate" => (commands::generate, vec!["seed", "size", "out"]),
        "info" => (commands::info, vec![]),
        "trace" => (
            commands::trace,
            [
                &["target", "all", "vantage", "protocol", "max-ttl", "json"][..],
                &flags::FAULT_FLAGS,
                &OBSERVE_FLAGS,
            ]
            .concat(),
        ),
        "traceroute" => (
            commands::traceroute_cmd,
            vec!["target", "vantage", "protocol", "max-ttl", "paris", "queries"],
        ),
        "ping" => (commands::ping_cmd, vec!["target", "vantage", "count"]),
        "sweep" => (commands::sweep, vec!["prefix", "vantage"]),
        "batch" => (
            commands::batch,
            [
                &["targets", "jobs", "no-cache", "rtt-us", "vantage", "protocol", "json"][..],
                &flags::FAULT_FLAGS,
                &OBSERVE_FLAGS,
            ]
            .concat(),
        ),
        "record" => (
            commands::record,
            [
                &["out", "targets", "jobs", "vantage", "protocol", "max-ttl", "v", "vv"][..],
                &flags::FAULT_FLAGS,
            ]
            .concat(),
        ),
        "replay" => (commands::replay, vec![]),
        "diff" => (commands::diff, vec![]),
        "explain" => (commands::explain, vec![]),
        "eval" => (commands::eval, vec!["vantage", "protocol"]),
        "map" => (commands::map, vec!["vantage", "protocol"]),
        "crossval" => (commands::crossval, vec!["protocol"]),
        _ => return None,
    })
}

/// Runs the CLI on `argv` (without the program name). Returns the text
/// to print, or an error message for stderr + nonzero exit. A flag the
/// command does not read is an error, not a no-op. `--help` or `-h`
/// anywhere after a command prints the usage instead of running it.
pub fn run(argv: &[String]) -> Result<String, String> {
    let is_help = |arg: &str| matches!(arg, "--help" | "-h");
    let (name, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => return Err(USAGE.to_string()),
    };
    match command(name) {
        Some(_) if rest.iter().any(|a| is_help(a)) => Ok(USAGE.to_string()),
        Some((run_command, flags)) => {
            let opts = Opts::parse(rest)?;
            opts.only(&flags).map_err(|e| format!("{name}: {e}"))?;
            run_command(&opts)
        }
        None if name == "help" || is_help(name) => Ok(USAGE.to_string()),
        None => Err(format!("unknown command {name:?}\n\n{USAGE}")),
    }
}
