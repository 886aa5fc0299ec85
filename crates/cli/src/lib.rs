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

/// Top-level usage text.
pub const USAGE: &str = "\
tracenet — subnet-level topology collection (TraceNET, IMC 2010)

USAGE:
    tracenet <command> [args]

COMMANDS:
    generate <internet2|geant|isp|random> [--seed N] [--size N] [--out FILE]
                              generate a scenario (JSON to --out or stdout)
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
                              [--queries N] run the baseline traceroute
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
    eval <scenario> [--protocol icmp|udp|tcp]
                              collect everything and score against ground truth
    map <scenario> [--vantage NAME] [--protocol icmp|udp|tcp]
                              emit the collected subnet-level map as Graphviz DOT
    crossval <scenario>       run all three vantages and print Figure 6-style
                              agreement rates
";

/// Runs the CLI on `argv` (without the program name). Returns the text
/// to print, or an error message for stderr + nonzero exit.
pub fn run(argv: &[String]) -> Result<String, String> {
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => return Err(USAGE.to_string()),
    };
    let opts = Opts::parse(rest)?;
    match command {
        "generate" => commands::generate(&opts),
        "info" => commands::info(&opts),
        "trace" => commands::trace(&opts),
        "traceroute" => commands::traceroute_cmd(&opts),
        "ping" => commands::ping_cmd(&opts),
        "sweep" => commands::sweep(&opts),
        "batch" => commands::batch(&opts),
        "record" => commands::record(&opts),
        "replay" => commands::replay(&opts),
        "diff" => commands::diff(&opts),
        "explain" => commands::explain(&opts),
        "eval" => commands::eval(&opts),
        "map" => commands::map(&opts),
        "crossval" => commands::crossval(&opts),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}
