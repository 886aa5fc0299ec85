//! Regenerates the paper's evaluation: Tables 1–3, the §4.1.2
//! similarity rates, Figures 6–9, the §3.6 overhead bound and our
//! ablations, one artifact, several, or `all` of them (the source of
//! EXPERIMENTS.md's numbers).
//!
//! ```text
//! cargo run --release -p bench-suite --bin repro -- (all | ARTIFACT...) [seed]
//!     [--jobs N] [--cache] [--retries N] [--backoff none|exp|adaptive]
//!     [--fault-profile NAME] [--fault-seed N] [--fault-budget N]
//! ```
//!
//! With no flags every artifact runs in the paper's configuration: one
//! job, no cross-session subnet cache, no injected faults. `--jobs N`
//! fans each collection over N worker threads, `--cache` shares the
//! subnet cache across sessions, and the fault and retry flags (those of
//! `tracenet trace`) attach a seeded fault plan to the simulated network.
//! Bad arguments exit 2 with the usage text.

use bench_suite::repro::{parse_args, usage, Runs};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (artifacts, args) = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("repro: {e}\n{}", usage());
        std::process::exit(2);
    });
    let runs = Runs::new(&args);
    for (k, artifact) in artifacts.into_iter().enumerate() {
        if k > 0 {
            println!();
        }
        print!("{}", (artifact.render)(&runs));
    }
}
