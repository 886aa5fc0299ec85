//! Regenerates **Table 2**: GEANT, original and collected subnet
//! distribution.
//!
//! ```text
//! cargo run --release -p bench-suite --bin table2 [seed] [--jobs N] [--no-cache]
//!     [--fault-profile NAME] [--fault-seed N] [--fault-budget N]
//!     [--retries N] [--backoff none|exp|adaptive]
//! ```
//!
//! `--jobs N` fans the targets over N worker threads and `--no-cache`
//! disables the cross-session subnet cache; the conformance suite pins
//! the collected distribution equal either way. The fault flags attach
//! a seeded fault plan, quantifying what loss costs the table.

use bench_suite::{accuracy_experiment, batch_args, paper};
use obs::Phase;

fn main() {
    let args = batch_args();
    let r = accuracy_experiment(topogen::geant(args.seed), &args);
    let (seed, cfg) = (args.seed, &args.cfg);
    println!("== Table 2: GEANT, original and collected subnet distribution ==");
    println!(
        "seed: {seed}, jobs: {}, cache: {} ({} hits, {} skips, {} misses), faults: {}",
        cfg.jobs,
        if cfg.use_cache { "on" } else { "off" },
        r.cache.hits,
        r.cache.skips,
        r.cache.misses,
        if args.fault.is_some() { "injected" } else { "none" }
    );
    println!(
        "probes: {} (trace {} / position {} / explore {}); \
         §4.1.1 audit agrees with ground truth on {}/{} subnets",
        r.probes,
        r.metrics.sent_in(Phase::Trace),
        r.metrics.sent_in(Phase::Position),
        r.metrics.sent_in(Phase::Explore),
        r.audit_agreement.0,
        r.audit_agreement.1
    );
    println!();
    print!("{}", r.table);
    println!();
    println!(
        "paper: exact match {:.1}% incl. unresponsive, {:.1}% excl.",
        100.0 * paper::T2_EXACT_INCL,
        100.0 * paper::T2_EXACT_EXCL
    );
    println!(
        "ours : exact match {:.1}% incl. unresponsive, {:.1}% excl.",
        100.0 * r.table.exact_rate(),
        100.0 * r.table.exact_rate_responsive()
    );
    match bench_suite::write_bench_json("table2", &bench_suite::accuracy_bench_json(&r, &args)) {
        Ok(path) => println!("\nwrote {path} (probe counts + wall ticks)"),
        Err(e) => eprintln!("BENCH_table2.json: {e}"),
    }
}
