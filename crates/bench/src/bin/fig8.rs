//! Regenerates **Figure 8**: subnet count per ISP at each vantage point.
//!
//! ```text
//! cargo run --release -p bench-suite --bin fig8 [seed] [--jobs N] [--no-cache]
//!     [--fault-profile NAME] [--fault-seed N] [--fault-budget N]
//!     [--retries N] [--backoff none|exp|adaptive]
//! ```
//!
//! `--jobs N` fans each vantage's targets over N worker threads and
//! `--no-cache` disables the cross-session subnet cache; the default
//! (one worker, cache on) reproduces the sequential collection order.
//! The fault flags attach a seeded fault plan to the shared internet,
//! showing how the per-ISP counts degrade under loss.

use bench_suite::{batch_args, isp_experiment};
use evalkit::render::table;
use obs::Phase;

fn main() {
    let args = batch_args();
    let exp = isp_experiment(&args);
    let (seed, cfg) = (args.seed, &args.cfg);
    println!("== Figure 8: subnets per ISP per vantage point ==");
    println!(
        "seed: {seed}, jobs: {}, cache: {}, faults: {}\n",
        cfg.jobs,
        if cfg.use_cache { "on" } else { "off" },
        if args.fault.is_some() { "injected" } else { "none" }
    );
    let counts = exp.subnet_counts();
    let isps: Vec<&str> = counts[0].1.iter().map(|(isp, _)| isp.as_str()).collect();
    let mut headers = vec!["vantage"];
    headers.extend(isps.iter());
    let rows: Vec<Vec<String>> = counts
        .iter()
        .map(|(vantage, per_isp)| {
            let mut row = vec![vantage.clone()];
            row.extend(per_isp.iter().map(|(_, n)| n.to_string()));
            row
        })
        .collect();
    print!("{}", table(&headers, &rows));
    println!();
    println!("probe budget per vantage (from the telemetry registry):");
    for run in &exp.runs {
        let m = &run.metrics;
        println!(
            "  {:<8} trace {:>8} + position {:>8} + explore {:>8} = {:>9}",
            run.vantage,
            m.sent_in(Phase::Trace),
            m.sent_in(Phase::Position),
            m.sent_in(Phase::Explore),
            m.sent_total()
        );
        if cfg.use_cache {
            println!(
                "  {:<8} subnet cache: {} hits, {} skips, {} misses",
                "", run.collected.cache.hits, run.collected.cache.skips, run.collected.cache.misses
            );
        }
    }
    println!();
    println!("paper shape: per-ISP counts are close to each other across vantage");
    println!("points; SprintLink yields the most subnets and NTT America the");
    println!("fewest (paper, Rice/ICMP: 4482 / 1593 / 3587 / 2333).");
    match bench_suite::write_bench_json("fig8", &bench_suite::isp_bench_json(&exp, &args)) {
        Ok(path) => println!("\nwrote {path} (probe counts + wall ticks)"),
        Err(e) => eprintln!("BENCH_fig8.json: {e}"),
    }
}
