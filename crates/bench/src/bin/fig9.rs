//! Regenerates **Figure 9**: collected subnet prefix-length distribution
//! (log scale) at each vantage point.
//!
//! ```text
//! cargo run --release -p bench-suite --bin fig9 [seed] [--jobs N] [--no-cache]
//!     [--fault-profile NAME] [--fault-seed N] [--fault-budget N]
//!     [--retries N] [--backoff none|exp|adaptive]
//! ```
//!
//! `--jobs N` fans each vantage's targets over N worker threads and
//! `--no-cache` disables the cross-session subnet cache. The fault
//! flags attach a seeded fault plan to the shared internet.

use bench_suite::{batch_args, isp_experiment, paper};
use evalkit::render::log_bar;

fn main() {
    let args = batch_args();
    let exp = isp_experiment(&args);
    let (seed, cfg) = (args.seed, &args.cfg);
    println!("== Figure 9: subnet prefix length distribution per vantage ==");
    println!(
        "seed: {seed}, jobs: {}, cache: {}, faults: {}",
        cfg.jobs,
        if cfg.use_cache { "on" } else { "off" },
        if args.fault.is_some() { "injected" } else { "none" }
    );
    for ((vantage, series), run) in exp.prefix_series().into_iter().zip(&exp.runs) {
        let m = &run.metrics;
        println!(
            "\n-- {vantage} (log-scale bars; {} explore probes of {} total) --",
            m.sent_in(obs::Phase::Explore),
            m.sent_total()
        );
        for (len, count) in series {
            println!("/{len:<3} {count:>6}  {}", log_bar(count));
        }
    }
    println!();
    println!("paper shape (Rice): monotone rise toward /30-/31 with sharp drops");
    for (len, count) in paper::FIG9_RICE_ANCHORS {
        println!("  paper anchor: /{len} = {count}");
    }
    println!("plus a visible bump at /24 and a thin /20-/22 tail (NTT America).");
    match bench_suite::write_bench_json("fig9", &bench_suite::isp_bench_json(&exp, &args)) {
        Ok(path) => println!("\nwrote {path} (probe counts + wall ticks)"),
        Err(e) => eprintln!("BENCH_fig9.json: {e}"),
    }
}
