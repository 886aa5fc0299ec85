//! Emits `BENCH_batch.json`: wall-time jobs-scaling of the batch
//! collector on internet2 and a random topology.
//!
//! ```text
//! batch_scaling [--smoke] [--gate] [--rtt-us N] [--seed N]
//! ```
//!
//! * `--smoke`  — small target list and short RTT (CI-sized run).
//! * `--gate`   — exit nonzero if the highest jobs value is *slower*
//!   than jobs=1 on internet2 (a regression backstop, not a flaky
//!   threshold).
//! * `--rtt-us` — modeled per-probe round trip in microseconds
//!   (default 200 full / 100 smoke).
//! * `--seed`   — topology seed (default 2010).

use std::time::Duration;

use bench_suite::{scaling_experiment, scaling_json, write_bench_json};
use topogen::{internet2, random_topology};
use tracenet_cli::args::Opts;

const JOBS: [usize; 4] = [1, 2, 4, 8];

const USAGE: &str = "usage: batch_scaling [--smoke] [--gate] [--rtt-us N] [--seed N]";

/// Reads `(smoke, gate, seed, rtt)` from the flags above; an unknown
/// flag, a stray argument or a value that does not parse is an error.
fn settings(argv: &[String]) -> Result<(bool, bool, u64, Duration), String> {
    let opts = Opts::parse(argv)?;
    opts.only(&["smoke", "gate", "rtt-us", "seed"])?;
    if let Some(extra) = opts.positional(0) {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let smoke = opts.has("smoke");
    let rtt_us = opts.flag_parse("rtt-us", if smoke { 100 } else { 200 })?;
    Ok((smoke, opts.has("gate"), opts.flag_parse("seed", 2010)?, Duration::from_micros(rtt_us)))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (smoke, gate, seed, rtt) = settings(&argv).unwrap_or_else(|e| {
        eprintln!("batch_scaling: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let max_targets = if smoke { 48 } else { usize::MAX };

    let mut points = Vec::new();

    let i2 = internet2(seed);
    eprintln!("scaling {} (rtt {rtt:?}, jobs {JOBS:?}) ...", i2.name);
    points.extend(scaling_experiment(&i2, &JOBS, rtt, max_targets));

    let rand = random_topology(seed, if smoke { 10 } else { 12 });
    eprintln!("scaling {} ...", rand.name);
    points.extend(scaling_experiment(&rand, &JOBS, rtt, max_targets.min(64)));

    for p in &points {
        eprintln!(
            "  {:<12} jobs={} wall={:>8.1?} probes={} ({:.0}/s) speedup={:.2}x",
            p.network, p.jobs, p.wall, p.probes, p.probes_per_sec, p.speedup
        );
    }

    let path = write_bench_json("batch", &scaling_json(rtt, &points)).expect("write BENCH_batch");
    println!("wrote {path}");

    if gate {
        let i2_points: Vec<_> = points.iter().filter(|p| p.network == i2.name).collect();
        let last = i2_points.last().expect("points");
        if last.speedup < 1.0 {
            eprintln!(
                "REGRESSION: {} jobs={} is slower than jobs=1 ({:.2}x)",
                last.network, last.jobs, last.speedup
            );
            std::process::exit(1);
        }
        eprintln!(
            "gate ok: {} jobs={} speedup {:.2}x >= 1.0",
            last.network, last.jobs, last.speedup
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(args: &[&str]) -> Result<(bool, bool, u64, Duration), String> {
        settings(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn ci_flags_read_as_before() {
        let us = Duration::from_micros;
        assert_eq!(read(&["--smoke", "--gate"]), Ok((true, true, 2010, us(100))));
        assert_eq!(read(&[]), Ok((false, false, 2010, us(200))));
        assert_eq!(read(&["--seed", "7", "--rtt-us", "50"]), Ok((false, false, 7, us(50))));
    }

    #[test]
    fn bad_values_and_unknown_flags_are_errors() {
        assert_eq!(read(&["--seed", "x"]), Err(r#"invalid value for --seed: "x""#.into()));
        assert_eq!(read(&["--smok"]), Err("flag --smok needs a value".into()));
        assert_eq!(read(&["--smok", "1"]), Err("unrecognized flag --smok".into()));
        assert!(read(&["--rtt-us", "-5"]).is_err());
        assert!(read(&["smoke"]).is_err());
    }
}
