//! `collector-bench --workload <name|all> [--seed N] [--seconds N]
//! [--trace 0|1] [--scenario-seed N]`
//!
//! Prints a table per workload and, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use collector_bench::run::out_dir;
use collector_bench::{isp_scenario_json, result_line, run, sys, Config, Workload};

const USAGE: &str = "\
usage: collector-bench --workload <isp-batch|isp-record|isp-replay|all>
                       [--seed N] [--seconds N] [--trace 0|1] [--scenario-seed N]

  --seed N           workload seed: the order targets are issued in (2010)
  --seconds N        length of the measured loop (10)
  --trace 0|1        1 runs the traced run and reports per-layer metrics (0)
  --scenario-seed N  seed of the 4-ISP internet (2010)";

/// Set-ups per run, spread over the measured window; `setup_s` is their
/// median.
const SETUPS: usize = 4;

fn parse(args: &[String]) -> Result<(Vec<Workload>, Config), String> {
    let mut workloads = None;
    let mut config = Config {
        workload: Workload::Batch,
        seed: 2010,
        scenario_seed: 2010,
        seconds: 10.0,
        jobs: sys::nproc(),
        setups: SETUPS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => config.seed = number()?,
            "--scenario-seed" => config.scenario_seed = number()?,
            "--seconds" => {
                config.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: not a duration: {value}"))?
            }
            "--trace" => config.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workloads.ok_or("missing --workload")?, config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, config) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("collector-bench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The scenario file is generated before anything is timed.
    let scenario = isp_scenario_json(config.scenario_seed);
    let mut reports = Vec::new();
    for workload in workloads {
        match run(&Config { workload, ..config }, &scenario) {
            Ok(report) => {
                print!("{}", report.human());
                if let Err(e) = collector_bench::run::write_outputs(&report) {
                    eprintln!("collector-bench: cannot write {}: {e}", out_dir().display());
                }
                reports.push(report);
            }
            Err(e) => {
                eprintln!("collector-bench: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_line(&reports));
    ExitCode::SUCCESS
}
