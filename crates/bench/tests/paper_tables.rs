//! Pins the Table 1, Table 2 and Figure 8 numbers that EXPERIMENTS.md
//! and README.md quote at the default seed, so a change that moves them
//! fails here instead of leaving the documents stale.

use bench_suite::repro::parse_args;
use bench_suite::{accuracy_experiment, isp_experiment, AccuracyResult, ExpArgs};

/// The configuration `repro` reads from `argv`.
fn repro_args(argv: &[&str]) -> ExpArgs {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    parse_args(&argv).expect("valid repro arguments").1
}

/// Both exact-match rates as `repro` prints them: percent, one decimal,
/// incl. and excl. unresponsive subnets.
fn rates(r: &AccuracyResult) -> (String, String) {
    (
        format!("{:.1}", 100.0 * r.table.exact_rate()),
        format!("{:.1}", 100.0 * r.table.exact_rate_responsive()),
    )
}

#[test]
fn table1_matches_the_documented_numbers() {
    let args = repro_args(&["table1"]);
    let r = accuracy_experiment(topogen::internet2(args.seed), &args);
    assert_eq!(r.probes, 11402);
    assert_eq!(rates(&r), ("73.2".into(), "98.5".into()));
}

#[test]
fn table2_matches_the_documented_numbers() {
    // What `repro table2 --cache` runs: one job, cache on.
    let args = repro_args(&["table2", "--cache"]);
    let r = accuracy_experiment(topogen::geant(args.seed), &args);
    assert_eq!(r.probes, 9478);
    assert_eq!(rates(&r), ("56.5".into(), "100.0".into()));
    // `repro table2` (the source of EXPERIMENTS.md) runs it uncached;
    // the cache saves probes but must not move the table.
    let uncached = repro_args(&["table2"]);
    assert_eq!(rates(&accuracy_experiment(topogen::geant(uncached.seed), &uncached)), rates(&r));
}

#[test]
fn figure8_matches_the_documented_numbers() {
    // The call `repro fig8` makes, in its default configuration.
    let counts = isp_experiment(&repro_args(&["fig8"])).subnet_counts();
    let rows: Vec<(&str, Vec<usize>)> = counts
        .iter()
        .map(|(vantage, per_isp)| (vantage.as_str(), per_isp.iter().map(|&(_, n)| n).collect()))
        .collect();
    assert_eq!(
        rows,
        [
            ("rice", vec![135, 55, 96, 65]),
            ("uoregon", vec![134, 63, 105, 66]),
            ("umass", vec![130, 60, 109, 57]),
        ]
    );
    let isps: Vec<&str> = counts[0].1.iter().map(|(isp, _)| isp.as_str()).collect();
    assert_eq!(isps, ["sprintlink", "ntt", "level3", "abovenet"]);
}
