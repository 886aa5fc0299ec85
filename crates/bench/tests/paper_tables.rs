//! Pins the Table 1 and Table 2 numbers that EXPERIMENTS.md and
//! README.md quote at the default seed, so a change that moves them
//! fails here instead of leaving the documents stale.

use bench_suite::{accuracy_experiment, table1, table2, AccuracyResult, ExpArgs, SEED};
use sweep::BatchConfig;

/// Both exact-match rates as the binaries print them: percent, one
/// decimal, incl. and excl. unresponsive subnets.
fn rates(r: &AccuracyResult) -> (String, String) {
    (
        format!("{:.1}", 100.0 * r.table.exact_rate()),
        format!("{:.1}", 100.0 * r.table.exact_rate_responsive()),
    )
}

#[test]
fn table1_matches_the_documented_numbers() {
    let r = table1(SEED);
    assert_eq!(r.probes, 11402);
    assert_eq!(rates(&r), ("73.2".into(), "98.5".into()));
}

#[test]
fn table2_matches_the_documented_numbers() {
    // What the `table2` binary runs by default: one job, cache on.
    let args = ExpArgs { seed: SEED, cfg: BatchConfig::default(), fault: None };
    let r = accuracy_experiment(topogen::geant(SEED), &args);
    assert_eq!(r.probes, 9478);
    assert_eq!(rates(&r), ("56.5".into(), "100.0".into()));
    // `repro_all` (the source of EXPERIMENTS.md) runs it uncached; the
    // cache saves probes but must not move the table.
    assert_eq!(rates(&table2(SEED)), rates(&r));
}
