//! Property tests over the batch engine: on randomized topologies the
//! cross-session cache must change probe spend, never observations.

use std::collections::{BTreeMap, BTreeSet};

use evalkit::run::run_tracenet;
use evalkit::CollectedSet;
use inet::{Addr, Prefix};
use netsim::{ConcurrentNetwork, FaultPlan};
use obs::Recorder;
use probe::{Prober, Protocol, RetryPolicy, SharedNetwork};
use proptest::prelude::*;
use sweep::BatchConfig;
use topogen::random_topology;
use tracenet::{Completeness, TracenetOptions};

fn collect(scenario: &topogen::Scenario, targets: &[Addr], cfg: &BatchConfig) -> CollectedSet {
    collect_with_plan(scenario, targets, cfg, None)
}

fn collect_with_plan(
    scenario: &topogen::Scenario,
    targets: &[Addr],
    cfg: &BatchConfig,
    plan: Option<FaultPlan>,
) -> CollectedSet {
    let mut net = ConcurrentNetwork::new(scenario.topology.clone());
    net.set_fault_plan(plan);
    run_tracenet(&SharedNetwork::from_concurrent(net), scenario.vantage("vantage"), targets, cfg)
}

/// A moderate seeded fault plan for the robustness properties.
fn plan_from(seed: u64) -> FaultPlan {
    FaultPlan { forward_loss: 0.15, router_loss: 0.08, reply_loss: 0.12, ..FaultPlan::new(seed) }
}

/// Session options for faulty runs: a finite per-hop fault budget.
fn faulty_opts() -> TracenetOptions {
    TracenetOptions { hop_fault_budget: Some(32), ..TracenetOptions::default() }
}

fn subnet_map(set: &CollectedSet) -> BTreeMap<Prefix, BTreeSet<Addr>> {
    set.records().iter().map(|r| (r.prefix(), r.members().iter().copied().collect())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The cached run discovers exactly the uncached run's subnet set
    /// (same prefixes, same members, same addresses) while never
    /// spending more probes.
    #[test]
    fn cache_changes_probes_not_observations(seed in 0u64..64, size in 8usize..=11) {
        let scenario = random_topology(seed, size);
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(16).collect();
        let uncached =
            collect(&scenario, &targets, &BatchConfig { use_cache: false, ..BatchConfig::default() });
        let cached = collect(&scenario, &targets, &BatchConfig::default());

        prop_assert_eq!(subnet_map(&cached), subnet_map(&uncached), "seed {}", seed);
        prop_assert_eq!(cached.addresses(), uncached.addresses(), "seed {}", seed);
        prop_assert!(
            cached.probes <= uncached.probes,
            "seed {}: cache added probes ({} > {})",
            seed, cached.probes, uncached.probes
        );
        prop_assert_eq!(uncached.cache, sweep::CacheStats::default());
    }

    /// Accounting invariants: every target gets a session, hits plus
    /// sessions can only exceed the target count (each hit stands in for
    /// work a session skipped), and every hop of a fault-free batch is
    /// complete, so every miss was admitted to the cache.
    #[test]
    fn cache_accounting_is_complete(seed in 64u64..128, jobs in 1usize..=8) {
        let scenario = random_topology(seed, 9);
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(12).collect();
        let net = SharedNetwork::new(scenario.topology.clone());
        let cfg = BatchConfig { jobs, ..BatchConfig::default() };
        let vantage = scenario.vantage("vantage");
        let batch = sweep::run_batch(&net, vantage, &targets, &cfg, &Recorder::disabled());
        let set = CollectedSet::from_batch(&batch);
        let stats = set.cache;

        prop_assert_eq!(set.sessions, targets.len(), "seed {}", seed);
        prop_assert!(
            stats.hits + set.sessions as u64 >= targets.len() as u64,
            "seed {}: sessions ran but accounting lost hits", seed
        );
        for (k, report) in batch.reports.iter().enumerate() {
            for hop in &report.hops {
                prop_assert_eq!(
                    hop.completeness, Completeness::Complete,
                    "seed {}: session {} hop {}", seed, k, hop.hop
                );
            }
        }
    }

    /// Thread count is invisible in the output: jobs=1 and jobs=8 cached
    /// runs produce identical collected sets on fluctuation-free nets.
    #[test]
    fn thread_count_is_invisible(seed in 128u64..160) {
        let scenario = random_topology(seed, 10);
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(12).collect();
        let seq = collect(&scenario, &targets, &BatchConfig::default());
        let par = collect(&scenario, &targets, &BatchConfig { jobs: 8, ..BatchConfig::default() });
        prop_assert_eq!(subnet_map(&par), subnet_map(&seq), "seed {}", seed);
        prop_assert_eq!(par.addresses(), seq.addresses(), "seed {}", seed);
    }

    /// Soundness under faults: whatever a seeded fault plan does, the
    /// batch never reports an address the topology does not assign, and
    /// every session completes (no aborted sentinel reports).
    #[test]
    fn faulty_runs_discover_only_assigned_addresses(seed in 160u64..200) {
        let scenario = random_topology(seed, 9);
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(10).collect();
        let cfg = BatchConfig { opts: faulty_opts(), ..BatchConfig::default() };
        let set = collect_with_plan(&scenario, &targets, &cfg, Some(plan_from(seed)));
        prop_assert_eq!(set.sessions, targets.len(), "seed {}", seed);
        for &addr in set.addresses() {
            prop_assert!(
                scenario.topology.iface_by_addr(addr).is_some(),
                "seed {}: faulty run invented address {}", seed, addr
            );
        }
    }

    /// Monotone degradation: scaling the loss knobs up (same seed) never
    /// lets the batch discover more than a lighter-loss run.
    #[test]
    fn degradation_is_monotone_in_the_loss_knobs(seed in 200u64..230) {
        let scenario = random_topology(seed, 9);
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(10).collect();
        let cfg = BatchConfig { opts: faulty_opts(), ..BatchConfig::default() };
        let base = plan_from(seed);
        let mut prev = usize::MAX;
        for factor in [0.0, 0.5, 1.0] {
            let plan = base.scaled_loss(factor);
            let set = collect_with_plan(&scenario, &targets, &cfg, Some(plan));
            let count = set.addresses().len();
            prop_assert!(
                count <= prev,
                "seed {}: loss factor {} discovered {} > lighter run's {}",
                seed, factor, count, prev
            );
            prev = count;
        }
    }

    /// ProbeStats identities hold for every retry policy shape, with and
    /// without faults: wire sends decompose into requests plus retries,
    /// requests decompose into the four outcomes, and fault attribution
    /// never exceeds the timeout count.
    #[test]
    fn probe_stats_identities_hold_for_every_retry_policy(
        seed in 230u64..250,
        policy_idx in 0usize..5,
        faulty in any::<bool>(),
    ) {
        let policies = [
            RetryPolicy::Fixed { retries: 0 },
            RetryPolicy::Fixed { retries: 2 },
            RetryPolicy::Backoff { retries: 3 },
            RetryPolicy::Adaptive { max: 3 },
            RetryPolicy::Adaptive { max: 0 },
        ];
        let scenario = random_topology(seed, 9);
        let mut net = ConcurrentNetwork::new(scenario.topology.clone());
        if faulty {
            net.set_fault_plan(Some(plan_from(seed)));
        }
        let mut prober = SharedNetwork::from_concurrent(net)
            .prober(scenario.vantage("vantage"), Protocol::Icmp)
            .retry_policy(policies[policy_idx]);
        for &target in scenario.targets.iter().take(6) {
            for ttl in 1..=6u8 {
                let _ = prober.probe(target, ttl);
            }
        }
        let s = prober.stats();
        prop_assert_eq!(s.sent, s.requests + s.retries, "seed {}", seed);
        prop_assert_eq!(
            s.requests,
            s.direct_replies + s.ttl_exceeded + s.unreachable + s.timeouts,
            "seed {}", seed
        );
        prop_assert!(
            s.timeouts_loss + s.timeouts_rate_limited <= s.timeouts,
            "seed {}: attributed more timeouts than happened", seed
        );
        if !faulty {
            prop_assert_eq!(s.timeouts_loss + s.timeouts_rate_limited, 0, "seed {}", seed);
        }
    }
}
