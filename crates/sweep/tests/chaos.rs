//! Chaos conformance: the batch engine under seeded fault injection.
//!
//! Every run here is replayable from a single seed (`CHAOS_FAULT_SEED`,
//! default 2010 — CI sweeps a small matrix of seeds). The suite pins the
//! graceful-degradation contract:
//!
//! 1. **never panics** — every fault profile × topology × thread count
//!    completes and yields one non-aborted report per target;
//! 2. **sound subset** — faults only remove observations; every address
//!    a faulty run reports is a genuinely assigned interface of the
//!    topology, and subnet members are real members of real prefixes;
//! 3. **monotone degradation** — for one seed, scaling the loss knobs up
//!    never increases what is discovered;
//! 4. **zero-fault identity** — an attached all-zero [`FaultPlan`]
//!    renders every report byte-for-byte identical to a run with no
//!    plan at all;
//! 5. **no cache poisoning** — a hop observed while degraded is never
//!    replayed by the [`SubnetCache`] into a fault-free session.

use std::collections::BTreeSet;
use std::sync::Arc;

use inet::Addr;
use netsim::{ConcurrentNetwork, FaultPlan, FaultProfile};
use obs::Recorder;
use probe::{Protocol, SharedNetwork};
use sweep::{run_batch, BatchConfig, BatchResult, SubnetCache};
use topogen::Scenario;
use tracenet::{Completeness, Session, SubnetStore, TraceReport, TracenetOptions};

/// The seed every plan in this suite is derived from; CI overrides it.
fn fault_seed() -> u64 {
    std::env::var("CHAOS_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(2010)
}

fn vantage_name(sc: &Scenario) -> &'static str {
    if sc.name.starts_with("random") {
        "vantage"
    } else {
        "utdallas"
    }
}

fn scenarios() -> Vec<Scenario> {
    vec![topogen::internet2(3), topogen::geant(5), topogen::random_topology(7, 10)]
}

/// Options used by the faulty runs: a finite per-hop fault budget, so a
/// black-holed hop is abandoned instead of probed to exhaustion.
fn chaos_opts() -> TracenetOptions {
    TracenetOptions { hop_fault_budget: Some(32), ..TracenetOptions::default() }
}

fn run_with_plan(
    sc: &Scenario,
    plan: Option<FaultPlan>,
    jobs: usize,
    use_cache: bool,
    cap: usize,
    opts: TracenetOptions,
) -> BatchResult {
    let mut net = ConcurrentNetwork::new(sc.topology.clone());
    net.set_fault_plan(plan);
    let shared = SharedNetwork::from_concurrent(net);
    let targets: Vec<Addr> = sc.targets.iter().copied().take(cap).collect();
    let cfg = BatchConfig { jobs, use_cache, opts, ..BatchConfig::default() };
    run_batch(&shared, sc.vantage(vantage_name(sc)), &targets, &cfg, &Recorder::disabled())
}

fn discovered(result: &BatchResult) -> BTreeSet<Addr> {
    result.reports.iter().flat_map(|r| r.all_addresses()).collect()
}

#[test]
fn chaos_matrix_completes_and_discovers_only_real_addresses() {
    let seed = fault_seed();
    for sc in scenarios() {
        for profile in FaultProfile::ALL {
            let plan = profile.plan(seed);
            for jobs in [1usize, 4, 8] {
                let result = run_with_plan(&sc, Some(plan), jobs, true, 10, chaos_opts());
                assert!(
                    result.reports.iter().all(|r| !r.aborted),
                    "{}: profile={} jobs={jobs} aborted a session",
                    sc.name,
                    profile.name(),
                );
                assert_eq!(result.reports.len(), sc.targets.iter().take(10).count());
                for addr in discovered(&result) {
                    assert!(
                        sc.topology.iface_by_addr(addr).is_some(),
                        "{}: profile={} jobs={jobs} invented address {addr}",
                        sc.name,
                        profile.name(),
                    );
                }
            }
        }
    }
}

#[test]
fn faulty_discoveries_are_a_subset_of_ground_truth_members() {
    let seed = fault_seed();
    for sc in scenarios() {
        let plan = FaultProfile::Chaos.plan(seed);
        let result = run_with_plan(&sc, Some(plan), 1, true, 10, chaos_opts());
        for report in &result.reports {
            for s in report.subnets() {
                for &m in s.record.members() {
                    let owner = sc.topology.iface_by_addr(m);
                    assert!(
                        owner.is_some(),
                        "{}: member {m} of collected {} is not an assigned address",
                        sc.name,
                        s.record.prefix(),
                    );
                }
            }
        }
    }
}

#[test]
fn degradation_is_monotone_as_loss_rises() {
    let seed = fault_seed();
    let sc = topogen::internet2(3);
    let base = FaultProfile::HeavyLoss.plan(seed);
    let mut prev = usize::MAX;
    for factor in [0.0, 0.3, 1.0] {
        let result = run_with_plan(&sc, Some(base.scaled_loss(factor)), 1, true, 10, chaos_opts());
        let count = discovered(&result).len();
        assert!(
            count <= prev,
            "{}: loss factor {factor} discovered more ({count}) than a lighter run ({prev})",
            sc.name,
        );
        prev = count;
    }
}

#[test]
fn zero_fault_plan_runs_are_byte_identical_to_no_plan() {
    let seed = fault_seed();
    let render =
        |r: &BatchResult| -> Vec<String> { r.reports.iter().map(|x| x.to_string()).collect() };
    for sc in scenarios() {
        // Sequential with the cache on, and parallel with it off: the two
        // deterministic configurations (cached parallel admission order is
        // scheduling-dependent, so probe counts there are not pinned).
        for (jobs, use_cache) in [(1usize, true), (4, false)] {
            let opts = TracenetOptions::default();
            let with = run_with_plan(&sc, Some(FaultPlan::new(seed)), jobs, use_cache, 10, opts);
            let without = run_with_plan(&sc, None, jobs, use_cache, 10, opts);
            assert_eq!(with.probes, without.probes, "{}: jobs={jobs}", sc.name);
            assert_eq!(render(&with), render(&without), "{}: jobs={jobs}", sc.name);
            assert!(with.reports.iter().all(|r| r.completeness() == Completeness::Complete));
        }
    }
}

#[test]
fn degraded_observations_never_reach_a_fault_free_session() {
    let sc = topogen::internet2(3);
    let vantage = sc.vantage("utdallas");
    let targets: Vec<Addr> = sc.targets.iter().copied().take(6).collect();
    let store: Arc<dyn SubnetStore> = Arc::new(SubnetCache::new());

    // Epoch 1: heavy loss. Degraded hops must not be admitted.
    let mut net = ConcurrentNetwork::new(sc.topology.clone());
    net.set_fault_plan(Some(FaultProfile::HeavyLoss.plan(fault_seed())));
    let net = SharedNetwork::from_concurrent(net);
    let mut saw_degraded = false;
    for (k, &target) in targets.iter().enumerate() {
        let mut prober = net.prober(vantage, Protocol::Icmp).ident(k as u16);
        let report = Session::new(&mut prober, chaos_opts())
            .with_subnet_store(Arc::clone(&store))
            .run(target);
        saw_degraded |= report.hops.iter().any(|h| h.completeness.is_degraded());
    }
    assert!(saw_degraded, "the faulty epoch produced no degraded hops; the test proves nothing");

    // Epoch 2: a fault-free pass over the warmed store must be
    // observation-identical to a storeless fault-free pass — any degraded
    // entry replayed from the store would surface as a divergence.
    let session_reports = |store: Option<Arc<dyn SubnetStore>>| -> Vec<TraceReport> {
        let net = SharedNetwork::new(sc.topology.clone());
        targets
            .iter()
            .enumerate()
            .map(|(k, &target)| {
                let mut prober = net.prober(vantage, Protocol::Icmp).ident(100 + k as u16);
                let mut session = Session::new(&mut prober, TracenetOptions::default());
                if let Some(s) = &store {
                    session = session.with_subnet_store(Arc::clone(s));
                }
                session.run(target)
            })
            .collect()
    };
    let warm = session_reports(Some(store));
    let reference = session_reports(None);
    for (w, r) in warm.iter().zip(&reference) {
        assert_eq!(w.all_addresses(), r.all_addresses(), "store replayed a degraded observation");
        assert_eq!(w.completeness(), Completeness::Complete);
        let wp: Vec<_> = w.subnets().map(|s| s.record.prefix()).collect();
        let rp: Vec<_> = r.subnets().map(|s| s.record.prefix()).collect();
        assert_eq!(wp, rp, "store replay changed the collected subnet sequence");
    }
}
