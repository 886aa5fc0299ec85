//! Differential conformance: the batch engine at any thread count, cache
//! on or off, must collect exactly what a plain sequential
//! session-per-target loop collects.
//!
//! The golden baseline below is deliberately *independent* of the engine
//! under test — it constructs a [`Session`] per target by hand over one
//! `SimProber` each, with no batch-driver code involved. Scenarios are
//! restricted to history-independent topologies (the research backbones
//! and small random nets carry no rate limits, no response fluctuation
//! and no per-flow load balancing), where observations cannot depend on
//! probe interleaving — so the collected subnets must match bit for bit.
//! Only probe counts are allowed to differ, and only downward: the cache
//! can skip work, never add it.

use std::collections::{BTreeMap, BTreeSet};

use evalkit::{classify, CollectedSet, MatchClass};
use inet::{Addr, Prefix};
use probe::{Prober, Protocol, SharedNetwork};
use sweep::BatchConfig;
use topogen::Scenario;
use tracenet::{Session, TracenetOptions};

/// Everything that must be identical across engine configurations:
/// merged subnets with their member sets, every address seen, and the
/// per-ground-truth-subnet match classes (which pin the mean accuracy).
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    subnets: BTreeMap<Prefix, BTreeSet<Addr>>,
    addresses: BTreeSet<Addr>,
    classes: Vec<(Prefix, &'static str)>,
    sessions: usize,
}

fn fingerprint(sc: &Scenario, set: &CollectedSet) -> Fingerprint {
    let gt: Vec<_> = sc.ground_truth.evaluated().collect();
    let records = set.records();
    let classes =
        classify(&gt, &records).into_iter().map(|c| (c.original, c.class.label())).collect();
    Fingerprint {
        subnets: records
            .iter()
            .map(|r| (r.prefix(), r.members().iter().copied().collect()))
            .collect(),
        addresses: set.addresses().clone(),
        classes,
        sessions: set.sessions,
    }
}

/// The golden baseline: one hand-built session per target, fresh
/// network, no engine code involved.
fn golden(sc: &Scenario, targets: &[Addr]) -> CollectedSet {
    let net = SharedNetwork::new(sc.topology.clone());
    let vantage = sc.vantage(vantage_name(sc));
    let mut out = CollectedSet::default();
    for (k, &target) in targets.iter().enumerate() {
        let mut prober = net.prober(vantage, Protocol::Icmp).ident(k as u16);
        let report = Session::new(&mut prober, TracenetOptions::default()).run(target);
        out.probes += prober.stats().sent;
        out.add_report(&report);
    }
    out
}

fn vantage_name(sc: &Scenario) -> &'static str {
    if sc.name.starts_with("random") {
        "vantage"
    } else {
        "utdallas"
    }
}

fn targets_of(sc: &Scenario, cap: usize) -> Vec<Addr> {
    sc.targets.iter().copied().take(cap).collect()
}

/// Runs the full conformance matrix over one scenario and returns
/// whether any cached configuration produced cache hits with a strictly
/// lower probe count than its uncached twin.
fn conform(sc: &Scenario, cap: usize) -> bool {
    let targets = targets_of(sc, cap);
    let baseline = golden(sc, &targets);
    let want = fingerprint(sc, &baseline);
    let mut saved_probes = false;

    for jobs in [1usize, 4, 8] {
        let mut uncached_probes = None;
        for use_cache in [false, true] {
            let shared = SharedNetwork::new(sc.topology.clone());
            let cfg = BatchConfig { jobs, use_cache, ..BatchConfig::default() };
            let set =
                evalkit::run::run_tracenet(&shared, sc.vantage(vantage_name(sc)), &targets, &cfg);
            let got = fingerprint(sc, &set);
            assert_eq!(
                got, want,
                "{}: jobs={jobs} cache={use_cache} diverged from the sequential baseline",
                sc.name
            );
            if use_cache {
                let uncached = uncached_probes.expect("uncached ran first");
                assert!(
                    set.probes <= uncached,
                    "{}: jobs={jobs} cached run spent more probes ({} > {uncached})",
                    sc.name,
                    set.probes
                );
                if set.cache.hits > 0 && set.probes < uncached {
                    saved_probes = true;
                }
            } else {
                assert_eq!(
                    set.probes, baseline.probes,
                    "{}: jobs={jobs} uncached probe count diverged from the baseline",
                    sc.name
                );
                uncached_probes = Some(set.probes);
            }
        }
    }
    saved_probes
}

#[test]
fn internet2_batches_conform_and_the_cache_saves_probes() {
    let sc = topogen::internet2(3);
    assert!(conform(&sc, 40), "internet2: expected cache hits with a strictly lower probe count");
}

#[test]
fn geant_batches_conform_and_the_cache_saves_probes() {
    let sc = topogen::geant(5);
    assert!(conform(&sc, 40), "geant: expected cache hits with a strictly lower probe count");
}

#[test]
fn random_topology_batches_conform() {
    let sc = topogen::random_topology(7, 10);
    // Small random nets may or may not give the cache a chance to save
    // probes; conformance itself is what this case pins.
    conform(&sc, usize::MAX);
}

#[test]
fn cached_collection_keeps_accuracy_on_internet2() {
    // A sanity anchor on top of raw equality: the cached parallel run
    // still collects a majority of evaluated subnets exactly.
    let sc = topogen::internet2(11);
    let targets = targets_of(&sc, 40);
    let shared = SharedNetwork::new(sc.topology.clone());
    let cfg = BatchConfig { jobs: 8, ..BatchConfig::default() };
    let set = evalkit::run::run_tracenet(&shared, sc.vantage("utdallas"), &targets, &cfg);
    assert!(set.cache.hits + set.cache.skips + set.cache.misses > 0, "the cache was consulted");
    let gt: Vec<_> = sc.ground_truth.evaluated().collect();
    let cls = classify(&gt, &set.records());
    let touched: Vec<_> = cls.iter().filter(|c| !c.collected.is_empty()).collect();
    assert!(!touched.is_empty());
    let exact = touched.iter().filter(|c| c.class == MatchClass::Exact).count();
    assert!(
        exact * 2 > touched.len(),
        "a majority of collected subnets match exactly ({exact}/{})",
        touched.len()
    );
}
