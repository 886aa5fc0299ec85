//! The batch scheduler: N targets fanned across a worker pool over one
//! shared network. Workers probe the engine's lock-free concurrent
//! handle directly (`netsim::ConcurrentNetwork` via
//! [`probe::SharedNetwork`]) — no global lock serializes the hot path.
//!
//! Determinism contract: the result is in **target order** regardless
//! of which worker finished which session first, and every
//! session's probe ident is a pure function of its target index (see
//! [`IdentAllocator`]), so the collected output is independent of the
//! thread count on any topology whose responses do not depend on probe
//! interleaving (no rate limiting, no fluctuation). The conformance
//! suite in `tests/conformance.rs` pins exactly that property.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use std::panic::{catch_unwind, AssertUnwindSafe};

use inet::Addr;
use obs::Recorder;
use probe::{IdentAllocator, IdentSpace, Prober, Protocol, RetryPolicy, SharedNetwork};
use tracenet::{Session, SubnetStore, TraceReport, TracenetOptions};

use crate::cache::{CacheStats, SubnetCache};

/// Configuration of one batch run.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Worker threads, the calling thread included: `jobs − 1` helpers
    /// are spawned, so values ≤ 1 run every session on the calling
    /// thread, in target order.
    pub jobs: usize,
    /// Whether sessions share a cross-session [`SubnetCache`].
    pub use_cache: bool,
    /// Probe protocol.
    pub protocol: Protocol,
    /// Per-session tracenet options.
    pub opts: TracenetOptions,
    /// Retry policy used by every session's prober (the default is the
    /// paper's fixed single re-probe).
    pub retry: RetryPolicy,
    /// Modeled per-probe round-trip time. `Duration::ZERO` (the default)
    /// probes at simulator speed; a nonzero RTT blocks each wire send for
    /// that long, making the batch latency-bound — the regime where
    /// `jobs` parallelism pays, as on the real Internet.
    pub probe_rtt: Duration,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            jobs: 1,
            use_cache: true,
            protocol: Protocol::Icmp,
            opts: TracenetOptions::default(),
            retry: RetryPolicy::default(),
            probe_rtt: Duration::ZERO,
        }
    }
}

/// Everything one batch collected.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// One report per target, **in target order** (merge order is
    /// independent of the thread count).
    pub reports: Vec<TraceReport>,
    /// Total wire probes across all sessions.
    pub probes: u64,
    /// Cache counts, read from the reports (all zero when the cache was
    /// disabled).
    pub cache: CacheStats,
}

/// Runs one session, isolating the batch from a pathological target: a
/// panic inside the session (a prober bug, a poisoned topology edge
/// case) is caught and converted into a sentinel report with
/// `aborted: true` and no hops, so one bad target can neither take down
/// its worker thread nor stall the pool. The engine's shared state lives
/// behind per-router `parking_lot` shards (no poisoning) and the subnet
/// cache only admits complete hops, so a mid-flight panic cannot leave
/// corrupt shared state behind.
fn run_session<P: Prober>(
    prober: P,
    target: Addr,
    opts: TracenetOptions,
    store: Option<Arc<dyn SubnetStore>>,
    recorder: &Recorder,
) -> TraceReport {
    let vantage = prober.src();
    catch_unwind(AssertUnwindSafe(|| {
        let mut session = Session::new(prober, opts).with_recorder(recorder.clone());
        if let Some(store) = store {
            session = session.with_subnet_store(store);
        }
        session.run(target)
    }))
    .unwrap_or_else(|_| TraceReport {
        vantage,
        destination: target,
        destination_reached: false,
        hops: Vec::new(),
        total_probes: 0,
        cache_hits: 0,
        aborted: true,
    })
}

/// Runs one tracenet session per target against a shared network,
/// fanning the targets across `cfg.jobs` workers: the calling thread and
/// `jobs − 1` spawned helpers run one loop, each claiming the next target
/// and storing its report in that target's slot. With one job nothing is
/// spawned and the sessions run on the calling thread, in target order.
///
/// Session k probes with ident `k mod 32 768` of the tracenet namespace
/// ([`probe::IdentBlock::get`]), so a batch of more than 32 768 targets,
/// such as the paper's 34 084, reuses idents. The simulator returns each
/// reply to the session that sent the probe, and the ident only feeds
/// the flow hash, so answers still depend on the target index alone.
pub fn run_batch(
    net: &SharedNetwork,
    vantage: Addr,
    targets: &[Addr],
    cfg: &BatchConfig,
    recorder: &Recorder,
) -> BatchResult {
    let store: Option<Arc<dyn SubnetStore>> =
        cfg.use_cache.then(|| Arc::new(SubnetCache::new()) as Arc<dyn SubnetStore>);
    let block = IdentAllocator::new().block(IdentSpace::Tracenet, targets.len());
    let session = |k: usize| {
        // Tag every event of this session with its target index, so
        // multiplexed logs partition cleanly per target.
        let recorder = recorder.clone().with_session(k as u64);
        let prober = net
            .prober(vantage, cfg.protocol)
            .ident(block.get(k))
            .rtt(cfg.probe_rtt)
            .retry_policy(cfg.retry)
            .recorder(recorder.clone());
        run_session(prober, targets[k], cfg.opts, store.clone(), &recorder)
    };

    let slots: Vec<OnceLock<TraceReport>> = targets.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let worker = || loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(k) else { break };
        // Each index is claimed once, so the slot is empty.
        let _ = slot.set(session(k));
    };
    std::thread::scope(|scope| {
        for _ in 1..cfg.jobs.clamp(1, targets.len().max(1)) {
            scope.spawn(worker);
        }
        worker();
    });
    let reports: Vec<TraceReport> = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every target index was claimed and run"))
        .collect();
    let probes = reports.iter().map(|r| r.total_probes).sum();
    let cache =
        if cfg.use_cache { CacheStats::from_reports(&reports) } else { CacheStats::default() };
    BatchResult { probes, reports, cache }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::samples;

    fn chain_net() -> (SharedNetwork, samples::Names) {
        let (topo, names) = samples::chain(3);
        (SharedNetwork::new(topo), names)
    }

    #[test]
    fn batch_over_one_target_matches_a_plain_session() {
        let (shared, names) = chain_net();
        let cfg = BatchConfig::default();
        let result = run_batch(
            &shared,
            names.addr("vantage"),
            &[names.addr("dest")],
            &cfg,
            &Recorder::disabled(),
        );
        assert_eq!(result.reports.len(), 1);
        assert!(result.reports[0].destination_reached);
        assert_eq!(result.probes, result.reports[0].total_probes);
        assert_eq!(result.reports[0].subnets().count(), 4, "all four /31 links");
    }

    #[test]
    fn repeating_a_target_hits_the_cache() {
        let (shared, names) = chain_net();
        let dest = names.addr("dest");
        let cfg = BatchConfig::default();
        let result =
            run_batch(&shared, names.addr("vantage"), &[dest, dest], &cfg, &Recorder::disabled());
        assert!(result.cache.hits > 0, "the second session reuses the first's subnets");
        assert!(
            result.reports[1].total_probes < result.reports[0].total_probes,
            "cached session is cheaper ({} vs {})",
            result.reports[1].total_probes,
            result.reports[0].total_probes
        );
        let p0: Vec<_> = result.reports[0].subnets().map(|s| s.record.prefix()).collect();
        let p1: Vec<_> = result.reports[1].subnets().map(|s| s.record.prefix()).collect();
        assert_eq!(p0, p1, "replayed sessions report the same subnets");
    }

    #[test]
    fn cache_counts_are_read_from_the_hops() {
        let (shared, names) = chain_net();
        let dest = names.addr("dest");
        let cfg = BatchConfig::default();
        let result =
            run_batch(&shared, names.addr("vantage"), &[dest, dest], &cfg, &Recorder::disabled());
        let want = CacheStats { hits: 4, skips: 0, misses: 4 };
        assert_eq!(result.cache, want);

        let (topo, names) = samples::figure3();
        let shared = SharedNetwork::new(topo);
        let targets =
            [names.addr("dest"), names.addr("R5.n"), names.addr("dest"), names.addr("R5.n")];
        let result =
            run_batch(&shared, names.addr("vantage"), &targets, &cfg, &Recorder::disabled());
        let want = CacheStats { hits: 11, skips: 0, misses: 5 };
        assert_eq!(result.cache, want);
    }

    #[test]
    fn registry_accounts_every_probe() {
        let (shared, names) = chain_net();
        let metrics = Arc::new(obs::Registry::new());
        let recorder = Recorder::new().with_metrics(Arc::clone(&metrics));
        let result = run_batch(
            &shared,
            names.addr("vantage"),
            &[names.addr("dest")],
            &BatchConfig::default(),
            &recorder,
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.sent_total(), result.probes);
        assert_eq!(snap.sent_unattributed(), 0);
    }

    #[test]
    fn sessions_hitting_one_stop_set_key_share_its_subnet() {
        let (shared, names) = chain_net();
        let dest = names.addr("dest");
        let cfg = BatchConfig::default();
        let targets = [dest, dest, dest];
        let result =
            run_batch(&shared, names.addr("vantage"), &targets, &cfg, &Recorder::disabled());
        let [first, second, third] = &result.reports[..] else { panic!("three reports") };
        assert!(second.hops.iter().chain(&third.hops).all(|h| h.cached));
        for ((a, b), c) in first.hops.iter().zip(&second.hops).zip(&third.hops) {
            let (a, b, c) = (a.subnet.as_ref(), b.subnet.as_ref(), c.subnet.as_ref());
            let (Some(a), Some(b), Some(c)) = (a, b, c) else { continue };
            // Both hits point at the stop set's copy, and nothing else
            // holds it once the batch's cache is gone: no member list
            // was cloned for either session.
            assert!(Arc::ptr_eq(b, c), "hop {} is one shared subnet", b.pivot);
            assert_eq!(Arc::strong_count(b), 2);
            // The admitting session keeps the subnet it explored.
            assert!(!Arc::ptr_eq(a, b));
            assert_eq!(a.record.members(), b.record.members());
        }
        assert_eq!(second.subnets().count(), 4);
    }

    #[test]
    fn disabled_cache_reports_zero_stats() {
        let (shared, names) = chain_net();
        let dest = names.addr("dest");
        let cfg = BatchConfig { use_cache: false, ..BatchConfig::default() };
        let result =
            run_batch(&shared, names.addr("vantage"), &[dest, dest], &cfg, &Recorder::disabled());
        assert_eq!(result.cache, CacheStats::default());
        assert_eq!(result.reports[0].total_probes, result.reports[1].total_probes);
    }

    #[test]
    fn worker_pool_preserves_target_order() {
        let (topo, names) = samples::figure3();
        let shared = SharedNetwork::new(topo);
        let targets =
            [names.addr("dest"), names.addr("R5.n"), names.addr("dest"), names.addr("R5.n")];
        let cfg = BatchConfig { jobs: 4, ..BatchConfig::default() };
        let result =
            run_batch(&shared, names.addr("vantage"), &targets, &cfg, &Recorder::disabled());
        assert_eq!(result.reports.len(), targets.len());
        for (report, &target) in result.reports.iter().zip(&targets) {
            assert_eq!(report.destination, target, "report k belongs to target k");
        }
    }

    #[test]
    fn panicking_session_yields_an_aborted_sentinel() {
        use probe::{ProbeOutcome, ProbeStats};

        /// A prober whose first wire probe panics — the worst-case
        /// pathological target.
        struct Bomb;
        impl Prober for Bomb {
            fn src(&self) -> Addr {
                "10.0.0.1".parse().unwrap()
            }
            fn protocol(&self) -> Protocol {
                Protocol::Icmp
            }
            fn probe_with_flow(&mut self, _dst: Addr, _ttl: u8, _flow: u16) -> ProbeOutcome {
                panic!("simulated prober failure");
            }
            fn stats(&self) -> ProbeStats {
                ProbeStats::default()
            }
        }

        // Silence the default panic hook for the expected panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_session(
            Bomb,
            "10.9.9.9".parse().unwrap(),
            TracenetOptions::default(),
            None,
            &Recorder::disabled(),
        );
        std::panic::set_hook(prev);

        assert!(report.aborted);
        assert!(report.hops.is_empty());
        assert!(!report.destination_reached);
        assert_eq!(report.completeness(), tracenet::Completeness::Abandoned);
        assert_eq!(report.destination, "10.9.9.9".parse::<Addr>().unwrap());
    }

    #[test]
    fn healthy_batch_reports_are_never_aborted() {
        let (shared, names) = chain_net();
        let dest = names.addr("dest");
        let cfg = BatchConfig { jobs: 4, ..BatchConfig::default() };
        let result = run_batch(
            &shared,
            names.addr("vantage"),
            &[dest, dest, dest, dest],
            &cfg,
            &Recorder::disabled(),
        );
        assert!(result.reports.iter().all(|r| !r.aborted));
        assert!(result
            .reports
            .iter()
            .all(|r| r.completeness() == tracenet::Completeness::Complete));
    }

    #[test]
    fn concurrent_batch_events_partition_cleanly_by_session() {
        use obs::{Cause, Recorder, SinkHandle, VecSink};
        let (topo, names) = samples::figure3();
        let shared = SharedNetwork::new(topo);
        let targets: Vec<Addr> =
            std::iter::repeat_n([names.addr("dest"), names.addr("R5.n")], 4).flatten().collect();
        let sink = VecSink::new();
        let reader = sink.clone();
        let recorder = Recorder::new().with_sink(SinkHandle::new(sink));
        let cfg = BatchConfig { jobs: 8, ..BatchConfig::default() };
        let result = run_batch(&shared, names.addr("vantage"), &targets, &cfg, &recorder);
        assert_eq!(result.reports.len(), targets.len());

        let events = reader.events();
        assert!(!events.is_empty());
        let mut seen: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for e in &events {
            let k = e.session.expect("every batch event carries a session tag") as usize;
            assert!(k < targets.len(), "session {k} out of range");
            seen.insert(k as u64);
            // Trace-collection probes unambiguously identify their
            // session's target: session k only ever traces targets[k].
            if e.cause == Some(Cause::TraceCollection) {
                assert_eq!(e.dst, targets[k], "session {k} traced a foreign target");
            }
        }
        assert_eq!(seen.len(), targets.len(), "all eight sessions emitted events");
        // Decisions are tagged the same way.
        for d in reader.decisions() {
            assert!(d.session.is_some_and(|k| (k as usize) < targets.len()));
        }
    }

    #[test]
    fn empty_target_list_is_fine() {
        let (shared, names) = chain_net();
        let result = run_batch(
            &shared,
            names.addr("vantage"),
            &[],
            &BatchConfig::default(),
            &Recorder::disabled(),
        );
        assert!(result.reports.is_empty());
        assert_eq!(result.probes, 0);
    }
}
