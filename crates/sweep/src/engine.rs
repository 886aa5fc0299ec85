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

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use inet::Addr;
use obs::Recorder;
use probe::{IdentAllocator, IdentSpace, Prober, Protocol, RetryPolicy, SharedNetwork};
use tracenet::{Session, SubnetStore, TraceReport, TracenetOptions};

use crate::cache::{CacheStats, SubnetCache};
use crate::drain::Endpoints;

/// Configuration of one batch run.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Worker threads, the calling thread included: `jobs − 1` helpers
    /// are spawned, so values ≤ 1 run every session on the calling
    /// thread, in target order. When the recorder has a sink, one more
    /// thread, the drain, feeds it the workers' events.
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
/// and storing its report in that target's slot. With one job no worker
/// is spawned and the sessions run on the calling thread, in target
/// order.
///
/// When `recorder` has a sink, one drain thread is spawned besides the
/// workers and is the only thread that calls the sink. Each worker hands
/// its probe and decision events over in batches of about a thousand,
/// through a bounded queue, so rendering and writing them run beside the
/// probing. At one job the sink sees every event in the order the
/// sessions emit it, as with the sink called directly; at more, each
/// worker's events stay in order and the workers' batches interleave.
/// This returns only after every event has reached the sink, an aborted
/// session's included, so a caller can append to the same log right
/// away. A sink that panics makes this panic once the workers are done;
/// the events after its failure are dropped.
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
    let reports = run_sessions(targets.len(), cfg.jobs, recorder, |k, recorder| {
        let prober = net
            .prober(vantage, cfg.protocol)
            .ident(block.get(k))
            .rtt(cfg.probe_rtt)
            .retry_policy(cfg.retry)
            .recorder(recorder.clone());
        run_session(prober, targets[k], cfg.opts, store.clone(), &recorder)
    });
    let probes = reports.iter().map(|r| r.total_probes).sum();
    let cache =
        if cfg.use_cache { CacheStats::from_reports(&reports) } else { CacheStats::default() };
    BatchResult { probes, reports, cache }
}

/// Runs `session(k, recorder)` for every k below `count` on `jobs`
/// workers, the calling thread included, and returns the reports in
/// index order. Each worker claims the next index and stores the report
/// in that index's slot. `recorder` is tagged with session k; when the
/// caller's recorder has a sink, it is the worker's hand-off to the
/// drain thread, which this returns only after.
fn run_sessions(
    count: usize,
    jobs: usize,
    recorder: &Recorder,
    session: impl Fn(usize, Recorder) -> TraceReport + Sync,
) -> Vec<TraceReport> {
    let slots: Vec<OnceLock<TraceReport>> = (0..count).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let worker = |recorder: Recorder| loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(k) else { break };
        // Tag every event of this session with its target index, so
        // multiplexed logs partition cleanly per target. Each index is
        // claimed once, so the slot is empty.
        let _ = slot.set(session(k, recorder.clone().with_session(k as u64)));
    };
    std::thread::scope(|scope| {
        let endpoints = Endpoints::open(scope, recorder);
        for _ in 1..jobs.clamp(1, count.max(1)) {
            let recorder = endpoints.worker();
            scope.spawn(move || worker(recorder));
        }
        worker(endpoints.worker());
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every target index was claimed and run"))
        .collect()
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
    fn an_aborted_sessions_events_still_reach_the_sink() {
        use obs::{SinkHandle, VecSink};
        use probe::{ProbeOutcome, ProbeStats};

        /// Probes through `inner` `left` times, then panics.
        struct Fuse<P> {
            inner: P,
            left: usize,
        }
        impl<P: Prober> Prober for Fuse<P> {
            fn src(&self) -> Addr {
                self.inner.src()
            }
            fn protocol(&self) -> Protocol {
                self.inner.protocol()
            }
            fn probe_with_flow(&mut self, dst: Addr, ttl: u8, flow: u16) -> ProbeOutcome {
                assert!(self.left > 0, "simulated failure after probing");
                self.left -= 1;
                self.inner.probe_with_flow(dst, ttl, flow)
            }
            fn stats(&self) -> ProbeStats {
                self.inner.stats()
            }
        }

        let (shared, names) = chain_net();
        let (vantage, dest) = (names.addr("vantage"), names.addr("dest"));
        let fused = |recorder: Recorder| {
            let prober = shared.prober(vantage, Protocol::Icmp).recorder(recorder.clone());
            let fuse = Fuse { inner: prober, left: 5 };
            run_session(fuse, dest, TracenetOptions::default(), None, &recorder)
        };
        // The sink attached directly sees what the session sent before it
        // panicked.
        let direct = VecSink::new();
        fused(Recorder::new().with_sink(SinkHandle::new(direct.clone())).with_session(0));
        let want: Vec<_> = direct.events().into_iter().map(|e| (e.dst, e.ttl)).collect();
        assert!(!want.is_empty());

        let sink = VecSink::new();
        let recorder = Recorder::new().with_sink(SinkHandle::new(sink.clone()));
        let reports = run_sessions(3, 2, &recorder, |_, recorder| fused(recorder));
        assert!(reports.iter().all(|r| r.aborted));
        let events = sink.events();
        for k in 0..3 {
            let got: Vec<_> =
                events.iter().filter(|e| e.session == Some(k)).map(|e| (e.dst, e.ttl)).collect();
            assert_eq!(got, want, "session {k}");
        }
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
