//! Stress tests for the concurrent engine: N threads hammering one
//! `ConcurrentNetwork` must preserve the determinism and accounting
//! contracts a single-threaded run of the same engine pins.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use inet::Addr;
use netsim::{
    samples, ConcurrentNetwork, RateLimit, RouterConfig, RouterId, RoutingTable, SubnetId,
    TopologyBuilder, Verdict,
};
use obs::TimeoutCause;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wire::builder::icmp_probe;
use wire::{IcmpMessage, Payload};

const THREADS: usize = 8;
const PROBES_PER_THREAD: usize = 64;

fn a(s: &str) -> Addr {
    s.parse().unwrap()
}

/// Per-flow ECMP decisions are pure hashes, so the branch a flow takes
/// through the diamond cannot depend on thread interleaving: every
/// thread probing the same flow must see the same TTL-2 router, and it
/// must be the router a single-threaded run picks.
#[test]
fn per_flow_routing_is_deterministic_under_contention() {
    let (topo, names) = samples::diamond();
    let v = names.addr("vantage");
    let d = names.addr("dest");

    // Sequential baseline: which address answers TTL=2 for each flow.
    let (topo_seq, _) = samples::diamond();
    let seq = ConcurrentNetwork::new(topo_seq);
    let baseline: BTreeMap<u16, Addr> = (0..16u16)
        .map(|ident| {
            let reply = seq.inject(&icmp_probe(v, d, 2, ident, 0)).reply().unwrap();
            (ident, reply.header.src)
        })
        .collect();

    let net = Arc::new(ConcurrentNetwork::new(topo));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let net = Arc::clone(&net);
            let baseline = &baseline;
            scope.spawn(move || {
                for k in 0..PROBES_PER_THREAD {
                    let ident = (k % 16) as u16;
                    let reply = net.inject(&icmp_probe(v, d, 2, ident, k as u16)).reply().unwrap();
                    assert_eq!(
                        reply.header.src, baseline[&ident],
                        "flow {ident} took a different branch under contention"
                    );
                }
            });
        }
    });
    assert_eq!(net.tick(), (THREADS * PROBES_PER_THREAD) as u64);
}

/// The atomic clock hands every injection (even malformed bytes) exactly
/// one tick: after N threads × M injections the clock reads N×M.
#[test]
fn every_injection_claims_exactly_one_tick() {
    let (topo, names) = samples::chain(2);
    let v = names.addr("vantage");
    let d = names.addr("dest");
    let net = Arc::new(ConcurrentNetwork::new(topo));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let net = Arc::clone(&net);
            scope.spawn(move || {
                for k in 0..PROBES_PER_THREAD {
                    if (t + k) % 5 == 0 {
                        let (verdict, _) = net.inject_bytes_ticked(&[0xff; 9]);
                        assert_eq!(verdict.silence(), Some(TimeoutCause::Malformed));
                    } else {
                        let _ = net.inject(&icmp_probe(v, d, 64, t as u16, k as u16));
                    }
                }
            });
        }
    });
    assert_eq!(net.tick(), (THREADS * PROBES_PER_THREAD) as u64);
}

/// A rate-limited router with a refill period longer than the probe
/// burst must hand out exactly `capacity` replies no matter how many
/// threads compete — the same total a single-threaded run produces.
#[test]
fn token_accounting_totals_match_the_sequential_engine() {
    const CAPACITY: u32 = 24;

    fn limited_topo() -> netsim::Topology {
        let mut b = TopologyBuilder::new();
        let v = b.host("vantage");
        let mut cfg = RouterConfig::cooperative();
        // refill_every far beyond the burst size: no tokens come back
        // mid-test, so replies == capacity exactly.
        cfg.rate_limit = Some(RateLimit { capacity: CAPACITY, refill_every: 1_000_000 });
        let r1 = b.router("r1", cfg);
        let l1 = b.subnet("10.0.0.0/31".parse().unwrap());
        b.attach(v, l1, a("10.0.0.0")).unwrap();
        b.attach(r1, l1, a("10.0.0.1")).unwrap();
        b.build().unwrap()
    }

    // Sequential total.
    let seq = ConcurrentNetwork::new(limited_topo());
    let mut seq_replies = 0u32;
    for k in 0..(THREADS * PROBES_PER_THREAD) as u16 {
        if seq.inject(&icmp_probe(a("10.0.0.0"), a("10.0.0.1"), 64, 1, k)).reply().is_some() {
            seq_replies += 1;
        }
    }
    assert_eq!(seq_replies, CAPACITY);

    // Concurrent total.
    let net = Arc::new(ConcurrentNetwork::new(limited_topo()));
    let replies = Arc::new(std::sync::atomic::AtomicU32::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let net = Arc::clone(&net);
            let replies = Arc::clone(&replies);
            scope.spawn(move || {
                for k in 0..PROBES_PER_THREAD {
                    let probe = icmp_probe(a("10.0.0.0"), a("10.0.0.1"), 64, t as u16, k as u16);
                    match net.inject(&probe) {
                        Verdict::Reply(_) => {
                            replies.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Verdict::Silent(r) => assert_eq!(r, TimeoutCause::RateLimited),
                    }
                }
            });
        }
    });
    assert_eq!(
        replies.load(std::sync::atomic::Ordering::Relaxed),
        seq_replies,
        "concurrent token accounting leaked or double-spent tokens"
    );
}

/// Concurrent walks never leak state into each other: under contention,
/// every TTL-k probe still expires at the k-th router and draws its
/// TTL-exceeded from the same source a sequential injection does.
#[test]
fn ttl_expiry_answers_like_a_sequential_walk_per_thread() {
    let (topo, names) = samples::chain(3);
    let v = names.addr("vantage");
    let d = names.addr("dest");

    // Sequential baseline: the TTL-exceeded source for TTL 1..=3.
    let (topo_seq, _) = samples::chain(3);
    let seq = ConcurrentNetwork::new(topo_seq);
    let baseline: Vec<Addr> =
        (1..=3u8).map(|ttl| expired_at(seq.inject(&icmp_probe(v, d, ttl, 0, 0)))).collect();
    assert!(baseline[0] != baseline[1] && baseline[1] != baseline[2], "one router per TTL");

    let net = Arc::new(ConcurrentNetwork::new(topo));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let net = Arc::clone(&net);
            let baseline = &baseline;
            scope.spawn(move || {
                for k in 0..PROBES_PER_THREAD {
                    let ttl = 1 + ((t + k) % 3) as u8;
                    let src = expired_at(net.inject(&icmp_probe(v, d, ttl, t as u16, k as u16)));
                    assert_eq!(src, baseline[ttl as usize - 1], "TTL {ttl} under contention");
                }
            });
        }
    });
}

/// The engine remembers the last probe source it resolved. Threads
/// probing from the two ends of a chain, and from an address no
/// interface holds, keep replacing that entry under each other, and
/// every probe must still walk from its own source: the TTL-1 router is
/// each end's neighbor, and the unknown source stays unknown.
#[test]
fn sources_from_racing_vantages_resolve_to_their_own_routers() {
    let (topo, names) = samples::chain(3);
    let ends = [names.addr("vantage"), names.addr("dest")];
    let stranger = a("192.0.2.1");

    let (topo_seq, _) = samples::chain(3);
    let seq = ConcurrentNetwork::new(topo_seq);
    let toward = |pick: usize| ends[1 - pick % 2];
    let baseline: Vec<Addr> = (0..2)
        .map(|pick| expired_at(seq.inject(&icmp_probe(ends[pick], toward(pick), 1, 0, 0))))
        .collect();
    assert_ne!(baseline[0], baseline[1], "the two ends have different neighbors");

    let net = Arc::new(ConcurrentNetwork::new(topo));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (net, baseline, toward) = (Arc::clone(&net), &baseline, &toward);
            scope.spawn(move || {
                for k in 0..PROBES_PER_THREAD {
                    let pick = (t + k) % 3;
                    let src = if pick == 2 { stranger } else { ends[pick] };
                    let verdict = net.inject(&icmp_probe(src, toward(pick), 1, t as u16, k as u16));
                    if pick == 2 {
                        assert_eq!(verdict.silence(), Some(TimeoutCause::UnknownSource));
                    } else {
                        assert_eq!(expired_at(verdict), baseline[pick], "source {src}");
                    }
                }
            });
        }
    });
}

/// The source of a TTL-exceeded reply; panics on any other verdict.
fn expired_at(verdict: Verdict) -> Addr {
    let reply = verdict.reply().expect("a TTL-exceeded reply");
    assert!(matches!(reply.payload, Payload::Icmp(IcmpMessage::TtlExceeded { .. })));
    reply.header.src
}

/// One routing query and its answer, comparable across tables.
#[derive(Debug, PartialEq)]
enum Answer {
    Route { dist: u16, hops: Vec<(RouterId, SubnetId)> },
    Ingress(Option<RouterId>),
}

/// Routes are built on first touch behind `OnceLock`s, so the thread
/// that builds a column or a path must not matter: eight threads racing through
/// every query of one cold table, each in its own shuffled order, all
/// read exactly what a single-threaded cold table answers.
#[test]
fn first_touch_races_answer_like_a_single_thread() {
    let topo = common::lan_mesh(2010, 64);
    let (n, subnets) = (topo.router_count(), topo.subnets().len());
    let queries: Vec<(usize, usize, bool)> = (0..n)
        .flat_map(|from| {
            (0..n)
                .map(move |to| (from, to, false))
                .chain((0..subnets).map(move |s| (from, s, true)))
        })
        .collect();
    let ask = |rt: &RoutingTable, &(from, to, ingress): &(usize, usize, bool)| {
        let from = RouterId(from as u32);
        if ingress {
            Answer::Ingress(rt.ingress(from, SubnetId(to as u32)))
        } else {
            let to = RouterId(to as u32);
            Answer::Route { dist: rt.dist(from, to), hops: rt.next_hops(from, to).collect() }
        }
    };
    let single = RoutingTable::compute(&topo);
    let expected: Vec<Answer> = queries.iter().map(|q| ask(&single, q)).collect();

    let shared = Arc::new(RoutingTable::compute(&topo));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (shared, queries, expected) = (Arc::clone(&shared), &queries, &expected);
            scope.spawn(move || {
                let mut order: Vec<usize> = (0..queries.len()).collect();
                let mut rng = SmallRng::seed_from_u64(t as u64);
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                for k in order {
                    assert_eq!(
                        ask(&shared, &queries[k]),
                        expected[k],
                        "thread {t}, {:?}",
                        queries[k]
                    );
                }
            });
        }
    });
}
