//! A warm wire attempt allocates nothing: the probe is encoded into a
//! stack buffer, the engine decodes it into `Copy` fields, resolves the
//! destination by binary search, and builds any ICMP quote in place.
//! The counting allocator counts only the allocating thread's calls, so
//! the test harness's own threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use inet::{Addr, Prefix};
use netsim::{RouterConfig, TopologyBuilder};
use probe::{ProbeOutcome, Prober, Protocol, SharedNetwork};

/// Counts allocations made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call goes straight to `System`; the counter only
// observes that a call happened.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn a(s: &str) -> Addr {
    s.parse().unwrap()
}

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// vantage -- r1 -- dest on a /29 with spare addresses, and r1 -- r2
/// with a second /29 whose router answers unassigned addresses with a
/// host unreachable.
fn network() -> SharedNetwork {
    let mut b = TopologyBuilder::new();
    let v = b.host("vantage");
    let r1 = b.router("r1", RouterConfig::cooperative());
    let mut answering = RouterConfig::cooperative();
    answering.unreachable_replies = true;
    let r2 = b.router("r2", answering);
    let d = b.host("dest");
    let link = b.subnet(p("10.0.0.0/31"));
    b.attach(v, link, a("10.0.0.0")).unwrap();
    b.attach(r1, link, a("10.0.0.1")).unwrap();
    let lan = b.subnet(p("10.0.1.0/29"));
    b.attach(r1, lan, a("10.0.1.1")).unwrap();
    b.attach(d, lan, a("10.0.1.2")).unwrap();
    let core = b.subnet(p("10.0.2.0/31"));
    b.attach(r1, core, a("10.0.2.0")).unwrap();
    b.attach(r2, core, a("10.0.2.1")).unwrap();
    let far = b.subnet(p("10.0.3.0/29"));
    b.attach(r2, far, a("10.0.3.1")).unwrap();
    SharedNetwork::new(b.build().unwrap())
}

#[test]
fn a_warm_wire_attempt_allocates_nothing() {
    let net = network();
    let (dest, ttl_out) = (a("10.0.1.2"), ProbeOutcome::TtlExceeded { from: a("10.0.0.1") });
    let direct = ProbeOutcome::DirectReply { from: dest };
    let cases = [
        ("icmp direct reply", Protocol::Icmp, dest, 64, direct),
        ("icmp ttl exceeded", Protocol::Icmp, dest, 1, ttl_out),
        ("udp port unreachable", Protocol::Udp, dest, 64, direct),
        ("udp ttl exceeded", Protocol::Udp, dest, 1, ttl_out),
        ("tcp rst", Protocol::Tcp, dest, 64, direct),
        ("tcp ttl exceeded", Protocol::Tcp, dest, 1, ttl_out),
        ("unassigned silence", Protocol::Icmp, a("10.0.1.5"), 64, ProbeOutcome::Timeout),
        ("no-route silence", Protocol::Icmp, a("99.0.0.1"), 64, ProbeOutcome::Timeout),
        (
            "host unreachable",
            Protocol::Icmp,
            a("10.0.3.5"),
            64,
            ProbeOutcome::Unreachable { from: a("10.0.2.1"), kind: obs::UnreachReason::Host },
        ),
    ];
    let mut probers: Vec<_> =
        cases.iter().map(|&(_, proto, ..)| net.prober(a("10.0.0.0"), proto)).collect();
    // The first probe of each case builds the column and the path it reads.
    for (prober, &(name, _, dst, ttl, want)) in probers.iter_mut().zip(&cases) {
        assert_eq!(prober.probe(dst, ttl), want, "{name}");
    }
    let mut counts = Vec::new();
    for (prober, &(name, _, dst, ttl, _)) in probers.iter_mut().zip(&cases) {
        let sent = prober.stats().sent;
        let before = ALLOCS.with(Cell::get);
        let outcome = prober.probe(dst, ttl);
        let allocs = ALLOCS.with(Cell::get) - before;
        counts.push((name, allocs, prober.stats().sent - sent, outcome));
    }
    assert!(counts.iter().all(|&(_, allocs, ..)| allocs == 0), "{counts:#?}");
}
