//! Routing memory grows with the destinations a run touches, not with
//! the square of the router count: a network far too large for all-pairs
//! tables builds and answers probes at once.

use inet::{Addr, Prefix};
use netsim::{ConcurrentNetwork, RouterConfig, RouterId, TopologyBuilder};
use wire::builder::icmp_probe;
use wire::{IcmpMessage, Payload};

const ROWS: usize = 100;
const COLS: usize = 200;

/// A 100 × 200 grid of 20 000 routers joined by /31 links, with the
/// vantage host on the corner router (0, 0). All-pairs tables for it
/// would hold 4·10⁸ `u16` distances and 4·10⁸ `u32` offsets, about
/// 2.4 GB. Returns the topology, the vantage address and the address of
/// an interface on the opposite corner router.
fn grid() -> (netsim::Topology, Addr, Addr) {
    let mut b = TopologyBuilder::new();
    let vantage = b.host("vantage");
    let routers: Vec<RouterId> = (0..ROWS * COLS)
        .map(|i| b.router(format!("g{}x{}", i / COLS, i % COLS), RouterConfig::cooperative()))
        .collect();
    let mut next_link = 0u32;
    let mut link = |b: &mut TopologyBuilder, x: RouterId, y: RouterId| {
        let base = Addr::from_u32((10 << 24) + 2 * next_link);
        next_link += 1;
        let s = b.subnet(Prefix::containing(base, 31));
        b.attach(x, s, base).unwrap();
        b.attach(y, s, base.mate31()).unwrap();
        base.mate31()
    };
    let vantage_addr = Addr::from_u32(link(&mut b, routers[0], vantage).to_u32());
    let mut far = vantage_addr;
    for r in 0..ROWS {
        for c in 0..COLS {
            let here = routers[r * COLS + c];
            if c + 1 < COLS {
                far = link(&mut b, routers[r * COLS + c + 1], here);
            }
            if r + 1 < ROWS {
                far = link(&mut b, routers[(r + 1) * COLS + c], here);
            }
        }
    }
    (b.build().expect("grid builds"), vantage_addr, far)
}

#[test]
fn a_twenty_thousand_router_grid_answers_probes_without_all_pairs_tables() {
    let (topo, vantage, far) = grid();
    assert_eq!(topo.router_count(), ROWS * COLS + 1);
    let net = ConcurrentNetwork::new(topo);
    let far_router = net.topology().owner_of(far).unwrap();
    assert_eq!(net.topology().router(far_router).name, format!("g{}x{}", ROWS - 1, COLS - 2));
    let hops = net.true_hop_distance(vantage, far).unwrap();
    assert_eq!(hops as usize, ROWS + COLS - 2);

    // TTL 255 expires 255 routers out along a shortest path.
    let reply = net.inject(&icmp_probe(vantage, far, 255, 1, 1)).reply().expect("a reply");
    assert!(matches!(reply.payload, Payload::Icmp(IcmpMessage::TtlExceeded { .. })));
    assert_eq!(net.true_hop_distance(vantage, reply.header.src), Some(255));
}
