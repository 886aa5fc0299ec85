//! A batch on the ISP internet scaled by 4 (`IspInternetSpec::scaled`):
//! the probe count stays pinned, and the routing memo holds the graph
//! plus one 2-byte distance per router for each destination it touched,
//! nothing else.
//!
//! The batch sends about a quarter of a million probes.

use obs::Recorder;
use probe::SharedNetwork;
use sweep::{run_batch, BatchConfig};
use topogen::{isp_internet_with, IspInternetSpec};

#[test]
fn scaled_batch_probes_and_routing_memory_are_pinned() {
    let spec = IspInternetSpec { seed: 2010, ..IspInternetSpec::scaled(4) };
    let sc = isp_internet_with(spec);
    let (vantage, targets) = (sc.vantages[0].1, sc.targets.clone());
    let net = SharedNetwork::new(sc.topology);
    let graph = net.with(|n| n.routing().heap_bytes());
    let routers = net.with(|n| n.topology().router_count());

    let cfg = BatchConfig { jobs: 1, use_cache: true, ..BatchConfig::default() };
    let result = run_batch(&net, vantage, &targets, &cfg, &Recorder::disabled());
    assert_eq!(result.probes, 261_436);

    let (heap, built) = net.with(|n| (n.routing().heap_bytes(), n.routing().built_columns()));
    assert!(built > 0 && built <= routers, "{built} columns of {routers} routers");
    assert_eq!(heap, graph + 2 * routers * built, "{built} columns over {routers} routers");
}
