//! The scenario comparison shared by `io`'s unit tests and the loader
//! oracle test. The includer brings `Scenario` into scope.

use super::Scenario;

/// Compares everything observable about two scenarios: names, vantages
/// and targets, every router, subnet and interface, and the ground truth.
pub fn assert_equivalent(a: &Scenario, b: &Scenario) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.vantages, b.vantages);
    assert_eq!(a.targets, b.targets);
    assert_eq!(a.topology.router_count(), b.topology.router_count());
    assert_eq!(a.topology.subnets().len(), b.topology.subnets().len());
    assert_eq!(a.topology.ifaces().len(), b.topology.ifaces().len());
    for (x, y) in a.topology.routers().iter().zip(b.topology.routers()) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.is_host, y.is_host);
        assert_eq!(x.config, y.config);
        assert_eq!(x.ifaces, y.ifaces);
    }
    for (x, y) in a.topology.subnets().iter().zip(b.topology.subnets()) {
        assert_eq!(x.prefix, y.prefix);
        assert_eq!(x.filtered, y.filtered);
        assert_eq!(x.filtered_sources, y.filtered_sources);
        assert_eq!(x.ifaces, y.ifaces);
    }
    for (n, (x, y)) in a.topology.ifaces().iter().zip(b.topology.ifaces()).enumerate() {
        assert_eq!(x.addr, y.addr, "iface {n}");
        assert_eq!(x.router, y.router, "iface {n} at {}", x.addr);
        assert_eq!(x.subnet, y.subnet, "iface {n} at {}", x.addr);
        assert_eq!(x.responsive, y.responsive, "iface {n} at {}", x.addr);
    }
    assert_eq!(a.ground_truth.subnets.len(), b.ground_truth.subnets.len());
    for (x, y) in a.ground_truth.subnets.iter().zip(&b.ground_truth.subnets) {
        assert_eq!(x.prefix, y.prefix);
        assert_eq!(x.members, y.members);
        assert_eq!(x.intent, y.intent);
        assert_eq!(x.network, y.network);
    }
}
