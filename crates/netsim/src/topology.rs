//! Topology model: routers, interfaces, subnets, hosts.
//!
//! A router-level Internet graph, per the paper's §3: "A router `R` is
//! identified by the set of interfaces that it hosts. Similarly, a subnet
//! `S` is identified by a set of interfaces that are directly connected to
//! it." Hosts (vantage points and trace destinations) are modeled as
//! single-interface routers flagged `is_host`.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use inet::{Addr, Prefix};

use crate::policy::RouterConfig;

/// Index of a router (or host) in a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouterId(pub u32);

/// Index of an interface in a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IfaceId(pub u32);

/// Index of a subnet in a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubnetId(pub u32);

/// A network interface: one address, on one subnet, hosted by one router.
#[derive(Clone, Debug)]
pub struct Iface {
    /// Hosting router.
    pub router: RouterId,
    /// Subnet the interface sits on.
    pub subnet: SubnetId,
    /// Assigned address.
    pub addr: Addr,
    /// Whether direct probes to this address are answered at all. A
    /// mixture of responsive and unresponsive interfaces yields the
    /// paper's *partially unresponsive* subnets.
    pub responsive: bool,
}

/// A router (or host) with its interfaces and response configuration.
#[derive(Clone, Debug)]
pub struct Router {
    /// Human-readable name, used in samples, logs and tests.
    pub name: String,
    /// Interfaces hosted by this router.
    pub ifaces: Vec<IfaceId>,
    /// Response configuration (§3.1).
    pub config: RouterConfig,
    /// Hosts originate probes and terminate traces; they answer direct
    /// probes like a *probed interface* router but never forward.
    pub is_host: bool,
}

/// A subnet: a prefix plus the interfaces directly connected to it.
#[derive(Clone, Debug)]
pub struct Subnet {
    /// The CIDR prefix (the paper's `S^p`).
    pub prefix: Prefix,
    /// Connected interfaces.
    pub ifaces: Vec<IfaceId>,
    /// A filtering firewall in front of the subnet: probes *destined to*
    /// addresses inside it are silently dropped. This is the paper's
    /// *totally unresponsive* subnet (§4).
    pub filtered: bool,
    /// Scoped filtering: probes whose *source* address is in this list
    /// are dropped at delivery, everyone else gets through. Models
    /// per-peering ACL / visibility asymmetry — the real-Internet reason
    /// §4.2's vantage points disagree on ~40% of subnets.
    pub filtered_sources: Vec<Addr>,
}

/// Immutable, validated network topology.
///
/// Built with [`TopologyBuilder`]; consumed by the routing and engine
/// layers.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    routers: Vec<Router>,
    ifaces: Vec<Iface>,
    subnets: Vec<Subnet>,
    by_addr: HashMap<Addr, IfaceId>,
    by_prefix: HashMap<Prefix, SubnetId>,
    /// Name → id, first declaration wins (built in [`TopologyBuilder::build`]).
    by_name: HashMap<String, RouterId>,
    /// Distinct prefix lengths present, descending — longest-prefix match
    /// probes these in order.
    prefix_lens: Vec<u8>,
}

impl Topology {
    /// All routers.
    pub fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// All interfaces.
    pub fn ifaces(&self) -> &[Iface] {
        &self.ifaces
    }

    /// All subnets.
    pub fn subnets(&self) -> &[Subnet] {
        &self.subnets
    }

    /// Router by id.
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.0 as usize]
    }

    /// Interface by id.
    pub fn iface(&self, id: IfaceId) -> &Iface {
        &self.ifaces[id.0 as usize]
    }

    /// Subnet by id.
    pub fn subnet(&self, id: SubnetId) -> &Subnet {
        &self.subnets[id.0 as usize]
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Looks up the interface assigned `addr`, if any.
    pub fn iface_by_addr(&self, addr: Addr) -> Option<IfaceId> {
        self.by_addr.get(&addr).copied()
    }

    /// Looks up a subnet by its exact prefix.
    pub fn subnet_by_prefix(&self, prefix: Prefix) -> Option<SubnetId> {
        self.by_prefix.get(&prefix).copied()
    }

    /// Longest-prefix match: the most specific subnet whose prefix
    /// contains `addr`.
    pub fn subnet_containing(&self, addr: Addr) -> Option<SubnetId> {
        self.prefix_lens
            .iter()
            .find_map(|&len| self.by_prefix.get(&Prefix::containing(addr, len)).copied())
    }

    /// The router hosting `addr`, if assigned.
    pub fn owner_of(&self, addr: Addr) -> Option<RouterId> {
        self.iface_by_addr(addr).map(|i| self.iface(i).router)
    }

    /// Finds a router by name. O(1) via a map built at
    /// [`TopologyBuilder::build`] time; when two routers share a name the
    /// earliest declaration wins, matching the old linear scan.
    pub fn router_by_name(&self, name: &str) -> Option<RouterId> {
        self.by_name.get(name).copied()
    }

    /// The interface of `router` that sits on `subnet`, if any.
    ///
    /// When a router has several interfaces on the same LAN the first one
    /// is returned (deterministically, in insertion order).
    pub fn iface_on(&self, router: RouterId, subnet: SubnetId) -> Option<IfaceId> {
        self.router(router).ifaces.iter().copied().find(|&i| self.iface(i).subnet == subnet)
    }

    /// The ground-truth member addresses of a subnet, sorted — what the
    /// evaluation compares collected subnets against.
    pub fn subnet_members(&self, id: SubnetId) -> Vec<Addr> {
        let mut v: Vec<Addr> = self.subnet(id).ifaces.iter().map(|&i| self.iface(i).addr).collect();
        v.sort_unstable();
        v
    }
}

/// Errors detected while building a topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// The same address was assigned twice.
    DuplicateAddr(Addr),
    /// The same prefix was declared twice.
    DuplicatePrefix(Prefix),
    /// An interface address is outside its subnet's prefix.
    AddrOutsidePrefix(Addr, Prefix),
    /// An interface address is the network or broadcast address of a
    /// subnet wider than /31.
    BoundaryAddr(Addr, Prefix),
    /// Two declared prefixes overlap (one contains the other).
    OverlappingPrefixes(Prefix, Prefix),
    /// A referenced router or subnet id is out of range.
    BadReference,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateAddr(a) => write!(f, "address {a} assigned twice"),
            TopologyError::DuplicatePrefix(p) => write!(f, "prefix {p} declared twice"),
            TopologyError::AddrOutsidePrefix(a, p) => write!(f, "address {a} outside subnet {p}"),
            TopologyError::BoundaryAddr(a, p) => {
                write!(f, "address {a} is a boundary address of {p}")
            }
            TopologyError::OverlappingPrefixes(a, b) => {
                write!(f, "prefixes {a} and {b} overlap")
            }
            TopologyError::BadReference => write!(f, "dangling router or subnet reference"),
        }
    }
}

impl Error for TopologyError {}

/// Incremental topology builder.
///
/// ```
/// use netsim::{TopologyBuilder, RouterConfig};
/// let mut b = TopologyBuilder::new();
/// let r1 = b.router("r1", RouterConfig::cooperative());
/// let r2 = b.router("r2", RouterConfig::cooperative());
/// let link = b.subnet("10.0.0.0/31".parse().unwrap());
/// b.attach(r1, link, "10.0.0.0".parse().unwrap()).unwrap();
/// b.attach(r2, link, "10.0.0.1".parse().unwrap()).unwrap();
/// let topo = b.build().unwrap();
/// assert_eq!(topo.router_count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TopologyBuilder {
    topo: Topology,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a router.
    pub fn router(&mut self, name: impl Into<String>, config: RouterConfig) -> RouterId {
        let id = RouterId(self.topo.routers.len() as u32);
        self.topo.routers.push(Router {
            name: name.into(),
            ifaces: Vec::new(),
            config,
            is_host: false,
        });
        id
    }

    /// Adds a host: a single-homed prober or probe target.
    pub fn host(&mut self, name: impl Into<String>) -> RouterId {
        let id = self.router(name, RouterConfig::cooperative());
        self.topo.routers[id.0 as usize].is_host = true;
        id
    }

    /// Marks an existing node as a host (used when rebuilding a topology
    /// from a serialized form, where routers and hosts arrive in one
    /// id-ordered list).
    pub fn set_host(&mut self, router: RouterId) {
        self.topo.routers[router.0 as usize].is_host = true;
    }

    /// Declares a subnet.
    pub fn subnet(&mut self, prefix: Prefix) -> SubnetId {
        let id = SubnetId(self.topo.subnets.len() as u32);
        self.topo.subnets.push(Subnet {
            prefix,
            ifaces: Vec::new(),
            filtered: false,
            filtered_sources: Vec::new(),
        });
        id
    }

    /// Declares a firewalled subnet (probes destined into it are dropped).
    pub fn filtered_subnet(&mut self, prefix: Prefix) -> SubnetId {
        let id = self.subnet(prefix);
        self.topo.subnets[id.0 as usize].filtered = true;
        id
    }

    /// Attaches `router` to `subnet` with address `addr`.
    pub fn attach(
        &mut self,
        router: RouterId,
        subnet: SubnetId,
        addr: Addr,
    ) -> Result<IfaceId, TopologyError> {
        self.attach_with(router, subnet, addr, true)
    }

    /// Attaches with explicit responsiveness (for partially unresponsive
    /// subnets).
    pub fn attach_with(
        &mut self,
        router: RouterId,
        subnet: SubnetId,
        addr: Addr,
        responsive: bool,
    ) -> Result<IfaceId, TopologyError> {
        let sn = self.topo.subnets.get(subnet.0 as usize).ok_or(TopologyError::BadReference)?;
        if self.topo.routers.get(router.0 as usize).is_none() {
            return Err(TopologyError::BadReference);
        }
        if !sn.prefix.contains(addr) {
            return Err(TopologyError::AddrOutsidePrefix(addr, sn.prefix));
        }
        if sn.prefix.is_boundary(addr) {
            return Err(TopologyError::BoundaryAddr(addr, sn.prefix));
        }
        if self.topo.by_addr.contains_key(&addr) {
            return Err(TopologyError::DuplicateAddr(addr));
        }
        let id = IfaceId(self.topo.ifaces.len() as u32);
        self.topo.ifaces.push(Iface { router, subnet, addr, responsive });
        self.topo.by_addr.insert(addr, id);
        self.topo.routers[router.0 as usize].ifaces.push(id);
        self.topo.subnets[subnet.0 as usize].ifaces.push(id);
        Ok(id)
    }

    /// Blocks probes from the given source addresses at this subnet's
    /// edge (scoped ACL).
    pub fn set_filtered_sources(&mut self, subnet: SubnetId, sources: Vec<Addr>) {
        self.topo.subnets[subnet.0 as usize].filtered_sources = sources;
    }

    /// Validates and freezes the topology.
    pub fn build(mut self) -> Result<Topology, TopologyError> {
        // Unique, non-overlapping prefixes.
        let mut seen: HashSet<Prefix> = HashSet::with_capacity(self.topo.subnets.len());
        for s in &self.topo.subnets {
            if !seen.insert(s.prefix) {
                return Err(TopologyError::DuplicatePrefix(s.prefix));
            }
        }
        let mut sorted: Vec<Prefix> = self.topo.subnets.iter().map(|s| s.prefix).collect();
        sorted.sort_unstable_by_key(|p| (p.network(), p.len()));
        for w in sorted.windows(2) {
            if w[0].covers(w[1]) || w[1].covers(w[0]) {
                return Err(TopologyError::OverlappingPrefixes(w[0], w[1]));
            }
        }
        self.topo.by_prefix = self
            .topo
            .subnets
            .iter()
            .enumerate()
            .map(|(i, s)| (s.prefix, SubnetId(i as u32)))
            .collect();
        let mut lens: Vec<u8> = self.topo.subnets.iter().map(|s| s.prefix.len()).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        lens.dedup();
        self.topo.prefix_lens = lens;
        // Name index; entry() keeps the first declaration on duplicates,
        // matching the linear scan this map replaces.
        for (i, r) in self.topo.routers.iter().enumerate() {
            self.topo.by_name.entry(r.name.clone()).or_insert(RouterId(i as u32));
        }
        Ok(self.topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RouterConfig;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn two_router_link() -> TopologyBuilder {
        let mut b = TopologyBuilder::new();
        let r1 = b.router("r1", RouterConfig::cooperative());
        let r2 = b.router("r2", RouterConfig::cooperative());
        let s = b.subnet(p("10.0.0.0/30"));
        b.attach(r1, s, a("10.0.0.1")).unwrap();
        b.attach(r2, s, a("10.0.0.2")).unwrap();
        b
    }

    #[test]
    fn build_and_lookup() {
        let t = two_router_link().build().unwrap();
        assert_eq!(t.router_count(), 2);
        assert_eq!(t.subnets().len(), 1);
        let r1 = t.router_by_name("r1").unwrap();
        assert_eq!(t.owner_of(a("10.0.0.1")), Some(r1));
        assert_eq!(t.owner_of(a("10.0.0.3")), None);
        assert_eq!(t.subnet_containing(a("10.0.0.2")), Some(SubnetId(0)));
        assert_eq!(t.subnet_containing(a("10.0.1.2")), None);
        assert_eq!(t.subnet_by_prefix(p("10.0.0.0/30")), Some(SubnetId(0)));
        assert_eq!(t.subnet_members(SubnetId(0)), vec![a("10.0.0.1"), a("10.0.0.2")]);
    }

    #[test]
    fn rejects_duplicate_addr() {
        let mut b = two_router_link();
        let r3 = b.router("r3", RouterConfig::cooperative());
        let s = SubnetId(0);
        assert_eq!(
            b.attach(r3, s, a("10.0.0.1")),
            Err(TopologyError::DuplicateAddr(a("10.0.0.1")))
        );
    }

    #[test]
    fn rejects_addr_outside_prefix() {
        let mut b = two_router_link();
        let r3 = b.router("r3", RouterConfig::cooperative());
        assert_eq!(
            b.attach(r3, SubnetId(0), a("10.0.0.5")),
            Err(TopologyError::AddrOutsidePrefix(a("10.0.0.5"), p("10.0.0.0/30")))
        );
    }

    #[test]
    fn rejects_boundary_addr_except_slash31() {
        let mut b = two_router_link();
        let r3 = b.router("r3", RouterConfig::cooperative());
        assert_eq!(
            b.attach(r3, SubnetId(0), a("10.0.0.0")),
            Err(TopologyError::BoundaryAddr(a("10.0.0.0"), p("10.0.0.0/30")))
        );
        // /31 uses both addresses.
        let s31 = b.subnet(p("10.0.0.4/31"));
        assert!(b.attach(r3, s31, a("10.0.0.4")).is_ok());
    }

    #[test]
    fn rejects_duplicate_and_overlapping_prefixes() {
        let mut b = two_router_link();
        b.subnet(p("10.0.0.0/30"));
        assert_eq!(b.build().err(), Some(TopologyError::DuplicatePrefix(p("10.0.0.0/30"))));

        let mut b = two_router_link();
        b.subnet(p("10.0.0.0/24"));
        assert!(matches!(b.build().err(), Some(TopologyError::OverlappingPrefixes(_, _))));
    }

    #[test]
    fn rejects_dangling_references() {
        let mut b = TopologyBuilder::new();
        let s = b.subnet(p("10.0.0.0/30"));
        assert_eq!(b.attach(RouterId(9), s, a("10.0.0.1")), Err(TopologyError::BadReference));
        let r = b.router("r", RouterConfig::cooperative());
        assert_eq!(b.attach(r, SubnetId(9), a("10.0.0.1")), Err(TopologyError::BadReference));
    }

    #[test]
    fn hosts_are_flagged() {
        let mut b = TopologyBuilder::new();
        let h = b.host("vantage");
        let t = b.build().unwrap();
        assert!(t.router(h).is_host);
    }

    #[test]
    fn unresponsive_iface_flag_is_stored() {
        let mut b = TopologyBuilder::new();
        let r = b.router("r", RouterConfig::cooperative());
        let s = b.subnet(p("10.0.0.0/29"));
        let i = b.attach_with(r, s, a("10.0.0.1"), false).unwrap();
        let t = b.build().unwrap();
        assert!(!t.iface(i).responsive);
    }

    #[test]
    fn router_by_name_prefers_first_declaration() {
        let mut b = TopologyBuilder::new();
        let first = b.router("twin", RouterConfig::cooperative());
        let _second = b.router("twin", RouterConfig::cooperative());
        let solo = b.router("solo", RouterConfig::cooperative());
        let t = b.build().unwrap();
        assert_eq!(t.router_by_name("twin"), Some(first));
        assert_eq!(t.router_by_name("solo"), Some(solo));
        assert_eq!(t.router_by_name("absent"), None);
    }

    #[test]
    fn longest_prefix_match_probes_lengths_most_specific_first() {
        // Nested-looking lengths across disjoint ranges: the probe order
        // /30, /24, /16 must find the most specific container even when a
        // wider prefix also exists at another length.
        let mut b = TopologyBuilder::new();
        let r = b.router("r", RouterConfig::cooperative());
        let p16 = b.subnet(p("10.16.0.0/16"));
        let p24 = b.subnet(p("10.24.0.0/24"));
        let p30 = b.subnet(p("10.30.0.0/30"));
        b.attach(r, p16, a("10.16.0.1")).unwrap();
        b.attach(r, p24, a("10.24.0.1")).unwrap();
        b.attach(r, p30, a("10.30.0.1")).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.subnet_containing(a("10.16.200.9")), Some(p16));
        assert_eq!(t.subnet_containing(a("10.24.0.77")), Some(p24));
        assert_eq!(t.subnet_containing(a("10.30.0.2")), Some(p30));
        assert_eq!(t.subnet_containing(a("10.31.0.1")), None);
    }

    #[test]
    fn longest_prefix_match_prefers_specific() {
        let mut b = TopologyBuilder::new();
        let r = b.router("r", RouterConfig::cooperative());
        let wide = b.subnet(p("10.1.0.0/24"));
        let narrow = b.subnet(p("10.2.0.0/30"));
        b.attach(r, wide, a("10.1.0.1")).unwrap();
        b.attach(r, narrow, a("10.2.0.1")).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.subnet_containing(a("10.1.0.77")), Some(wide));
        assert_eq!(t.subnet_containing(a("10.2.0.2")), Some(narrow));
    }
}
