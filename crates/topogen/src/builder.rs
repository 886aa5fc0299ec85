//! [`NetBuilder`]: topology construction with ground-truth recording.

use inet::{Addr, Prefix};
use netsim::{RouterConfig, RouterId, SubnetId, Topology, TopologyBuilder};

use crate::scenario::{GroundTruth, GtSubnet, SubnetIntent};

/// A sequential, alignment-respecting address-block allocator over a
/// region (e.g. one /8 per network). Point-to-point pools hand out
/// adjacent /30s and /31s — ISP practice that occasionally produces the
/// paper's single overestimated /30 — while LAN pools stride by /24 so
/// unrelated LANs never abut in address space.
#[derive(Clone, Copy, Debug)]
pub struct BlockAlloc {
    next: u32,
    limit: u32,
}

impl BlockAlloc {
    /// An allocator over `region` (hands out sub-blocks in order).
    pub fn new(region: Prefix) -> BlockAlloc {
        BlockAlloc { next: region.network().to_u32(), limit: region.broadcast().to_u32() }
    }

    /// Takes the next aligned block of length `len`.
    ///
    /// # Panics
    /// Panics when the region is exhausted.
    pub fn take(&mut self, len: u8) -> Prefix {
        let size = 1u32 << (32 - len);
        let aligned = self.next.div_ceil(size) * size;
        assert!(aligned.saturating_add(size - 1) <= self.limit, "address region exhausted");
        self.next = aligned + size;
        Prefix::new(Addr::from_u32(aligned), len).expect("aligned block")
    }

    /// Skips ahead to the next multiple of a /`len` boundary, leaving an
    /// unallocated gap.
    pub fn gap_to(&mut self, len: u8) {
        let size = 1u32 << (32 - len);
        self.next = self.next.div_ceil(size) * size;
    }
}

/// Topology builder that records ground truth alongside.
pub struct NetBuilder {
    b: TopologyBuilder,
    gt: GroundTruth,
    leaf_counter: u32,
    last_subnet: Option<SubnetId>,
}

impl NetBuilder {
    /// Creates an empty builder.
    pub fn new() -> NetBuilder {
        NetBuilder {
            b: TopologyBuilder::new(),
            gt: GroundTruth::default(),
            leaf_counter: 0,
            last_subnet: None,
        }
    }

    /// Adds a router.
    pub fn router(&mut self, name: impl Into<String>, cfg: RouterConfig) -> RouterId {
        self.b.router(name, cfg)
    }

    /// Adds a vantage/destination host.
    pub fn host(&mut self, name: impl Into<String>) -> RouterId {
        self.b.host(name)
    }

    /// Connects two routers with a point-to-point subnet (/30 or /31),
    /// recording ground truth. For a /30 the two *usable center*
    /// addresses are assigned; for a /31 both addresses.
    ///
    /// Returns the two interface addresses `(a_side, b_side)`.
    pub fn link(
        &mut self,
        a: RouterId,
        b: RouterId,
        prefix: Prefix,
        intent: SubnetIntent,
        network: &str,
    ) -> (Addr, Addr) {
        assert!(prefix.len() >= 30, "links are /30 or /31");
        let sid = self.subnet_with_intent(prefix, intent);
        let (lo, hi) = if prefix.len() == 31 {
            (prefix.network(), prefix.broadcast())
        } else {
            (
                Addr::from_u32(prefix.network().to_u32() + 1),
                Addr::from_u32(prefix.network().to_u32() + 2),
            )
        };
        self.b.attach(a, sid, lo).expect("link endpoint a");
        self.b.attach(b, sid, hi).expect("link endpoint b");
        self.record(prefix, vec![lo, hi], intent, network);
        (lo, hi)
    }

    /// Attaches a LAN to `gateway`: the gateway takes the first usable
    /// address; `leaf_members` further addresses are hosted by fresh leaf
    /// routers (`leaf_cfg`), packed `ifaces_per_leaf` interfaces per
    /// router so large LANs stay cheap to route. Every member responds
    /// to direct probes. Members are assigned the first usable addresses
    /// in order.
    ///
    /// Returns the member addresses (gateway first).
    #[allow(clippy::too_many_arguments)]
    pub fn lan(
        &mut self,
        gateway: RouterId,
        prefix: Prefix,
        leaf_members: usize,
        ifaces_per_leaf: usize,
        leaf_cfg: RouterConfig,
        intent: SubnetIntent,
        network: &str,
    ) -> Vec<Addr> {
        assert!(ifaces_per_leaf >= 1);
        let sid = self.subnet_with_intent(prefix, intent);
        let mut addrs = prefix.probe_addrs();
        let mut members = Vec::with_capacity(leaf_members + 1);

        let gw_addr = addrs.next().expect("LAN has room for a gateway");
        self.b.attach(gateway, sid, gw_addr).expect("gateway attach");
        members.push(gw_addr);

        let mut leaf: Option<RouterId> = None;
        let mut on_leaf = 0usize;
        for addr in addrs.by_ref().take(leaf_members) {
            if leaf.is_none() || on_leaf >= ifaces_per_leaf {
                self.leaf_counter += 1;
                leaf = Some(self.b.router(format!("leaf{}", self.leaf_counter), leaf_cfg));
                on_leaf = 0;
            }
            self.b.attach(leaf.expect("just created"), sid, addr).expect("leaf attach");
            on_leaf += 1;
            members.push(addr);
        }
        let _ = &addrs; // remaining capacity intentionally unassigned
        self.record(prefix, members.clone(), intent, network);
        members
    }

    /// Direct access to the underlying topology builder for custom
    /// attachments; pair with [`NetBuilder::record`] to keep ground truth
    /// consistent.
    pub fn raw(&mut self) -> &mut TopologyBuilder {
        &mut self.b
    }

    /// Declares a subnet honoring the intent's filtering.
    pub fn subnet_with_intent(&mut self, prefix: Prefix, intent: SubnetIntent) -> SubnetId {
        let sid = if intent == SubnetIntent::Filtered {
            self.b.filtered_subnet(prefix)
        } else {
            self.b.subnet(prefix)
        };
        self.last_subnet = Some(sid);
        sid
    }

    /// Applies a scoped ACL to the most recently declared subnet: probes
    /// sourced at the given addresses are dropped at its edge (the
    /// visibility asymmetry behind the paper's cross-vantage
    /// disagreement).
    pub fn scope_last(&mut self, sources: Vec<Addr>) {
        let sid = self.last_subnet.expect("a subnet was declared before scoping");
        self.b.set_filtered_sources(sid, sources);
    }

    /// Records ground truth for a subnet built through [`raw`](Self::raw).
    pub fn record(
        &mut self,
        prefix: Prefix,
        mut members: Vec<Addr>,
        intent: SubnetIntent,
        network: &str,
    ) {
        members.sort_unstable();
        self.gt.subnets.push(GtSubnet { prefix, members, intent, network: network.to_string() });
    }

    /// Validates and returns the topology plus ground truth.
    pub fn finish(self) -> (Topology, GroundTruth) {
        let topo = self.b.build().expect("generated topology must validate");
        (topo, self.gt)
    }
}

impl Default for NetBuilder {
    fn default() -> Self {
        NetBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn alloc_hands_out_aligned_blocks() {
        let mut a = BlockAlloc::new(p("10.0.0.0/16"));
        assert_eq!(a.take(31).to_string(), "10.0.0.0/31");
        assert_eq!(a.take(31).to_string(), "10.0.0.2/31");
        assert_eq!(a.take(30).to_string(), "10.0.0.4/30");
        // A /29 after a /30: aligned up.
        assert_eq!(a.take(29).to_string(), "10.0.0.8/29");
        a.gap_to(24);
        assert_eq!(a.take(28).to_string(), "10.0.1.0/28");
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_panics_when_region_is_full() {
        let mut a = BlockAlloc::new(p("10.0.0.0/30"));
        let _ = a.take(30);
        let _ = a.take(30);
    }

    #[test]
    fn link_assigns_usable_centers_for_slash30() {
        let mut nb = NetBuilder::new();
        let r1 = nb.router("r1", RouterConfig::cooperative());
        let r2 = nb.router("r2", RouterConfig::cooperative());
        let (lo, hi) = nb.link(r1, r2, p("10.0.0.0/30"), SubnetIntent::Normal, "t");
        assert_eq!(lo.to_string(), "10.0.0.1");
        assert_eq!(hi.to_string(), "10.0.0.2");
        let (topo, gt) = nb.finish();
        assert_eq!(topo.subnets().len(), 1);
        assert_eq!(gt.subnets[0].members.len(), 2);
    }

    #[test]
    fn lan_splits_members_over_leaf_routers() {
        let mut nb = NetBuilder::new();
        let gw = nb.router("gw", RouterConfig::cooperative());
        let members = nb.lan(
            gw,
            p("10.0.1.0/28"),
            9,
            4,
            RouterConfig::cooperative(),
            SubnetIntent::Normal,
            "t",
        );
        assert_eq!(members.len(), 10);
        let (topo, gt) = nb.finish();
        // gw + ceil(9/4)=3 leaf routers.
        assert_eq!(topo.router_count(), 4);
        assert_eq!(gt.subnets[0].members.len(), 10);
        assert_eq!(gt.subnets[0].members[0].to_string(), "10.0.1.1");
    }

    #[test]
    fn filtered_intent_marks_subnet() {
        let mut nb = NetBuilder::new();
        let gw = nb.router("gw", RouterConfig::cooperative());
        nb.lan(
            gw,
            p("10.0.1.0/29"),
            2,
            1,
            RouterConfig::cooperative(),
            SubnetIntent::Filtered,
            "t",
        );
        let (topo, gt) = nb.finish();
        assert!(topo.subnets()[0].filtered);
        assert_eq!(gt.subnets[0].intent, SubnetIntent::Filtered);
    }

    #[test]
    fn lan_stops_at_capacity() {
        let mut nb = NetBuilder::new();
        let gw = nb.router("gw", RouterConfig::cooperative());
        // /30 has 2 usable addresses; ask for 10 leaf members.
        let members = nb.lan(
            gw,
            p("10.0.1.0/30"),
            10,
            1,
            RouterConfig::cooperative(),
            SubnetIntent::Normal,
            "t",
        );
        assert_eq!(members.len(), 2);
    }
}
