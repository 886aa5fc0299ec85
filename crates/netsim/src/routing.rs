//! Shortest-path routing with equal-cost multipath sets.
//!
//! The paper reasons in unweighted hop distances (its Figure 2 shows
//! "unweighed links"), so routing is breadth-first shortest path over the
//! router graph, where two routers are adjacent iff they share a subnet.
//! All shortest next hops are retained; the engine's load balancer picks
//! among them per flow or per packet (§3.7).
//!
//! [`RoutingTable::compute`] builds only the graph: the routers attached
//! to each subnet and the sorted adjacency derived from them, both in
//! compressed-sparse-row form. Routes are built on first use, each
//! behind a [`OnceLock`]:
//!
//! * a **column** per destination router — one BFS from it gives the hop
//!   distance from every router (adjacency is symmetric), and filtering
//!   each router's adjacency by that distance gives its ECMP set, stored
//!   as one CSR so [`next_hops`](RoutingTable::next_hops) returns a
//!   borrowed slice and the per-packet walk allocates nothing;
//! * an **ingress column** per subnet — the attached router nearest to
//!   every router, found by one multi-source BFS, so
//!   [`ingress`](RoutingTable::ingress) is a single load.
//!
//! Memory therefore grows with the destinations a run actually touches,
//! not with the square of the router count. Every column is a pure
//! function of the topology, so which thread builds it first cannot
//! change any answer.

use std::sync::OnceLock;

use crate::topology::{RouterId, SubnetId, Topology};

/// Unreachable marker for hop distances.
pub const UNREACHABLE: u16 = u16::MAX;

/// Ingress-column marker: the subnet is unreachable from this router.
const NO_INGRESS: u32 = u32::MAX;

/// Hop distances and next-hop sets for a topology, built per destination
/// on first use. `Send + Sync`: share it through an `Arc`.
pub struct RoutingTable {
    /// CSR offsets into `adj`, one run per router.
    adj_off: Vec<u32>,
    /// (neighbor, via-subnet) pairs, each router's run sorted and
    /// unique — the single definition of adjacency.
    adj: Vec<(RouterId, SubnetId)>,
    /// CSR offsets into `attached`, one run per subnet.
    attached_off: Vec<u32>,
    /// Routers directly attached to each subnet, sorted and deduped —
    /// the delivery points for unassigned addresses.
    attached: Vec<RouterId>,
    /// Per-destination routes, built on first use.
    columns: Vec<OnceLock<Column>>,
    /// Per-subnet ingress router for every source router, built on first
    /// use ([`NO_INGRESS`] when unreachable).
    ingress: Vec<OnceLock<Box<[u32]>>>,
}

/// The routes toward one destination router.
struct Column {
    /// `dist[from]` = hop count from `from` to the destination.
    dist: Box<[u16]>,
    /// CSR offsets into `ecmp`: the ECMP set from `from` is
    /// `ecmp[ecmp_off[from] .. ecmp_off[from + 1]]`.
    ecmp_off: Box<[u32]>,
    /// ECMP next-hop arena, each set a sorted run of the adjacency.
    ecmp: Box<[(RouterId, SubnetId)]>,
}

impl RoutingTable {
    /// Builds the per-subnet attachment lists and the router adjacency
    /// derived from them. Distances and next hops are computed lazily,
    /// per destination, the first time they are asked for.
    pub fn compute(topo: &Topology) -> RoutingTable {
        let n = topo.router_count();
        let subnets = topo.subnets().len();

        let mut attached_off = Vec::with_capacity(subnets + 1);
        attached_off.push(0u32);
        let mut attached = Vec::new();
        for sn in topo.subnets() {
            let mut run: Vec<RouterId> = sn.ifaces.iter().map(|&i| topo.iface(i).router).collect();
            run.sort_unstable();
            run.dedup();
            attached.extend(run);
            attached_off.push(attached.len() as u32);
        }

        // Adjacency CSR: on every subnet, each attached router neighbors
        // every other one. Attachment runs are deduped and a subnet
        // appears once per router, so the pairs are already unique;
        // sorting each run gives the order `next_hops` promises.
        let runs = |s: usize| &attached[attached_off[s] as usize..attached_off[s + 1] as usize];
        let mut degree = vec![0u32; n + 1];
        for s in 0..subnets {
            let run = runs(s);
            for &r in run {
                degree[r.0 as usize + 1] += run.len() as u32 - 1;
            }
        }
        let mut adj_off = degree;
        for r in 0..n {
            adj_off[r + 1] += adj_off[r];
        }
        let mut fill: Vec<u32> = adj_off[..n].to_vec();
        let mut adj = vec![(RouterId(0), SubnetId(0)); adj_off[n] as usize];
        for s in 0..subnets {
            let run = runs(s);
            for &r in run {
                let slot = &mut fill[r.0 as usize];
                for &o in run.iter().filter(|&&o| o != r) {
                    adj[*slot as usize] = (o, SubnetId(s as u32));
                    *slot += 1;
                }
            }
        }
        for r in 0..n {
            adj[adj_off[r] as usize..adj_off[r + 1] as usize].sort_unstable();
        }

        RoutingTable {
            adj_off,
            adj,
            attached_off,
            attached,
            columns: (0..n).map(|_| OnceLock::new()).collect(),
            ingress: (0..subnets).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Hop distance between two routers ([`UNREACHABLE`] if disconnected).
    #[inline]
    pub fn dist(&self, from: RouterId, to: RouterId) -> u16 {
        self.column(to).dist[from.0 as usize]
    }

    /// Whether `to` is reachable from `from`.
    #[inline]
    pub fn reachable(&self, from: RouterId, to: RouterId) -> bool {
        self.dist(from, to) != UNREACHABLE
    }

    /// The ECMP next-hop set from `from` toward `to`: every
    /// (neighbor, via-subnet) pair lying on some shortest path, sorted.
    /// Borrowed from `to`'s column — no allocation once it is built.
    ///
    /// Empty when `from == to` or `to` is unreachable.
    #[inline]
    pub fn next_hops(&self, from: RouterId, to: RouterId) -> &[(RouterId, SubnetId)] {
        let col = self.column(to);
        let f = from.0 as usize;
        &col.ecmp[col.ecmp_off[f] as usize..col.ecmp_off[f + 1] as usize]
    }

    /// The routers directly attached to `subnet`, sorted and deduped.
    #[inline]
    pub fn attached_routers(&self, subnet: SubnetId) -> &[RouterId] {
        let s = subnet.0 as usize;
        &self.attached[self.attached_off[s] as usize..self.attached_off[s + 1] as usize]
    }

    /// The ingress router of `subnet` as seen from `from`: the attached
    /// router at minimum hop distance, ties broken by router id —
    /// exactly [`RoutingTable::nearest`] over
    /// [`RoutingTable::attached_routers`], read from the subnet's
    /// ingress column.
    #[inline]
    pub fn ingress(&self, from: RouterId, subnet: SubnetId) -> Option<RouterId> {
        let col = self.ingress[subnet.0 as usize].get_or_init(|| self.build_ingress(subnet));
        let r = col[from.0 as usize];
        (r != NO_INGRESS).then_some(RouterId(r))
    }

    /// The nearest router(s) of `candidates` to `from`; used to route
    /// toward a subnet (its ingress router is the closest attached
    /// router).
    pub fn nearest(
        &self,
        from: RouterId,
        candidates: impl IntoIterator<Item = RouterId>,
    ) -> Option<(RouterId, u16)> {
        candidates
            .into_iter()
            .map(|c| (c, self.dist(from, c)))
            .filter(|&(_, d)| d != UNREACHABLE)
            .min_by_key(|&(c, d)| (d, c))
    }

    /// The sorted (neighbor, via-subnet) adjacency of `router`.
    #[inline]
    fn neighbors(&self, router: usize) -> &[(RouterId, SubnetId)] {
        &self.adj[self.adj_off[router] as usize..self.adj_off[router + 1] as usize]
    }

    #[inline]
    fn column(&self, to: RouterId) -> &Column {
        self.columns[to.0 as usize].get_or_init(|| self.build_column(to.0 as usize))
    }

    /// One BFS from `to` for the distance row, then each router's
    /// adjacency filtered to the neighbors one hop closer. Filtering a
    /// sorted run keeps it sorted.
    fn build_column(&self, to: usize) -> Column {
        let n = self.columns.len();
        let mut dist = vec![UNREACHABLE; n];
        dist[to] = 0;
        let mut queue = Vec::with_capacity(n);
        queue.push(to);
        let mut head = 0;
        while let Some(&cur) = queue.get(head) {
            head += 1;
            let d = dist[cur] + 1;
            for &(nb, _) in self.neighbors(cur) {
                let nb = nb.0 as usize;
                if dist[nb] == UNREACHABLE {
                    dist[nb] = d;
                    queue.push(nb);
                }
            }
        }

        let mut ecmp_off = Vec::with_capacity(n + 1);
        ecmp_off.push(0u32);
        let mut ecmp = Vec::new();
        for (from, &d) in dist.iter().enumerate() {
            if from != to && d != UNREACHABLE {
                ecmp.extend(
                    self.neighbors(from).iter().filter(|&&(nb, _)| dist[nb.0 as usize] == d - 1),
                );
            }
            ecmp_off.push(ecmp.len() as u32);
        }
        Column { dist: dist.into(), ecmp_off: ecmp_off.into(), ecmp: ecmp.into() }
    }

    /// Multi-source BFS from the routers attached to `subnet`, seeded in
    /// id order; each router inherits the label of whichever router
    /// discovers it. The queue stays sorted by (level, label), so a
    /// router's first discoverer is its lowest-labelled neighbor one
    /// level closer — and the nearest attached routers of a router are
    /// exactly the union of those neighbors' nearest, so every label is
    /// the [`nearest`](RoutingTable::nearest) rule: minimum distance,
    /// then lowest id.
    fn build_ingress(&self, subnet: SubnetId) -> Box<[u32]> {
        let mut label = vec![NO_INGRESS; self.columns.len()];
        let mut queue: Vec<usize> =
            self.attached_routers(subnet).iter().map(|r| r.0 as usize).collect();
        for &r in &queue {
            label[r] = r as u32;
        }
        let mut head = 0;
        while let Some(&cur) = queue.get(head) {
            head += 1;
            for &(nb, _) in self.neighbors(cur) {
                let nb = nb.0 as usize;
                if label[nb] == NO_INGRESS {
                    label[nb] = label[cur];
                    queue.push(nb);
                }
            }
        }
        label.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RouterConfig;
    use crate::topology::TopologyBuilder;
    use inet::{Addr, Prefix};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    /// Builds a chain r0 - r1 - r2 - r3 over /31 links.
    fn chain(n: u32) -> (Topology, Vec<RouterId>) {
        let mut b = TopologyBuilder::new();
        let routers: Vec<RouterId> =
            (0..n).map(|i| b.router(format!("r{i}"), RouterConfig::cooperative())).collect();
        for i in 0..n - 1 {
            let s = b.subnet(Prefix::containing(Addr::new(10, 0, i as u8, 0), 31));
            b.attach(routers[i as usize], s, Addr::new(10, 0, i as u8, 0)).unwrap();
            b.attach(routers[(i + 1) as usize], s, Addr::new(10, 0, i as u8, 1)).unwrap();
        }
        (b.build().unwrap(), routers)
    }

    #[test]
    fn chain_distances() {
        let (t, r) = chain(4);
        let rt = RoutingTable::compute(&t);
        assert_eq!(rt.dist(r[0], r[0]), 0);
        assert_eq!(rt.dist(r[0], r[3]), 3);
        assert_eq!(rt.dist(r[3], r[0]), 3);
        assert_eq!(rt.dist(r[1], r[2]), 1);
    }

    #[test]
    fn neighbors_via_shared_subnets() {
        let (t, r) = chain(2);
        let rt = RoutingTable::compute(&t);
        assert_eq!(rt.neighbors(r[0].0 as usize), &[(r[1], SubnetId(0))]);
        assert_eq!(rt.neighbors(r[1].0 as usize), &[(r[0], SubnetId(0))]);
    }

    #[test]
    fn chain_next_hops_are_unique() {
        let (t, r) = chain(4);
        let rt = RoutingTable::compute(&t);
        let hops = rt.next_hops(r[0], r[3]);
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].0, r[1]);
        assert!(rt.next_hops(r[0], r[0]).is_empty());
    }

    #[test]
    fn disconnected_routers_unreachable() {
        let mut b = TopologyBuilder::new();
        let r1 = b.router("r1", RouterConfig::cooperative());
        let r2 = b.router("r2", RouterConfig::cooperative());
        let s1 = b.subnet(p("10.0.0.0/31"));
        b.attach(r1, s1, a("10.0.0.0")).unwrap();
        let s2 = b.subnet(p("10.0.1.0/31"));
        b.attach(r2, s2, a("10.0.1.0")).unwrap();
        let t = b.build().unwrap();
        let rt = RoutingTable::compute(&t);
        assert!(!rt.reachable(r1, r2));
        assert!(rt.next_hops(r1, r2).is_empty());
        assert!(rt.nearest(r1, [r2]).is_none());
    }

    /// Diamond: r0 connects to r3 via r1 and r2 at equal cost.
    fn diamond() -> (Topology, Vec<RouterId>) {
        let mut b = TopologyBuilder::new();
        let r: Vec<RouterId> =
            (0..4).map(|i| b.router(format!("r{i}"), RouterConfig::cooperative())).collect();
        let links = [(0, 1, 0u8), (0, 2, 1), (1, 3, 2), (2, 3, 3)];
        for &(x, y, k) in &links {
            let s = b.subnet(Prefix::containing(Addr::new(10, 1, k, 0), 31));
            b.attach(r[x], s, Addr::new(10, 1, k, 0)).unwrap();
            b.attach(r[y], s, Addr::new(10, 1, k, 1)).unwrap();
        }
        (b.build().unwrap(), r)
    }

    #[test]
    fn diamond_has_two_equal_cost_paths() {
        let (t, r) = diamond();
        let rt = RoutingTable::compute(&t);
        assert_eq!(rt.dist(r[0], r[3]), 2);
        let hops = rt.next_hops(r[0], r[3]);
        assert_eq!(hops.len(), 2);
        let nbs: Vec<RouterId> = hops.iter().map(|&(n, _)| n).collect();
        assert!(nbs.contains(&r[1]) && nbs.contains(&r[2]));
    }

    #[test]
    fn nearest_picks_minimum_then_lowest_id() {
        let (t, r) = chain(4);
        let rt = RoutingTable::compute(&t);
        assert_eq!(rt.nearest(r[0], [r[2], r[3]]), Some((r[2], 2)));
        // Ties broken by router id.
        assert_eq!(rt.nearest(r[1], [r[0], r[2]]), Some((r[0], 1)));
        let _ = t;
    }

    #[test]
    fn ingress_agrees_with_nearest_over_attached_routers() {
        let (t, r) = chain(4);
        let rt = RoutingTable::compute(&t);
        for sn in 0..t.subnets().len() {
            let sn = SubnetId(sn as u32);
            let members: Vec<RouterId> =
                t.subnet(sn).ifaces.iter().map(|&i| t.iface(i).router).collect();
            assert_eq!(rt.attached_routers(sn), {
                let mut m = members.clone();
                m.sort_unstable();
                m.dedup();
                m
            });
            for &from in &r {
                assert_eq!(
                    rt.ingress(from, sn),
                    rt.nearest(from, members.iter().copied()).map(|(c, _)| c),
                    "{from:?} -> {sn:?}"
                );
            }
        }
    }

    #[test]
    fn multi_access_lan_is_full_mesh_adjacency() {
        let mut b = TopologyBuilder::new();
        let r: Vec<RouterId> =
            (0..3).map(|i| b.router(format!("r{i}"), RouterConfig::cooperative())).collect();
        let s = b.subnet(p("192.168.0.0/29"));
        for (i, &router) in r.iter().enumerate() {
            b.attach(router, s, Addr::new(192, 168, 0, i as u8 + 1)).unwrap();
        }
        let t = b.build().unwrap();
        let rt = RoutingTable::compute(&t);
        for &x in &r {
            for &y in &r {
                if x != y {
                    assert_eq!(rt.dist(x, y), 1);
                }
            }
        }
    }
}
