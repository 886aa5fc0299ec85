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
//! compressed-sparse-row form. The one thing a route adds to the graph
//! is a **distance column** per destination router: one BFS from it
//! gives the hop distance from every router (adjacency is symmetric),
//! 2 bytes per router, built on first use behind a [`OnceLock`].
//! Everything else is read from the graph and that column when asked:
//!
//! * the ECMP set from `from` toward `to` is `from`'s adjacency filtered
//!   to the neighbors one hop closer to `to` ([`NextHops`], a borrowed
//!   iterator, so a walk allocates nothing);
//! * the ingress router of a subnet is the
//!   [`nearest`](RoutingTable::nearest) of its attached routers.
//!
//! Memory therefore grows with the destinations a run actually touches,
//! at 2 bytes per router each ([`RoutingTable::heap_bytes`]). Every
//! column is a pure function of the topology, so which thread builds it
//! first cannot change any answer.

use std::mem::size_of_val;
use std::sync::OnceLock;

use crate::topology::{RouterId, SubnetId, Topology};

/// Unreachable marker for hop distances.
pub const UNREACHABLE: u16 = u16::MAX;

/// Hop distances toward each destination router, built on first use,
/// over the shared router adjacency. `Send + Sync`: share it through an
/// `Arc`.
pub struct RoutingTable {
    /// CSR offsets into `adj_nb` and `adj_via`, one run per router.
    adj_off: Box<[u32]>,
    /// Neighbors, each router's run sorted by (neighbor, via-subnet) and
    /// unique — with `adj_via`, the single definition of adjacency. Kept
    /// apart from the subnets so a next-hop scan reads only these.
    adj_nb: Box<[RouterId]>,
    /// The subnet each `adj_nb` entry is reached over.
    adj_via: Box<[SubnetId]>,
    /// CSR offsets into `attached`, one run per subnet.
    attached_off: Box<[u32]>,
    /// Routers directly attached to each subnet, sorted and deduped —
    /// the delivery points for unassigned addresses.
    attached: Box<[RouterId]>,
    /// `columns[to][from]` = hop distance from `from` to `to`, each
    /// column built on first use.
    columns: Box<[OnceLock<Box<[u16]>>]>,
}

/// The routes toward one destination router: its distance column over
/// the table's adjacency. Fetch it once per walk with
/// [`RoutingTable::routes_to`], then ask it for each hop's next hops.
#[derive(Clone, Copy)]
pub struct Routes<'a> {
    table: &'a RoutingTable,
    dist: &'a [u16],
}

/// The ECMP next-hop set from one router toward one destination: the
/// router's sorted (neighbor, via-subnet) adjacency, keeping the pairs
/// one hop closer to the destination. Borrows the table; allocates
/// nothing.
#[derive(Clone)]
pub struct NextHops<'a> {
    nb: &'a [RouterId],
    via: &'a [SubnetId],
    at: usize,
    dist: &'a [u16],
    closer: u16,
}

impl Iterator for NextHops<'_> {
    type Item = (RouterId, SubnetId);

    #[inline]
    fn next(&mut self) -> Option<(RouterId, SubnetId)> {
        let (dist, closer) = (self.dist, self.closer);
        let skip = self.nb[self.at..].iter().position(|nb| dist[nb.0 as usize] == closer)?;
        let i = self.at + skip;
        self.at = i + 1;
        Some((self.nb[i], self.via[i]))
    }
}

impl<'a> Routes<'a> {
    /// Hop distance from `from` to the destination ([`UNREACHABLE`] if
    /// disconnected).
    #[inline]
    pub fn dist(&self, from: RouterId) -> u16 {
        self.dist[from.0 as usize]
    }

    /// The ECMP next hops from `from`, in adjacency order. Empty at the
    /// destination itself and when it is unreachable.
    #[inline]
    pub fn next_hops(&self, from: RouterId) -> NextHops<'a> {
        let d = self.dist(from);
        let run = match d {
            0 | UNREACHABLE => 0..0,
            _ => self.table.run(from.0 as usize),
        };
        NextHops {
            nb: &self.table.adj_nb[run.clone()],
            via: &self.table.adj_via[run],
            at: 0,
            dist: self.dist,
            closer: d.wrapping_sub(1),
        }
    }
}

impl RoutingTable {
    /// Builds the per-subnet attachment lists and the router adjacency
    /// derived from them. Distances are computed lazily, per
    /// destination, the first time they are asked for.
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
            adj_off: adj_off.into(),
            adj_nb: adj.iter().map(|&(nb, _)| nb).collect(),
            adj_via: adj.iter().map(|&(_, via)| via).collect(),
            attached_off: attached_off.into(),
            attached: attached.into(),
            columns: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The routes toward `to`, building its distance column on first
    /// use.
    #[inline]
    pub fn routes_to(&self, to: RouterId) -> Routes<'_> {
        let dist = self.columns[to.0 as usize].get_or_init(|| self.build_column(to.0 as usize));
        Routes { table: self, dist }
    }

    /// Hop distance between two routers ([`UNREACHABLE`] if disconnected).
    #[inline]
    pub fn dist(&self, from: RouterId, to: RouterId) -> u16 {
        self.routes_to(to).dist(from)
    }

    /// Whether `to` is reachable from `from`.
    #[inline]
    pub fn reachable(&self, from: RouterId, to: RouterId) -> bool {
        self.dist(from, to) != UNREACHABLE
    }

    /// The ECMP next-hop set from `from` toward `to`: every
    /// (neighbor, via-subnet) pair lying on some shortest path, sorted.
    ///
    /// Empty when `from == to` or `to` is unreachable.
    #[inline]
    pub fn next_hops(&self, from: RouterId, to: RouterId) -> NextHops<'_> {
        self.routes_to(to).next_hops(from)
    }

    /// The routers directly attached to `subnet`, sorted and deduped.
    #[inline]
    pub fn attached_routers(&self, subnet: SubnetId) -> &[RouterId] {
        let s = subnet.0 as usize;
        &self.attached[self.attached_off[s] as usize..self.attached_off[s + 1] as usize]
    }

    /// The ingress router of `subnet` as seen from `from`: the attached
    /// router at minimum hop distance, ties broken by router id —
    /// [`RoutingTable::nearest`] over
    /// [`RoutingTable::attached_routers`].
    pub fn ingress(&self, from: RouterId, subnet: SubnetId) -> Option<RouterId> {
        // The attached routers are pairwise adjacent, so their distances
        // from `from` differ by at most one: the first (lowest id) is the
        // answer unless a later one is a hop closer, and the first such
        // router ends the scan. One unreachable means all are.
        let (&first, rest) = self.attached_routers(subnet).split_first()?;
        let d = self.dist(from, first);
        if d == UNREACHABLE {
            return None;
        }
        Some(rest.iter().copied().find(|&r| self.dist(from, r) < d).unwrap_or(first))
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

    /// Number of destination columns built so far.
    pub fn built_columns(&self) -> usize {
        self.columns.iter().filter_map(OnceLock::get).count()
    }

    /// Heap bytes held by the table: the graph (both CSRs and the column
    /// slots) plus 2 bytes per router for every built column. A pure
    /// function of the topology and of which destinations were touched.
    pub fn heap_bytes(&self) -> usize {
        let graph = size_of_val(&*self.adj_off)
            + size_of_val(&*self.adj_nb)
            + size_of_val(&*self.adj_via)
            + size_of_val(&*self.attached_off)
            + size_of_val(&*self.attached)
            + size_of_val(&*self.columns);
        let columns: usize =
            self.columns.iter().filter_map(OnceLock::get).map(|d| size_of_val(&**d)).sum();
        graph + columns
    }

    /// The index range of `router`'s run in `adj_nb` and `adj_via`.
    #[inline]
    fn run(&self, router: usize) -> std::ops::Range<usize> {
        self.adj_off[router] as usize..self.adj_off[router + 1] as usize
    }

    /// One BFS from `to`: the hop distance from every router.
    fn build_column(&self, to: usize) -> Box<[u16]> {
        let n = self.columns.len();
        let mut dist = vec![UNREACHABLE; n];
        dist[to] = 0;
        let mut queue = Vec::with_capacity(n);
        queue.push(to);
        let mut head = 0;
        while let Some(&cur) = queue.get(head) {
            head += 1;
            let d = dist[cur] + 1;
            for &nb in &self.adj_nb[self.run(cur)] {
                let nb = nb.0 as usize;
                if dist[nb] == UNREACHABLE {
                    dist[nb] = d;
                    queue.push(nb);
                }
            }
        }
        dist.into()
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
        for (a, b) in [(r[0], r[1]), (r[1], r[0])] {
            let run = rt.run(a.0 as usize);
            assert_eq!((&rt.adj_nb[run.clone()], &rt.adj_via[run]), (&[b][..], &[SubnetId(0)][..]));
        }
    }

    #[test]
    fn chain_next_hops_are_unique() {
        let (t, r) = chain(4);
        let rt = RoutingTable::compute(&t);
        let hops: Vec<_> = rt.next_hops(r[0], r[3]).collect();
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].0, r[1]);
        assert_eq!(rt.next_hops(r[0], r[0]).count(), 0);
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
        assert_eq!(rt.next_hops(r1, r2).count(), 0);
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
        let nbs: Vec<RouterId> = rt.next_hops(r[0], r[3]).map(|(n, _)| n).collect();
        assert_eq!(nbs.len(), 2);
        assert!(nbs.contains(&r[1]) && nbs.contains(&r[2]));
    }

    #[test]
    fn heap_bytes_grow_by_one_distance_row_per_touched_destination() {
        let (t, r) = diamond();
        let rt = RoutingTable::compute(&t);
        let graph = rt.heap_bytes();
        assert_eq!(rt.built_columns(), 0);
        let _ = rt.next_hops(r[0], r[3]).count();
        let _ = rt.dist(r[3], r[0]);
        let _ = rt.dist(r[1], r[0]);
        assert_eq!(rt.built_columns(), 2);
        assert_eq!(rt.heap_bytes(), graph + 2 * 2 * r.len());
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
