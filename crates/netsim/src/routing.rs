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
//! compressed-sparse-row form. Every walk starts at its origin, the
//! router owning the probe's source, so routes are rooted there, as a
//! monitor's probes share one tree rooted at the monitor. A route adds
//! two things to the graph, each built on first use behind a
//! [`OnceLock`]:
//!
//! * a **distance column** per origin: one BFS from it gives the hop
//!   distance to every router, 2 bytes per router, plus one thin path
//!   slot per router (a pointer, 16 bytes until its DAG is built);
//! * a **shortest-path DAG** per (origin, target): the routers `x` with
//!   `dist_o(x) + dist_t(x) = dist_o(t)`, found by a backward search
//!   from `t` over neighbors one hop closer to the origin, and each
//!   one's next hops toward `t` in adjacency order, in CSR form
//!   ([`Path`]).
//!
//! The next hops are the ones a column per destination would give. For
//! `x` on a shortest o→t path, a neighbor `y` has
//! `dist_t(y) = dist_t(x) − 1` exactly when `dist_o(y) = dist_o(x) + 1`
//! and `y` lies in the DAG, so each ECMP set and its order are the same.
//! The ingress router of a subnet is its attached router nearest the
//! origin, and a reply routed back toward the origin leaves by the first
//! neighbor one hop closer to it ([`RoutingTable::reply_hop`]); both read
//! the origin's column.
//!
//! A run probing from one vantage therefore holds one column and one
//! small DAG per destination it touched ([`RoutingTable::heap_bytes`]).
//! A caller that probes from every router still builds `n` columns.
//! Every column and DAG is a pure function of the topology, so which
//! thread builds it first cannot change any answer.

use std::mem::{size_of, size_of_val};
use std::sync::OnceLock;

use crate::topology::{RouterId, SubnetId, Topology};

/// Unreachable marker for hop distances.
pub const UNREACHABLE: u16 = u16::MAX;

/// The router graph and the routes rooted at each origin router, built
/// on first use. `Send + Sync`: share it through an `Arc`.
pub struct RoutingTable {
    /// CSR offsets into `adj_nb` and `adj_via`, one run per router.
    adj_off: Box<[u32]>,
    /// Neighbors, each router's run sorted by (neighbor, via-subnet) and
    /// unique — with `adj_via`, the single definition of adjacency. Kept
    /// apart from the subnets so a distance scan reads only these.
    adj_nb: Box<[RouterId]>,
    /// The subnet each `adj_nb` entry is reached over.
    adj_via: Box<[SubnetId]>,
    /// CSR offsets into `attached`, one run per subnet.
    attached_off: Box<[u32]>,
    /// Routers directly attached to each subnet, sorted and deduped —
    /// the delivery points for unassigned addresses.
    attached: Box<[RouterId]>,
    /// `origins[o]`: the routes rooted at router `o`.
    origins: Box<[OnceLock<Origin>]>,
}

/// The routes rooted at one origin router.
struct Origin {
    /// `dist[x]` = hop distance from the origin to `x`.
    dist: Box<[u16]>,
    /// `paths[t]`: the shortest-path DAG from the origin to `t`, boxed
    /// so that the slots of targets never walked stay pointer-sized.
    paths: Box<[OnceLock<Box<Dag>>]>,
}

/// The shortest-path DAG from an origin to one target: the routers on
/// some shortest path, and each one's next hops toward the target.
/// Empty when the target is unreachable.
#[derive(Default)]
struct Dag {
    /// The routers on some shortest path, sorted by id.
    members: Box<[RouterId]>,
    /// CSR offsets into `hops`, one run per member.
    off: Box<[u32]>,
    /// Each member's (neighbor, via-subnet) next hops, in adjacency order.
    hops: Box<[(RouterId, SubnetId)]>,
}

impl Dag {
    /// The boxed DAG itself plus its three arrays.
    fn heap_bytes(&self) -> usize {
        size_of::<Dag>()
            + size_of_val(&*self.members)
            + size_of_val(&*self.off)
            + size_of_val(&*self.hops)
    }
}

/// The routes from one origin to one target router. Fetch it once per
/// walk with [`RoutingTable::path`], then ask it for each hop's next
/// hops.
#[derive(Clone, Copy)]
pub struct Path<'a> {
    dag: &'a Dag,
}

/// The ECMP next-hop set from one router toward one target: borrowed
/// (neighbor, via-subnet) pairs in adjacency order; allocates nothing.
pub type NextHops<'a> = std::iter::Copied<std::slice::Iter<'a, (RouterId, SubnetId)>>;

impl<'a> Path<'a> {
    /// The ECMP next hops from `at` toward the target, in adjacency
    /// order. Empty at the target itself, when it is unreachable, and at
    /// a router on no shortest path to it.
    #[inline]
    pub fn next_hops(&self, at: RouterId) -> NextHops<'a> {
        let dag = self.dag;
        let run = match dag.members.binary_search(&at) {
            Ok(i) => dag.off[i] as usize..dag.off[i + 1] as usize,
            Err(_) => 0..0,
        };
        dag.hops[run].iter().copied()
    }
}

impl RoutingTable {
    /// Builds the per-subnet attachment lists and the router adjacency
    /// derived from them. Distances and paths are computed lazily, per
    /// origin and per target, the first time they are asked for.
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
            origins: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The routes rooted at `origin`, building its column on first use.
    #[inline]
    fn origin(&self, origin: RouterId) -> &Origin {
        self.origins[origin.0 as usize].get_or_init(|| Origin {
            dist: self.build_column(origin.0 as usize),
            paths: (0..self.origins.len()).map(|_| OnceLock::new()).collect(),
        })
    }

    /// The routes from `origin` to `target`, building the origin's
    /// column and the path's DAG on first use.
    #[inline]
    pub fn path(&self, origin: RouterId, target: RouterId) -> Path<'_> {
        let o = self.origin(origin);
        let t = target.0 as usize;
        Path { dag: o.paths[t].get_or_init(|| Box::new(self.build_path(&o.dist, t))) }
    }

    /// Hop distance between two routers ([`UNREACHABLE`] if disconnected).
    #[inline]
    pub fn dist(&self, from: RouterId, to: RouterId) -> u16 {
        self.origin(from).dist[to.0 as usize]
    }

    /// Whether `to` is reachable from `from`.
    #[inline]
    pub fn reachable(&self, from: RouterId, to: RouterId) -> bool {
        self.dist(from, to) != UNREACHABLE
    }

    /// The ECMP next-hop set from `from` toward `to`: every
    /// (neighbor, via-subnet) pair lying on some shortest path, sorted —
    /// the first hops of [`RoutingTable::path`]`(from, to)`.
    ///
    /// Empty when `from == to` or `to` is unreachable.
    #[inline]
    pub fn next_hops(&self, from: RouterId, to: RouterId) -> NextHops<'_> {
        self.path(from, to).next_hops(from)
    }

    /// The first (neighbor, via-subnet) pair in `at`'s adjacency that is
    /// one hop closer to `origin`: where a reply routed back along a
    /// shortest path leaves `at`. Read from the origin's column; `None`
    /// at the origin itself and when it is unreachable.
    pub fn reply_hop(&self, origin: RouterId, at: RouterId) -> Option<(RouterId, SubnetId)> {
        let dist = &self.origin(origin).dist;
        let closer = match dist[at.0 as usize] {
            0 | UNREACHABLE => return None,
            d => d - 1,
        };
        let run = self.run(at.0 as usize);
        let i = self.adj_nb[run.clone()].iter().position(|nb| dist[nb.0 as usize] == closer)?;
        Some((self.adj_nb[run.start + i], self.adj_via[run.start + i]))
    }

    /// The routers directly attached to `subnet`, sorted and deduped.
    #[inline]
    pub fn attached_routers(&self, subnet: SubnetId) -> &[RouterId] {
        let s = subnet.0 as usize;
        &self.attached[self.attached_off[s] as usize..self.attached_off[s + 1] as usize]
    }

    /// The ingress router of `subnet` as seen from `from`: the attached
    /// router at minimum hop distance by `from`'s column, ties broken by
    /// router id.
    pub fn ingress(&self, from: RouterId, subnet: SubnetId) -> Option<RouterId> {
        // The attached routers are pairwise adjacent, so their distances
        // from `from` differ by at most one: the first (lowest id) is the
        // answer unless a later one is a hop closer, and the first such
        // router ends the scan. One unreachable means all are.
        let dist = &self.origin(from).dist;
        let (&first, rest) = self.attached_routers(subnet).split_first()?;
        let d = dist[first.0 as usize];
        if d == UNREACHABLE {
            return None;
        }
        Some(rest.iter().copied().find(|&r| dist[r.0 as usize] < d).unwrap_or(first))
    }

    /// Number of origin columns built so far.
    pub fn built_columns(&self) -> usize {
        self.origins.iter().filter_map(OnceLock::get).count()
    }

    /// Heap bytes one origin's column holds before any of its paths is
    /// built: a 2-byte distance and one thin path slot per router.
    pub fn column_bytes(&self) -> usize {
        self.origins.len() * (size_of::<u16>() + size_of::<OnceLock<Box<Dag>>>())
    }

    /// Heap bytes held by the built shortest-path DAGs, over all origins:
    /// each boxed DAG and the arrays it points to.
    pub fn path_bytes(&self) -> usize {
        let built = self.origins.iter().filter_map(OnceLock::get);
        built
            .flat_map(|o| o.paths.iter().filter_map(OnceLock::get))
            .map(|dag| dag.heap_bytes())
            .sum()
    }

    /// Heap bytes held by the table: the graph (both CSRs and the origin
    /// slots), [`column_bytes`](RoutingTable::column_bytes) for every
    /// built column, and the [`path_bytes`](RoutingTable::path_bytes). A
    /// pure function of the topology and of which (origin, target) pairs
    /// were touched.
    pub fn heap_bytes(&self) -> usize {
        let graph = size_of_val(&*self.adj_off)
            + size_of_val(&*self.adj_nb)
            + size_of_val(&*self.adj_via)
            + size_of_val(&*self.attached_off)
            + size_of_val(&*self.attached)
            + size_of_val(&*self.origins);
        graph + self.built_columns() * self.column_bytes() + self.path_bytes()
    }

    /// The index range of `router`'s run in `adj_nb` and `adj_via`.
    #[inline]
    fn run(&self, router: usize) -> std::ops::Range<usize> {
        self.adj_off[router] as usize..self.adj_off[router + 1] as usize
    }

    /// One BFS from `from`: the hop distance to every router.
    fn build_column(&self, from: usize) -> Box<[u16]> {
        let n = self.origins.len();
        let mut dist = vec![UNREACHABLE; n];
        dist[from] = 0;
        let mut queue = Vec::with_capacity(n);
        queue.push(from);
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

    /// The shortest-path DAG toward `target` over an origin's column.
    /// A router one hop closer to the origin than a member, and adjacent
    /// to it, is itself a member, so a backward search from the target
    /// finds them layer by layer. A member's next hops are its neighbors
    /// one hop farther from the origin that are members too.
    fn build_path(&self, dist: &[u16], target: usize) -> Dag {
        if dist[target] == UNREACHABLE {
            return Dag::default();
        }
        let mut layer = vec![RouterId(target as u32)];
        let mut members = layer.clone();
        for closer in (0..dist[target]).rev() {
            let mut next: Vec<RouterId> = layer
                .iter()
                .flat_map(|x| &self.adj_nb[self.run(x.0 as usize)])
                .copied()
                .filter(|nb| dist[nb.0 as usize] == closer)
                .collect();
            next.sort_unstable();
            next.dedup();
            members.extend_from_slice(&next);
            layer = next;
        }
        members.sort_unstable();

        let mut off = Vec::with_capacity(members.len() + 1);
        off.push(0u32);
        let mut hops = Vec::new();
        for x in &members {
            let run = self.run(x.0 as usize);
            let farther = dist[x.0 as usize] + 1;
            for (&nb, &via) in self.adj_nb[run.clone()].iter().zip(&self.adj_via[run]) {
                if dist[nb.0 as usize] == farther && members.binary_search(&nb).is_ok() {
                    hops.push((nb, via));
                }
            }
            off.push(hops.len() as u32);
        }
        Dag { members: members.into(), off: off.into(), hops: hops.into() }
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
        assert_eq!(rt.ingress(r1, SubnetId(1)), None);
        // The unreachable target's DAG is empty: its box and nothing more.
        assert_eq!(rt.path_bytes(), size_of::<Dag>());
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
    fn diamond_path_holds_both_branches_and_nothing_at_the_target() {
        let (t, r) = diamond();
        let rt = RoutingTable::compute(&t);
        let path = rt.path(r[0], r[3]);
        let via = |k: u32| SubnetId(k);
        assert_eq!(path.next_hops(r[0]).collect::<Vec<_>>(), [(r[1], via(0)), (r[2], via(1))]);
        assert_eq!(path.next_hops(r[1]).collect::<Vec<_>>(), [(r[3], via(2))]);
        assert_eq!(path.next_hops(r[2]).collect::<Vec<_>>(), [(r[3], via(3))]);
        assert_eq!(path.next_hops(r[3]).count(), 0);
        // r1 is on no shortest path from r0 to r2.
        assert_eq!(rt.path(r[0], r[2]).next_hops(r[1]).count(), 0);
    }

    #[test]
    fn reply_hop_reads_the_origin_column_only() {
        let (t, r) = diamond();
        let rt = RoutingTable::compute(&t);
        assert_eq!(rt.reply_hop(r[0], r[3]), Some((r[1], SubnetId(2))));
        assert_eq!(rt.reply_hop(r[0], r[1]), Some((r[0], SubnetId(0))));
        assert_eq!(rt.reply_hop(r[0], r[0]), None);
        assert_eq!(rt.built_columns(), 1);
    }

    #[test]
    fn heap_bytes_grow_by_one_column_per_origin_and_one_dag_per_path() {
        let (t, r) = diamond();
        let rt = RoutingTable::compute(&t);
        let graph = rt.heap_bytes();
        assert_eq!((rt.built_columns(), rt.path_bytes()), (0, 0));
        // A 2-byte distance and a 16-byte slot holding a `Box<Dag>`.
        assert_eq!(size_of::<OnceLock<Box<Dag>>>(), 16);
        assert_eq!(rt.column_bytes(), r.len() * (2 + 16));

        // Distances and ingress read the column and build no path.
        let _ = rt.dist(r[0], r[3]);
        let _ = rt.ingress(r[0], SubnetId(3));
        assert_eq!(rt.heap_bytes(), graph + rt.column_bytes());

        // r0 -> r3: the 48-byte boxed DAG (three slice pointers), four
        // members, four hops (two from r0, one each from r1 and r2):
        // 4 + 5 offsets of 4 bytes, 4 pairs of 8 bytes.
        let _ = rt.next_hops(r[0], r[3]).count();
        assert_eq!(size_of::<Dag>(), 48);
        assert_eq!(rt.path_bytes(), 48 + 4 * 4 + 5 * 4 + 4 * 8);
        // Walking the same path again adds nothing.
        let _ = rt.path(r[0], r[3]).next_hops(r[1]).count();
        assert_eq!(rt.heap_bytes(), graph + rt.column_bytes() + 116);

        // A second origin adds its own column.
        let _ = rt.dist(r[3], r[0]);
        assert_eq!(rt.built_columns(), 2);
        assert_eq!(rt.heap_bytes(), graph + 2 * rt.column_bytes() + 116);
    }

    #[test]
    fn attached_routers_are_each_subnets_routers_sorted_and_deduped() {
        let mut b = TopologyBuilder::new();
        let r: Vec<RouterId> =
            (0..2).map(|i| b.router(format!("r{i}"), RouterConfig::cooperative())).collect();
        let s = b.subnet(p("192.168.0.0/29"));
        for (host, &router) in [r[1], r[0], r[1]].iter().enumerate() {
            b.attach(router, s, Addr::new(192, 168, 0, host as u8 + 1)).unwrap();
        }
        let rt = RoutingTable::compute(&b.build().unwrap());
        assert_eq!(rt.attached_routers(SubnetId(0)), &r[..]);
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
