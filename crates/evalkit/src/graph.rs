//! Subnet-level topology maps assembled from tracenet sessions.
//!
//! The paper's introduction places tracenet output one level below the
//! router map: "subnet level maps enrich the router level maps with
//! subnet level connectivity info". This module assembles that map: the
//! collected subnets become nodes, and two subnets are adjacent when a
//! trace crossed from one to the other at consecutive hops — i.e. some
//! router has interfaces on both.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use inet::{Addr, Prefix};
use tracenet::TraceReport;

/// A subnet-level topology map.
#[derive(Clone, Debug, Default)]
pub struct SubnetGraph {
    /// Node set: collected subnet prefixes and their known members.
    nodes: BTreeMap<Prefix, BTreeSet<Addr>>,
    /// Adjacency: unordered prefix pairs with the number of traces that
    /// crossed them consecutively.
    edges: BTreeMap<(Prefix, Prefix), usize>,
    /// Singleton (un-subnetized) trace addresses, kept as /32 leaf nodes
    /// so paths remain connected in the rendering.
    singletons: BTreeSet<Addr>,
}

impl SubnetGraph {
    /// Creates an empty map.
    pub fn new() -> SubnetGraph {
        SubnetGraph::default()
    }

    /// Folds one session's hop sequence into the map.
    pub fn add_report(&mut self, report: &TraceReport) {
        let mut prev: Option<Prefix> = None;
        for hop in &report.hops {
            let here: Option<Prefix> = match &hop.subnet {
                Some(s) if s.record.len() >= 2 => {
                    let prefix = s.record.prefix();
                    self.nodes
                        .entry(prefix)
                        .or_default()
                        .extend(s.record.members().iter().copied());
                    Some(prefix)
                }
                // A hop with an address but no usable subnet: a /32 node.
                _ => match hop.addr {
                    Some(a) if !hop.repeated => {
                        self.singletons.insert(a);
                        Some(Prefix::containing(a, 32))
                    }
                    _ => None,
                },
            };
            if let (Some(p), Some(q)) = (prev, here) {
                if p != q {
                    let key = if p < q { (p, q) } else { (q, p) };
                    *self.edges.entry(key).or_insert(0) += 1;
                }
            }
            // An anonymous hop breaks adjacency (we cannot claim the two
            // neighbors share a router).
            prev = here;
        }
    }

    /// Number of subnet nodes (singletons included).
    pub fn node_count(&self) -> usize {
        self.nodes.len() + self.singletons.len()
    }

    /// Number of distinct adjacencies.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The adjacency list (pairs are ordered `(smaller, larger)`).
    pub fn edges(&self) -> impl Iterator<Item = (&(Prefix, Prefix), &usize)> {
        self.edges.iter()
    }

    /// Whether two prefixes are adjacent in the map.
    pub fn adjacent(&self, a: Prefix, b: Prefix) -> bool {
        let key = if a < b { (a, b) } else { (b, a) };
        self.edges.contains_key(&key)
    }

    /// Renders the map as Graphviz DOT: subnets as boxes labeled
    /// `prefix (members)`, point-to-point links drawn thin, multi-access
    /// LANs emphasized, edge weight = trace multiplicity.
    pub fn to_dot(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "graph subnets {{");
        let _ = writeln!(out, "  label=\"{title}\";");
        let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
        let id = |p: &Prefix| format!("\"{p}\"");
        for (prefix, members) in &self.nodes {
            let style = if members.len() > 2 { ", style=bold" } else { "" };
            let _ = writeln!(
                out,
                "  {} [label=\"{prefix}\\n{} members\"{style}];",
                id(prefix),
                members.len()
            );
        }
        for addr in &self.singletons {
            let p = Prefix::containing(*addr, 32);
            let _ = writeln!(out, "  {} [label=\"{addr}\", style=dashed];", id(&p));
        }
        for ((a, b), weight) in &self.edges {
            let _ = writeln!(out, "  {} -- {} [label=\"{weight}\"];", id(a), id(b));
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::samples;
    use probe::{Protocol, SharedNetwork};
    use tracenet::{Session, TracenetOptions};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn figure3_graph() -> SubnetGraph {
        let (topo, names) = samples::figure3();
        let net = SharedNetwork::new(topo);
        let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
        let report = Session::new(&mut prober, TracenetOptions::default()).run(names.addr("dest"));
        let mut g = SubnetGraph::new();
        g.add_report(&report);
        g
    }

    #[test]
    fn figure3_path_forms_a_chain() {
        let g = figure3_graph();
        // Four subnets on the path, three adjacencies.
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert!(g.adjacent(p("10.0.1.0/31"), p("10.0.2.0/29")));
        assert!(g.adjacent(p("10.0.2.0/29"), p("10.0.9.0/31")));
        assert!(!g.adjacent(p("10.0.0.0/31"), p("10.0.9.0/31")));
    }

    #[test]
    fn repeated_traces_accumulate_edge_weight() {
        let (topo, names) = samples::figure3();
        let net = SharedNetwork::new(topo);
        let mut g = SubnetGraph::new();
        for k in 0..3 {
            let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp).ident(k);
            let report =
                Session::new(&mut prober, TracenetOptions::default()).run(names.addr("dest"));
            g.add_report(&report);
        }
        let (_, &weight) = g
            .edges()
            .find(|((a, b), _)| *a == p("10.0.1.0/31") && *b == p("10.0.2.0/29"))
            .expect("edge exists");
        assert_eq!(weight, 3);
        assert_eq!(g.edge_count(), 3, "no duplicate edges");
    }

    #[test]
    fn dot_output_mentions_every_node_and_edge() {
        let g = figure3_graph();
        let dot = g.to_dot("figure3");
        assert!(dot.starts_with("graph subnets {"));
        assert!(dot.contains("10.0.2.0/29"));
        assert!(dot.contains("4 members"));
        assert!(dot.contains("style=bold"), "the /29 LAN is emphasized");
        assert!(dot.contains("--"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn anonymous_hops_break_adjacency() {
        use inet::Addr;
        use tracenet::{HopRecord, PhaseCost, TraceReport};
        let a = |s: &str| -> Addr { s.parse().unwrap() };
        let subnet = |prefix: &str, m: &[&str]| tracenet::ObservedSubnet {
            record: inet::SubnetRecord::new(prefix.parse().unwrap(), m.iter().map(|x| a(x)))
                .unwrap(),
            pivot: a(m[0]),
            pivot_dist: 1,
            contra_pivot: None,
            ingress: None,
            on_path: true,
            stop: tracenet::StopCause::Underutilized,
        };
        let hop = |n: u8, sn: Option<tracenet::ObservedSubnet>| HopRecord {
            hop: n,
            addr: sn.as_ref().map(|s| s.pivot),
            reached_destination: false,
            repeated: false,
            cached: false,
            subnet: sn.map(std::sync::Arc::new),
            cost: PhaseCost::default(),
            completeness: tracenet::Completeness::Complete,
        };
        let report = TraceReport {
            vantage: a("10.0.0.0"),
            destination: a("10.9.9.9"),
            destination_reached: false,
            hops: vec![
                hop(1, Some(subnet("10.0.0.0/31", &["10.0.0.0", "10.0.0.1"]))),
                hop(2, None), // anonymous
                hop(3, Some(subnet("10.0.2.0/31", &["10.0.2.0", "10.0.2.1"]))),
            ],
            total_probes: 0,
            cache_hits: 0,
            aborted: false,
        };
        let mut g = SubnetGraph::new();
        g.add_report(&report);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0, "no adjacency across the anonymous hop");
    }
}
