//! Scenario and ground-truth types shared by all generators.

use inet::{Addr, Prefix};
use netsim::Topology;

/// What the generator intended for a subnet — the knowledge the paper's
/// authors reconstructed *after* the fact by exhaustively pinging missing
/// and underestimated subnets (§4.1.1). Having it as ground truth lets the
/// evaluation split misses into "tracenet's fault" and "network's fault"
/// exactly like the `miss` vs `miss∖unrs` rows of Tables 1–2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SubnetIntent {
    /// Responsive, well-utilized: tracenet is expected to collect it
    /// exactly.
    Normal,
    /// Behind a filtering firewall: totally unresponsive, expected
    /// missing.
    Filtered,
    /// Partially unresponsive / sparsely utilized: expected
    /// underestimated (or missing when the sampled target is mute).
    Partial,
    /// Access/transit plumbing that is not part of the evaluated
    /// network (e.g. the vantage's uplink): excluded from accuracy
    /// accounting.
    Infrastructure,
}

impl SubnetIntent {
    /// Short stable label used in JSON exports.
    pub fn label(self) -> &'static str {
        match self {
            SubnetIntent::Normal => "normal",
            SubnetIntent::Filtered => "filtered",
            SubnetIntent::Partial => "partial",
            SubnetIntent::Infrastructure => "infrastructure",
        }
    }
}

/// Ground truth for one subnet.
#[derive(Clone, Debug)]
pub struct GtSubnet {
    /// The subnet's true prefix.
    pub prefix: Prefix,
    /// Its assigned (alive or not) interface addresses, sorted.
    pub members: Vec<Addr>,
    /// Generator intent.
    pub intent: SubnetIntent,
    /// Owning network ("internet2", "sprintlink", …).
    pub network: String,
}

/// Ground truth for a whole scenario.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    /// All subnets, including infrastructure.
    pub subnets: Vec<GtSubnet>,
}

impl GroundTruth {
    /// The subnets that participate in accuracy evaluation (everything
    /// but infrastructure).
    pub fn evaluated(&self) -> impl Iterator<Item = &GtSubnet> {
        self.subnets.iter().filter(|s| s.intent != SubnetIntent::Infrastructure)
    }

    /// Subnets belonging to `network`.
    pub fn of_network<'a>(&'a self, network: &'a str) -> impl Iterator<Item = &'a GtSubnet> {
        self.subnets.iter().filter(move |s| s.network == network)
    }

    /// Ground truth subnet containing `addr`, if any.
    pub fn containing(&self, addr: Addr) -> Option<&GtSubnet> {
        self.subnets.iter().find(|s| s.prefix.contains(addr))
    }
}

/// A generated experiment environment.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable scenario name.
    pub name: String,
    /// The validated topology (feed to `netsim::ConcurrentNetwork::new`).
    pub topology: Topology,
    /// Vantage points: (name, host address).
    pub vantages: Vec<(String, Addr)>,
    /// Trace destinations, in a deterministic order.
    pub targets: Vec<Addr>,
    /// Per-subnet ground truth.
    pub ground_truth: GroundTruth,
}

impl Scenario {
    /// The vantage address registered under `name`.
    ///
    /// # Panics
    /// Panics when the name is unknown.
    pub fn vantage(&self, name: &str) -> Addr {
        self.vantages
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, a)| a)
            .unwrap_or_else(|| panic!("no vantage named {name:?} in scenario {}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gt() -> GroundTruth {
        GroundTruth {
            subnets: vec![
                GtSubnet {
                    prefix: "10.0.0.0/30".parse().unwrap(),
                    members: vec!["10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap()],
                    intent: SubnetIntent::Normal,
                    network: "internet2".into(),
                },
                GtSubnet {
                    prefix: "10.0.1.0/31".parse().unwrap(),
                    members: vec!["10.0.1.0".parse().unwrap()],
                    intent: SubnetIntent::Infrastructure,
                    network: "access".into(),
                },
            ],
        }
    }

    #[test]
    fn evaluated_excludes_infrastructure() {
        let g = gt();
        assert_eq!(g.evaluated().count(), 1);
        assert_eq!(g.of_network("internet2").count(), 1);
        assert_eq!(g.of_network("access").count(), 1);
    }

    #[test]
    fn containing_finds_the_right_subnet() {
        let g = gt();
        let s = g.containing("10.0.0.2".parse().unwrap()).unwrap();
        assert_eq!(s.prefix.to_string(), "10.0.0.0/30");
        assert!(g.containing("99.0.0.1".parse().unwrap()).is_none());
    }
}
