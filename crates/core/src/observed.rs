//! The output model: observed subnets and how their growth ended.

use std::fmt;

use inet::{Addr, SubnetRecord};

/// Role of an address inside an observed subnet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddressRole {
    /// The interface the subnet was grown around (farthest side of the
    /// subnet from the vantage).
    Pivot,
    /// The ingress router's interface on the subnet — one hop closer than
    /// every other member (§3.3).
    ContraPivot,
    /// Any other member.
    Member,
}

/// Why subnet growth stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCause {
    /// A candidate violated heuristic `h` (2..=8): stop-and-shrink (H1).
    Shrunk {
        /// The violated rule number.
        by: u8,
    },
    /// Algorithm 1 lines 19–21: a /29-or-larger level ended at most half
    /// utilized.
    Underutilized,
    /// Growth hit the configured minimum prefix length.
    PrefixFloor,
}

/// A subnet collected by one tracenet hop: the paper's end product.
#[derive(Clone, Debug)]
pub struct ObservedSubnet {
    /// Prefix and member addresses.
    pub record: SubnetRecord,
    /// The pivot interface.
    pub pivot: Addr,
    /// Hop distance of the pivot from the vantage point.
    pub pivot_dist: u8,
    /// The contra-pivot, when one was identified.
    pub contra_pivot: Option<Addr>,
    /// The ingress interface (entry point reported at `pivot_dist − 1`),
    /// when the ingress router was not anonymous.
    pub ingress: Option<Addr>,
    /// Whether positioning judged this subnet on-the-trace-path.
    pub on_path: bool,
    /// How growth ended.
    pub stop: StopCause,
}

impl ObservedSubnet {
    /// The role of `addr` within this subnet, or `None` if not a member.
    pub fn role_of(&self, addr: Addr) -> Option<AddressRole> {
        if !self.record.contains(addr) {
            return None;
        }
        if addr == self.pivot {
            Some(AddressRole::Pivot)
        } else if Some(addr) == self.contra_pivot {
            Some(AddressRole::ContraPivot)
        } else {
            Some(AddressRole::Member)
        }
    }

    /// Whether the observed subnet is a point-to-point link (/30 or /31
    /// with exactly two members) — one of the paper's headline outputs is
    /// "marking multi-access and point-to-point links".
    pub fn is_point_to_point(&self) -> bool {
        self.record.prefix().len() >= 30 && self.record.len() == 2
    }
}

impl fmt::Display for ObservedSubnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pivot={} dist={}{}{}",
            self.record.prefix(),
            self.pivot,
            self.pivot_dist,
            match self.contra_pivot {
                Some(c) => format!(" contra={c}"),
                None => String::new(),
            },
            if self.on_path { " [on-path]" } else { " [off-path]" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inet::Prefix;

    fn subnet() -> ObservedSubnet {
        let prefix: Prefix = "10.0.2.0/29".parse().unwrap();
        let members: Vec<Addr> =
            ["10.0.2.1", "10.0.2.2", "10.0.2.3"].iter().map(|s| s.parse().unwrap()).collect();
        ObservedSubnet {
            record: SubnetRecord::new(prefix, members).unwrap(),
            pivot: "10.0.2.3".parse().unwrap(),
            pivot_dist: 3,
            contra_pivot: Some("10.0.2.1".parse().unwrap()),
            ingress: Some("10.0.1.1".parse().unwrap()),
            on_path: true,
            stop: StopCause::Shrunk { by: 7 },
        }
    }

    #[test]
    fn roles() {
        let s = subnet();
        assert_eq!(s.role_of("10.0.2.3".parse().unwrap()), Some(AddressRole::Pivot));
        assert_eq!(s.role_of("10.0.2.1".parse().unwrap()), Some(AddressRole::ContraPivot));
        assert_eq!(s.role_of("10.0.2.2".parse().unwrap()), Some(AddressRole::Member));
        assert_eq!(s.role_of("10.0.2.5".parse().unwrap()), None);
    }

    #[test]
    fn point_to_point_classification() {
        let mut s = subnet();
        assert!(!s.is_point_to_point());
        s.record = SubnetRecord::new(
            "10.0.2.0/31".parse().unwrap(),
            ["10.0.2.0".parse().unwrap(), "10.0.2.1".parse().unwrap()],
        )
        .unwrap();
        assert!(s.is_point_to_point());
    }

    #[test]
    fn display_mentions_prefix_and_path() {
        let s = subnet();
        let txt = s.to_string();
        assert!(txt.contains("10.0.2.0/29"));
        assert!(txt.contains("[on-path]"));
        assert!(txt.contains("contra=10.0.2.1"));
    }
}
