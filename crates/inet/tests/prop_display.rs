//! `Display` for `Addr` and `Prefix` against the `write!` rendering it
//! replaced: for random addresses, octets at every digit-count edge and
//! every prefix length, the text must be the old bytes, with and without
//! width flags (which both renderings ignore).

use std::fmt;

use inet::{Addr, Prefix};
use proptest::prelude::*;

/// An address printed the way `Display for Addr` printed it before it
/// had its own renderer.
struct OldAddr(Addr);

impl fmt::Display for OldAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.0.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// A prefix printed the way `Display for Prefix` printed it.
struct OldPrefix(Prefix);

impl fmt::Display for OldPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", OldAddr(self.0.network()), self.0.len())
    }
}

fn assert_addr_prints_like_before(a: Addr) {
    let old = OldAddr(a);
    assert_eq!(a.to_string(), old.to_string());
    assert_eq!(a.dotted().as_str(), old.to_string());
    assert_eq!(format!("{a:<17}"), format!("{old:<17}"));
    assert_eq!(format!("{a:>20}"), format!("{old:>20}"));
    assert_eq!(format!("{a:?}"), old.to_string());
}

fn assert_prefix_prints_like_before(p: Prefix) {
    let old = OldPrefix(p);
    assert_eq!(p.to_string(), old.to_string());
    assert_eq!(p.dotted().as_str(), old.to_string());
    assert_eq!(format!("{p:<17}"), format!("{old:<17}"));
    assert_eq!(format!("{p:>20}"), format!("{old:>20}"));
    assert_eq!(format!("{p:?}"), old.to_string());
}

/// Octets at each edge of the one-, two- and three-digit ranges.
const EDGES: [u8; 6] = [0, 9, 10, 99, 100, 255];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn addr_display_matches_the_write_rendering(n in any::<u32>()) {
        assert_addr_prints_like_before(Addr::from_u32(n));
    }

    #[test]
    fn prefix_display_matches_the_write_rendering(n in any::<u32>(), len in 0u8..=32) {
        assert_prefix_prints_like_before(Prefix::containing(Addr::from_u32(n), len));
    }
}

#[test]
fn every_octet_edge_in_every_position_prints_like_before() {
    for a in EDGES {
        for b in EDGES {
            for c in EDGES {
                for d in EDGES {
                    assert_addr_prints_like_before(Addr::new(a, b, c, d));
                }
            }
        }
    }
}

#[test]
fn every_prefix_length_prints_like_before() {
    for len in 0..=32 {
        for base in [Addr::new(255, 255, 255, 255), Addr::new(10, 99, 100, 9), Addr::UNSPECIFIED] {
            assert_prefix_prints_like_before(Prefix::containing(base, len));
        }
    }
}
