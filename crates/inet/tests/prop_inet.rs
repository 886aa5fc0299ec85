//! Property-based tests for address and prefix arithmetic.

use inet::{Addr, Prefix, SubnetRecord};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Addr> {
    any::<u32>().prop_map(Addr::from_u32)
}

fn arb_len() -> impl Strategy<Value = u8> {
    0u8..=32
}

/// Near-misses of a dotted quad: one to five groups of up to four
/// digits (leading zeros and values above 255 included), joined by dots,
/// sometimes with a stray byte.
fn arb_dotted() -> impl Strategy<Value = String> {
    let group = (0u32..300, 0usize..5);
    (proptest::collection::vec(group, 1..6), 0usize..12).prop_map(|(groups, stray)| {
        let mut s: Vec<String> =
            groups.into_iter().map(|(n, width)| format!("{n:0width$}")).collect();
        if let Some(junk) = ["", "x", "+", " ", "-", ".."].get(stray) {
            s.push(junk.to_string());
        }
        s.join(".")
    })
}

proptest! {
    #[test]
    fn addr_display_parse_roundtrip(a in arb_addr()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Addr>().unwrap(), a);
    }

    #[test]
    fn addr_parse_agrees_with_std(s in arb_dotted()) {
        let std = s.parse::<std::net::Ipv4Addr>().ok().map(Addr::from);
        prop_assert_eq!(s.parse::<Addr>().ok(), std, "{:?}", s);
    }

    #[test]
    fn mate31_involution_and_adjacency(a in arb_addr()) {
        prop_assert_eq!(a.mate31().mate31(), a);
        prop_assert_ne!(a.mate31(), a);
        prop_assert_eq!(a.common_prefix_len(a.mate31()), 31);
        // mate-31 pairs always share the same /31.
        prop_assert_eq!(
            Prefix::containing(a, 31),
            Prefix::containing(a.mate31(), 31)
        );
    }

    #[test]
    fn mate30_involution_and_same_slash30(a in arb_addr()) {
        prop_assert_eq!(a.mate30().mate30(), a);
        prop_assert_eq!(
            Prefix::containing(a, 30),
            Prefix::containing(a.mate30(), 30)
        );
    }

    #[test]
    fn prefix_contains_its_own_range(a in arb_addr(), len in arb_len()) {
        let p = Prefix::containing(a, len);
        prop_assert!(p.contains(a));
        prop_assert!(p.contains(p.network()));
        prop_assert!(p.contains(p.broadcast()));
        prop_assert!(p.network() <= a && a <= p.broadcast());
    }

    #[test]
    fn prefix_display_parse_roundtrip(a in arb_addr(), len in arb_len()) {
        let p = Prefix::containing(a, len);
        prop_assert_eq!(p.to_string().parse::<Prefix>().unwrap(), p);
    }

    #[test]
    fn parent_covers_child(a in arb_addr(), len in 1u8..=32) {
        let p = Prefix::containing(a, len);
        let parent = p.parent().unwrap();
        prop_assert!(parent.covers(p));
        prop_assert_eq!(parent.size(), p.size() * 2);
        prop_assert!(parent.contains(a));
    }

    #[test]
    fn halves_partition_parent(a in arb_addr(), len in 0u8..32) {
        let p = Prefix::containing(a, len);
        let (lo, hi) = p.halves().unwrap();
        prop_assert_eq!(lo.size() + hi.size(), p.size());
        prop_assert!(p.covers(lo) && p.covers(hi));
        prop_assert_eq!(lo.network(), p.network());
        prop_assert_eq!(hi.broadcast(), p.broadcast());
        prop_assert_eq!(lo.broadcast().checked_add(1).unwrap(), hi.network());
        // An address of p is in exactly one half.
        prop_assert!(lo.contains(a) ^ hi.contains(a));
    }

    #[test]
    fn addrs_iteration_matches_size(a in arb_addr(), len in 24u8..=32) {
        let p = Prefix::containing(a, len);
        let v: Vec<Addr> = p.addrs().collect();
        prop_assert_eq!(v.len() as u64, p.size());
        prop_assert!(v.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        prop_assert!(v.iter().all(|&x| p.contains(x)));
    }

    #[test]
    fn probe_addrs_skip_exactly_boundaries(a in arb_addr(), len in 24u8..=32) {
        let p = Prefix::containing(a, len);
        let probed: Vec<Addr> = p.probe_addrs().collect();
        let expected: Vec<Addr> = p.addrs().filter(|&x| !p.is_boundary(x)).collect();
        prop_assert_eq!(probed, expected);
    }

    #[test]
    fn common_prefix_len_symmetric_and_bounded(a in arb_addr(), b in arb_addr()) {
        let n = a.common_prefix_len(b);
        prop_assert_eq!(n, b.common_prefix_len(a));
        prop_assert!(n <= 32);
        if n < 32 {
            // They are in the same /n but different /(n+1).
            prop_assert_eq!(Prefix::containing(a, n), Prefix::containing(b, n));
            prop_assert_ne!(Prefix::containing(a, n + 1), Prefix::containing(b, n + 1));
        } else {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn subnet_record_shrink_preserves_invariants(
        a in arb_addr(),
        len in 24u8..=30,
        picks in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let p = Prefix::containing(a, len);
        let all: Vec<Addr> = p.addrs().collect();
        let members = picks.iter().map(|&i| all[i as usize % all.len()]);
        let mut rec = SubnetRecord::new(p, members).unwrap();
        let before = rec.members().to_vec();

        let target = Prefix::containing(a, len + 1);
        rec.shrink_to(target);
        prop_assert!(rec.members().iter().all(|&m| target.contains(m)));
        // Shrink keeps exactly the members that fall inside the target.
        let expected: Vec<Addr> = before.into_iter().filter(|&m| target.contains(m)).collect();
        prop_assert_eq!(rec.members(), &expected[..]);
    }
}
