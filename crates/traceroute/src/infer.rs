//! Offline subnet inference over traceroute-collected addresses — the
//! post-processing baseline of the paper's reference \[7\] (Gunes &
//! Sarac, "Inferring subnets in router-level topology collection
//! studies", IMC 2007).
//!
//! Given addresses annotated with hop distances (as harvested from many
//! traceroute runs), group them into candidate subnets bottom-up: two
//! sibling groups merge into their parent prefix when the merged group
//! still looks like one subnet —
//!
//! * hop distances span at most one (the *unit subnet diameter*
//!   observation);
//! * no member is a boundary address of the merged prefix (unless /31);
//! * the merged prefix is sufficiently utilized (the same ≥½ completeness
//!   condition tracenet uses while growing).
//!
//! The contrast with tracenet is the whole point of the paper: inference
//! can only group *addresses traceroute happened to collect*, so a subnet
//! whose far-side interfaces never appeared in any trace is invisible,
//! and accidental neighbors (fringe interfaces!) get merged because no
//! targeted probing can refute them.

use std::collections::BTreeMap;

use inet::{Addr, Prefix, SubnetRecord};

/// Widest prefix (smallest length) inference forms.
const MIN_PREFIX_LEN: u8 = 24;

/// Groups `(address, hop distance)` observations into inferred subnets.
///
/// Addresses that merge with nothing are returned as /32 singletons, so
/// the output always partitions the input.
pub fn infer_subnets(observations: &[(Addr, u16)]) -> Vec<SubnetRecord> {
    // Deduplicate, keeping the smallest observed hop per address.
    let mut hop_of: BTreeMap<Addr, u16> = BTreeMap::new();
    for &(a, h) in observations {
        hop_of.entry(a).and_modify(|e| *e = (*e).min(h)).or_insert(h);
    }

    // Groups of addresses believed to share a subnet. A merge that looks
    // implausible at one level is merely postponed — interior addresses
    // of a /29 look like boundary addresses of intermediate /30s, so a
    // rejection at /30 must not prevent the /29 from forming.
    let mut groups: Vec<Vec<Addr>> = hop_of.keys().map(|&a| vec![a]).collect();

    for len in (MIN_PREFIX_LEN..=31).rev() {
        let mut by_parent: BTreeMap<Prefix, Vec<Vec<Addr>>> = BTreeMap::new();
        for g in std::mem::take(&mut groups) {
            let parent = Prefix::containing(g[0], len);
            by_parent.entry(parent).or_default().push(g);
        }
        for (parent, kids) in by_parent {
            if kids.len() < 2 {
                groups.extend(kids);
                continue;
            }
            let mut union: Vec<Addr> = kids.iter().flatten().copied().collect();
            union.sort_unstable();
            if plausible_subnet(parent, &union, &hop_of) {
                groups.push(union);
            } else {
                groups.extend(kids);
            }
        }
    }

    groups
        .into_iter()
        .map(|members| {
            // Report each group at its tightest covering prefix.
            let lo = *members.first().expect("groups are non-empty");
            let hi = *members.last().expect("groups are non-empty");
            let len = lo.common_prefix_len(hi).min(32);
            SubnetRecord::new(Prefix::containing(lo, len), members)
                .expect("members lie inside their covering prefix")
        })
        .collect()
}

fn plausible_subnet(prefix: Prefix, members: &[Addr], hop_of: &BTreeMap<Addr, u16>) -> bool {
    if members.len() < 2 {
        // A singleton "merge" is always fine — nothing is claimed yet.
        return true;
    }
    // Unit subnet diameter.
    let hops: Vec<u16> = members.iter().map(|m| hop_of[m]).collect();
    let (min, max) = (*hops.iter().min().unwrap(), *hops.iter().max().unwrap());
    if max - min > 1 {
        return false;
    }
    // No boundary addresses.
    if members.iter().any(|&m| prefix.is_boundary(m)) {
        return false;
    }
    // Completeness for /29 and wider: at least half utilized, as in
    // Algorithm 1 lines 19–21.
    prefix.len() > 29 || 2 * members.len() as u64 >= prefix.size()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn infer(obs: &[(&str, u16)]) -> Vec<SubnetRecord> {
        let v: Vec<(Addr, u16)> = obs.iter().map(|&(s, h)| (a(s), h)).collect();
        infer_subnets(&v)
    }

    #[test]
    fn mate31_pair_merges_into_slash31() {
        let subnets = infer(&[("10.0.0.0", 2), ("10.0.0.1", 3)]);
        assert_eq!(subnets.len(), 1);
        assert_eq!(subnets[0].prefix().to_string(), "10.0.0.0/31");
        assert_eq!(subnets[0].len(), 2);
    }

    #[test]
    fn slash30_center_pair_merges() {
        let subnets = infer(&[("10.0.0.1", 2), ("10.0.0.2", 3)]);
        assert_eq!(subnets.len(), 1);
        assert_eq!(subnets[0].prefix().to_string(), "10.0.0.0/30");
    }

    #[test]
    fn distant_addresses_do_not_merge() {
        // Hop distances 2 and 7 cannot share a LAN.
        let subnets = infer(&[("10.0.0.1", 2), ("10.0.0.2", 7)]);
        assert_eq!(subnets.len(), 2);
        assert!(subnets.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn boundary_addresses_block_merging() {
        // .3 and .4 share only /29-and-wider prefixes; in /29 10.0.0.0/29
        // neither is a boundary... they merge at /29 only if utilization
        // suffices (2/8 < 0.5: rejected). So they stay singletons.
        let subnets = infer(&[("10.0.0.3", 2), ("10.0.0.4", 2)]);
        assert_eq!(subnets.len(), 2);
    }

    #[test]
    fn well_sampled_slash29_merges_fully() {
        let obs: Vec<(&str, u16)> = vec![
            ("10.0.0.1", 3),
            ("10.0.0.2", 4),
            ("10.0.0.3", 4),
            ("10.0.0.4", 4),
            ("10.0.0.5", 4),
        ];
        let subnets = infer(&obs);
        assert_eq!(subnets.len(), 1);
        assert_eq!(subnets[0].prefix().to_string(), "10.0.0.0/29");
        assert_eq!(subnets[0].len(), 5);
    }

    #[test]
    fn under_sampled_subnet_stays_fragmented() {
        // Only two of a /29's six usable addresses were ever seen: the
        // inference baseline cannot claim the /29 (2/8 utilization) and,
        // since 10.0.0.2/10.0.0.5 share no /30 or /31, they stay apart —
        // exactly the failure mode tracenet's active probing avoids.
        let subnets = infer(&[("10.0.0.2", 3), ("10.0.0.5", 3)]);
        assert_eq!(subnets.len(), 2);
    }

    #[test]
    fn duplicate_observations_collapse() {
        let subnets = infer(&[("10.0.0.1", 3), ("10.0.0.1", 4), ("10.0.0.0", 3)]);
        assert_eq!(subnets.len(), 1);
        assert_eq!(subnets[0].len(), 2);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(infer(&[]).is_empty());
    }

    #[test]
    fn output_partitions_input() {
        let obs: Vec<(Addr, u16)> =
            (0..32u32).map(|i| (Addr::from_u32(0x0a000000 + i * 3), 2 + (i % 2) as u16)).collect();
        let subnets = infer_subnets(&obs);
        let total: usize = subnets.iter().map(|s| s.len()).sum();
        let distinct: std::collections::BTreeSet<Addr> = obs.iter().map(|&(a, _)| a).collect();
        assert_eq!(total, distinct.len(), "every address appears exactly once");
    }
}
