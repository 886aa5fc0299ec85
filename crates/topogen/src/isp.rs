//! Four ISP backbones behind a shared transit core, probed from three
//! vantage points — the environment of the paper's §4.2 (Table 3,
//! Figures 6–9).
//!
//! Scaled to roughly a tenth of the paper's measurements so experiments
//! run in seconds: the *shapes* (per-ISP ordering, prefix-length
//! distribution, protocol responsiveness ratios, cross-vantage agreement
//! levels) are what the evaluation reproduces, not absolute counts.
//!
//! Composition follows the paper's own findings: collected ISP subnets
//! are dominated by /31 and /30 point-to-point links, then /29
//! aggregation LANs, with a sharp drop beyond /29 and a small /24 bump
//! (Figure 9) — so each ISP here is mostly a deep fabric of p2p links:
//! POP ring + chords, intra-POP pairs, and multi-hop access chains, with
//! comparatively few LANs. The per-ISP behavior ratios encode the rest:
//! SprintLink is "the least responsive ISP to our probes" with many
//! un-subnetized addresses; "NTT America is the most responsive" and
//! "accommodates large subnets of mask /20, /21, /22"; UDP draws roughly
//! a third of ICMP's subnets (but almost nothing on NTT) and TCP is
//! negligible everywhere (Table 3).

use inet::{Addr, Prefix};
use netsim::{ProtoSet, RateLimit, ResponsePolicy, RouterConfig, RouterId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::builder::{BlockAlloc, NetBuilder};
use crate::scenario::{Scenario, SubnetIntent};

/// Canonical ISP names, in the paper's Table 3 order.
pub const ISP_NAMES: [&str; 4] = ["sprintlink", "ntt", "level3", "abovenet"];

/// Probability that a subnet is ACL-blocked toward exactly one vantage.
///
/// Together with [`SCOPED_BLOCK_TWO`] this encodes the visibility
/// asymmetry (peering-point ACLs, scoped announcements, persistent
/// congestion) behind Figure 6's disagreement: the paper finds only
/// ~60% of subnets are seen by all three vantage points and ~20% are
/// unique to one.
pub const SCOPED_BLOCK_ONE: f64 = 0.26;

/// Probability that a subnet is ACL-blocked toward two vantages.
pub const SCOPED_BLOCK_TWO: f64 = 0.30;

/// Shape and behavior of one ISP.
#[derive(Clone, Debug)]
pub struct IspSpec {
    /// ISP name (lowercase, stable).
    pub name: String,
    /// First octet of the ISP's private region (`X.0.0.0/8`).
    pub region_octet: u8,
    /// Number of POPs in the backbone ring.
    pub pops: usize,
    /// Access chains hanging off each POP.
    pub chains_per_pop: usize,
    /// Maximum chain depth (each chain is 1..=this many /30-/31 links).
    pub chain_depth: usize,
    /// Probability that a chain router carries a /29 aggregation LAN.
    pub lan29_prob: f64,
    /// Probability that a chain router carries a /28 or /27 LAN.
    pub lan_wide_prob: f64,
    /// Dense /24 LANs across the ISP (Figure 9's /24 bump).
    pub dense_24s: usize,
    /// Large subnets (NTT's /20–/22): (prefix length, count).
    pub large_subnets: Vec<(u8, usize)>,
    /// Fraction of LANs behind filtering firewalls.
    pub filtered_frac: f64,
    /// Fraction of routers answering direct ICMP probes.
    pub icmp_direct: f64,
    /// Fraction answering direct UDP probes (Table 3's UDP column).
    pub udp_direct: f64,
    /// Fraction answering direct TCP probes (Table 3's TCP column).
    pub tcp_direct: f64,
    /// Fraction of routers with ICMP rate limiting.
    pub rate_limited: f64,
    /// Fraction of routers that stay silent to indirect probes
    /// (anonymous hops).
    pub nil_indirect: f64,
}

/// The paper's four ISPs with shape/behavior ratios fitted to Table 3
/// and Figures 7–9.
pub fn default_isps() -> Vec<IspSpec> {
    vec![
        IspSpec {
            // Most subnets; least responsive; most un-subnetized IPs.
            name: "sprintlink".into(),
            region_octet: 41,
            pops: 22,
            chains_per_pop: 6,
            chain_depth: 3,
            lan29_prob: 0.13,
            lan_wide_prob: 0.06,
            dense_24s: 6,
            large_subnets: vec![],
            filtered_frac: 0.10,
            icmp_direct: 0.78,
            udp_direct: 0.38,
            tcp_direct: 0.004,
            rate_limited: 0.35,
            nil_indirect: 0.10,
        },
        IspSpec {
            // Fewest subnets but the largest ones; most responsive.
            name: "ntt".into(),
            region_octet: 42,
            pops: 8,
            chains_per_pop: 4,
            chain_depth: 2,
            lan29_prob: 0.13,
            lan_wide_prob: 0.05,
            dense_24s: 2,
            large_subnets: vec![(20, 1), (21, 1), (22, 2)],
            filtered_frac: 0.03,
            icmp_direct: 0.97,
            udp_direct: 0.07,
            tcp_direct: 0.003,
            rate_limited: 0.08,
            nil_indirect: 0.02,
        },
        IspSpec {
            name: "level3".into(),
            region_octet: 43,
            pops: 14,
            chains_per_pop: 4,
            chain_depth: 3,
            lan29_prob: 0.13,
            lan_wide_prob: 0.06,
            dense_24s: 5,
            large_subnets: vec![],
            filtered_frac: 0.06,
            icmp_direct: 0.92,
            udp_direct: 0.30,
            tcp_direct: 0.004,
            rate_limited: 0.20,
            nil_indirect: 0.04,
        },
        IspSpec {
            name: "abovenet".into(),
            region_octet: 44,
            pops: 11,
            chains_per_pop: 4,
            chain_depth: 2,
            lan29_prob: 0.13,
            lan_wide_prob: 0.06,
            dense_24s: 4,
            large_subnets: vec![],
            filtered_frac: 0.06,
            icmp_direct: 0.92,
            udp_direct: 0.33,
            tcp_direct: 0.018,
            rate_limited: 0.20,
            nil_indirect: 0.04,
        },
    ]
}

/// Parameters of the whole multi-ISP internet.
#[derive(Clone, Debug)]
pub struct IspInternetSpec {
    /// Determinism seed.
    pub seed: u64,
    /// The ISPs to build.
    pub isps: Vec<IspSpec>,
    /// Trace destinations sampled per ISP (the paper's 34 084-address
    /// target set, scaled): hard cap per ISP.
    pub targets_per_isp: usize,
    /// Fraction of each ISP's sampleable addresses put in the target
    /// list. Proportional sampling keeps collected-subnet counts ordered
    /// by ISP size, as the paper's saturating 34k-target set did.
    pub target_coverage: f64,
}

impl Default for IspInternetSpec {
    fn default() -> Self {
        IspInternetSpec {
            seed: 2010,
            isps: default_isps(),
            targets_per_isp: 450,
            target_coverage: 0.55,
        }
    }
}

impl IspInternetSpec {
    /// The default internet scaled by `k`: every ISP's `pops` times `k`
    /// and `targets_per_isp` = 450 × `k`, every other field the default.
    /// `scaled(1)` is the default; at k = 20 the internet holds about
    /// 15 000 routers and 18 000 targets, approaching the paper's scale.
    pub fn scaled(k: usize) -> IspInternetSpec {
        let mut spec = IspInternetSpec::default();
        for isp in &mut spec.isps {
            isp.pops *= k;
        }
        spec.targets_per_isp *= k;
        spec
    }
}

/// Builds the default four-ISP internet with vantages `rice`, `uoregon`
/// and `umass`.
pub fn isp_internet(seed: u64) -> Scenario {
    isp_internet_with(IspInternetSpec { seed, ..IspInternetSpec::default() })
}

/// Builds a multi-ISP internet per `spec`.
pub fn isp_internet_with(spec: IspInternetSpec) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut nb = NetBuilder::new();
    let mut transit_alloc = BlockAlloc::new("30.0.0.0/12".parse::<Prefix>().expect("static"));

    // --- Transit core (infrastructure): ring of 8 with chords. -----------
    let transit: Vec<RouterId> =
        (0..8).map(|i| nb.router(format!("transit{i}"), RouterConfig::cooperative())).collect();
    for i in 0..transit.len() {
        nb.link(
            transit[i],
            transit[(i + 1) % transit.len()],
            transit_alloc.take(31),
            SubnetIntent::Infrastructure,
            "transit",
        );
    }
    for (i, j) in [(0, 4), (1, 5), (2, 6)] {
        nb.link(
            transit[i],
            transit[j],
            transit_alloc.take(31),
            SubnetIntent::Infrastructure,
            "transit",
        );
    }

    // --- Vantage hosts on distinct transit routers. ------------------------
    let mut vantages = Vec::new();
    for (name, at) in [("rice", 0usize), ("uoregon", 3), ("umass", 5)] {
        let host = nb.host(name);
        let (v_addr, _) = nb.link(
            host,
            transit[at],
            transit_alloc.take(30),
            SubnetIntent::Infrastructure,
            "transit",
        );
        vantages.push((name.to_string(), v_addr));
    }

    // --- ISPs. --------------------------------------------------------------
    let vantage_addrs: Vec<Addr> = vantages.iter().map(|&(_, a)| a).collect();
    let mut targets = Vec::new();
    for isp in &spec.isps {
        let isp_targets = build_isp(
            &mut nb,
            &mut rng,
            isp,
            &transit,
            &vantage_addrs,
            spec.targets_per_isp,
            spec.target_coverage,
        );
        targets.extend(isp_targets);
    }

    let (topology, ground_truth) = nb.finish();
    Scenario { name: "isp-internet".to_string(), topology, vantages, targets, ground_truth }
}

/// Draws a router config from the ISP's behavior mix.
fn draw_config(rng: &mut SmallRng, isp: &IspSpec) -> RouterConfig {
    let mut cfg = RouterConfig::cooperative();
    cfg.direct_protos = ProtoSet {
        icmp: rng.gen_bool(isp.icmp_direct),
        udp: rng.gen_bool(isp.udp_direct),
        tcp: rng.gen_bool(isp.tcp_direct),
    };
    // TTL-exceeded generation is less picky than direct answering.
    cfg.indirect_protos = ProtoSet { icmp: true, udp: rng.gen_bool(0.9), tcp: rng.gen_bool(0.8) };
    if rng.gen_bool(isp.nil_indirect) {
        cfg.indirect = ResponsePolicy::Nil;
    } else if rng.gen_bool(0.12) {
        cfg.indirect = ResponsePolicy::ShortestPath;
    }
    if rng.gen_bool(0.10) {
        // A sprinkle of per-packet load balancing: the pathological case
        // of §3.7 that makes exploration outcomes time-dependent.
        cfg.lb = netsim::LbMode::PerPacket;
    }
    if rng.gen_bool(isp.rate_limited) {
        // Slow refills so sustained exploration actually drains buckets —
        // the paper blames rate limiting for cross-vantage disagreement.
        cfg.rate_limit = Some(RateLimit {
            capacity: rng.gen_range(4..12),
            refill_every: rng.gen_range(200..1000),
        });
    }
    cfg
}

/// Builds one ISP and returns its sampled target addresses.
/// Rolls the scoped-ACL dice for the most recently declared subnet.
fn maybe_scope(nb: &mut NetBuilder, rng: &mut SmallRng, vantages: &[Addr]) {
    let z: f64 = rng.gen();
    let block = if z < SCOPED_BLOCK_TWO {
        2
    } else if z < SCOPED_BLOCK_TWO + SCOPED_BLOCK_ONE {
        1
    } else {
        return;
    };
    let mut idx: Vec<usize> = (0..vantages.len()).collect();
    for i in 0..block.min(idx.len()) {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    nb.scope_last(idx[..block.min(vantages.len())].iter().map(|&i| vantages[i]).collect());
}

#[allow(clippy::too_many_arguments)]
fn build_isp(
    nb: &mut NetBuilder,
    rng: &mut SmallRng,
    isp: &IspSpec,
    transit: &[RouterId],
    vantages: &[Addr],
    target_cap: usize,
    target_coverage: f64,
) -> Vec<Addr> {
    let region = Prefix::new(Addr::new(isp.region_octet, 0, 0, 0), 8).expect("octet region");
    let mut p2p = BlockAlloc::new(Prefix::containing(region.network(), 12));
    let mut lan_alloc = {
        let base = region.network().to_u32() + (1 << 23); // X.128.0.0
        BlockAlloc::new(Prefix::new(Addr::from_u32(base), 9).expect("aligned"))
    };
    let net = isp.name.as_str();
    let mut member_pool: Vec<Addr> = Vec::new();
    let mut lan_hosts: Vec<RouterId> = Vec::new();

    // A p2p link helper that leaves a sibling gap (ISP uplinks are
    // allocated from per-POP blocks in practice; wall-to-wall packing of
    // same-router links would merge under any collector).
    let uplink = |nb: &mut NetBuilder,
                  p2p: &mut BlockAlloc,
                  rng: &mut SmallRng,
                  a: RouterId,
                  b: RouterId,
                  pool: &mut Vec<Addr>| {
        let len = if rng.gen_bool(0.55) { 30 } else { 31 };
        let prefix = p2p.take(len);
        p2p.gap_to(len - 1);
        let (lo, hi) = nb.link(a, b, prefix, SubnetIntent::Normal, net);
        maybe_scope(nb, rng, vantages);
        pool.extend([lo, hi]);
    };

    // POP cores: two routers per POP joined by a /31.
    let mut pop_cores: Vec<(RouterId, RouterId)> = Vec::new();
    for p in 0..isp.pops {
        let a = nb.router(format!("{net}-p{p}a"), draw_config(rng, isp));
        let b = nb.router(format!("{net}-p{p}b"), draw_config(rng, isp));
        let (lo, hi) = nb.link(a, b, p2p.take(31), SubnetIntent::Normal, net);
        maybe_scope(nb, rng, vantages);
        p2p.gap_to(30);
        member_pool.extend([lo, hi]);
        pop_cores.push((a, b));
    }
    // POP ring + chords over /30 inter-POP links (the chords create the
    // equal-cost path splits §3.7 is about).
    for p in 0..isp.pops {
        let (a, _) = pop_cores[p];
        let (_, b) = pop_cores[(p + 1) % isp.pops];
        uplink(nb, &mut p2p, rng, a, b, &mut member_pool);
    }
    for p in (0..isp.pops).step_by(4) {
        let q = (p + isp.pops / 2) % isp.pops;
        if p != q {
            let (a, _) = pop_cores[p];
            let (a2, _) = pop_cores[q];
            uplink(nb, &mut p2p, rng, a, a2, &mut member_pool);
        }
    }

    // Borders: three distinct POPs peer with three distinct transit
    // routers, so each vantage enters the ISP through a different door.
    for (k, &t) in [1usize, 4, 6].iter().enumerate() {
        let pop = (k * isp.pops / 3) % isp.pops;
        let (border, _) = pop_cores[pop];
        nb.link(
            transit[t % transit.len()],
            border,
            p2p.take(30),
            SubnetIntent::Infrastructure,
            "peering",
        );
    }

    // Access chains: multi-hop ladders of p2p links; chain routers
    // occasionally carry aggregation LANs.
    for (p, &(ca, cb)) in pop_cores.iter().enumerate() {
        for c in 0..isp.chains_per_pop {
            let mut parent = if rng.gen_bool(0.5) { ca } else { cb };
            let depth = rng.gen_range(1..=isp.chain_depth);
            for d in 0..depth {
                let r = nb.router(format!("{net}-p{p}c{c}d{d}"), draw_config(rng, isp));
                uplink(nb, &mut p2p, rng, parent, r, &mut member_pool);
                parent = r;

                if rng.gen_bool(isp.lan29_prob) {
                    lan_alloc.gap_to(24);
                    let prefix = lan_alloc.take(29);
                    add_lan(
                        nb,
                        rng,
                        isp,
                        parent,
                        prefix,
                        vantages,
                        &mut member_pool,
                        &mut lan_hosts,
                    );
                } else if rng.gen_bool(isp.lan_wide_prob) {
                    lan_alloc.gap_to(24);
                    let len = if rng.gen_bool(0.6) { 28 } else { 27 };
                    let prefix = lan_alloc.take(len);
                    add_lan(
                        nb,
                        rng,
                        isp,
                        parent,
                        prefix,
                        vantages,
                        &mut member_pool,
                        &mut lan_hosts,
                    );
                }
            }
        }
    }

    // Dense /24 LANs (the "de-facto standard subnet mask" bump of Fig 9);
    // "most of the organizations are also behind probe blocking
    // firewalls".
    for k in 0..isp.dense_24s {
        lan_alloc.gap_to(22);
        let prefix = lan_alloc.take(24);
        let host = lan_hosts.get(k % lan_hosts.len().max(1)).copied();
        let gw = host.unwrap_or(pop_cores[k % isp.pops].0);
        let filtered = rng.gen_bool(0.4);
        let intent = if filtered { SubnetIntent::Filtered } else { SubnetIntent::Normal };
        let members = nb.lan(gw, prefix, 215, 16, draw_config(rng, isp), intent, net);
        if !filtered {
            // Dense LANs contribute only a handful of sampleable targets;
            // tracing hundreds of hosts on one LAN adds nothing.
            member_pool.extend(members.into_iter().take(8));
        }
    }

    // Large subnets (NTT's /20–/22), members packed on multi-interface
    // aggregation routers.
    for &(len, count) in &isp.large_subnets {
        for k in 0..count {
            lan_alloc.gap_to(len.saturating_sub(1).max(8));
            let prefix = lan_alloc.take(len);
            let capacity = prefix.size() as usize - 2;
            let (_, cb) = pop_cores[k % isp.pops];
            let members = nb.lan(
                cb,
                prefix,
                capacity * 17 / 20,
                48,
                draw_config(rng, isp),
                SubnetIntent::Normal,
                net,
            );
            member_pool.extend(members.into_iter().take(8));
        }
    }

    // Target sampling: distinct members, deterministic. Link-dominated,
    // like the paper's router-interface target set; sized proportionally
    // to the ISP so bigger ISPs yield more collected subnets (Fig 8).
    let n_targets = ((member_pool.len() as f64 * target_coverage) as usize).min(target_cap).max(1);
    let mut targets = Vec::with_capacity(n_targets);
    let mut seen = std::collections::HashSet::new();
    while targets.len() < n_targets && seen.len() < member_pool.len() {
        let pick = member_pool[rng.gen_range(0..member_pool.len())];
        if seen.insert(pick) {
            targets.push(pick);
        }
    }
    targets
}

/// Attaches one aggregation LAN to `gw` with the mixed-density policy of
/// the ISP and registers the chain end as a /24 attachment point.
#[allow(clippy::too_many_arguments)]
fn add_lan(
    nb: &mut NetBuilder,
    rng: &mut SmallRng,
    isp: &IspSpec,
    gw: RouterId,
    prefix: Prefix,
    vantages: &[Addr],
    member_pool: &mut Vec<Addr>,
    lan_hosts: &mut Vec<RouterId>,
) {
    let capacity = prefix.size() as usize - 2;
    let intent = if rng.gen_bool(isp.filtered_frac) {
        SubnetIntent::Filtered
    } else if rng.gen_bool(0.25) {
        SubnetIntent::Partial
    } else {
        SubnetIntent::Normal
    };
    let total = match intent {
        SubnetIntent::Partial => rng.gen_range(2..=4),
        _ => (capacity * 17 / 20).max(5),
    };
    let members = nb.lan(gw, prefix, total - 1, 4, draw_config(rng, isp), intent, &isp.name);
    maybe_scope(nb, rng, vantages);
    lan_hosts.push(gw);
    if intent != SubnetIntent::Filtered {
        member_pool.extend(members);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::RoutingTable;

    fn small_spec(seed: u64) -> IspInternetSpec {
        let mut isps = default_isps();
        for isp in &mut isps {
            isp.pops = 4;
            isp.chains_per_pop = 2;
            isp.chain_depth = 2;
            isp.dense_24s = 1;
            if !isp.large_subnets.is_empty() {
                isp.large_subnets = vec![(22, 1)];
            }
        }
        IspInternetSpec { seed, isps, targets_per_isp: 40, target_coverage: 0.5 }
    }

    #[test]
    fn scaled_multiplies_pops_and_targets_only() {
        let (one, two) = (IspInternetSpec::scaled(1), IspInternetSpec::scaled(2));
        assert_eq!((one.targets_per_isp, two.targets_per_isp), (450, 900));
        assert_eq!((one.seed, one.target_coverage), (two.seed, two.target_coverage));
        for (a, b) in one.isps.iter().zip(&two.isps) {
            assert_eq!(b.pops, 2 * a.pops, "{}", a.name);
            assert_eq!((a.chains_per_pop, a.chain_depth), (b.chains_per_pop, b.chain_depth));
        }
    }

    #[test]
    fn four_isps_and_three_vantages() {
        let sc = isp_internet_with(small_spec(1));
        assert_eq!(sc.vantages.len(), 3);
        for name in ISP_NAMES {
            assert!(sc.ground_truth.of_network(name).count() > 10, "{name} should have subnets");
        }
        assert!(sc.targets.len() <= 4 * 40);
        assert!(sc.targets.len() >= 4 * 10);
    }

    #[test]
    fn every_vantage_reaches_every_isp() {
        let sc = isp_internet_with(small_spec(2));
        let rt = RoutingTable::compute(&sc.topology);
        for (vn, va) in &sc.vantages {
            let v = sc.topology.owner_of(*va).unwrap();
            for t in &sc.targets {
                let owner = sc.topology.owner_of(*t).unwrap();
                assert!(rt.reachable(v, owner), "{vn} cannot reach {t}");
            }
        }
    }

    #[test]
    fn ntt_has_large_subnets_others_do_not() {
        let sc = isp_internet_with(small_spec(3));
        let has_large = |name: &str| sc.ground_truth.of_network(name).any(|s| s.prefix.len() <= 22);
        assert!(has_large("ntt"));
        assert!(!has_large("sprintlink"));
        assert!(!has_large("level3"));
    }

    #[test]
    fn subnet_mix_is_link_dominated() {
        let sc = isp_internet_with(small_spec(5));
        for name in ISP_NAMES {
            let (mut links, mut lans) = (0usize, 0usize);
            for s in sc.ground_truth.of_network(name) {
                if s.prefix.len() >= 30 {
                    links += 1;
                } else {
                    lans += 1;
                }
            }
            assert!(links > lans, "{name}: {links} links vs {lans} LANs");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = isp_internet_with(small_spec(9));
        let b = isp_internet_with(small_spec(9));
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.topology.router_count(), b.topology.router_count());
    }

    #[test]
    fn regions_do_not_collide() {
        let sc = isp_internet_with(small_spec(4));
        for s in sc.ground_truth.evaluated() {
            let octet = s.prefix.network().octets()[0];
            let expect = match s.network.as_str() {
                "sprintlink" => 41,
                "ntt" => 42,
                "level3" => 43,
                "abovenet" => 44,
                other => panic!("unexpected network {other}"),
            };
            assert_eq!(octet, expect, "{}", s.prefix);
        }
    }
}

#[cfg(test)]
mod scope_tests {
    use super::*;

    #[test]
    fn scoped_acls_cover_the_intended_fraction() {
        let sc = isp_internet(2010);
        let mut none = 0;
        let mut one = 0;
        let mut two = 0;
        for s in sc.topology.subnets() {
            let octet = s.prefix.network().octets()[0];
            if !(41..=44).contains(&octet) {
                continue;
            }
            match s.filtered_sources.len() {
                0 => none += 1,
                1 => one += 1,
                2 => two += 1,
                n => panic!("unexpected scope size {n}"),
            }
        }
        let total = (none + one + two) as f64;
        let f1 = one as f64 / total;
        let f2 = two as f64 / total;
        assert!((f1 - SCOPED_BLOCK_ONE).abs() < 0.06, "one-blocked fraction {f1}");
        assert!((f2 - SCOPED_BLOCK_TWO).abs() < 0.06, "two-blocked fraction {f2}");
    }
}
