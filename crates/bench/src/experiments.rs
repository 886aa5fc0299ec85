//! Experiment implementations, one per paper artifact.

use std::collections::BTreeMap;

use evalkit::accounting::{ip_accounting, prefix_length_series, subnet_count, IpAccounting};
use evalkit::classify::{classify, SubnetTable};
use evalkit::crossval::VennPartition;
use evalkit::run::{run_tracenet, CollectedSet};
use evalkit::similarity::{prefix_similarity, size_similarity, PrefixBounds};
use inet::Prefix;
use netsim::ConcurrentNetwork;
use probe::{Protocol, SharedNetwork};
use sweep::{BatchConfig, CacheStats};
use topogen::{internet2, isp_internet, GtSubnet, Scenario, ISP_NAMES};
use tracenet::{PhaseCost, TracenetOptions};

/// Default experiment seed (the paper's publication year).
pub const SEED: u64 = 2010;

/// Result of a research-network accuracy experiment (Table 1 or 2).
pub struct AccuracyResult {
    /// The network name ("internet2" / "geant").
    pub network: String,
    /// The Table 1/2-style matrix (with measured `∖unrs` rows).
    pub table: SubnetTable,
    /// Equation (3) prefix similarity.
    pub prefix_similarity: f64,
    /// Equation (5) size similarity.
    pub size_similarity: f64,
    /// Probes spent collecting (the audit's sweep probes not included).
    pub probes: u64,
    /// Those probes per phase, summed from the reports.
    pub cost: PhaseCost,
    /// §4.1.1 audit cross-check: (agreements with generator intent,
    /// subnets audited).
    pub audit_agreement: (usize, usize),
    /// Cross-session subnet-cache counters (all zero on the sequential
    /// no-cache path).
    pub cache: CacheStats,
    /// Simulated wall ticks the collection consumed (the network clock
    /// after the run, before the audit sweeps).
    pub wall_ticks: u64,
}

/// The configuration every paper artifact runs under (read from
/// `repro`'s command line by [`crate::repro::parse_batch_args`]). The
/// fault and retry settings mirror the CLI's, so a figure can be
/// regenerated under injected faults for robustness comparisons.
pub struct ExpArgs {
    /// Experiment seed (topology, targets, and the default fault seed).
    pub seed: u64,
    /// Batch-engine configuration (jobs, cache, retry policy, options).
    pub cfg: BatchConfig,
    /// Seeded fault plan to attach to the simulated network, if any.
    pub fault: Option<netsim::FaultPlan>,
}

impl ExpArgs {
    /// The paper's configuration: one job, no cross-session cache, no
    /// injected faults.
    pub fn sequential(seed: u64) -> ExpArgs {
        ExpArgs {
            seed,
            cfg: BatchConfig { use_cache: false, ..BatchConfig::default() },
            fault: None,
        }
    }

    /// A fresh network over `scenario` with the fault plan attached.
    fn network(&self, scenario: &Scenario) -> SharedNetwork {
        let mut net = ConcurrentNetwork::new(scenario.topology.clone());
        net.set_fault_plan(self.fault);
        SharedNetwork::from_concurrent(net)
    }
}

/// Runs the Table 1 (Internet2) or Table 2 (GEANT) experiment on the
/// batch engine, including the paper's §4.1.1 post-collection audit:
/// every missing or underestimated subnet's address range is ping-swept
/// and the `∖unrs` table rows come from that measurement.
///
/// Targets fan over `cfg.jobs` workers, sharing the cross-session subnet
/// cache when it is on. The conformance suite guarantees the collected
/// set (and therefore the table) matches the sequential run; only the
/// probe budget shrinks. With a fault plan attached the run degrades
/// gracefully instead, and the table quantifies what the faults cost.
pub fn accuracy_experiment(scenario: Scenario, args: &ExpArgs) -> AccuracyResult {
    let network = scenario.name.clone();
    let vantage = scenario.vantages[0].1;
    let gt: Vec<&GtSubnet> = scenario.ground_truth.of_network(&network).collect();

    let shared = args.network(&scenario);
    let collected = run_tracenet(&shared, vantage, &scenario.targets, &args.cfg);
    let wall_ticks = shared.with(|net| net.tick());
    let mut classifications = classify(&gt, &collected.records());

    // The paper's audit step, with a fresh prober (the sweeps are not
    // part of tracenet's collection cost).
    let mut auditor = shared.prober(vantage, Protocol::Icmp);
    let log = evalkit::audit::audit_classifications(&mut auditor, &mut classifications);
    let audit_agreement = evalkit::audit::audit_agreement(&log, &gt);

    let bounds = PrefixBounds::from_classifications(&classifications);
    AccuracyResult {
        network,
        table: SubnetTable::build(&classifications),
        prefix_similarity: prefix_similarity(&classifications, bounds),
        size_similarity: size_similarity(&classifications, bounds),
        probes: collected.probes,
        cost: collected.cost,
        audit_agreement,
        cache: collected.cache,
        wall_ticks,
    }
}

/// The address region of one ISP (`X.0.0.0/8`, from its
/// `topogen::IspSpec`).
pub fn isp_region(name: &str) -> Prefix {
    let octet = topogen::default_isps()
        .into_iter()
        .find(|isp| isp.name == name)
        .unwrap_or_else(|| panic!("unknown ISP {name}"))
        .region_octet;
    Prefix::new(inet::Addr::new(octet, 0, 0, 0), 8).expect("octet region")
}

/// One vantage's collection over the ISP internet.
pub struct VantageRun {
    /// Vantage name (rice / uoregon / umass).
    pub vantage: String,
    /// Everything it collected, per-phase probe budget included.
    pub collected: CollectedSet,
    /// Simulated wall ticks this vantage's collection consumed (the
    /// shared clock advance attributable to this run).
    pub wall_ticks: u64,
}

/// The §4.2 cross-validation experiment: all three vantages trace the
/// common target set over the shared ISP internet (ICMP).
pub struct IspExperiment {
    /// The scenario (ground truth, targets).
    pub scenario: Scenario,
    /// One run per vantage, in (rice, uoregon, umass) order.
    pub runs: Vec<VantageRun>,
}

/// ECMP fluctuation period for ISP runs (§3.7's load-balancing dynamics:
/// every this many packets the per-flow hash epoch advances).
pub const ISP_FLUCTUATION_PERIOD: u64 = 20_000;

/// Runs the three-vantage ISP experiment (backs Figures 6–9): each
/// vantage's target list is fanned over `cfg.jobs` workers against the
/// shared fluctuating internet, with a per-vantage subnet cache when the
/// cache is on. A fault plan from the arguments is attached to the
/// shared network, so all three vantages see the same seeded fault
/// schedule.
pub fn isp_experiment(args: &ExpArgs) -> IspExperiment {
    let scenario = isp_internet(args.seed);
    let mut net =
        ConcurrentNetwork::new(scenario.topology.clone()).with_fluctuation(ISP_FLUCTUATION_PERIOD);
    net.set_fault_plan(args.fault);
    let shared = SharedNetwork::from_concurrent(net);
    let mut runs = Vec::new();
    let mut tick_before = shared.with(|net| net.tick());
    for (name, addr) in scenario.vantages.clone() {
        let collected = run_tracenet(&shared, addr, &scenario.targets, &args.cfg);
        let tick_after = shared.with(|net| net.tick());
        runs.push(VantageRun { vantage: name, collected, wall_ticks: tick_after - tick_before });
        tick_before = tick_after;
    }
    IspExperiment { scenario, runs }
}

impl IspExperiment {
    /// Figure 6: the Venn partition of the three collected prefix sets
    /// (restricted to the four ISP regions).
    pub fn venn(&self) -> VennPartition {
        let sets: Vec<_> = self
            .runs
            .iter()
            .map(|r| {
                let mut s = std::collections::BTreeSet::new();
                for name in ISP_NAMES {
                    s.extend(r.collected.prefixes_in(isp_region(name)));
                }
                s
            })
            .collect();
        VennPartition::compute(&sets[0], &sets[1], &sets[2])
    }

    /// Figure 7: per-vantage, per-ISP IP accounting.
    pub fn ip_accounting(&self) -> Vec<(String, Vec<IpAccounting>)> {
        self.runs
            .iter()
            .map(|r| {
                let rows = ISP_NAMES
                    .iter()
                    .map(|isp| {
                        ip_accounting(&r.collected, isp, isp_region(isp), &self.scenario.targets)
                    })
                    .collect();
                (r.vantage.clone(), rows)
            })
            .collect()
    }

    /// Figure 8: subnets per ISP per vantage.
    pub fn subnet_counts(&self) -> Vec<(String, Vec<(String, usize)>)> {
        self.runs
            .iter()
            .map(|r| {
                let rows = ISP_NAMES
                    .iter()
                    .map(|isp| (isp.to_string(), subnet_count(&r.collected, isp_region(isp))))
                    .collect();
                (r.vantage.clone(), rows)
            })
            .collect()
    }

    /// Figure 9: prefix-length distribution per vantage over all ISPs.
    pub fn prefix_series(&self) -> Vec<(String, Vec<(u8, usize)>)> {
        let regions: Vec<Prefix> = ISP_NAMES.iter().map(|n| isp_region(n)).collect();
        self.runs
            .iter()
            .map(|r| (r.vantage.clone(), prefix_length_series(&r.collected, &regions)))
            .collect()
    }
}

/// Writes the machine-readable benchmark record `BENCH_<exp>.json`
/// into the current directory (probe counts plus simulated wall ticks,
/// for the CI and regression tooling). Returns the path written.
pub fn write_bench_json(exp: &str, payload: &serde_json::Value) -> std::io::Result<String> {
    let path = format!("BENCH_{exp}.json");
    std::fs::write(&path, payload.to_string() + "\n")?;
    Ok(path)
}

fn phases_json(c: &PhaseCost) -> serde_json::Value {
    serde_json::json!({
        "trace": c.trace,
        "position": c.position,
        "explore": c.explore,
    })
}

/// Benchmark payload of an ISP experiment (Figures 8/9): per-vantage
/// probe counts, per-phase splits, and simulated wall ticks.
pub fn isp_bench_json(exp: &IspExperiment, args: &ExpArgs) -> serde_json::Value {
    serde_json::json!({
        "seed": args.seed,
        "jobs": args.cfg.jobs,
        "cache": args.cfg.use_cache,
        "faults": args.fault.is_some(),
        "vantages": exp
            .runs
            .iter()
            .map(|r| serde_json::json!({
                "vantage": r.vantage.clone(),
                "probes": r.collected.cost.total(),
                "wall_ticks": r.wall_ticks,
                "phases": phases_json(&r.collected.cost),
                "subnets": r.collected.prefixes().len(),
            }))
            .collect::<Vec<_>>(),
    })
}

/// Benchmark payload of an accuracy experiment (Tables 1/2): probe
/// count, per-phase split, simulated wall ticks and accuracy rates.
pub fn accuracy_bench_json(r: &AccuracyResult, args: &ExpArgs) -> serde_json::Value {
    serde_json::json!({
        "seed": args.seed,
        "jobs": args.cfg.jobs,
        "cache": args.cfg.use_cache,
        "faults": args.fault.is_some(),
        "network": r.network.clone(),
        "probes": r.probes,
        "wall_ticks": r.wall_ticks,
        "phases": phases_json(&r.cost),
        "exact_incl": r.table.exact_rate(),
        "exact_excl": r.table.exact_rate_responsive(),
        "audit": [r.audit_agreement.0, r.audit_agreement.1],
    })
}

/// One point of the §3.6 overhead sweep.
pub struct OverheadPoint {
    /// Layout label ("p2p/31", "dense/28", "odd/27", …).
    pub layout: String,
    /// Assigned members of the true subnet (the paper's |S|).
    pub true_size: usize,
    /// Members of the collected subnet (≤ true size; the odd layouts
    /// collapse under H9, see EXPERIMENTS.md, O1).
    pub collected_size: usize,
    /// Positioning + exploration probes spent on that hop.
    pub probes: u64,
}

/// Sweeps subnet layouts and measures tracenet's probing cost on each,
/// for comparison against the `7·|S| + 7` model of §3.6.
pub fn overhead_sweep() -> Vec<OverheadPoint> {
    use netsim::{RouterConfig, TopologyBuilder};

    let mut out = Vec::new();
    // (label, prefix length, member layout): offsets of assigned
    // addresses within the LAN, gateway first.
    let dense = |len: u8| -> (String, u8, Vec<u32>) {
        let cap = (1u32 << (32 - len)) - 2;
        (format!("dense/{len}"), len, (1..=cap * 17 / 20).collect())
    };
    // The adversarial case: only odd addresses are assigned, so every
    // member's mates are silent and H7/H8 cost two probes each.
    let odd = |len: u8| -> (String, u8, Vec<u32>) {
        let cap = (1u32 << (32 - len)) - 2;
        (format!("odd/{len}"), len, (1..=cap).filter(|o| o % 2 == 1).collect())
    };
    let layouts: Vec<(String, u8, Vec<u32>)> = vec![
        ("p2p/31".to_string(), 31, vec![0, 1]),
        ("p2p/30".to_string(), 30, vec![1, 2]),
        dense(29),
        dense(28),
        dense(27),
        dense(26),
        odd(28),
        odd(27),
        odd(26),
    ];

    for (label, len, offsets) in layouts {
        let mut b = TopologyBuilder::new();
        let v = b.host("vantage");
        let r1 = b.router("r1", RouterConfig::cooperative());
        let gw = b.router("gw", RouterConfig::cooperative());
        let mk = |addr: &str| -> inet::Addr { addr.parse().expect("static") };
        let l0 = b.subnet("10.0.0.0/31".parse().expect("static"));
        b.attach(v, l0, mk("10.0.0.0")).expect("attach");
        b.attach(r1, l0, mk("10.0.0.1")).expect("attach");
        let l1 = b.subnet("10.0.0.2/31".parse().expect("static"));
        b.attach(r1, l1, mk("10.0.0.2")).expect("attach");
        b.attach(gw, l1, mk("10.0.0.3")).expect("attach");

        let lan_prefix: Prefix = Prefix::new(inet::Addr::new(10, 0, 1, 0), len).expect("lan");
        let lan = b.subnet(lan_prefix);
        let base = lan_prefix.network().to_u32();
        let mut members = Vec::new();
        for (k, &off) in offsets.iter().enumerate() {
            let addr = inet::Addr::from_u32(base + off);
            let owner =
                if k == 0 { gw } else { b.router(format!("leaf{k}"), RouterConfig::cooperative()) };
            b.attach(owner, lan, addr).expect("attach member");
            members.push(addr);
        }
        let target = members[members.len() / 2];
        let net = SharedNetwork::new(b.build().expect("overhead topology"));
        let mut prober = net.prober(mk("10.0.0.0"), Protocol::Icmp);
        let report = tracenet::Session::new(&mut prober, TracenetOptions::default()).run(target);
        let hop = report
            .hops
            .iter()
            .rev()
            .find(|h| h.subnet.is_some())
            .expect("the LAN hop collected a subnet");
        let s = hop.subnet.as_ref().expect("present");
        out.push(OverheadPoint {
            layout: label,
            true_size: members.len(),
            collected_size: s.record.len(),
            probes: hop.cost.position + hop.cost.explore,
        });
    }
    out
}

/// One ablation row: a heuristic switched off (or the full tool, or the
/// traceroute + offline-inference baseline).
pub struct AblationRow {
    /// Configuration label.
    pub config: String,
    /// Exact-match rate incl. unresponsive subnets.
    pub exact_incl: f64,
    /// Exact-match rate excl. unresponsive subnets.
    pub exact_excl: f64,
    /// Merged + overestimated subnets (accuracy failures H6–H8 exist to
    /// prevent).
    pub over_or_merged: usize,
    /// Probes spent.
    pub probes: u64,
}

/// The ablation study (DESIGN.md experiment A1): Internet2 accuracy with
/// each heuristic disabled in turn, plus the offline-inference baseline
/// of the paper's reference \[7\]. Each variant switches one piece off
/// `args`' session options.
pub fn ablation(args: &ExpArgs) -> Vec<AblationRow> {
    let scenario = internet2(args.seed);
    let gt: Vec<&GtSubnet> = scenario.ground_truth.of_network("internet2").collect();
    let vantage = scenario.vantages[0].1;
    let row = |config: String, collected: &[inet::SubnetRecord], probes: u64| {
        let table = SubnetTable::build(&classify(&gt, collected));
        AblationRow {
            config,
            exact_incl: table.exact_rate(),
            exact_excl: table.exact_rate_responsive(),
            over_or_merged: table.row_total("ovres") + table.row_total("merg"),
            probes,
        }
    };

    let base = args.cfg.opts;
    let mut variants = vec![("full tracenet".to_string(), base)];
    variants.extend((2..=9u8).map(|rule| {
        let heuristics = tracenet::HeuristicSet::without(rule);
        (format!("without H{rule}"), TracenetOptions { heuristics, ..base })
    }));
    variants.push((
        "without utilization stop".to_string(),
        TracenetOptions { utilization_stop: false, ..base },
    ));
    let mut rows: Vec<AblationRow> = variants
        .into_iter()
        .map(|(config, opts)| {
            let cfg = BatchConfig { opts, ..args.cfg };
            let net = args.network(&scenario);
            let collected = run_tracenet(&net, vantage, &scenario.targets, &cfg);
            row(config, &collected.records(), collected.probes)
        })
        .collect();

    // Baseline: traceroute from the same vantage over the same targets,
    // subnets inferred offline (paper ref [7]).
    let (reports, _, probes) = evalkit::run::run_traceroute(
        &args.network(&scenario),
        vantage,
        &scenario.targets,
        Protocol::Icmp,
        &traceroute::TracerouteOptions::default(),
    );
    let observed: Vec<(inet::Addr, u16)> =
        reports.iter().flat_map(|r| r.addresses_with_hops()).collect();
    let inferred: Vec<inet::SubnetRecord> =
        traceroute::infer_subnets(&observed).into_iter().filter(|s| s.len() >= 2).collect();
    rows.push(row("traceroute + inference [7]".to_string(), &inferred, probes));
    rows
}

/// Table 3: tracenet under ICMP, UDP and TCP probing from Rice —
/// subnets collected per ISP per protocol.
pub fn table3(args: &ExpArgs) -> BTreeMap<&'static str, [usize; 3]> {
    let scenario = isp_internet(args.seed);
    let rice = scenario.vantage("rice");
    let net = args.network(&scenario);
    let mut out: BTreeMap<&'static str, [usize; 3]> =
        ISP_NAMES.iter().map(|&n| (n, [0usize; 3])).collect();
    for (k, protocol) in [Protocol::Icmp, Protocol::Udp, Protocol::Tcp].into_iter().enumerate() {
        let cfg = BatchConfig { protocol, ..args.cfg };
        let collected = run_tracenet(&net, rice, &scenario.targets, &cfg);
        for &name in &ISP_NAMES {
            out.get_mut(name).expect("known isp")[k] = subnet_count(&collected, isp_region(name));
        }
    }
    out
}
