//! The paper artifacts `repro` regenerates: which ones an invocation
//! asks for, the one argument reader they share, and one renderer per
//! artifact.
//!
//! Every artifact reads the same [`ExpArgs`]. With no flags that is the
//! configuration EXPERIMENTS.md quotes: one job, no cross-session cache
//! and no injected faults. Each experiment runs at most once per
//! invocation, however many artifacts read it ([`Runs`]).

use std::cell::OnceCell;
use std::fmt::{self, Write};

use evalkit::render::{log_bar, pct, table};
use tracenet::PhaseCost;
use tracenet_cli::args::Opts;
use tracenet_cli::flags;

use crate::experiments::{
    ablation, accuracy_bench_json, accuracy_experiment, isp_bench_json, isp_experiment,
    overhead_sweep, table3, write_bench_json, AccuracyResult, ExpArgs, IspExperiment, SEED,
};
use crate::paper;

/// One table or figure of the paper's evaluation, or an experiment of
/// ours beside them.
pub struct Artifact {
    /// The name `repro` takes on its command line.
    pub name: &'static str,
    /// Runs what the artifact needs (through the [`Runs`], so a shared
    /// experiment runs once) and renders its text. `table2`, `fig8` and
    /// `fig9` also write their `BENCH_<name>.json` into the current
    /// directory.
    pub render: fn(&Runs) -> String,
}

/// Every artifact, in the order `all` runs them.
pub static ARTIFACTS: [Artifact; 10] = [
    Artifact { name: "table1", render: table1 },
    Artifact { name: "table2", render: table2 },
    Artifact { name: "similarity", render: similarity },
    Artifact { name: "fig6", render: fig6 },
    Artifact { name: "fig7", render: fig7 },
    Artifact { name: "fig8", render: fig8 },
    Artifact { name: "fig9", render: fig9 },
    Artifact { name: "table3", render: render_table3 },
    Artifact { name: "overhead", render: overhead },
    Artifact { name: "ablation", render: render_ablation },
];

/// Why `repro`'s arguments were refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No artifact (or `all`) came first.
    NoArtifact,
    /// A name that is not an artifact.
    UnknownArtifact(String),
    /// A seed that is not an unsigned integer.
    BadSeed(String),
    /// A second positional argument after the seed.
    Unexpected(String),
    /// An unknown, repeated or dangling flag, or a flag value out of
    /// range (the `tracenet` CLI's message).
    Flag(String),
}

impl From<String> for ArgError {
    fn from(msg: String) -> ArgError {
        ArgError::Flag(msg)
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::NoArtifact => write!(f, "name an artifact or `all` first"),
            ArgError::UnknownArtifact(name) => write!(f, "unknown artifact {name:?}"),
            ArgError::BadSeed(seed) => write!(f, "invalid seed {seed:?}"),
            ArgError::Unexpected(arg) => write!(f, "unexpected argument {arg:?}"),
            ArgError::Flag(msg) => f.write_str(msg),
        }
    }
}

/// The usage text printed with every [`ArgError`].
pub fn usage() -> String {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    format!(
        "usage: repro (all | ARTIFACT...) [seed] [--jobs N] [--cache] [--retries N]\n\
         \x20            [--backoff none|exp|adaptive] [--fault-profile NAME]\n\
         \x20            [--fault-seed N] [--fault-budget N]\n\
         artifacts: {}",
        names.join(" ")
    )
}

/// Reads `repro`'s command line: artifact names (or `all`, which
/// expands to [`ARTIFACTS`]) first, then what [`parse_batch_args`]
/// reads. An artifact named twice runs once, where it was first named.
pub fn parse_args(argv: &[String]) -> Result<(Vec<&'static Artifact>, ExpArgs), ArgError> {
    let named = argv
        .iter()
        .take_while(|a| !a.starts_with('-') && !a.starts_with(|c: char| c.is_ascii_digit()))
        .count();
    let mut artifacts: Vec<&'static Artifact> = Vec::new();
    for name in &argv[..named] {
        let found: Vec<_> = ARTIFACTS.iter().filter(|a| name == "all" || a.name == name).collect();
        if found.is_empty() {
            return Err(ArgError::UnknownArtifact(name.clone()));
        }
        for a in found {
            if !artifacts.iter().any(|b| std::ptr::eq(*b, a)) {
                artifacts.push(a);
            }
        }
    }
    if artifacts.is_empty() {
        return Err(ArgError::NoArtifact);
    }
    Ok((artifacts, parse_batch_args(&argv[named..])?))
}

/// Reads an optional seed and the batch flags every artifact shares:
/// `--jobs N`, `--cache` and the `tracenet` CLI's retry and fault flags,
/// read by the CLI's own readers so both refuse the same values with
/// the same message. With none given it is [`ExpArgs::sequential`] at
/// [`SEED`].
pub fn parse_batch_args(argv: &[String]) -> Result<ExpArgs, ArgError> {
    let opts = Opts::parse(argv)?;
    opts.only(&[&["jobs", "cache"][..], &flags::FAULT_FLAGS].concat())?;
    if let Some(extra) = opts.positional(1) {
        return Err(ArgError::Unexpected(extra.to_string()));
    }
    let seed = match opts.positional(0) {
        None => SEED,
        Some(s) => s.parse().map_err(|_| ArgError::BadSeed(s.to_string()))?,
    };
    let mut args = ExpArgs::sequential(seed);
    args.cfg.jobs = opts.flag_parse("jobs", args.cfg.jobs)?;
    args.cfg.use_cache = opts.has("cache");
    args.cfg.retry = flags::retry_policy(&opts)?;
    args.cfg.opts.hop_fault_budget = flags::fault_budget(&opts)?;
    args.fault = flags::fault_plan(&opts, seed)?;
    Ok(args)
}

/// The experiments behind the artifacts of one invocation, each run on
/// first use and kept for every other artifact that reads it: T1 and T2
/// feed S1, and one three-vantage ISP run feeds F6–F9.
pub struct Runs<'a> {
    args: &'a ExpArgs,
    internet2: OnceCell<AccuracyResult>,
    geant: OnceCell<AccuracyResult>,
    isp: OnceCell<IspExperiment>,
}

impl<'a> Runs<'a> {
    /// Nothing run yet, under `args`.
    pub fn new(args: &'a ExpArgs) -> Runs<'a> {
        Runs { args, internet2: OnceCell::new(), geant: OnceCell::new(), isp: OnceCell::new() }
    }

    fn internet2(&self) -> &AccuracyResult {
        self.internet2
            .get_or_init(|| accuracy_experiment(topogen::internet2(self.args.seed), self.args))
    }

    fn geant(&self) -> &AccuracyResult {
        self.geant.get_or_init(|| accuracy_experiment(topogen::geant(self.args.seed), self.args))
    }

    fn isp(&self) -> &IspExperiment {
        self.isp.get_or_init(|| isp_experiment(self.args))
    }
}

/// An artifact's title and the configuration it ran under.
fn heading(title: &str, args: &ExpArgs) -> String {
    format!(
        "== {title} ==\nseed: {}, jobs: {}, cache: {}, faults: {}\n\n",
        args.seed,
        args.cfg.jobs,
        if args.cfg.use_cache { "on" } else { "off" },
        if args.fault.is_some() { "injected" } else { "none" }
    )
}

/// The per-phase split of a run's probes.
fn phase_budget(c: &PhaseCost) -> String {
    format!(
        "trace {:>8} + position {:>8} + explore {:>8} = {:>9}",
        c.trace,
        c.position,
        c.explore,
        c.total()
    )
}

/// What the cross-session subnet cache answered.
fn cache_line(c: &sweep::CacheStats) -> String {
    format!("subnet cache: {} hits, {} skips, {} misses", c.hits, c.skips, c.misses)
}

/// A table row from its cells' display forms.
fn row(cells: &[&dyn fmt::Display]) -> Vec<String> {
    cells.iter().map(|c| c.to_string()).collect()
}

/// Writes `BENCH_<exp>.json` and says so; a failed write is reported on
/// stderr and leaves the artifact's text as it is.
fn bench_note(exp: &str, payload: &serde_json::Value) -> String {
    match write_bench_json(exp, payload) {
        Ok(path) => format!("\nwrote {path} (probe counts + wall ticks)\n"),
        Err(e) => {
            eprintln!("BENCH_{exp}.json: {e}");
            String::new()
        }
    }
}

/// T1: Table 1, Internet2 subnet distribution.
fn table1(runs: &Runs) -> String {
    accuracy(
        "Table 1: Internet2, original and collected subnet distribution",
        (paper::T1_EXACT_INCL, paper::T1_EXACT_EXCL),
        runs.internet2(),
        runs.args,
    )
}

/// T2: Table 2, GEANT subnet distribution.
fn table2(runs: &Runs) -> String {
    let (r, args) = (runs.geant(), runs.args);
    accuracy(
        "Table 2: GEANT, original and collected subnet distribution",
        (paper::T2_EXACT_INCL, paper::T2_EXACT_EXCL),
        r,
        args,
    ) + &bench_note("table2", &accuracy_bench_json(r, args))
}

/// Table 1 or 2: the subnet matrix, the probe budget, the §4.1.1 audit
/// and the paper's exact-match rates.
fn accuracy(title: &str, paper_rates: (f64, f64), r: &AccuracyResult, args: &ExpArgs) -> String {
    let mut out = heading(title, args);
    let _ = writeln!(out, "probes: {}", phase_budget(&r.cost));
    if args.cfg.use_cache {
        let _ = writeln!(out, "{}", cache_line(&r.cache));
    }
    let _ = writeln!(
        out,
        "§4.1.1 audit agrees with ground truth on {}/{} subnets\n\n{}",
        r.audit_agreement.0, r.audit_agreement.1, r.table
    );
    let _ = writeln!(
        out,
        "paper:       {:.1}% (incl. unresponsive), {:.1}% (excl. unresponsive)",
        100.0 * paper_rates.0,
        100.0 * paper_rates.1
    );
    out
}

/// S1: §4.1.2's equations (1)–(5) on the Table 1 and Table 2
/// collections.
fn similarity(runs: &Runs) -> String {
    let (i2, ge) = (runs.internet2(), runs.geant());
    let mut out = heading("§4.1.2: similarity of collected to original topologies", runs.args);
    out += "                       ours    paper\n";
    for (label, ours, paper) in [
        ("internet2  prefix", i2.prefix_similarity, paper::SIMILARITY.0),
        ("geant      prefix", ge.prefix_similarity, paper::SIMILARITY.1),
        ("internet2  size  ", i2.size_similarity, paper::SIMILARITY.2),
        ("geant      size  ", ge.size_similarity, paper::SIMILARITY.3),
    ] {
        let _ = writeln!(out, "{label}    {ours:>6.3}    {paper:>5.3}");
    }
    out + "\n(1.0 = exactly the original topology, 0.0 = totally dissimilar;\n\
           equations (1)-(5) of the paper, Minkowski order k = 1. Applying\n\
           eq. (3) to the paper's own Table 2 rows gives ~0.60, not the\n\
           published 0.900 — see EXPERIMENTS.md.)\n"
}

/// F6: Figure 6, the Venn partition of the three vantages' prefix sets,
/// and the §4.2 agreement rates.
fn fig6(runs: &Runs) -> String {
    let v = runs.isp().venn();
    let title = "Figure 6: exact-match subnet distribution among vantage points";
    let mut out = heading(title, runs.args);
    out += "                     ours     paper(abs)\n";
    for (region, ours, paper) in [
        ("rice only", v.only_a, paper::FIG6[0]),
        ("uoregon only", v.only_c, paper::FIG6[2]),
        ("umass only", v.only_b, paper::FIG6[1]),
        ("rice∩umass", v.ab, paper::FIG6[3]),
        ("rice∩uoregon", v.ac, paper::FIG6[4]),
        ("umass∩uoregon", v.bc, paper::FIG6[5]),
        ("all three", v.abc, paper::FIG6[6]),
    ] {
        let _ = writeln!(out, "{region:<17}{ours:>8}      {paper:>8}");
    }
    let _ = writeln!(out, "{:<17}{:>8}\n", "total distinct", v.total());
    let _ = writeln!(
        out,
        "seen by all three: ours {} (paper ~{})\nverified by ≥1 other vantage: ours {} (paper ~{})",
        pct(v.all_three_rate()),
        pct(paper::FIG6_RATES.0),
        pct(v.verified_by_another_rate()),
        pct(paper::FIG6_RATES.1)
    );
    out
}

/// F7: Figure 7, target, subnetized and un-subnetized addresses per
/// ISP, one panel per vantage.
fn fig7(runs: &Runs) -> String {
    let mut out = heading("Figure 7: IP address accounting per ISP per vantage", runs.args);
    for (vantage, rows) in runs.isp().ip_accounting() {
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|a| row(&[&a.isp, &a.target_ips, &a.subnetized, &a.unsubnetized]))
            .collect();
        let _ = writeln!(out, "-- IP / ISP at vantage {vantage} --");
        out += &table(&["isp", "target IPs", "subnetized", "un-subnetized"], &data);
        out += "\n";
    }
    out + "paper shape: SprintLink has by far the most un-subnetized addresses\n\
           (least responsive ISP); NTT America subnetizes the most addresses\n\
           despite having the fewest subnets (its /20-/22 LANs are huge).\n"
}

/// F8: Figure 8, subnets per ISP per vantage, with each vantage's
/// probe budget.
fn fig8(runs: &Runs) -> String {
    let (exp, args) = (runs.isp(), runs.args);
    let mut out = heading("Figure 8: subnets per ISP per vantage point", args);
    let counts = exp.subnet_counts();
    let mut headers = vec!["vantage"];
    headers.extend(counts[0].1.iter().map(|(isp, _)| isp.as_str()));
    let rows: Vec<Vec<String>> = counts
        .iter()
        .map(|(vantage, per_isp)| {
            let mut row = vec![vantage.clone()];
            row.extend(per_isp.iter().map(|(_, n)| n.to_string()));
            row
        })
        .collect();
    out += &table(&headers, &rows);
    out += "\nprobe budget per vantage (summed from the reports):\n";
    for run in &exp.runs {
        let _ = writeln!(out, "  {:<8} {}", run.vantage, phase_budget(&run.collected.cost));
        if args.cfg.use_cache {
            let _ = writeln!(out, "  {:<8} {}", "", cache_line(&run.collected.cache));
        }
    }
    out += "\npaper shape: per-ISP counts are close to each other across vantage\n\
            points; SprintLink yields the most subnets and NTT America the\n\
            fewest (paper, Rice/ICMP: 4482 / 1593 / 3587 / 2333).\n";
    out + &bench_note("fig8", &isp_bench_json(exp, args))
}

/// F9: Figure 9, the collected prefix-length distribution per vantage,
/// as log-scale bars.
fn fig9(runs: &Runs) -> String {
    let (exp, args) = (runs.isp(), runs.args);
    let mut out = heading("Figure 9: subnet prefix length distribution per vantage", args);
    for ((vantage, series), run) in exp.prefix_series().into_iter().zip(&exp.runs) {
        let c = &run.collected.cost;
        let _ = writeln!(
            out,
            "-- {vantage} (log-scale bars; {} explore probes of {} total) --",
            c.explore,
            c.total()
        );
        for (len, count) in series {
            let _ = writeln!(out, "/{len:<3} {count:>6}  {}", log_bar(count));
        }
        out += "\n";
    }
    out += "paper shape (Rice): monotone rise toward /30-/31 with sharp drops\n";
    for (len, count) in paper::FIG9_RICE_ANCHORS {
        let _ = writeln!(out, "  paper anchor: /{len} = {count}");
    }
    out += "plus a visible bump at /24 and a thin /20-/22 tail (NTT America).\n";
    out + &bench_note("fig9", &isp_bench_json(exp, args))
}

/// T3: Table 3, subnets per ISP under each probing protocol at Rice.
fn render_table3(runs: &Runs) -> String {
    let args = runs.args;
    let result = table3(args);
    let mut out = heading("Table 3: tracenet under ICMP, UDP, TCP probing at Rice", args);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let (mut ours_total, mut paper_total) = ([0usize; 3], [0u64; 3]);
    for (&isp, paper) in paper::ISP_ORDER.iter().zip(paper::T3) {
        let ours = result[isp];
        for k in 0..3 {
            ours_total[k] += ours[k];
            paper_total[k] += paper[k];
        }
        rows.push(protocol_row(isp, ours, paper));
    }
    rows.push(protocol_row("total", ours_total, paper_total));
    out += &table(&["isp", "ICMP", "UDP", "TCP", "paper (I/U/T)"], &rows);
    out + "\npaper shape: ICMP clearly outperforms UDP (~3x) and TCP is\n\
           negligible; NTT America is nearly UDP-deaf (106 of 1593).\n"
}

fn protocol_row(isp: &str, ours: [usize; 3], paper: [u64; 3]) -> Vec<String> {
    let paper = format!("{}/{}/{}", paper[0], paper[1], paper[2]);
    row(&[&isp, &ours[0], &ours[1], &ours[2], &paper])
}

/// O1: exploration cost per subnet layout against §3.6's `7·|S| + 7`
/// bound. The sweep builds its own single-subnet topologies, so it
/// takes no seed or batch configuration.
fn overhead(_: &Runs) -> String {
    let mut out = "== §3.6: probing overhead vs subnet size ==\n\
                   (own single-subnet topologies; seed and batch flags do not apply)\n\n"
        .to_string();
    let _ = writeln!(
        out,
        "{:>10} {:>6} {:>10} {:>8} {:>8} {:>8}",
        "layout", "|S|", "collected", "probes", "7|S|+7", "within"
    );
    let mut all_within = true;
    for p in overhead_sweep() {
        let bound = 7 * p.true_size as u64 + 7;
        let ok = p.probes <= bound;
        all_within &= ok;
        let _ = writeln!(
            out,
            "{:>10} {:>6} {:>10} {:>8} {:>8} {:>8}",
            p.layout,
            p.true_size,
            p.collected_size,
            p.probes,
            bound,
            if ok { "yes" } else { "NO" }
        );
    }
    out += if all_within {
        "\nevery exploration stayed within the paper's 7|S|+7 bound\n"
    } else {
        "\nBOUND VIOLATED — see rows marked NO\n"
    };
    out + "(paper: a p2p subnet costs ~4 probes, the worst case is 7|S|+7 for\n\
           LANs using only odd or even addresses. The odd layouts collect\n\
           almost nothing, as the paper's rules do: see EXPERIMENTS.md, O1.)\n"
}

/// A1: Internet2 accuracy and cost with each piece of tracenet taken
/// out, and the traceroute + offline-inference baseline.
fn render_ablation(runs: &Runs) -> String {
    let title = "Ablation: which pieces of tracenet earn their keep (Internet2)";
    let mut out = heading(title, runs.args);
    let rows: Vec<Vec<String>> = ablation(runs.args)
        .iter()
        .map(|r| {
            let (incl, excl) = (pct(r.exact_incl), pct(r.exact_excl));
            row(&[&r.config, &incl, &excl, &r.over_or_merged, &r.probes])
        })
        .collect();
    out += &table(&["configuration", "exact(incl)", "exact(excl)", "over/merged", "probes"], &rows);
    out + "\nreading guide: disabling a growth-stopping heuristic (H2, H6, H7,\n\
           H8) should inflate over/merged; disabling H5 costs probes; the\n\
           offline-inference baseline shows why collection-time subnet\n\
           inference (tracenet's thesis) beats post-processing.\n"
}
