//! Runs **every** paper experiment and prints the full
//! paper-vs-measured summary (the source of EXPERIMENTS.md's numbers).
//!
//! ```text
//! cargo run --release -p bench-suite --bin repro_all [seed]
//! ```

use bench_suite::{
    ablation, isp_experiment, overhead_sweep, paper, table1, table2, table3, ExpArgs, SEED,
};
use evalkit::render::{log_bar, pct, table};

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(SEED);
    println!("#### tracenet paper reproduction — all experiments, seed {seed} ####\n");

    // ---- T1 / T2 + S1 ----------------------------------------------------
    let i2 = table1(seed);
    println!("== T1: Table 1 (Internet2) ==\n");
    print!("{}", i2.table);
    println!(
        "paper: 73.7% incl / 94.9% excl; ours: {} incl / {} excl\n",
        pct(i2.table.exact_rate()),
        pct(i2.table.exact_rate_responsive())
    );

    let ge = table2(seed);
    println!("== T2: Table 2 (GEANT) ==\n");
    print!("{}", ge.table);
    println!(
        "paper: 53.5% incl / 97.3% excl; ours: {} incl / {} excl\n",
        pct(ge.table.exact_rate()),
        pct(ge.table.exact_rate_responsive())
    );

    println!("== S1: §4.1.2 similarity (equations 1-5) ==\n");
    println!("                       ours    paper");
    println!("internet2  prefix    {:>6.3}    {:>5.3}", i2.prefix_similarity, paper::SIMILARITY.0);
    println!("geant      prefix    {:>6.3}    {:>5.3}", ge.prefix_similarity, paper::SIMILARITY.1);
    println!("internet2  size      {:>6.3}    {:>5.3}", i2.size_similarity, paper::SIMILARITY.2);
    println!("geant      size      {:>6.3}    {:>5.3}", ge.size_similarity, paper::SIMILARITY.3);
    println!("(note: applying eq. (3) to the paper's own Table 2 rows gives ~0.60,");
    println!("not the published 0.900 — see EXPERIMENTS.md)\n");

    // ---- ISP experiment: F6-F9 -------------------------------------------
    let exp = isp_experiment(&ExpArgs::sequential(seed));

    println!("== F6: Figure 6 (vantage-point Venn) ==\n");
    let v = exp.venn();
    println!("rice only {}, uoregon only {}, umass only {}", v.only_a, v.only_c, v.only_b);
    println!(
        "rice∩umass {}, rice∩uoregon {}, umass∩uoregon {}, all three {}",
        v.ab, v.ac, v.bc, v.abc
    );
    println!(
        "seen by all three: {} (paper ~60%); verified by ≥1 other: {} (paper ~80%)\n",
        pct(v.all_three_rate()),
        pct(v.verified_by_another_rate())
    );

    println!("== F7: Figure 7 (IP accounting per ISP per vantage) ==");
    for (vantage, rows) in exp.ip_accounting() {
        println!("\n-- {vantage} --");
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|a| {
                vec![
                    a.isp.clone(),
                    a.target_ips.to_string(),
                    a.subnetized.to_string(),
                    a.unsubnetized.to_string(),
                ]
            })
            .collect();
        print!("{}", table(&["isp", "targets", "subnetized", "un-subnetized"], &data));
    }
    println!();

    println!("== F8: Figure 8 (subnets per ISP per vantage) ==\n");
    let counts = exp.subnet_counts();
    let mut headers = vec!["vantage"];
    let isps: Vec<&str> = counts[0].1.iter().map(|(i, _)| i.as_str()).collect();
    headers.extend(isps.iter());
    let rows: Vec<Vec<String>> = counts
        .iter()
        .map(|(vn, per)| {
            let mut row = vec![vn.clone()];
            row.extend(per.iter().map(|(_, n)| n.to_string()));
            row
        })
        .collect();
    print!("{}", table(&headers, &rows));
    println!("paper (Rice/ICMP): 4482 / 1593 / 3587 / 2333\n");

    println!("== F9: Figure 9 (prefix-length distribution, log scale) ==");
    for (vantage, series) in exp.prefix_series() {
        println!("\n-- {vantage} --");
        for (len, count) in series {
            println!("/{len:<3} {count:>6}  {}", log_bar(count));
        }
    }
    println!("\npaper anchors at Rice: /30=4499, /29=1546, /28=154; /24 bump; /20-22 tail\n");

    // ---- T3 ----------------------------------------------------------------
    println!("== T3: Table 3 (ICMP/UDP/TCP at Rice) ==\n");
    let t3 = table3(seed);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (i, &isp) in paper::ISP_ORDER.iter().enumerate() {
        let ours = t3[isp];
        let p = paper::T3[i];
        rows.push(vec![
            isp.to_string(),
            ours[0].to_string(),
            ours[1].to_string(),
            ours[2].to_string(),
            format!("{}/{}/{}", p[0], p[1], p[2]),
        ]);
    }
    print!("{}", table(&["isp", "ICMP", "UDP", "TCP", "paper (I/U/T)"], &rows));
    println!();

    // ---- O1 ----------------------------------------------------------------
    println!("== O1: §3.6 probing overhead bounds ==\n");
    println!("{:>10} {:>6} {:>10} {:>8} {:>8}", "layout", "|S|", "collected", "probes", "7|S|+7");
    for p in overhead_sweep() {
        println!(
            "{:>10} {:>6} {:>10} {:>8} {:>8}",
            p.layout,
            p.true_size,
            p.collected_size,
            p.probes,
            7 * p.true_size as u64 + 7
        );
    }
    println!();

    // ---- A1 ----------------------------------------------------------------
    println!("== A1: ablations (Internet2) ==\n");
    let rows: Vec<Vec<String>> = ablation(seed)
        .into_iter()
        .map(|r| {
            vec![
                r.config,
                pct(r.exact_incl),
                pct(r.exact_excl),
                r.over_or_merged.to_string(),
                r.probes.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table(&["configuration", "exact(incl)", "exact(excl)", "over/merged", "probes"], &rows)
    );

    println!("\n#### done ####");
}
