//! Self-test at jobs=1 on a small 4-ISP internet: the traced run's own
//! session driver is the program's driver (same reports, byte for
//! byte), and the end-to-end run repeats its deterministic figures, so
//! the per-layer numbers describe the program the end-to-end run times.

use collector_bench::run::{run, Config};
use collector_bench::traced::run_batch_traced;
use collector_bench::workload::{self, Workload};
use obs::Recorder;
use topogen::{default_isps, isp_internet_with, IspInternetSpec};

const SCENARIO_SEED: u64 = 7;

fn small_scenario() -> String {
    let isps = default_isps()
        .into_iter()
        .map(|mut isp| {
            isp.pops = 3;
            isp.chains_per_pop = 2;
            isp.dense_24s = 0;
            isp.large_subnets.clear();
            isp
        })
        .collect();
    let spec =
        IspInternetSpec { seed: SCENARIO_SEED, isps, targets_per_isp: 12, ..Default::default() };
    topogen::io::to_json(&isp_internet_with(spec))
}

fn config(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 3,
        scenario_seed: SCENARIO_SEED,
        seconds: 0.0,
        jobs: 1,
        setups: 1,
        trace,
    }
}

#[test]
fn traced_driver_reports_are_byte_identical_to_run_batch() {
    let json = small_scenario();
    for cfg in [workload::batch_config(1), workload::record_config(1)] {
        let (a, _) = workload::setup(Workload::Batch, &json, 3, false).unwrap();
        let (b, _) = workload::setup(Workload::Batch, &json, 3, false).unwrap();
        assert!(a.targets.len() > 10, "the small internet still has targets");
        let program = sweep::run_batch(&a.net, a.vantage, &a.targets, &cfg, &Recorder::disabled());
        let traced = run_batch_traced(&b.net, b.vantage, &b.targets, &cfg, &Recorder::disabled());
        assert_eq!(format!("{:?}", program.reports), format!("{:?}", traced.reports));
        assert_eq!(program.probes, traced.probes);
        let sessions: Vec<u64> = traced.sessions.iter().map(|s| s.session).collect();
        assert_eq!(sessions, (0..a.targets.len() as u64).collect::<Vec<_>>());
        let calls: usize = traced.sessions.iter().map(|s| s.calls.len()).sum();
        assert!(calls > 0, "probe calls were traced");
    }
}

#[test]
fn end_to_end_runs_repeat_their_deterministic_figures() {
    let json = small_scenario();
    for workload in Workload::ALL {
        let a = run(&config(workload, false), &json).unwrap();
        let b = run(&config(workload, false), &json).unwrap();
        assert!(a.correct() && b.correct(), "{workload:?}: {:?} {:?}", a.problems, b.problems);
        assert!(a.metric("subnets").unwrap() > 0.0, "{workload:?} collected subnets");
        for name in ["probes", "subnets", "exact_match_pct"] {
            assert_eq!(a.metric(name), b.metric(name), "{workload:?} {name}");
        }
    }
}

#[test]
fn output_checks_catch_a_tampered_log_and_an_invented_subnet() {
    let json = small_scenario();
    let (mut replay, _) = workload::setup(Workload::Replay, &json, 3, false).unwrap();
    let log = replay.log.as_mut().unwrap();
    let lines: Vec<&str> = log.text.lines().collect();
    let probe = lines.iter().rposition(|l| l.starts_with("{\"tick\":")).unwrap();
    log.text = lines
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != probe)
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    let c = workload::collect(&replay, Workload::Replay, 1, None);
    assert!(c.failed >= 1 && !c.problems.is_empty(), "a missing probe line must fail the replay");

    let (mut batch, _) = workload::setup(Workload::Batch, &json, 3, false).unwrap();
    batch.truth.subnets.clear();
    let c = workload::collect(&batch, Workload::Batch, 1, None);
    assert!(c.failed >= 1, "prefixes outside every ground-truth subnet fail their sessions");
    assert!(c.problems.iter().any(|p| p.contains("overlaps no ground-truth subnet")));
}

#[test]
fn traced_runs_report_every_layer_and_replay_touches_no_network() {
    let json = small_scenario();
    for workload in Workload::ALL {
        let r = run(&config(workload, true), &json).unwrap();
        assert!(r.correct(), "{workload:?}: {:?}", r.problems);
        assert_eq!(r.metrics.len(), 25, "{workload:?}");
        let m = |name: &str| r.metric(name).unwrap();
        assert!(m("core.session_p50_ms") > 0.0);
        assert!(m("bench.trace_overhead") > 0.0);
        let wire_layers = ["netsim.inject_ns", "wire.encode_ns", "probe.call_ns", "sweep.busy_pct"];
        if workload == Workload::Replay {
            for name in wire_layers.iter().chain(&["sweep.lookup_ns", "netsim.routing_s"]) {
                assert_eq!(m(name), 0.0, "replay shows no {name}");
            }
            assert!(m("probe.replay_call_ns") > 0.0);
            assert!(m("obs.parse_s") > 0.0);
        } else {
            for name in wire_layers {
                assert!(m(name) > 0.0, "{workload:?} {name}");
            }
            assert_eq!(m("probe.replay_call_ns"), 0.0);
        }
        match workload {
            Workload::Batch => assert!(m("sweep.lookup_ns") > 0.0 && m("sweep.hit_pct") > 0.0),
            Workload::Record => assert!(m("obs.emit_ns") > 0.0 && m("obs.bytes_per_probe") > 0.0),
            Workload::Replay => assert!(m("obs.bytes_per_probe") > 0.0),
        }
    }
}
