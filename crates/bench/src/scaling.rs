//! The jobs-scaling benchmark: how batch wall time scales with the
//! worker count now that the probe hot path is lock-free.
//!
//! Runs the same target list through `sweep::run_batch` at each jobs
//! value and measures real wall time. Probes carry a modeled round-trip
//! time ([`sweep::BatchConfig::probe_rtt`]): each wire send blocks its
//! worker for the RTT, exactly as a raw-socket prober blocks on the
//! reply, so the batch is latency-bound and `--jobs` parallelism
//! overlaps the waits. This is the regime the paper's collector runs in
//! — Internet RTTs dwarf per-probe CPU — and it is what the old global
//! network mutex serialized: under the lock, sleeping with the mutex
//! held made jobs=8 no faster than jobs=1. The lock-free engine lets
//! the sleeps (and the walks) overlap, so speedup tracks the worker
//! count until the target list runs dry.

use std::time::{Duration, Instant};

use obs::Recorder;
use probe::SharedNetwork;
use sweep::BatchConfig;
use topogen::Scenario;

/// One measured (topology, jobs) cell.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Topology name.
    pub network: String,
    /// Worker threads.
    pub jobs: usize,
    /// Real wall time of the batch.
    pub wall: Duration,
    /// Simulated engine ticks consumed (wire probes injected).
    pub wall_ticks: u64,
    /// Total wire probes across all sessions.
    pub probes: u64,
    /// Probes per wall-clock second.
    pub probes_per_sec: f64,
    /// Wall-time speedup versus the jobs=1 run of the same topology.
    pub speedup: f64,
}

/// Runs the scaling sweep over one scenario: the same batch at each
/// jobs value, reporting wall time and speedup vs the first value.
///
/// The collected subnet sets are asserted identical across jobs values
/// (the conformance property) so a scheduling bug cannot masquerade as
/// a speedup.
pub fn scaling_experiment(
    scenario: &Scenario,
    jobs_list: &[usize],
    rtt: Duration,
    max_targets: usize,
) -> Vec<ScalePoint> {
    let vantage = scenario.vantages[0].1;
    let targets: Vec<_> = scenario.targets.iter().copied().take(max_targets).collect();
    let mut points: Vec<ScalePoint> = Vec::with_capacity(jobs_list.len());
    let mut baseline_render: Option<Vec<String>> = None;

    for &jobs in jobs_list {
        let cfg = BatchConfig {
            jobs,
            // Cache-off: every run does identical work, so wall times are
            // comparable and the speedup is attributable to overlap alone.
            use_cache: false,
            probe_rtt: rtt,
            ..BatchConfig::default()
        };
        let shared = SharedNetwork::new(scenario.topology.clone());
        let start = Instant::now();
        let result = sweep::run_batch(&shared, vantage, &targets, &cfg, &Recorder::disabled());
        let wall = start.elapsed();
        let wall_ticks = shared.with(|n| n.tick());

        let render: Vec<String> = result.reports.iter().map(|r| format!("{r:?}")).collect();
        match &baseline_render {
            None => baseline_render = Some(render),
            Some(base) => assert_eq!(
                base, &render,
                "{}: jobs={jobs} changed the collected output",
                scenario.name
            ),
        }

        let secs = wall.as_secs_f64().max(f64::EPSILON);
        let speedup = match points.first() {
            Some(first) => first.wall.as_secs_f64() / secs,
            None => 1.0,
        };
        points.push(ScalePoint {
            network: scenario.name.clone(),
            jobs,
            wall,
            wall_ticks,
            probes: result.probes,
            probes_per_sec: result.probes as f64 / secs,
            speedup,
        });
    }
    points
}

/// The `BENCH_batch.json` payload for a set of scaling points.
pub fn scaling_json(rtt: Duration, points: &[ScalePoint]) -> serde_json::Value {
    serde_json::json!({
        "experiment": "batch_scaling",
        "rtt_us": rtt.as_micros() as u64,
        "points": points.iter().map(|p| serde_json::json!({
            "network": &p.network,
            "jobs": p.jobs,
            "wall_ms": p.wall.as_secs_f64() * 1e3,
            "wall_ticks": p.wall_ticks,
            "probes": p.probes,
            "probes_per_sec": p.probes_per_sec,
            "speedup_vs_jobs1": p.speedup,
        })).collect::<Vec<_>>(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen::random_topology;

    #[test]
    fn scaling_points_carry_consistent_accounting() {
        let scenario = random_topology(7, 10);
        let points = scaling_experiment(&scenario, &[1, 2], Duration::from_micros(20), 8);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].jobs, 1);
        assert_eq!(points[0].speedup, 1.0);
        // Cache-off runs do identical work at every jobs value.
        assert_eq!(points[0].probes, points[1].probes);
        assert_eq!(points[0].wall_ticks, points[1].wall_ticks);
        assert!(points.iter().all(|p| p.probes_per_sec > 0.0));
        let json = scaling_json(Duration::from_micros(20), &points);
        assert_eq!(json["points"].as_array().unwrap().len(), 2);
    }
}
