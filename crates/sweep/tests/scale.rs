//! Batches on the ISP internet scaled by `IspInternetSpec::scaled`: the
//! probe count stays pinned, and the routing memo holds the graph, one
//! distance column rooted at the vantage, and one shortest-path DAG per
//! destination the batch touched, nothing else.
//!
//! The k=4 batch sends about a quarter of a million probes; the k=20
//! batch about a million and the k=40 batch (the paper's scale) about
//! 1.8 million, so those two run in release builds only.

use inet::Addr;
use obs::Recorder;
use probe::SharedNetwork;
use sweep::{run_batch, BatchConfig, BatchResult};
use topogen::{isp_internet_with, IspInternetSpec};

/// What one scaled batch left behind.
struct Scaled {
    targets: Vec<Addr>,
    result: BatchResult,
    /// Routing columns built.
    built: usize,
    /// The routing table's graph bytes (before the batch), column bytes,
    /// path bytes and heap bytes (after it).
    bytes: [usize; 4],
}

/// Runs one cache-on batch from the first vantage of the internet scaled
/// by `k`.
fn scaled_batch(k: usize, jobs: usize) -> Scaled {
    let spec = IspInternetSpec { seed: 2010, ..IspInternetSpec::scaled(k) };
    let sc = isp_internet_with(spec);
    let (vantage, targets) = (sc.vantages[0].1, sc.targets.clone());
    let net = SharedNetwork::new(sc.topology);
    let graph = net.with(|n| n.routing().heap_bytes());

    let cfg = BatchConfig { jobs, use_cache: true, ..BatchConfig::default() };
    let result = run_batch(&net, vantage, &targets, &cfg, &Recorder::disabled());
    let (built, bytes) = net.with(|n| {
        let rt = n.routing();
        (rt.built_columns(), [graph, rt.column_bytes(), rt.path_bytes(), rt.heap_bytes()])
    });
    Scaled { targets, result, built, bytes }
}

#[test]
fn scaled_batch_probes_and_routing_memory_are_pinned() {
    let Scaled { result, built, bytes: [graph, column, paths, heap], .. } = scaled_batch(4, 1);
    assert_eq!(result.probes, 261_436);
    assert_eq!(built, 1, "one column, rooted at the vantage");
    // The DAG bytes are a pure function of the topology and of which
    // destinations a jobs=1 batch touches, so they pin like the probes.
    assert_eq!(paths, 736_908);
    assert_eq!(heap, graph + column + paths);
}

/// About 15 000 routers and 18 000 targets, approaching the paper's
/// scale. The routing memo holds one column and the DAGs of the
/// destinations touched, not a column per destination (384 MB here).
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn twenty_fold_batch_routes_from_one_column_in_16_mb() {
    let Scaled { built, bytes: [.., heap], .. } = scaled_batch(20, 2);
    assert_eq!(built, 1, "one column, rooted at the vantage");
    assert!(heap <= 16 << 20, "routing heap {heap} bytes");
}

/// The paper's scale: 30 631 routers and 37 233 targets, against the
/// paper's 34 084. Past 32 768 targets the batch hands out probe idents
/// again (`IdentBlock::get`), so the later sessions run on reused idents.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn paper_scale_batch_reports_every_target_from_one_column() {
    let Scaled { targets, result, built, bytes: [graph, column, paths, heap] } =
        scaled_batch(40, 1);
    assert_eq!(targets.len(), 37_233);
    assert_eq!(result.probes, 1_767_195);
    assert_eq!(result.reports.len(), targets.len(), "one report per target");
    for (k, (report, &target)) in result.reports.iter().zip(&targets).enumerate() {
        assert_eq!(report.destination, target, "report {k} belongs to target {k}");
        assert!(!report.aborted, "session {k} aborted");
    }
    assert!(result.reports[32_768..].iter().any(|r| r.destination_reached));
    assert_eq!(built, 1, "one column, rooted at the vantage");
    assert_eq!(heap, graph + column + paths);
    assert!(heap as f64 <= 35.2 * (1 << 20) as f64, "routing heap {heap} bytes");
}
