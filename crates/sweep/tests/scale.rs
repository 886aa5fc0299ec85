//! Batches on the ISP internet scaled by `IspInternetSpec::scaled`: the
//! probe count stays pinned, and the routing memo holds the graph, one
//! distance column rooted at the vantage, and one shortest-path DAG per
//! destination the batch touched, nothing else.
//!
//! The k=4 batch sends about a quarter of a million probes; the k=20
//! batch about a million, so it runs in release builds only.

use obs::Recorder;
use probe::SharedNetwork;
use sweep::{run_batch, BatchConfig};
use topogen::{isp_internet_with, IspInternetSpec};

/// Runs one cache-on batch from the first vantage of the internet scaled
/// by `k`. Returns the probe count and the routing table's built
/// columns, graph bytes (before the batch), column bytes, path bytes and
/// heap bytes (after it).
fn scaled_batch(k: usize, jobs: usize) -> (u64, usize, [usize; 4]) {
    let spec = IspInternetSpec { seed: 2010, ..IspInternetSpec::scaled(k) };
    let sc = isp_internet_with(spec);
    let (vantage, targets) = (sc.vantages[0].1, sc.targets.clone());
    let net = SharedNetwork::new(sc.topology);
    let graph = net.with(|n| n.routing().heap_bytes());

    let cfg = BatchConfig { jobs, use_cache: true, ..BatchConfig::default() };
    let result = run_batch(&net, vantage, &targets, &cfg, &Recorder::disabled());
    net.with(|n| {
        let rt = n.routing();
        let bytes = [graph, rt.column_bytes(), rt.path_bytes(), rt.heap_bytes()];
        (result.probes, rt.built_columns(), bytes)
    })
}

#[test]
fn scaled_batch_probes_and_routing_memory_are_pinned() {
    let (probes, built, [graph, column, paths, heap]) = scaled_batch(4, 1);
    assert_eq!(probes, 261_436);
    assert_eq!(built, 1, "one column, rooted at the vantage");
    // The DAG bytes are a pure function of the topology and of which
    // destinations a jobs=1 batch touches, so they pin like the probes.
    assert_eq!(paths, 599_484);
    assert_eq!(heap, graph + column + paths);
}

/// About 15 000 routers and 18 000 targets, approaching the paper's
/// scale. The routing memo holds one column and the DAGs of the
/// destinations touched, not a column per destination (384 MB here).
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn twenty_fold_batch_routes_from_one_column_in_16_mb() {
    let (_, built, [.., heap]) = scaled_batch(20, 2);
    assert_eq!(built, 1, "one column, rooted at the vantage");
    assert!(heap <= 16 << 20, "routing heap {heap} bytes");
}
