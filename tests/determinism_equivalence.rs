//! Determinism-equivalence golden test for the zero-copy message plane.
//!
//! The Arc-sharing refactor (reference-counted `Transaction`s and
//! `DecisionCert`s inside protocol messages and record state) must not change
//! any simulated result: it removes copies, not behaviour. In the same spirit
//! as the scheduler golden-trace test of `basil-simnet`, this test runs a
//! fixed-seed three-shard scenario and pins the results — commit/abort
//! counts, path split, and a digest over the exact set of committed
//! transaction ids — to the values captured from the pre-refactor binary
//! (commit a89501c). A mismatch means a change to simulated behaviour, not
//! just to its cost.
//!
//! The values moved once on purpose, when replicas stopped forwarding a
//! decision certificate back to the client that wrote it back: fewer
//! messages shift every later event, so the run takes a different path.

use basil::harness::{BasilCluster, ClusterConfig};
use basil::workloads::ycsb::YcsbGenerator;
use basil::{BasilConfig, Duration, SystemConfig};

/// The pinned values. Scenario: 3 shards, 12 clients, RW-U 2r2w over 10k
/// keys, seed 7, 50 ms warmup + 200 ms window.
const EXPECTED_COMMITTED: u64 = 978;
const EXPECTED_ABORTED: u64 = 7;
const EXPECTED_FAST: u64 = 983;
const EXPECTED_SLOW: u64 = 2;
const EXPECTED_HISTORY_DIGEST: &str =
    "ad7c3348cb0839583172492558a9830112d2d54df18f8d05a2cd51d39ee80430";

fn run_scenario() -> BasilCluster {
    let basil = BasilConfig::bench(SystemConfig::sharded(3)).with_batch_size(16);
    let config = ClusterConfig::basil_default(12)
        .with_basil(basil)
        .with_seed(7);
    let mut cluster = BasilCluster::build(config, |cid| {
        Box::new(YcsbGenerator::rw_uniform(
            7u64.wrapping_add(cid.0.wrapping_mul(7919)),
            10_000,
            2,
            2,
        ))
    });
    cluster.run_for(Duration::from_millis(250));
    cluster
}

#[test]
fn arc_refactor_preserves_simulated_results() {
    let cluster = run_scenario();
    let snap = cluster.snapshot();
    // The canonical digest helper (SHA-256 over sorted committed ids) —
    // shared with the scenario runner's outcomes so the definition cannot
    // drift between them.
    let digest = cluster.committed_history_digest();
    eprintln!(
        "capture: committed={} aborted={} fast={} slow={} digest={digest}",
        snap.committed, snap.aborted_attempts, snap.fast_path, snap.slow_path,
    );
    assert_eq!(snap.committed, EXPECTED_COMMITTED, "committed count");
    assert_eq!(snap.aborted_attempts, EXPECTED_ABORTED, "aborted attempts");
    assert_eq!(snap.fast_path, EXPECTED_FAST, "fast-path decisions");
    assert_eq!(snap.slow_path, EXPECTED_SLOW, "slow-path decisions");
    assert_eq!(digest, EXPECTED_HISTORY_DIGEST, "committed-history digest");
    cluster.audit().expect("history serializable");
}
