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
//! The digest moved again, and the counts did not, when a node stopped
//! re-verifying its own signatures: a replica's own vote in the evidence it
//! validates costs a cached check, so its callbacks are shorter and later
//! events shift. They moved again when a replica stopped waiting on
//! dependencies only another shard decides: the run had taken 3 fallbacks,
//! which a fault-free run needs none of, to release such withheld votes.
//! And again when a read reply became a MAC'd message sent at once rather
//! than a member of a signed reply batch: reads no longer wait for a batch
//! to fill (this run batches 16) or for its flush timer, and the replicas
//! sign half as many roots, so the run commits 1603 transactions, not 982.

use basil::harness::{BasilCluster, ClusterConfig};
use basil::workloads::ycsb::YcsbGenerator;
use basil::{BasilConfig, Duration, SystemConfig};

/// The pinned values. Scenario: 3 shards, 12 clients, RW-U 2r2w over 10k
/// keys, seed 7, 50 ms warmup + 200 ms window.
const EXPECTED_COMMITTED: u64 = 1603;
const EXPECTED_ABORTED: u64 = 5;
const EXPECTED_FAST: u64 = 1606;
const EXPECTED_SLOW: u64 = 2;
const EXPECTED_HISTORY_DIGEST: &str =
    "b0f74e76f713d98ae8d658610a8d74c4c205a4fc65ce27e12d9387ca328350b3";

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
        "capture: committed={} aborted={} fast={} slow={} fb={} digest={digest}",
        snap.committed, snap.aborted_attempts, snap.fast_path, snap.slow_path, snap.fallbacks,
    );
    assert_eq!(snap.committed, EXPECTED_COMMITTED, "committed count");
    assert_eq!(snap.aborted_attempts, EXPECTED_ABORTED, "aborted attempts");
    assert_eq!(snap.fast_path, EXPECTED_FAST, "fast-path decisions");
    assert_eq!(snap.slow_path, EXPECTED_SLOW, "slow-path decisions");
    assert_eq!(snap.fallbacks, 0, "fallbacks in a fault-free run");
    assert_eq!(digest, EXPECTED_HISTORY_DIGEST, "committed-history digest");
    cluster.audit().expect("history serializable");
}
