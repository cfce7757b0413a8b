//! End-to-end integration tests: whole Basil deployments running realistic
//! workloads inside the simulator.

use basil::harness::{BasilCluster, ClusterConfig};
use basil::workloads::ycsb::YcsbGenerator;
use basil::{
    BasilConfig, BasilReplica, Duration, Key, NodeId, Op, ScriptedGenerator, SystemConfig,
    TxProfile, Value,
};

/// A handful of clients running the uniform YCSB microbenchmark commit a
/// healthy number of transactions, almost always on the fast path, and the
/// resulting history is serializable.
#[test]
fn ycsb_uniform_commits_on_the_fast_path() {
    let config = ClusterConfig::basil_default(4)
        .with_basil(BasilConfig::bench(SystemConfig::single_shard_f1()));
    let mut cluster = BasilCluster::build(config, |client| {
        Box::new(YcsbGenerator::rw_uniform(client.0, 100_000, 2, 2))
    });
    let report = cluster.run_measured(Duration::from_millis(100), Duration::from_millis(400));
    assert!(
        report.committed > 100,
        "expected substantial throughput, got {} commits",
        report.committed
    );
    assert!(
        report.fast_path_fraction > 0.9,
        "uncontended workload should use the fast path, got {}",
        report.fast_path_fraction
    );
    assert!(report.mean_latency_ms > 0.0);
    cluster.audit().expect("history must be serializable");
}

/// Transactions spanning multiple shards commit atomically and remain
/// serializable.
#[test]
fn cross_shard_transactions_commit() {
    let config = ClusterConfig::basil_default(3)
        .with_basil(BasilConfig::bench(SystemConfig::sharded(3)))
        .with_initial_data(
            (0..50)
                .map(|i| (Key::new(format!("acct{i}")), Value::from_u64(100)))
                .collect(),
        );
    // Each client transfers between two accounts that (very likely) live on
    // different shards.
    let mut cluster = BasilCluster::build(config, |client| {
        let profiles: Vec<TxProfile> = (0..20)
            .map(|i| {
                let from = (client.0 * 20 + i) % 50;
                let to = (from + 7) % 50;
                TxProfile::new(
                    "transfer",
                    vec![
                        Op::RmwAdd {
                            key: Key::new(format!("acct{from}")),
                            delta: -10,
                        },
                        Op::RmwAdd {
                            key: Key::new(format!("acct{to}")),
                            delta: 10,
                        },
                    ],
                )
            })
            .collect();
        Box::new(ScriptedGenerator::new(profiles))
    });
    cluster.run_for(Duration::from_millis(800));
    let committed = cluster.total_committed();
    assert!(
        committed >= 50,
        "most transfers should commit, got {committed}"
    );
    cluster.audit().expect("serializable");

    // Money conservation: transfers only move balance between accounts, so
    // the sum over all accounts must be unchanged (50 accounts x 100).
    let total: u64 = (0..50)
        .map(|i| {
            cluster
                .latest_value(&Key::new(format!("acct{i}")))
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(total, 50 * 100, "balance must be conserved");
}

/// A contended Zipfian workload still commits and yields a serializable
/// history (aborts and retries are expected).
#[test]
fn contended_zipfian_workload_is_serializable() {
    let config = ClusterConfig::basil_default(6)
        .with_basil(BasilConfig::bench(SystemConfig::single_shard_f1()))
        .with_seed(7);
    let mut cluster = BasilCluster::build(config, |client| {
        Box::new(YcsbGenerator::rw_zipf(client.0, 200, 2, 2, 0.9))
    });
    let report = cluster.run_measured(Duration::from_millis(100), Duration::from_millis(400));
    assert!(report.committed > 50, "got {}", report.committed);
    assert!(
        report.commit_rate > 0.3,
        "commit rate collapsed: {}",
        report.commit_rate
    );
    cluster.audit().expect("serializable despite contention");
}

/// The slow path (ST2 logging) still commits transactions when the fast path
/// is disabled.
#[test]
fn slow_path_only_configuration_commits() {
    let basil = BasilConfig::bench(SystemConfig::single_shard_f1()).without_fast_path();
    let config = ClusterConfig::basil_default(2).with_basil(basil);
    let mut cluster = BasilCluster::build(config, |client| {
        Box::new(YcsbGenerator::rw_uniform(client.0, 10_000, 2, 2))
    });
    let report = cluster.run_measured(Duration::from_millis(100), Duration::from_millis(300));
    assert!(report.committed > 20, "got {}", report.committed);
    assert!(
        report.fast_path_fraction < 0.01,
        "fast path should be disabled, got {}",
        report.fast_path_fraction
    );
    cluster.audit().expect("serializable");
}

/// Signatures disabled (Basil-NoProofs) must still produce correct,
/// serializable executions — it is a performance ablation, not a semantics
/// change.
#[test]
fn noproofs_configuration_is_still_correct() {
    let basil = BasilConfig::bench(SystemConfig::single_shard_f1()).without_proofs();
    let config = ClusterConfig::basil_default(2)
        .with_basil(basil)
        .with_initial_data(vec![(Key::new("x"), Value::from_u64(5))]);
    let mut cluster = BasilCluster::build(config, |client| {
        let profiles = vec![
            TxProfile::new(
                "incr",
                vec![Op::RmwAdd {
                    key: Key::new("x"),
                    delta: 1,
                }],
            );
            10
        ];
        let _ = client;
        Box::new(ScriptedGenerator::new(profiles))
    });
    cluster.run_for(Duration::from_millis(500));
    assert_eq!(cluster.total_committed(), 20);
    let final_value = cluster
        .latest_value(&Key::new("x"))
        .and_then(|v| v.as_u64())
        .expect("x exists");
    assert_eq!(final_value, 25, "all 20 increments applied exactly once");
    cluster.audit().expect("serializable");
}

/// Reply batching (batch size > 1) preserves correctness.
#[test]
fn batched_replies_preserve_correctness() {
    let basil = BasilConfig::bench(SystemConfig::single_shard_f1()).with_batch_size(8);
    let config = ClusterConfig::basil_default(4).with_basil(basil);
    let mut cluster = BasilCluster::build(config, |client| {
        Box::new(YcsbGenerator::rw_uniform(client.0, 50_000, 2, 2))
    });
    let report = cluster.run_measured(Duration::from_millis(100), Duration::from_millis(300));
    assert!(report.committed > 50, "got {}", report.committed);
    cluster.audit().expect("serializable");
}

/// A crashed (silent) replica within the fault threshold does not stop the
/// system: f = 1 of 6 replicas may fail.
#[test]
fn one_crashed_replica_does_not_block_progress() {
    let config = ClusterConfig::basil_default(3)
        .with_basil(BasilConfig::bench(SystemConfig::single_shard_f1()));
    let mut cluster = BasilCluster::build(config, |client| {
        Box::new(YcsbGenerator::rw_uniform(client.0, 10_000, 2, 2))
    });
    let victim = cluster.replica_ids()[2];
    cluster.crash_replica(victim);
    let report = cluster.run_measured(Duration::from_millis(100), Duration::from_millis(400));
    assert!(
        report.committed > 50,
        "progress must continue with one crashed replica, got {}",
        report.committed
    );
    cluster.audit().expect("serializable");
}

/// The messages and signatures one honest 2-read, 2-write transaction costs
/// on one shard of n = 6 over the fault-free LAN, with and without the fast
/// path. An extra retry, a duplicated reply, a dropped forward or a second
/// signature shows up as a changed count.
#[test]
fn one_commit_delivers_a_pinned_number_of_messages() {
    let delivered = |basil: BasilConfig| {
        let config = ClusterConfig::basil_default(1).with_basil(basil);
        let mut cluster = BasilCluster::build(config, |_| {
            Box::new(ScriptedGenerator::new([TxProfile::new(
                "2r2w",
                vec![
                    Op::Read(Key::new("a")),
                    Op::Read(Key::new("b")),
                    Op::Write(Key::new("c"), Value::from_u64(1)),
                    Op::Write(Key::new("d"), Value::from_u64(2)),
                ],
            )]))
        });
        cluster.run_for(Duration::from_millis(200));
        assert_eq!(cluster.total_committed(), 1);
        let signed: u64 = cluster
            .replica_ids()
            .iter()
            .filter_map(|rid| cluster.sim().actor::<BasilReplica>(NodeId::Replica(*rid)))
            .map(|r| r.stats().batches_signed)
            .sum();
        (cluster.sim().metrics().messages_delivered, signed)
    };
    let basil = BasilConfig::test_single_shard();
    // Fast path: each read goes to 2f + 1 = 3 replicas, which answer
    // (2 x (3 + 3) = 12); the ST1 goes to all 6, which vote (6 + 6 = 12);
    // the writeback goes to all 6. 12 + 12 + 6 = 30. At batch size 1 every
    // reply is its own signed batch: 6 read replies and 6 ST1 votes sign 12.
    assert_eq!(delivered(basil.clone()), (30, 12));
    // Without the fast path the unanimous votes are logged on S_log first:
    // the ST2 goes to its 6 replicas, which acknowledge (6 + 6 = 12).
    // 30 + 12 = 42. The certificate the client then writes back is not
    // forwarded back to it, although it registered with every replica by
    // logging the ST2. The 6 ST2 acknowledgements are signed too:
    // 12 + 6 = 18.
    assert_eq!(delivered(basil.without_fast_path()), (42, 18));
}
