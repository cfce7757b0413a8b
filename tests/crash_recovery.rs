//! Real-crash recovery: amnesia restarts rebuilt from the durable WAL.
//!
//! A replica that crash-stops loses all volatile state; on restart it
//! replays its write-ahead log, pulls the decision certificates it missed
//! from peers (validated before apply), and only then serves buffered
//! traffic. These tests drive that path through the full cluster harness:
//! the recovered replica must converge to its peers' committed state, the
//! history must stay serializable, and every scripted transaction must
//! still commit.

use basil::harness::{BasilCluster, ClusterConfig};
use basil::{
    BasilConfig, BasilReplica, Duration, Key, NodeId, Op, ReplicaId, ScriptedGenerator, ShardId,
    TxProfile, Value,
};
use std::collections::BTreeSet;

const COUNTER: &str = "counter";
const CLIENTS: u32 = 4;
const TXS_PER_CLIENT: usize = 5;

fn build_counter_cluster(config: ClusterConfig) -> BasilCluster {
    let profiles = vec![
        TxProfile::new(
            "incr",
            vec![Op::RmwAdd {
                key: Key::new(COUNTER),
                delta: 1,
            }],
        );
        TXS_PER_CLIENT
    ];
    BasilCluster::build(config, move |_| {
        Box::new(ScriptedGenerator::new(profiles.clone()))
    })
}

/// The sorted committed transaction-id set a replica holds.
fn committed_ids(cluster: &BasilCluster, rid: ReplicaId) -> BTreeSet<[u8; 32]> {
    cluster
        .sim()
        .actor::<BasilReplica>(NodeId::Replica(rid))
        .expect("replica exists")
        .store()
        .committed_iter()
        .map(|tx| *tx.id().as_bytes())
        .collect()
}

#[test]
fn amnesia_restart_converges_to_the_peers_committed_state() {
    let config = ClusterConfig::basil_default(CLIENTS)
        .with_initial_data(vec![(Key::new(COUNTER), Value::from_u64(0))]);
    let mut cluster = build_counter_cluster(config);
    let victim = ReplicaId::new(ShardId(0), 2);

    // The crash comes while the scripted work is still running (about 14 of
    // the 20 transactions commit in the first 20 ms), so the victim misses
    // decisions that only catch-up can bring back.
    cluster.run_for(Duration::from_millis(20));
    cluster.crash_replica(victim);
    cluster.run_for(Duration::from_millis(40));
    cluster.restart_replica_amnesia(victim);
    // Quiescence: the scripted workload drains long before the end, so
    // every replica sees every writeback.
    cluster.run_for(Duration::from_millis(320));

    let expected = (CLIENTS as u64) * (TXS_PER_CLIENT as u64);
    assert_eq!(
        cluster.total_committed(),
        expected,
        "every scripted tx commits"
    );
    assert_eq!(
        cluster.latest_value(&Key::new(COUNTER)),
        Some(Value::from_u64(expected)),
        "the counter reflects every committed increment"
    );
    cluster
        .audit()
        .expect("history serializable after recovery");

    let recovered = cluster
        .sim()
        .actor::<BasilReplica>(NodeId::Replica(victim))
        .expect("recovered replica exists");
    assert!(!recovered.is_recovering(), "catch-up finished");
    let stats = recovered.stats();
    assert!(stats.wal_appends > 0, "the WAL was written: {stats:?}");
    assert!(
        stats.catch_up_applied > 0,
        "decisions missed while down came from peers: {stats:?}"
    );

    // The recovered replica's committed set is bit-for-bit its peers'.
    let reference = committed_ids(&cluster, ReplicaId::new(ShardId(0), 0));
    assert!(!reference.is_empty());
    for rid in cluster.replica_ids().to_vec() {
        assert_eq!(
            committed_ids(&cluster, rid),
            reference,
            "replica {rid:?} diverges from the reference committed set"
        );
    }
}

#[test]
fn amnesia_recovery_is_identical_across_runtimes() {
    // The same crash + amnesia-restart schedule must produce bit-identical
    // results every time it runs. (Named for the serial-vs-parallel
    // comparison it used to make; with one runtime left it compares a run
    // with its replay.)
    let run = || {
        let config = ClusterConfig::basil_default(CLIENTS)
            .with_initial_data(vec![(Key::new(COUNTER), Value::from_u64(0))]);
        let mut cluster = build_counter_cluster(config);
        let victim = ReplicaId::new(ShardId(0), 1);
        cluster.run_for(Duration::from_millis(40));
        cluster.crash_replica(victim);
        cluster.run_for(Duration::from_millis(40));
        cluster.restart_replica_amnesia(victim);
        cluster.run_for(Duration::from_millis(320));
        cluster.audit().expect("serializable");
        (
            cluster.total_committed(),
            cluster.committed_history_digest(),
        )
    };
    assert_eq!(run(), run(), "run vs replay diverged");
}

#[test]
fn catch_up_buffer_bound_sheds_instead_of_growing() {
    // With the recovery replay buffer clamped to a single message, a
    // recovering replica under live traffic must shed held-back messages
    // rather than queue them. A second replica stays crashed for the whole
    // window, so the victim's catch-up cannot complete early (it waits for
    // every peer or the deadline) and live traffic is guaranteed to overflow
    // the one-slot buffer. Retransmission still drives the workload to
    // completion and the recovered replica still converges.
    let basil = BasilConfig::test_single_shard()
        .with_catch_up_buffer_bound(1)
        .with_catch_up_timeout(Duration::from_millis(60));
    let config = ClusterConfig::basil_default(CLIENTS)
        .with_basil(basil)
        .with_initial_data(vec![(Key::new(COUNTER), Value::from_u64(0))]);
    let mut cluster = build_counter_cluster(config);
    let victim = ReplicaId::new(ShardId(0), 2);
    let silent_peer = ReplicaId::new(ShardId(0), 4);

    cluster.run_for(Duration::from_millis(20));
    cluster.crash_replica(silent_peer);
    cluster.crash_replica(victim);
    cluster.run_for(Duration::from_millis(10));
    cluster.restart_replica_amnesia(victim);
    // The victim stays in catch-up for the full 60 ms deadline (the silent
    // peer never answers its CatchUpRequest) while clients keep the counter
    // workload running against the four live replicas.
    cluster.run_for(Duration::from_millis(80));
    cluster.restart_replica_amnesia(silent_peer);
    cluster.run_for(Duration::from_millis(600));

    let expected = (CLIENTS as u64) * (TXS_PER_CLIENT as u64);
    assert_eq!(cluster.total_committed(), expected, "shedding is not loss");
    cluster.audit().expect("serializable despite shedding");

    let recovered = cluster
        .sim()
        .actor::<BasilReplica>(NodeId::Replica(victim))
        .expect("recovered replica exists");
    let stats = recovered.stats();
    assert!(
        stats.catch_up_buffered <= 1,
        "the buffer respected its bound: {stats:?}"
    );
    // The held-open catch-up window with live clients guarantees overflow.
    assert!(
        stats.catch_up_shed > 0,
        "overflow messages were shed, not queued: {stats:?}"
    );
}
