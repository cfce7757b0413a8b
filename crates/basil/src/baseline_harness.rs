//! The baseline-systems adapter (TAPIR-style, TxHotstuff, TxBFT-SMaRt) for
//! the generic cluster runtime.
//!
//! [`BaselineCluster`] is the same [`ProtocolCluster`] engine that runs
//! Basil, instantiated with [`BaselineProtocol`]; the whole cluster
//! lifecycle — spawning, genesis data, measurement windows, the
//! serializability audit — is shared code, which is what makes the
//! harness's Basil-vs-baseline comparisons apples-to-apples.

use crate::cluster::{self, ClusterProtocol, ProtocolCluster};
use crate::report::Snapshot;
use basil_baselines::{BaselineClient, BaselineConfig, BaselineMsg, BaselineReplica};
use basil_common::{ClientId, Key, ReplicaId, ShardId, TxGenerator, TxId, Value};
use basil_core::byzantine::FaultProfile;
use basil_core::ReplicaBehavior;
use basil_store::mvtso::Decision;
use basil_store::{SessionStats, Transaction};

/// The [`ClusterProtocol`] adapter for the baseline systems.
///
/// The paper evaluates the baselines only in fault-free executions, so this
/// adapter ignores Byzantine fault profiles and replica behaviour
/// overrides; everything else rides the shared engine.
#[derive(Clone, Debug)]
pub struct BaselineProtocol {
    /// The baseline system and its parameters.
    pub baseline: BaselineConfig,
}

impl BaselineProtocol {
    /// Wraps a baseline configuration in the adapter.
    pub fn new(baseline: BaselineConfig) -> Self {
        BaselineProtocol { baseline }
    }
}

impl ClusterProtocol for BaselineProtocol {
    type Msg = BaselineMsg;
    type Client = BaselineClient;
    type Replica = BaselineReplica;
    type Stats = SessionStats;

    fn shards(&self) -> Vec<ShardId> {
        self.baseline.shards().collect()
    }

    fn shard_for_key(&self, key: &Key) -> ShardId {
        self.baseline.shard_for_key(key)
    }

    fn replicas_per_shard(&self) -> u32 {
        self.baseline.n()
    }

    fn make_replica(
        &self,
        rid: ReplicaId,
        behavior: ReplicaBehavior,
        initial_data: Vec<(Key, Value)>,
    ) -> BaselineReplica {
        assert!(
            behavior.is_correct(),
            "the baseline systems are evaluated fault-free; replica behaviour \
             overrides are not supported by the baseline adapter"
        );
        BaselineReplica::new(rid, self.baseline.clone(), initial_data)
    }

    fn make_client(
        &self,
        cid: ClientId,
        generator: Box<dyn TxGenerator>,
        fault: FaultProfile,
        seed: u64,
    ) -> BaselineClient {
        assert!(
            fault.strategy.is_correct(),
            "the baseline systems are evaluated fault-free; Byzantine client \
             profiles are not supported by the baseline adapter"
        );
        BaselineClient::new(cid, self.baseline.clone(), generator, seed)
    }

    fn client_stats(client: &BaselineClient) -> &SessionStats {
        client.stats()
    }

    fn accumulate(stats: &SessionStats, _byzantine: bool, snap: &mut Snapshot) {
        snap.add_session(stats);
    }

    fn latest_value(replica: &BaselineReplica, key: &Key) -> Option<Value> {
        replica.store().committed_value(key)
    }

    fn committed_transactions(replica: &BaselineReplica) -> Vec<&Transaction> {
        replica.store().committed_iter().collect()
    }

    fn decision(replica: &BaselineReplica, txid: &TxId) -> Option<Decision> {
        replica.store().decision(txid)
    }

    fn set_behavior(_replica: &mut BaselineReplica, behavior: ReplicaBehavior) {
        // The baselines are evaluated fault-free (see the crate docs of
        // `basil-baselines`); reject misbehaviour injection loudly rather
        // than silently measuring an honest run.
        assert!(
            behavior.is_correct(),
            "the baseline systems are evaluated fault-free; replica behaviour \
             injection is not supported by the baseline adapter"
        );
    }
}

/// Configuration of a simulated baseline deployment.
pub type BaselineClusterConfig = cluster::ClusterConfig<BaselineProtocol>;

/// A running simulated baseline deployment — the generic engine
/// instantiated with the baseline adapter.
pub type BaselineCluster = ProtocolCluster<BaselineProtocol>;

impl BaselineClusterConfig {
    /// A default deployment of the given baseline with `num_clients`
    /// clients.
    pub fn new(baseline: BaselineConfig, num_clients: u32) -> Self {
        cluster::ClusterConfig::for_protocol(BaselineProtocol::new(baseline), num_clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_baselines::SystemKind;
    use basil_common::{Duration, Op, ScriptedGenerator, TxProfile};

    fn one_write_profile() -> TxProfile {
        TxProfile::new("set-x", vec![Op::Write(Key::new("x"), Value::from_u64(7))])
    }

    #[test]
    #[should_panic(expected = "evaluated fault-free")]
    fn byzantine_clients_are_rejected_loudly() {
        use basil_core::byzantine::{ClientStrategy, FaultProfile};
        let config = BaselineClusterConfig::new(BaselineConfig::new(SystemKind::Tapir), 2)
            .with_byzantine_clients(1, FaultProfile::always(ClientStrategy::StallEarly));
        let _ = BaselineCluster::build(config, |_| Box::new(ScriptedGenerator::new([])));
    }

    #[test]
    fn tapir_cluster_commits_a_transaction() {
        let config = BaselineClusterConfig::new(BaselineConfig::new(SystemKind::Tapir), 1)
            .with_initial_data(vec![(Key::new("x"), Value::from_u64(0))]);
        let mut cluster = BaselineCluster::build(config, |_| {
            Box::new(ScriptedGenerator::new([one_write_profile()]))
        });
        cluster.run_for(Duration::from_millis(50));
        assert_eq!(cluster.total_committed(), 1);
        assert_eq!(
            cluster.latest_value(&Key::new("x")),
            Some(Value::from_u64(7))
        );
        cluster.audit().expect("baseline history serializable");
    }

    #[test]
    fn hotstuff_cluster_commits_a_transaction() {
        let config = BaselineClusterConfig::new(
            BaselineConfig::new(SystemKind::TxHotstuff).with_batch_size(1),
            1,
        )
        .with_initial_data(vec![(Key::new("x"), Value::from_u64(0))]);
        let mut cluster = BaselineCluster::build(config, |_| {
            Box::new(ScriptedGenerator::new([one_write_profile()]))
        });
        cluster.run_for(Duration::from_millis(100));
        assert_eq!(cluster.total_committed(), 1);
        assert_eq!(
            cluster.latest_value(&Key::new("x")),
            Some(Value::from_u64(7))
        );
        cluster.audit().expect("baseline history serializable");
    }

    #[test]
    fn bftsmart_cluster_commits_rmw_chain() {
        let config = BaselineClusterConfig::new(
            BaselineConfig::new(SystemKind::TxBftSmart).with_batch_size(1),
            1,
        )
        .with_initial_data(vec![(Key::new("counter"), Value::from_u64(10))]);
        let profiles = vec![
            TxProfile::new(
                "incr",
                vec![Op::RmwAdd {
                    key: Key::new("counter"),
                    delta: 5,
                }],
            );
            2
        ];
        let mut cluster = BaselineCluster::build(config, move |_| {
            Box::new(ScriptedGenerator::new(profiles.clone()))
        });
        cluster.run_for(Duration::from_millis(300));
        assert_eq!(cluster.total_committed(), 2);
        assert_eq!(
            cluster.latest_value(&Key::new("counter")),
            Some(Value::from_u64(20))
        );
        cluster.audit().expect("baseline history serializable");
    }
}
