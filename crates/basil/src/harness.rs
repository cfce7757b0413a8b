//! The Basil protocol adapter for the generic cluster runtime.
//!
//! [`BasilCluster`] stands up a full Basil deployment inside the
//! discrete-event simulator: `num_shards * (5f + 1)` replicas, a set of
//! closed-loop clients (some of which may follow a Byzantine strategy), the
//! key registry, and the network. All of the cluster lifecycle — spawning,
//! measurement windows, fault injection, the serializability audit — is the
//! shared [`ProtocolCluster`] engine;
//! this module contributes only [`BasilProtocol`], the adapter describing
//! how Basil clients and replicas are constructed and observed.

use crate::cluster::{self, ClusterProtocol, ProtocolCluster};
use crate::report::Snapshot;
use basil_common::{ClientId, Key, NodeId, ReplicaId, ShardId, TxGenerator, TxId, Value};
use basil_core::byzantine::FaultProfile;
use basil_core::{BasilClient, BasilConfig, BasilMsg, BasilReplica, ClientStats, ReplicaBehavior};
use basil_crypto::KeyRegistry;
use basil_store::mvtso::Decision;
use basil_store::{StoreStats, Transaction};

pub use crate::cluster::ClusterAuditError;

/// The [`ClusterProtocol`] adapter for Basil deployments.
#[derive(Clone)]
pub struct BasilProtocol {
    /// Protocol configuration (shards, quorums, crypto, timeouts).
    pub basil: BasilConfig,
    /// Deployment-wide key material, derived from the simulation seed in
    /// [`ClusterProtocol::prepare_build`].
    registry: Option<KeyRegistry>,
}

impl BasilProtocol {
    /// Wraps a protocol configuration in the adapter.
    pub fn new(basil: BasilConfig) -> Self {
        BasilProtocol {
            basil,
            registry: None,
        }
    }

    fn registry(&self) -> &KeyRegistry {
        self.registry
            .as_ref()
            .expect("prepare_build derives the key registry before actors are constructed")
    }
}

impl std::fmt::Debug for BasilProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BasilProtocol")
            .field("basil", &self.basil)
            .finish_non_exhaustive()
    }
}

impl ClusterProtocol for BasilProtocol {
    type Msg = BasilMsg;
    type Client = BasilClient;
    type Replica = BasilReplica;
    type Stats = ClientStats;

    fn prepare_build(&mut self, seed: u64, num_clients: u32) {
        // Precompute every participant's verification key: certificate
        // validation then derives no per-vote HMAC keys (the expensive half
        // of a cold signature check), only the tag itself.
        let replicas = self.shards().into_iter().flat_map(|shard| {
            (0..self.basil.system.shard.n()).map(move |i| NodeId::Replica(ReplicaId::new(shard, i)))
        });
        let clients = (0..num_clients).map(|i| NodeId::Client(ClientId(i as u64)));
        self.registry = Some(KeyRegistry::from_seed_with_nodes(
            seed,
            replicas.chain(clients),
        ));
    }

    fn shards(&self) -> Vec<ShardId> {
        self.basil.system.shards().collect()
    }

    fn shard_for_key(&self, key: &Key) -> ShardId {
        self.basil.system.shard_for_key(key)
    }

    fn replicas_per_shard(&self) -> u32 {
        self.basil.system.shard.n()
    }

    fn make_replica(
        &self,
        rid: ReplicaId,
        behavior: ReplicaBehavior,
        initial_data: Vec<(Key, Value)>,
    ) -> BasilReplica {
        BasilReplica::new(
            rid,
            self.basil.clone(),
            self.registry().clone(),
            behavior,
            initial_data,
        )
    }

    fn recover_replica(
        &self,
        rid: ReplicaId,
        initial_data: Vec<(Key, Value)>,
        old: &mut BasilReplica,
    ) -> Option<BasilReplica> {
        // The WAL image is the only state that survives an amnesia crash;
        // behaviour is configuration, not memory, so it survives too (a
        // Byzantine replica does not become honest by crashing).
        let wal_bytes = old.take_wal_bytes();
        Some(BasilReplica::recover(
            rid,
            self.basil.clone(),
            self.registry().clone(),
            old.behavior(),
            initial_data,
            wal_bytes,
        ))
    }

    fn make_client(
        &self,
        cid: ClientId,
        generator: Box<dyn TxGenerator>,
        fault: FaultProfile,
        seed: u64,
    ) -> BasilClient {
        BasilClient::new(
            cid,
            self.basil.clone(),
            self.registry().clone(),
            generator,
            fault,
            seed,
        )
    }

    fn client_stats(client: &BasilClient) -> &ClientStats {
        client.stats()
    }

    fn accumulate(stats: &ClientStats, byzantine: bool, snap: &mut Snapshot) {
        if byzantine {
            snap.byz_committed += stats.committed;
            snap.faulty_issued += stats.faulty_issued;
            return;
        }
        snap.add_session(stats);
        snap.fast_path += stats.fast_path_decisions;
        snap.slow_path += stats.slow_path_decisions;
        snap.fallbacks += stats.fallback_invocations;
        snap.faulty_issued += stats.faulty_issued;
        snap.shed += stats.shed;
    }

    fn latest_value(replica: &BasilReplica, key: &Key) -> Option<Value> {
        replica.store().latest_committed(key).map(|(_, v)| v)
    }

    fn committed_transactions(replica: &BasilReplica) -> Vec<&Transaction> {
        replica.store().committed_iter().collect()
    }

    fn decision(replica: &BasilReplica, txid: &TxId) -> Option<Decision> {
        replica.store().decision(txid)
    }

    fn set_behavior(replica: &mut BasilReplica, behavior: ReplicaBehavior) {
        replica.set_behavior(behavior);
    }
}

/// Configuration of a simulated Basil deployment.
pub type ClusterConfig = cluster::ClusterConfig<BasilProtocol>;

/// A running simulated Basil deployment — the generic engine instantiated
/// with the Basil adapter.
pub type BasilCluster = ProtocolCluster<BasilProtocol>;

impl BasilCluster {
    /// Store-level counters summed over every replica: how often the MVTSO
    /// prepare answered a per-key conflict check from the watermarks (fast
    /// path) versus falling through to the ordered scan.
    pub fn store_stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for rid in self.replica_ids() {
            if let Some(replica) = self.sim().actor::<BasilReplica>(NodeId::Replica(*rid)) {
                total.merge(&replica.store().stats());
            }
        }
        total
    }

    /// Sum of periodic GC sweeps run across replicas (0 unless
    /// `BasilConfig::with_gc` enabled them).
    pub fn gc_sweeps(&self) -> u64 {
        self.replica_ids()
            .iter()
            .filter_map(|rid| self.sim().actor::<BasilReplica>(NodeId::Replica(*rid)))
            .map(|r| r.stats().gc_sweeps)
            .sum()
    }
}

impl ClusterConfig {
    /// A single-shard, `f = 1` deployment with `num_clients` honest
    /// clients — the starting point of most tests and experiments.
    pub fn basil_default(num_clients: u32) -> Self {
        cluster::ClusterConfig::for_protocol(
            BasilProtocol::new(BasilConfig::test_single_shard()),
            num_clients,
        )
    }

    /// Same as [`ClusterConfig::basil_default`] but with the given
    /// protocol configuration (sharding, batching, ...).
    pub fn with_basil(mut self, basil: BasilConfig) -> Self {
        self.protocol.basil = basil;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::{Duration, Op, ScriptedGenerator, TxProfile};

    #[test]
    fn build_creates_all_nodes() {
        let config = ClusterConfig::basil_default(3);
        let cluster = BasilCluster::build(config, |_| Box::new(ScriptedGenerator::new([])));
        assert_eq!(cluster.replica_ids().len(), 6);
        assert_eq!(cluster.client_ids().len(), 3);
        assert!(!cluster.is_byzantine_client(ClientId(0)));
    }

    #[test]
    fn single_client_single_write_commits_end_to_end() {
        let config = ClusterConfig::basil_default(1)
            .with_initial_data(vec![(Key::new("x"), Value::from_u64(0))]);
        let profile = TxProfile::new("set-x", vec![Op::Write(Key::new("x"), Value::from_u64(7))]);
        let mut cluster = BasilCluster::build(config, move |_| {
            Box::new(ScriptedGenerator::new([profile.clone()]))
        });
        cluster.run_for(Duration::from_millis(50));
        assert_eq!(cluster.total_committed(), 1);
        assert_eq!(
            cluster.latest_value(&Key::new("x")),
            Some(Value::from_u64(7))
        );
        cluster.audit().expect("history serializable");
    }

    #[test]
    fn store_fast_path_stats_are_exposed() {
        let config = ClusterConfig::basil_default(4)
            .with_initial_data(vec![(Key::new("x"), Value::from_u64(0))]);
        let profile = TxProfile::new(
            "bump",
            vec![Op::RmwAdd {
                key: Key::new("x"),
                delta: 1,
            }],
        );
        let mut cluster = BasilCluster::build(config, move |_| {
            Box::new(ScriptedGenerator::new(vec![profile.clone(); 4]))
        });
        cluster.run_for(Duration::from_millis(300));
        let stats = cluster.store_stats();
        assert!(stats.prepares > 0, "prepares ran: {stats:?}");
        assert!(
            stats.fast_path_checks + stats.slow_path_checks > 0,
            "per-key checks counted: {stats:?}"
        );
        let rate = stats.fast_path_hit_rate();
        assert!((0.0..=1.0).contains(&rate));
        assert_eq!(cluster.gc_sweeps(), 0, "GC is off by default");
    }

    #[test]
    fn periodic_gc_preserves_results_and_serializability() {
        let basil = BasilConfig::test_single_shard()
            .with_gc(Duration::from_millis(10), Duration::from_millis(40));
        let config = ClusterConfig::basil_default(3)
            .with_basil(basil)
            .with_initial_data(vec![(Key::new("counter"), Value::from_u64(0))]);
        let profiles = vec![
            TxProfile::new(
                "incr",
                vec![Op::RmwAdd {
                    key: Key::new("counter"),
                    delta: 1,
                }],
            );
            5
        ];
        let mut cluster = BasilCluster::build(config, move |_| {
            Box::new(ScriptedGenerator::new(profiles.clone()))
        });
        cluster.run_for(Duration::from_millis(400));
        assert!(cluster.gc_sweeps() > 0, "sweeps ran");
        assert_eq!(cluster.total_committed(), 15);
        assert_eq!(
            cluster.latest_value(&Key::new("counter")),
            Some(Value::from_u64(15))
        );
        cluster.audit().expect("GC'd history still serializable");
    }

    #[test]
    fn read_modify_write_chain_is_applied() {
        let config = ClusterConfig::basil_default(1)
            .with_initial_data(vec![(Key::new("counter"), Value::from_u64(100))]);
        let profiles = vec![
            TxProfile::new(
                "incr",
                vec![Op::RmwAdd {
                    key: Key::new("counter"),
                    delta: 5,
                }],
            );
            3
        ];
        let mut cluster = BasilCluster::build(config, move |_| {
            Box::new(ScriptedGenerator::new(profiles.clone()))
        });
        cluster.run_for(Duration::from_millis(200));
        assert_eq!(cluster.total_committed(), 3);
        assert_eq!(
            cluster.latest_value(&Key::new("counter")),
            Some(Value::from_u64(115))
        );
        cluster.audit().expect("serializable");
    }
}
