//! Object delivery and wire delivery give the same result.
//!
//! The simulator hands every actor the very message another actor sent, so
//! nodes share `Arc` allocations (transactions, certificates, votes). On TCP
//! every delivered message is decoded into fresh allocations. Each test here
//! runs one short deployment twice from one seed: once as the simulator
//! normally delivers, and once with every actor behind [`OverTheWire`], which
//! encodes each delivered message with the TCP codec and hands the actor the
//! decoded copy. The committed history and the commit count must be equal:
//! nothing in the protocol may depend on nodes sharing memory. The RW-U
//! test also pins the frames and bytes the wire run round-trips, so a
//! change to what a message carries shows up as a number.

use basil::cluster::{ClusterConfig, ClusterProtocol, ProtocolCluster};
use basil::harness::BasilProtocol;
use basil::report::Snapshot;
use basil::workloads::YcsbGenerator;
use basil_common::{
    ClientId, Duration, Key, NodeId, ReplicaId, ShardConfig, ShardId, SystemConfig, TxGenerator,
    TxId, Value,
};
use basil_core::byzantine::{ClientStrategy, FaultProfile};
use basil_core::config::CryptoMode;
use basil_core::{BasilClient, BasilConfig, BasilMsg, BasilReplica, ClientStats, ReplicaBehavior};
use basil_net::wire::{decode_frame_payload, encode_msg, split_frame};
use basil_simnet::{Actor, Context};
use basil_store::mvtso::Decision;
use basil_store::Transaction;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The frames, and their bytes headers included, that the actors of one
/// deployment round-tripped.
#[derive(Default)]
struct WireCount {
    frames: AtomicU64,
    bytes: AtomicU64,
}

/// An actor that receives every message as TCP would: encoded by the
/// sender's codec and decoded into fresh allocations. Timers are node-local
/// and bypass the round trip.
struct OverTheWire<A> {
    inner: A,
    count: Arc<WireCount>,
}

impl<A: Actor<BasilMsg>> Actor<BasilMsg> for OverTheWire<A> {
    fn on_start(&mut self, ctx: &mut Context<BasilMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId, msg: BasilMsg) {
        let frame = encode_msg(from, &msg).expect("every delivered message encodes");
        let (payload, consumed) = split_frame(&frame)
            .expect("a frame this codec sealed is intact")
            .expect("the frame is complete");
        assert_eq!(consumed, frame.len());
        self.count.frames.fetch_add(1, Ordering::Relaxed);
        self.count
            .bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        let (sender, decoded) = decode_frame_payload(payload).expect("own frames decode");
        assert_eq!(sender, from);
        self.inner.on_message(ctx, from, decoded);
    }

    fn on_timer(&mut self, ctx: &mut Context<BasilMsg>, msg: BasilMsg) {
        self.inner.on_timer(ctx, msg);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// [`BasilProtocol`] with every client and replica behind [`OverTheWire`],
/// all counting into one [`WireCount`].
struct WireBasil(BasilProtocol, Arc<WireCount>);

impl ClusterProtocol for WireBasil {
    type Msg = BasilMsg;
    type Client = OverTheWire<BasilClient>;
    type Replica = OverTheWire<BasilReplica>;
    type Stats = ClientStats;

    fn prepare_build(&mut self, seed: u64, num_clients: u32) {
        self.0.prepare_build(seed, num_clients);
    }
    fn shards(&self) -> Vec<ShardId> {
        self.0.shards()
    }
    fn shard_for_key(&self, key: &Key) -> ShardId {
        self.0.shard_for_key(key)
    }
    fn replicas_per_shard(&self) -> u32 {
        self.0.replicas_per_shard()
    }
    fn make_replica(
        &self,
        rid: ReplicaId,
        behavior: ReplicaBehavior,
        initial_data: Vec<(Key, Value)>,
    ) -> Self::Replica {
        OverTheWire {
            inner: self.0.make_replica(rid, behavior, initial_data),
            count: Arc::clone(&self.1),
        }
    }
    fn recover_replica(
        &self,
        rid: ReplicaId,
        initial_data: Vec<(Key, Value)>,
        old: &mut Self::Replica,
    ) -> Option<Self::Replica> {
        let inner = self.0.recover_replica(rid, initial_data, &mut old.inner)?;
        Some(OverTheWire {
            inner,
            count: Arc::clone(&self.1),
        })
    }
    fn make_client(
        &self,
        cid: ClientId,
        generator: Box<dyn TxGenerator>,
        fault: FaultProfile,
        seed: u64,
    ) -> Self::Client {
        OverTheWire {
            inner: self.0.make_client(cid, generator, fault, seed),
            count: Arc::clone(&self.1),
        }
    }
    fn client_stats(client: &Self::Client) -> &ClientStats {
        client.inner.stats()
    }
    fn accumulate(stats: &ClientStats, byzantine: bool, snap: &mut Snapshot) {
        BasilProtocol::accumulate(stats, byzantine, snap);
    }
    fn latest_value(replica: &Self::Replica, key: &Key) -> Option<Value> {
        BasilProtocol::latest_value(&replica.inner, key)
    }
    fn committed_transactions(replica: &Self::Replica) -> Vec<&Transaction> {
        BasilProtocol::committed_transactions(&replica.inner)
    }
    fn decision(replica: &Self::Replica, txid: &TxId) -> Option<Decision> {
        BasilProtocol::decision(&replica.inner, txid)
    }
    fn set_behavior(replica: &mut Self::Replica, behavior: ReplicaBehavior) {
        BasilProtocol::set_behavior(&mut replica.inner, behavior);
    }
}

const SEED: u64 = 1;
const KEYS: u64 = 1_000_000;

/// One short deployment shaped like a benchmark simulator workload: a single
/// shard with f = 1, reply batches of 16, 2-read 2-write YCSB transactions.
#[derive(Clone, Copy)]
struct Deployment {
    clients: u32,
    zipf: bool,
    real_crypto: bool,
    /// Stall-late Byzantine clients among `clients`.
    stall_late: u32,
    /// Simulated milliseconds at which replica 4 crashes and restarts with
    /// amnesia.
    crash_restart_ms: Option<(u64, u64)>,
    run_ms: u64,
}

impl Deployment {
    fn protocol(&self) -> BasilProtocol {
        let mut system = SystemConfig::single_shard_f1();
        system.shard = ShardConfig::new(1);
        let mut cfg = BasilConfig::bench(system).with_batch_size(16);
        if self.real_crypto {
            cfg.crypto_mode = CryptoMode::Real;
        }
        BasilProtocol::new(cfg)
    }

    fn generator(&self, cid: ClientId) -> Box<dyn TxGenerator> {
        let seed = SEED.wrapping_add(cid.0.wrapping_mul(7919));
        if self.zipf {
            Box::new(YcsbGenerator::rw_zipf(seed, KEYS, 2, 2, 0.9))
        } else {
            Box::new(YcsbGenerator::rw_uniform(seed, KEYS, 2, 2))
        }
    }

    /// Runs the deployment; returns the committed-history digest and the
    /// correct clients' commit count.
    fn run<P: ClusterProtocol<Stats = ClientStats>>(&self, protocol: P) -> (String, u64) {
        let mut config = ClusterConfig::for_protocol(protocol, self.clients).with_seed(SEED);
        if self.stall_late > 0 {
            let fault = FaultProfile {
                strategy: ClientStrategy::StallLate,
                faulty_fraction: 1.0,
            };
            config = config.with_byzantine_clients(self.stall_late, fault);
        }
        let mut cluster = ProtocolCluster::build(config, |cid| self.generator(cid));
        let ms = Duration::from_millis;
        let mut elapsed = 0;
        if let Some((crash, restart)) = self.crash_restart_ms {
            let rid = ReplicaId::new(ShardId(0), 4);
            cluster.run_for(ms(crash));
            cluster.crash_replica(rid);
            cluster.run_for(ms(restart - crash));
            cluster.restart_replica_amnesia(rid);
            elapsed = restart;
        }
        cluster.run_for(ms(self.run_ms - elapsed));
        cluster
            .audit()
            .expect("the committed history is serializable");
        (
            cluster.committed_history_digest(),
            cluster.total_committed(),
        )
    }

    /// Runs the deployment with object and with wire delivery, asserts
    /// that both commit the same history, and returns the frames and bytes
    /// the wire run round-tripped.
    fn assert_wire_delivery_changes_nothing(self) -> (u64, u64) {
        let (object_digest, object_commits) = self.run(self.protocol());
        assert!(object_commits > 0, "the deployment commits");
        let count = Arc::new(WireCount::default());
        let (wire_digest, wire_commits) = self.run(WireBasil(self.protocol(), Arc::clone(&count)));
        assert_eq!(wire_commits, object_commits);
        assert_eq!(wire_digest, object_digest);
        (
            count.frames.load(Ordering::Relaxed),
            count.bytes.load(Ordering::Relaxed),
        )
    }
}

const RW_U: Deployment = Deployment {
    clients: 16,
    zipf: false,
    real_crypto: false,
    stall_late: 0,
    crash_restart_ms: None,
    run_ms: 150,
};

/// The frames and bytes the RW-U wire run round-trips. Only a change to
/// what a message carries, or to how many are sent, moves them. The bytes
/// were 22,528,674 until a MAC became a bare signature (48 bytes less on
/// each of 39,744 MAC'd frames) and a batch proof stopped repeating its
/// leaf count (4 bytes less on each of 92,226 proofs carried).
#[test]
fn rw_uniform_is_the_same_over_the_wire() {
    let (frames, bytes) = RW_U.assert_wire_delivery_changes_nothing();
    assert_eq!((frames, bytes), (66_048, 20_252_058));
}

#[test]
fn rw_uniform_with_real_crypto_is_the_same_over_the_wire() {
    Deployment {
        real_crypto: true,
        run_ms: 100,
        ..RW_U
    }
    .assert_wire_delivery_changes_nothing();
}

#[test]
fn rw_zipf_is_the_same_over_the_wire() {
    Deployment { zipf: true, ..RW_U }.assert_wire_delivery_changes_nothing();
}

#[test]
fn rw_zipf_with_stalling_clients_and_an_amnesia_restart_is_the_same_over_the_wire() {
    Deployment {
        clients: 20,
        zipf: true,
        stall_late: 6,
        crash_restart_ms: Some((100, 150)),
        run_ms: 250,
        ..RW_U
    }
    .assert_wire_delivery_changes_nothing();
}
