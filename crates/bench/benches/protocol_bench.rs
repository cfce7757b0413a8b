//! Criterion micro-benchmarks for protocol-level building blocks: vote
//! tallying/classification, certificate validation, the fallback view
//! rules, the raw event scheduler, and a high-client-count cluster run.

use basil_bench::{basil_default, run_basil, RunParams, Workload};
use basil_common::{ClientId, Duration, NodeId, ReplicaId, ShardConfig, ShardId, SimTime, TxId};
use basil_core::certs::{validate_decision_cert, DecisionCert, DecisionProof, ShardVotes};
use basil_core::config::BasilConfig;
use basil_core::crypto_engine::SigEngine;
use basil_core::messages::{SignedSt1Reply, St1ReplyBody};
use basil_core::quorum::ShardTally;
use basil_core::views::next_view;
use basil_crypto::KeyRegistry;
use basil_store::Decision;
use criterion::{criterion_group, criterion_main, Criterion};

fn signed_votes(
    registry: &KeyRegistry,
    cfg: &BasilConfig,
    txid: TxId,
    n: u32,
) -> Vec<SignedSt1Reply> {
    (0..n)
        .map(|i| {
            let rid = ReplicaId::new(ShardId(0), i);
            let body = St1ReplyBody {
                txid,
                replica: rid,
                vote: Decision::Commit,
            };
            let mut engine = SigEngine::new(NodeId::Replica(rid), registry.clone(), cfg);
            let proof = engine.sign(&body);
            SignedSt1Reply { body, proof }
        })
        .collect()
}

fn bench_tally(c: &mut Criterion) {
    let cfg = ShardConfig::new(1);
    let registry = KeyRegistry::from_seed(1);
    let basil_cfg = BasilConfig::test_single_shard();
    let txid = TxId::from_bytes([1; 32]);
    let votes = signed_votes(&registry, &basil_cfg, txid, 6);
    c.bench_function("shard_tally_classify_fast_commit", |b| {
        b.iter(|| {
            let mut tally = ShardTally::new(txid, ShardId(0), cfg);
            for v in &votes {
                tally.add(v.clone());
            }
            tally.classify(false)
        })
    });
}

fn bench_cert_validation(c: &mut Criterion) {
    // The registry as the cluster harness deploys it since the batched
    // quorum-validation change: every participant's verification key is
    // precomputed at build time, so a cold certificate validation performs
    // one leaf hash + one tag check per vote and no key derivations (see
    // crypto_bench's cert_quorum6_* pair for the A/B).
    let registry = KeyRegistry::from_seed_with_nodes(
        1,
        (0..6)
            .map(|i| NodeId::Replica(ReplicaId::new(ShardId(0), i)))
            .chain([NodeId::Client(ClientId(1))]),
    );
    let basil_cfg = BasilConfig::test_single_shard();
    let txid = TxId::from_bytes([2; 32]);
    let votes = signed_votes(&registry, &basil_cfg, txid, 6);
    let cert = DecisionCert {
        txid,
        proof: DecisionProof::FastCommit(vec![ShardVotes {
            txid,
            shard: ShardId(0),
            decision: Decision::Commit,
            votes,
        }]),
    };
    let shard_cfg = basil_cfg.system.shard;
    c.bench_function("validate_fast_commit_cert_cold_cache", |b| {
        b.iter(|| {
            let mut engine =
                SigEngine::new(NodeId::Client(ClientId(1)), registry.clone(), &basil_cfg);
            validate_decision_cert(&cert, &[ShardId(0)], &shard_cfg, &mut engine)
        })
    });
    c.bench_function("validate_fast_commit_cert_warm_cache", |b| {
        let mut engine = SigEngine::new(NodeId::Client(ClientId(1)), registry.clone(), &basil_cfg);
        b.iter(|| validate_decision_cert(&cert, &[ShardId(0)], &shard_cfg, &mut engine))
    });
}

/// Raw event-scheduler churn: many concurrent ping-pong pairs on a jittery
/// LAN, no protocol logic, so the measured cost is queue push/pop plus actor
/// dispatch. This is the micro-benchmark behind the ROADMAP item on the
/// simulator's event queue dominating at high client counts. The `_fat` row
/// carries a 240-byte message (`BasilMsg`'s size when it was added), so it
/// also measures what moving a message through the queue costs.
mod sched {
    use super::*;
    use basil_simnet::{Actor, Context, NetworkConfig, NodeProps, Simulation};
    use std::any::Any;

    /// A ping or pong carrying `PAD` payload bytes: `Msg<0>` is 8 bytes,
    /// `Msg<232>` 240.
    #[derive(Clone, Debug)]
    pub enum Msg<const PAD: usize> {
        Ping(u32, [u8; PAD]),
        Pong(u32, [u8; PAD]),
    }

    pub struct Pinger {
        pub peer: NodeId,
        pub remaining: u32,
        pub window: u32,
    }

    impl<const PAD: usize> Actor<Msg<PAD>> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<Msg<PAD>>) {
            for i in 0..self.window {
                ctx.send(self.peer, Msg::Ping(i, [0; PAD]));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<Msg<PAD>>, _from: NodeId, msg: Msg<PAD>) {
            if let Msg::Pong(i, body) = msg {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.send(self.peer, Msg::Ping(i, body));
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    pub struct Echoer;

    impl<const PAD: usize> Actor<Msg<PAD>> for Echoer {
        fn on_message(&mut self, ctx: &mut Context<Msg<PAD>>, from: NodeId, msg: Msg<PAD>) {
            if let Msg::Ping(i, body) = msg {
                ctx.send(from, Msg::Pong(i, body));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Builds `pairs` pinger/echoer pairs exchanging `Msg<PAD>` and runs them
    /// to completion, returning the number of events processed.
    pub fn run<const PAD: usize>(pairs: u64, round_trips: u32) -> u64 {
        let mut sim: Simulation<Msg<PAD>> = Simulation::new(7, NetworkConfig::lan());
        for p in 0..pairs {
            let pinger = NodeId::Client(ClientId(2 * p));
            let echoer = NodeId::Client(ClientId(2 * p + 1));
            sim.add_node(
                pinger,
                NodeProps::default(),
                Box::new(Pinger {
                    peer: echoer,
                    remaining: round_trips,
                    window: 4,
                }),
            );
            sim.add_node(echoer, NodeProps::default(), Box::new(Echoer));
        }
        sim.run_until(SimTime::from_secs(10));
        sim.metrics().events_processed
    }
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_scheduler");
    group.sample_size(10);
    for pairs in [16u64, 256] {
        group.bench_function(&format!("ping_pong_{pairs}pairs"), |b| {
            b.iter(|| sched::run::<0>(pairs, 200))
        });
    }
    assert_eq!(std::mem::size_of::<sched::Msg<232>>(), 240);
    group.bench_function("ping_pong_256pairs_fat", |b| {
        b.iter(|| sched::run::<232>(256, 200))
    });
    group.finish();
}

fn bench_cluster_high_clients(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_cluster");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3));
    // The high-client-count case the fig5c scale-up depends on: a full Basil
    // deployment at 4x the default experiment's client count.
    let params = RunParams {
        clients: 96,
        warmup: Duration::from_millis(50),
        window: Duration::from_millis(150),
        seed: 42,
    };
    let workload = Workload::RwUniform {
        reads: 2,
        writes: 2,
    };
    group.bench_function("basil_rwu_96clients", |b| {
        b.iter(|| run_basil(basil_default(1), workload, &params))
    });
    // The contended counterpart (YCSB-T Zipf 0.9): hot keys concentrate the
    // per-key version arrays and exercise the store's slow-path scans, so a
    // regression in the conflict-window checks shows up here first.
    let zipf_workload = Workload::RwZipf {
        reads: 2,
        writes: 2,
    };
    group.bench_function("basil_rwz_96clients", |b| {
        b.iter(|| run_basil(basil_default(1), zipf_workload, &params))
    });
    group.finish();
}

/// The zero-copy message plane: what a prepare/writeback fan-out costs in
/// message construction alone. Before the Arc refactor each `St1`/`Writeback`
/// clone deep-copied the transaction (read/write sets, keys, values) or the
/// certificate (signed vote sets); now each is a reference-count bump.
/// The signed `ST1` bytes additionally hit the memoized transaction encoding.
fn bench_message_plane(c: &mut Criterion) {
    use basil_core::crypto_engine::SignedPayload;
    use basil_core::messages::{St1, Writeback};
    use basil_store::TransactionBuilder;
    use std::sync::Arc;

    let mut b =
        TransactionBuilder::new(basil_common::Timestamp::from_nanos(1_000_000, ClientId(1)));
    for i in 0..4 {
        b.record_read(
            basil_common::Key::new(format!("read-key-{i}")),
            basil_common::Timestamp::ZERO,
        );
        b.record_write(
            basil_common::Key::new(format!("write-key-{i}")),
            basil_common::Value::from_u64(i),
        );
    }
    let tx = b.build_shared();
    let st1 = St1 {
        tx: Arc::clone(&tx),
        auth: None,
        recovery: false,
    };
    // 3 shards x 6 replicas: the paper's sharded deployment fan-out.
    c.bench_function("message_plane/st1_fanout_18", |b| {
        b.iter(|| {
            let clones: Vec<St1> = (0..18).map(|_| st1.clone()).collect();
            clones.len()
        })
    });
    c.bench_function("message_plane/st1_signed_bytes_memoized", |b| {
        b.iter(|| st1.to_bytes().len())
    });

    let registry = KeyRegistry::from_seed(1);
    let basil_cfg = BasilConfig::test_single_shard();
    let votes = signed_votes(&registry, &basil_cfg, tx.id(), 6);
    let cert = Arc::new(DecisionCert {
        txid: tx.id(),
        proof: DecisionProof::FastCommit(vec![ShardVotes {
            txid: tx.id(),
            shard: ShardId(0),
            decision: Decision::Commit,
            votes,
        }]),
    });
    let wb = Writeback { cert, tx: Some(tx) };
    c.bench_function("message_plane/writeback_fanout_18", |b| {
        b.iter(|| {
            let clones: Vec<Writeback> = (0..18).map(|_| wb.clone()).collect();
            clones.len()
        })
    });
}

fn bench_views(c: &mut Criterion) {
    let cfg = ShardConfig::new(1);
    let reported = [3u64, 3, 2, 2, 1, 0];
    c.bench_function("fallback_next_view", |b| {
        b.iter(|| next_view(1, &reported, &cfg))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_tally, bench_cert_validation, bench_message_plane, bench_views,
        bench_scheduler, bench_cluster_high_clients
}
criterion_main!(benches);
