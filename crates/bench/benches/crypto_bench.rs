//! Criterion micro-benchmarks for the cryptographic substrate: SHA-256,
//! HMAC, Merkle reply batching, and the signature scheme. These measure the
//! real (host) cost of the from-scratch implementations; the simulator
//! charges the calibrated ed25519 costs instead (see `basil_crypto::cost`).

use basil_common::{ClientId, NodeId, ReplicaId, ShardId, TxId};
use basil_core::certs::{validate_decision_cert, DecisionCert, DecisionProof, ShardVotes};
use basil_core::config::BasilConfig;
use basil_core::crypto_engine::SigEngine;
use basil_core::messages::{SignedSt1Reply, St1ReplyBody};
use basil_crypto::hmac::{hmac_sha256, HmacKey};
use basil_crypto::merkle::{leaf_hash, node_hash};
use basil_crypto::{
    sign_frontier, BatchProof, KeyRegistry, MerkleFrontier, MerkleTree, Sha256, SignatureCache,
};
use basil_store::Decision;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| Sha256::digest(data))
        });
    }
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    c.bench_function("hmac_sha256_64B", |b| {
        let key = [7u8; 32];
        let msg = [1u8; 64];
        b.iter(|| hmac_sha256(&key, &msg))
    });
    // What a root signature costs once the key's pad blocks are absorbed:
    // two compressions, against four through the free function.
    c.bench_function("hmac_cached_key_32B", |b| {
        let key = HmacKey::new(&[7u8; 32]);
        let root = [1u8; 32];
        b.iter(|| key.mac(&root))
    });
}

fn bench_merkle(c: &mut Criterion) {
    let mut group = c.benchmark_group("merkle");
    // One interior node: a single compression under the node chaining value.
    group.bench_function("node_hash", |b| {
        let (left, right) = (leaf_hash(b"left"), leaf_hash(b"right"));
        b.iter(|| node_hash(&left, &right))
    });
    for leaves in [4usize, 16, 64] {
        let payloads: Vec<Vec<u8>> = (0..leaves)
            .map(|i| format!("reply-{i}").into_bytes())
            .collect();
        group.bench_with_input(
            BenchmarkId::new("build_and_prove", leaves),
            &payloads,
            |b, payloads| {
                b.iter(|| {
                    let tree = MerkleTree::build(payloads);
                    tree.prove(leaves / 2)
                })
            },
        );
    }
    group.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let registry = KeyRegistry::from_seed(1);
    let node = NodeId::Client(ClientId(1));
    let keypair = registry.keypair(node);
    c.bench_function("sign_single", |b| {
        b.iter(|| BatchProof::sign_single(&keypair, b"a reply payload"))
    });
    let proof = BatchProof::sign_single(&keypair, b"a reply payload");
    c.bench_function("verify_single_uncached", |b| {
        b.iter(|| {
            let mut cache = SignatureCache::new();
            proof.verify(b"a reply payload", &registry, &mut cache)
        })
    });
    // The common case on a client: a reply out of a batch of 16 whose root
    // signature is already cached — one leaf hash and four interior nodes.
    let payloads: Vec<Vec<u8>> = (0..16).map(|i| format!("reply {i}").into_bytes()).collect();
    let mut frontier = MerkleFrontier::new();
    for payload in &payloads {
        frontier.append(payload);
    }
    let batch: Vec<BatchProof> = sign_frontier(&keypair, &mut frontier).collect();
    c.bench_function("proof_verify_batch16_cached", |b| {
        let mut cache = SignatureCache::new();
        assert!(batch[0].verify(&payloads[0], &registry, &mut cache).valid);
        b.iter(|| batch[7].verify(&payloads[7], &registry, &mut cache))
    });
    // ROADMAP: batching > 16 was untested; sweep through 64 so the
    // amortization curve of Figure 6b has micro-benchmark backing.
    for batch in [16usize, 32, 64] {
        let payloads: Vec<Vec<u8>> = (0..batch)
            .map(|i| format!("reply {i}").into_bytes())
            .collect();
        c.bench_function(&format!("batch_sign_{batch}"), |b| {
            b.iter(|| {
                let mut frontier = MerkleFrontier::new();
                for payload in &payloads {
                    frontier.append(payload);
                }
                sign_frontier(&registry.keypair(node), &mut frontier).collect::<Vec<_>>()
            })
        });
    }
}

/// The tentpole acceptance benchmark: the reply-batch flush burst with the
/// incremental frontier versus the full `MerkleTree::build` rebuild the
/// flush path used to pay.
///
/// `rebuild_at_flush` is the old flush: hash every payload, rebuild the
/// whole tree, prove every leaf — `O(b)` hashing in one burst.
/// `frontier_append_flush` is the new flush: each append already folded its
/// leaf into the frontier when the reply was queued (that amortized work is
/// the `iter_batched` setup), so the burst is just the `O(log b)` seal plus
/// proof extraction. `frontier_total` re-counts the appends inside the
/// timed region to document that total hashing is conserved — the frontier
/// wins by moving it off the flush burst and recycling allocations, not by
/// hashing less.
fn bench_frontier_vs_rebuild(c: &mut Criterion) {
    use basil_crypto::MerkleFrontier;
    use criterion::BatchSize;
    let mut group = c.benchmark_group("reply_batch_flush");
    for batch in [16usize, 32, 64, 128] {
        let payloads: Vec<Vec<u8>> = (0..batch)
            .map(|i| format!("st1-reply-{i}-to-some-client").into_bytes())
            .collect();
        group.bench_with_input(
            BenchmarkId::new("rebuild_at_flush", batch),
            &payloads,
            |b, payloads| {
                b.iter(|| {
                    let tree = MerkleTree::build(payloads);
                    let proofs: Vec<_> = (0..payloads.len()).map(|i| tree.prove(i)).collect();
                    (tree.root(), proofs)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("frontier_append_flush", batch),
            &payloads,
            |b, payloads| {
                let mut template = MerkleFrontier::new();
                for payload in payloads {
                    template.append(payload);
                }
                b.iter_batched(
                    || template.clone(),
                    |mut frontier| {
                        let sealed = frontier.seal();
                        let proofs: Vec<_> = (0..payloads.len()).map(|i| sealed.prove(i)).collect();
                        (sealed.root(), proofs)
                    },
                    BatchSize::SmallInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("frontier_total", batch),
            &payloads,
            |b, payloads| {
                let mut frontier = MerkleFrontier::new();
                b.iter(|| {
                    frontier.reset();
                    for payload in payloads {
                        frontier.append(payload);
                    }
                    let sealed = frontier.seal();
                    let proofs: Vec<_> = (0..payloads.len()).map(|i| sealed.prove(i)).collect();
                    (sealed.root(), proofs)
                })
            },
        );
    }
    group.finish();
}

/// The ROADMAP slow spot: a cold `DecisionCert` validation paid a full
/// signature check *per vote*, and each of those checks re-derived the
/// voting replica's verification key (an extra HMAC, two SHA-256 passes).
/// The cluster harness now precomputes every participant's key at
/// deployment build time (`KeyRegistry::from_seed_with_nodes`), so the
/// derivation is paid once per node per deployment instead of once per
/// vote — this pair of benchmarks shows the per-quorum delta. (True
/// signature aggregation is not possible with per-node MACs; the remaining
/// per-vote work is one leaf hash and one tag check, the same floor ed25519
/// batch verification has.)
fn bench_cert_quorum_validation(c: &mut Criterion) {
    let mut cfg = BasilConfig::test_single_shard();
    cfg.crypto_mode = basil_core::config::CryptoMode::Real;
    let txid = TxId::from_bytes([7; 32]);
    let client = NodeId::Client(ClientId(1));
    let replicas: Vec<NodeId> = (0..6)
        .map(|i| NodeId::Replica(ReplicaId::new(ShardId(0), i)))
        .collect();
    let shard_cfg = cfg.system.shard;

    let build_cert = |registry: &KeyRegistry| {
        let votes: Vec<SignedSt1Reply> = (0..6)
            .map(|i| {
                let rid = ReplicaId::new(ShardId(0), i);
                let body = St1ReplyBody {
                    txid,
                    replica: rid,
                    vote: Decision::Commit,
                };
                let mut engine = SigEngine::new(NodeId::Replica(rid), registry.clone(), &cfg);
                let proof = engine.sign(&body);
                SignedSt1Reply { body, proof }
            })
            .collect();
        DecisionCert {
            txid,
            proof: DecisionProof::FastCommit(vec![ShardVotes {
                txid,
                shard: ShardId(0),
                decision: Decision::Commit,
                votes,
            }]),
        }
    };

    // Per-vote key derivation (the pre-refactor behaviour).
    let derived = KeyRegistry::from_seed(1);
    let cert = build_cert(&derived);
    c.bench_function("cert_quorum6_cold_derived_keys", |b| {
        b.iter(|| {
            let mut engine = SigEngine::new(client, derived.clone(), &cfg);
            validate_decision_cert(&cert, &[ShardId(0)], &shard_cfg, &mut engine)
        })
    });

    // Keys precomputed once per deployment (what the harness now builds).
    let precomputed =
        KeyRegistry::from_seed_with_nodes(1, replicas.iter().copied().chain([client]));
    let cert = build_cert(&precomputed);
    c.bench_function("cert_quorum6_cold_precomputed_keys", |b| {
        b.iter(|| {
            let mut engine = SigEngine::new(client, precomputed.clone(), &cfg);
            validate_decision_cert(&cert, &[ShardId(0)], &shard_cfg, &mut engine)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sha256, bench_hmac, bench_merkle, bench_signatures,
        bench_frontier_vs_rebuild, bench_cert_quorum_validation
}
criterion_main!(benches);
