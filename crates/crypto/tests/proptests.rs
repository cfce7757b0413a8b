//! Property-based tests for the cryptographic substrate.

use basil_common::{ClientId, NodeId, ReplicaId, ShardId};
use basil_crypto::{
    sign_frontier, BatchProof, KeyRegistry, MerkleFrontier, MerkleTree, Sha256, SignatureCache,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental hashing over arbitrary chunkings equals one-shot hashing.
    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                         chunk in 1usize..512) {
        let mut hasher = Sha256::new();
        for part in data.chunks(chunk) {
            hasher.update(part);
        }
        prop_assert_eq!(hasher.finalize(), Sha256::digest(&data));
    }

    /// Distinct inputs produce distinct digests (no accidental collisions in
    /// the generated sample).
    #[test]
    fn sha256_distinct_inputs_distinct_digests(a in proptest::collection::vec(any::<u8>(), 0..256),
                                               b in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(a != b);
        prop_assert_ne!(Sha256::digest(&a), Sha256::digest(&b));
    }

    /// Every leaf of an arbitrary batch yields a valid inclusion proof, and
    /// proofs do not validate against other payloads in the batch.
    #[test]
    fn merkle_proofs_round_trip(leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..40),
                                probe in any::<proptest::sample::Index>()) {
        let tree = MerkleTree::build(&leaves);
        let index = probe.index(leaves.len());
        let proof = tree.prove(index);
        prop_assert!(proof.verify(&leaves[index], &tree.root()));
        // A proof transplanted onto a different payload fails unless the
        // payloads are identical.
        let other = (index + 1) % leaves.len();
        if leaves[other] != leaves[index] {
            prop_assert!(!proof.verify(&leaves[other], &tree.root()));
        }
    }

    /// Signatures verify only for the signing node and the exact payload.
    #[test]
    fn signatures_bind_signer_and_payload(seed in any::<u64>(),
                                          payload in proptest::collection::vec(any::<u8>(), 0..128),
                                          tamper in proptest::collection::vec(any::<u8>(), 0..128)) {
        let registry = KeyRegistry::from_seed(seed);
        let signer = NodeId::Replica(ReplicaId::new(ShardId(0), 3));
        let proof = BatchProof::sign_single(&registry.keypair(signer), &payload);
        let mut cache = SignatureCache::new();
        prop_assert!(proof.verify(&payload, &registry, &mut cache).valid);
        if tamper != payload {
            let mut cache = SignatureCache::new();
            prop_assert!(!proof.verify(&tamper, &registry, &mut cache).valid);
        }
        // A different deployment (different master seed) rejects it.
        let other_registry = KeyRegistry::from_seed(seed.wrapping_add(1));
        let mut cache = SignatureCache::new();
        prop_assert!(!proof.verify(&payload, &other_registry, &mut cache).valid);
    }

    /// Batch signing: every reply of an arbitrary stream cut into batches of
    /// an arbitrary size (the last one partial) verifies.
    #[test]
    fn batch_signer_covers_every_reply(payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..48), 1..32),
                                       batch_size in 1usize..8) {
        let registry = KeyRegistry::from_seed(9);
        let keypair = registry.keypair(NodeId::Client(ClientId(1)));
        let mut frontier = MerkleFrontier::new();
        let mut signed: Vec<BatchProof> = Vec::new();
        for batch in payloads.chunks(batch_size) {
            frontier.reset();
            for payload in batch {
                frontier.append(payload);
            }
            signed.extend(sign_frontier(&keypair, &mut frontier));
        }
        prop_assert_eq!(signed.len(), payloads.len());
        let mut cache = SignatureCache::new();
        for (payload, proof) in payloads.iter().zip(&signed) {
            prop_assert!(proof.verify(payload, &registry, &mut cache).valid);
        }
    }
}
