//! Reply batching and the signature cache (Section 4.4, Figure 2).
//!
//! Basil has no central sequencer, so batching happens at each replica after
//! message processing: the replica collects `b` pending reply payloads, builds
//! a Merkle tree over them, signs only the root, and sends every client its
//! reply plus (root, signature, sibling path). Verifiers recompute the root
//! from the reply and the path, verify the root signature once, and cache the
//! (root, signature) pair so other replies from the same batch verify with a
//! hash-only check.

use crate::digest::Digest;
use crate::merkle::{leaf_hash, MerkleFrontier, MerkleProof};
use crate::sig::{KeyPair, KeyRegistry, Signature};
use basil_common::{BoundedFifoMap, NodeId};

/// Everything a recipient needs to authenticate one reply out of a batch.
#[derive(Clone, Debug)]
pub struct BatchProof {
    /// Root of the batch's Merkle tree.
    pub root: Digest,
    /// The replica's signature over the root.
    pub root_signature: Signature,
    /// Inclusion proof tying the recipient's reply to the root.
    pub inclusion: MerkleProof,
    /// Number of replies that shared this signature (for accounting/metrics).
    pub batch_size: usize,
}

impl BatchProof {
    /// Signs a single payload, producing a one-leaf "batch". This is how
    /// clients (which have nothing to batch) and unbatched replicas sign
    /// messages, so the whole protocol uses one proof type.
    pub fn sign_single(keypair: &KeyPair, payload: &[u8]) -> BatchProof {
        // The root of a one-leaf tree is the leaf hash; no tree is built.
        let root = leaf_hash(payload);
        BatchProof {
            root,
            root_signature: keypair.sign(root.as_bytes()),
            inclusion: MerkleProof::single_leaf(),
            batch_size: 1,
        }
    }

    /// The node that signed the batch root.
    pub fn signer(&self) -> NodeId {
        self.root_signature.signer
    }

    /// Verifies this proof for `reply_payload`, using (and updating) the
    /// verifier's signature cache. Returns `true` when the reply is
    /// authenticated, along with whether a signature verification was
    /// actually performed (`false` on a cache hit) so callers can charge the
    /// appropriate CPU cost.
    pub fn verify(
        &self,
        reply_payload: &[u8],
        registry: &KeyRegistry,
        cache: &mut SignatureCache,
    ) -> BatchVerifyOutcome {
        let computed_root = self.inclusion.compute_root(reply_payload);
        if computed_root != self.root {
            return BatchVerifyOutcome::invalid();
        }
        if cache.contains(&self.root, &self.root_signature) {
            return BatchVerifyOutcome {
                valid: true,
                signature_checked: false,
            };
        }
        let ok = registry.verify(self.root.as_bytes(), &self.root_signature);
        if ok {
            cache.insert(self.root, self.root_signature);
        }
        BatchVerifyOutcome {
            valid: ok,
            signature_checked: true,
        }
    }

    /// Verifies this proof for `payload` with a full signature check,
    /// neither consulting nor updating a cache: for a proof its one
    /// recipient checks once (a request MAC), whose root no later message
    /// shares, so caching it would only evict roots that do pay off.
    pub fn verify_uncached(&self, payload: &[u8], registry: &KeyRegistry) -> bool {
        self.inclusion.compute_root(payload) == self.root
            && registry.verify(self.root.as_bytes(), &self.root_signature)
    }
}

/// Result of verifying a batched reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchVerifyOutcome {
    /// Whether the reply is authentic.
    pub valid: bool,
    /// Whether a full signature verification was performed (false on a
    /// signature-cache hit, where only hashing was needed).
    pub signature_checked: bool,
}

impl BatchVerifyOutcome {
    fn invalid() -> Self {
        BatchVerifyOutcome {
            valid: false,
            signature_checked: false,
        }
    }
}

/// Signs the batch of replies appended to `frontier`: seals it (an
/// `O(log b)` right-edge walk — every append already folded its leaf in),
/// signs the root once, and yields each reply's proof in append order. The
/// caller resets the frontier before the next batch. Panics on an empty
/// frontier.
pub fn sign_frontier<'a>(
    keypair: &KeyPair,
    frontier: &'a mut MerkleFrontier,
) -> impl Iterator<Item = BatchProof> + 'a {
    let sealed = frontier.seal();
    let root = sealed.root();
    let root_signature = keypair.sign(root.as_bytes());
    let batch_size = sealed.leaf_count();
    (0..batch_size).map(move |i| BatchProof {
        root,
        root_signature,
        inclusion: sealed.prove(i),
        batch_size,
    })
}

/// A verifier-side cache mapping Merkle roots to already-verified signatures.
///
/// When a replica later receives another message carrying the same root and
/// signature (i.e. another reply from the same batch), it can skip the
/// signature verification after checking the root recomputation.
///
/// The cache is **bounded**: batch roots only ever pay off while their batch
/// is in flight, so entries are evicted in insertion (FIFO) order once
/// [`SignatureCache::capacity`] is reached. Without the bound the map grows
/// by one root per batch for the lifetime of a node. Roots are SHA-256
/// digests, so the map uses `basil_common::fasthash` instead of SipHash.
#[derive(Debug)]
pub struct SignatureCache {
    /// The verified `(root, signature)` pairs, FIFO-bounded by
    /// [`BoundedFifoMap`].
    verified: BoundedFifoMap<Digest, Signature>,
}

impl Default for SignatureCache {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl SignatureCache {
    /// Default bound on cached roots. A batch's proofs arrive within one
    /// round trip of each other, so the working set at any moment is roughly
    /// (in-flight batches x peers); 8192 roots (~0.75 MiB) is far above that
    /// for every deployment in the evaluation while keeping a long-running
    /// node's memory flat.
    pub const DEFAULT_CAPACITY: usize = 8192;

    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache bounded to `capacity` roots (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        SignatureCache {
            verified: BoundedFifoMap::with_capacity(capacity),
        }
    }

    /// Returns true if `(root, sig)` was verified before.
    pub fn contains(&self, root: &Digest, sig: &Signature) -> bool {
        self.verified.get(root) == Some(sig)
    }

    /// Records a successfully verified root signature, evicting the oldest
    /// entry if the cache is full.
    pub fn insert(&mut self, root: Digest, sig: Signature) {
        self.verified.insert(root, sig);
    }

    /// Fused [`SignatureCache::contains`] + [`SignatureCache::insert`]:
    /// returns whether `(root, sig)` was already verified, recording it if
    /// not — identical eviction behaviour to the two-call sequence, at one
    /// hash lookup instead of two. This is the simulated-crypto hot path
    /// (one call per verification).
    pub fn check_insert(&mut self, root: Digest, sig: Signature) -> bool {
        self.verified
            .check_insert(root, sig, |cached| *cached == sig)
    }

    /// Number of entries evicted to keep the cache within its capacity.
    pub fn evictions(&self) -> u64 {
        self.verified.evictions()
    }

    /// The configured bound on cached roots.
    pub fn capacity(&self) -> usize {
        self.verified.capacity()
    }

    /// Number of distinct roots cached.
    pub fn len(&self) -> usize {
        self.verified.len()
    }

    /// True if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.verified.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::{ReplicaId, ShardId};

    fn replica_node() -> NodeId {
        NodeId::Replica(ReplicaId::new(ShardId(0), 0))
    }

    /// One signed batch over `payloads` under `keypair`.
    fn sign_batch(keypair: &KeyPair, payloads: &[&[u8]]) -> Vec<BatchProof> {
        let mut frontier = MerkleFrontier::new();
        for payload in payloads {
            frontier.append(payload);
        }
        sign_frontier(keypair, &mut frontier).collect()
    }

    fn setup() -> (KeyPair, KeyRegistry) {
        let reg = KeyRegistry::from_seed(99);
        (reg.keypair(replica_node()), reg)
    }

    #[test]
    fn batch_of_one_signs_immediately() {
        let (keypair, reg) = setup();
        let out = sign_batch(&keypair, &[b"reply"]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].batch_size, 1);
        let mut cache = SignatureCache::new();
        let outcome = out[0].verify(b"reply", &reg, &mut cache);
        assert!(outcome.valid);
        assert!(outcome.signature_checked);
        // A one-leaf batch is exactly what `sign_single` produces.
        let single = BatchProof::sign_single(&keypair, b"reply");
        assert_eq!(out[0].root, single.root);
        assert_eq!(out[0].root_signature, single.root_signature);
        assert_eq!(out[0].inclusion, single.inclusion);
    }

    #[test]
    fn batch_flushes_when_full_and_all_replies_verify() {
        let (keypair, reg) = setup();
        let payloads: [&[u8]; 4] = [b"r1", b"r2", b"r3", b"r4"];
        let out = sign_batch(&keypair, &payloads);
        assert_eq!(out.len(), 4);
        let mut cache = SignatureCache::new();
        for (i, (proof, payload)) in out.iter().zip(payloads).enumerate() {
            assert_eq!(proof.batch_size, 4);
            assert_eq!(proof.root_signature, out[0].root_signature, "one signature");
            assert!(proof.verify(payload, &reg, &mut cache).valid, "reply {i}");
        }
    }

    #[test]
    fn signature_cache_skips_repeat_verification() {
        let (keypair, reg) = setup();
        let out = sign_batch(&keypair, &[b"a", b"b", b"c"]);
        let mut cache = SignatureCache::new();
        let first = out[0].verify(b"a", &reg, &mut cache);
        assert!(first.valid && first.signature_checked);
        let second = out[1].verify(b"b", &reg, &mut cache);
        assert!(
            second.valid && !second.signature_checked,
            "should hit cache"
        );
        let third = out[2].verify(b"c", &reg, &mut cache);
        assert!(third.valid && !third.signature_checked);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn tampered_reply_is_rejected_before_signature_check() {
        let (keypair, reg) = setup();
        let out = sign_batch(&keypair, &[b"honest", b"other"]);
        let mut cache = SignatureCache::new();
        let outcome = out[0].verify(b"forged", &reg, &mut cache);
        assert!(!outcome.valid);
        assert!(!outcome.signature_checked, "root mismatch short-circuits");
    }

    #[test]
    fn signature_from_wrong_replica_is_rejected() {
        let reg = KeyRegistry::from_seed(99);
        let other_key = reg.keypair(NodeId::Replica(ReplicaId::new(ShardId(0), 5)));
        let out = sign_batch(&other_key, &[b"reply"]);
        // Forge the claimed signer: verification must fail because the tag
        // was produced under replica 5's key.
        let mut proof = out[0].clone();
        proof.root_signature.signer = replica_node();
        let mut cache = SignatureCache::new();
        assert!(!proof.verify(b"reply", &reg, &mut cache).valid);
    }

    /// A batch cut short (the replica's batch timer) is a smaller batch: the
    /// frontier is sealed at whatever it holds, and is reusable after a
    /// reset.
    #[test]
    fn manual_flush_on_timeout_signs_partial_batch() {
        let (keypair, reg) = setup();
        let mut frontier = MerkleFrontier::new();
        frontier.append(b"x");
        frontier.append(b"y");
        let out: Vec<BatchProof> = sign_frontier(&keypair, &mut frontier).collect();
        assert_eq!(out.len(), 2);
        let mut cache = SignatureCache::new();
        assert!(out[0].verify(b"x", &reg, &mut cache).valid);
        assert!(out[1].verify(b"y", &reg, &mut cache).valid);
        frontier.reset();
        assert!(frontier.is_empty(), "nothing left to sign");
        frontier.append(b"z");
        let next: Vec<BatchProof> = sign_frontier(&keypair, &mut frontier).collect();
        assert_eq!(next.len(), 1);
        assert!(next[0].verify(b"z", &reg, &mut cache).valid);
    }

    #[test]
    fn cache_is_bounded_with_fifo_eviction() {
        let reg = KeyRegistry::from_seed(3);
        let kp = reg.keypair(replica_node());
        let mut cache = SignatureCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let proofs: Vec<BatchProof> = (0..3u8)
            .map(|i| BatchProof::sign_single(&kp, &[i]))
            .collect();
        for p in &proofs {
            cache.insert(p.root, p.root_signature);
        }
        // Capacity 2: the oldest root (proofs[0]) was evicted.
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(!cache.contains(&proofs[0].root, &proofs[0].root_signature));
        assert!(cache.contains(&proofs[1].root, &proofs[1].root_signature));
        assert!(cache.contains(&proofs[2].root, &proofs[2].root_signature));
        // An evicted root re-verifies and re-enters the cache.
        assert!(proofs[0].verify(&[0u8], &reg, &mut cache).signature_checked);
        assert!(cache.contains(&proofs[0].root, &proofs[0].root_signature));
    }

    #[test]
    fn reinserting_a_cached_root_does_not_evict() {
        let reg = KeyRegistry::from_seed(4);
        let kp = reg.keypair(replica_node());
        let mut cache = SignatureCache::with_capacity(2);
        let a = BatchProof::sign_single(&kp, b"a");
        let b = BatchProof::sign_single(&kp, b"b");
        cache.insert(a.root, a.root_signature);
        cache.insert(b.root, b.root_signature);
        cache.insert(a.root, a.root_signature); // refresh, not a new entry
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.contains(&b.root, &b.root_signature));
    }

    #[test]
    fn default_capacity_absorbs_a_full_run_without_evictions() {
        let mut cache = SignatureCache::new();
        assert_eq!(cache.capacity(), SignatureCache::DEFAULT_CAPACITY);
        assert!(cache.is_empty());
        // The 96-client bench run produces ~1k-2k distinct batch roots per
        // replica per window; insert double that and require zero evictions,
        // and require that an early root still hits afterwards.
        let reg = KeyRegistry::from_seed(6);
        let kp = reg.keypair(replica_node());
        let first = BatchProof::sign_single(&kp, &0u32.to_be_bytes());
        for i in 0u32..4096 {
            let p = BatchProof::sign_single(&kp, &i.to_be_bytes());
            cache.insert(p.root, p.root_signature);
        }
        assert_eq!(cache.evictions(), 0);
        assert!(cache.contains(&first.root, &first.root_signature));
    }

    #[test]
    fn sign_single_round_trip() {
        let reg = KeyRegistry::from_seed(5);
        let kp = reg.keypair(replica_node());
        let proof = BatchProof::sign_single(&kp, b"vote: commit tx 9");
        assert_eq!(proof.batch_size, 1);
        assert_eq!(proof.signer(), replica_node());
        let mut cache = SignatureCache::new();
        assert!(proof.verify(b"vote: commit tx 9", &reg, &mut cache).valid);
        assert!(!proof.verify(b"vote: abort tx 9", &reg, &mut cache).valid);
    }

    #[test]
    fn amortization_ratio_matches_batch_size() {
        let (keypair, _reg) = setup();
        let mut frontier = MerkleFrontier::new();
        let mut proofs = Vec::new();
        for round in 0..4 {
            frontier.reset();
            for i in 0..8 {
                frontier.append(format!("p{round}-{i}").as_bytes());
            }
            proofs.extend(sign_frontier(&keypair, &mut frontier));
        }
        assert_eq!(proofs.len(), 32, "replies signed");
        assert!(proofs.iter().all(|p| p.batch_size == 8));
        let mut roots: Vec<Digest> = proofs.iter().map(|p| p.root).collect();
        roots.dedup();
        assert_eq!(roots.len(), 4, "signatures produced");
    }
}
