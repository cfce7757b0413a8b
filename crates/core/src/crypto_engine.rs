//! Signing and verification with CPU-cost accounting.
//!
//! Every protocol participant owns a [`SigEngine`]. The engine produces and
//! checks [`BatchProof`]s (single-leaf proofs for unbatched messages) and
//! returns, alongside each artifact or verdict, the CPU [`Duration`] the
//! operation would cost on the paper's testbed, which the caller charges to
//! its simulated node. In [`CryptoMode::Simulated`] the arithmetic is skipped
//! but the cost is still charged, keeping benchmark wall-clock time low
//! without changing simulated results.

use crate::config::{BasilConfig, CryptoMode};
use basil_common::codec::{Len, Sink};
use basil_common::{Duration, NodeId};
use basil_crypto::batch::BatchVerifyOutcome;
use basil_crypto::merkle::MerkleProof;
use basil_crypto::sig::Signature;
use basil_crypto::{
    sign_frontier, BatchProof, CostModel, Digest, KeyPair, KeyRegistry, MerkleFrontier,
    SignatureCache,
};

/// The CPU cost every engine charges.
const COST: CostModel = CostModel::ed25519_default();

/// A canonical signable encoding, producible lazily.
///
/// The engine charges CPU costs from the payload *length* and only hashes
/// the payload bytes when the deployment runs real cryptography
/// ([`CryptoMode::Real`]). A message body writes its encoding once, to any
/// [`Sink`]: [`SignedPayload::to_bytes`] collects it and
/// [`SignedPayload::encoded_len`] counts it through [`Len`], so the charged
/// size cannot disagree with the signed bytes and the simulated-crypto hot
/// path — every figure experiment — never materializes an encoding at all.
pub trait SignedPayload {
    /// Writes the canonical encoding the signature covers.
    fn write_signed(&self, out: &mut impl Sink);

    /// Exact length of [`SignedPayload::to_bytes`]'s result.
    fn encoded_len(&self) -> usize {
        let mut len = Len(0);
        self.write_signed(&mut len);
        len.0
    }

    /// Materializes the canonical encoding.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write_signed(&mut out);
        out
    }
}

impl SignedPayload for [u8] {
    fn write_signed(&self, out: &mut impl Sink) {
        out.put_bytes(self);
    }
}

impl SignedPayload for Vec<u8> {
    fn write_signed(&self, out: &mut impl Sink) {
        out.put_bytes(self);
    }
}

impl<const N: usize> SignedPayload for [u8; N] {
    fn write_signed(&self, out: &mut impl Sink) {
        out.put_bytes(self);
    }
}

impl<P: SignedPayload + ?Sized> SignedPayload for &P {
    fn write_signed(&self, out: &mut impl Sink) {
        (**self).write_signed(out);
    }
}

/// A node's signing/verification facility.
pub struct SigEngine {
    keypair: KeyPair,
    registry: KeyRegistry,
    cache: SignatureCache,
    mode: CryptoMode,
    enabled: bool,
    /// Counter used to give each simulated-mode signature (or batch of
    /// signatures) a distinct root, so the verifier-side signature cache
    /// behaves as it would with real batches.
    dummy_counter: u64,
    /// Scratch Merkle accumulator reused across [`SigEngine::sign_batch`]
    /// calls, so real-crypto batch signing pays no per-flush tree rebuild
    /// and no steady-state allocation.
    frontier: MerkleFrontier,
    /// Scratch for one payload's signed encoding under real crypto.
    encoding: Vec<u8>,
    /// The proofs [`SigEngine::sign_batch`] hands out; empty between calls.
    proofs: Vec<Option<BatchProof>>,
}

impl SigEngine {
    /// Creates an engine for `node` under the given configuration.
    pub fn new(node: NodeId, registry: KeyRegistry, cfg: &BasilConfig) -> Self {
        SigEngine {
            keypair: registry.keypair(node),
            registry,
            cache: SignatureCache::new(),
            mode: cfg.crypto_mode,
            enabled: cfg.signatures_enabled(),
            dummy_counter: 0,
            frontier: MerkleFrontier::new(),
            encoding: Vec::new(),
            proofs: Vec::new(),
        }
    }

    /// Whether signatures are produced at all (`false` in `NoProofs` runs).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Signs a single payload. Returns `None` (at zero cost) when signatures
    /// are disabled. The payload is only materialized under real crypto.
    pub fn sign<P: SignedPayload + ?Sized>(
        &mut self,
        payload: &P,
    ) -> (Option<BatchProof>, Duration) {
        if !self.enabled {
            return (None, Duration::ZERO);
        }
        let cost = COST.sign + COST.hash_cost(payload.encoded_len());
        let proof = match self.mode {
            CryptoMode::Real => BatchProof::sign_single(&self.keypair, &payload.to_bytes()),
            CryptoMode::Simulated => {
                self.dummy_counter += 1;
                dummy_proof(self.keypair.node(), self.dummy_counter, 1)
            }
        };
        (Some(proof), cost)
    }

    /// Authenticates a client request. Requests only need point-to-point
    /// authentication (a MAC), not transferability, so the CPU cost charged
    /// is the MAC cost rather than a full signature.
    pub fn sign_request<P: SignedPayload + ?Sized>(
        &mut self,
        payload: &P,
    ) -> (Option<BatchProof>, Duration) {
        if !self.enabled {
            return (None, Duration::ZERO);
        }
        let proof = match self.mode {
            CryptoMode::Real => BatchProof::sign_single(&self.keypair, &payload.to_bytes()),
            CryptoMode::Simulated => {
                self.dummy_counter += 1;
                dummy_proof(self.keypair.node(), self.dummy_counter, 1)
            }
        };
        (Some(proof), COST.mac)
    }

    /// Verifies a client request MAC. The payload is only materialized
    /// under real crypto.
    pub fn verify_request<P: SignedPayload + ?Sized>(
        &mut self,
        payload: &P,
        proof: Option<&BatchProof>,
    ) -> (bool, Duration) {
        if !self.enabled {
            return (true, Duration::ZERO);
        }
        let Some(proof) = proof else {
            return (false, Duration::ZERO);
        };
        match self.mode {
            CryptoMode::Real => {
                let outcome = proof.verify(&payload.to_bytes(), &self.registry, &mut self.cache);
                (outcome.valid, COST.mac)
            }
            CryptoMode::Simulated => (true, COST.mac),
        }
    }

    /// Signs a batch of payloads (replica reply batching). Returns one proof
    /// per payload, in payload order, plus the total CPU cost of building
    /// and signing the batch. Payloads are only materialized under real
    /// crypto. The proofs are drained from a buffer the engine reuses across
    /// batches, like its Merkle frontier and encoding scratch.
    pub fn sign_batch<P: SignedPayload>(
        &mut self,
        payloads: &[P],
    ) -> (std::vec::Drain<'_, Option<BatchProof>>, Duration) {
        let n = payloads.len();
        let mut cost = Duration::ZERO;
        if !self.enabled {
            self.proofs.resize(n, None);
        } else if let Some(avg_len) = payloads
            .iter()
            .map(P::encoded_len)
            .sum::<usize>()
            .checked_div(n)
        {
            cost = COST.batch_sign_cost(n, avg_len.max(1));
            match self.mode {
                CryptoMode::Real => {
                    // Incremental frontier instead of a full tree rebuild:
                    // each payload's leaf is folded in as it is encoded, and
                    // sealing only materializes the O(log b) right edge.
                    self.frontier.reset();
                    for payload in payloads {
                        self.encoding.clear();
                        payload.write_signed(&mut self.encoding);
                        self.frontier.append(&self.encoding);
                    }
                    let proofs = sign_frontier(&self.keypair, &mut self.frontier).map(Some);
                    self.proofs.extend(proofs);
                }
                CryptoMode::Simulated => {
                    self.dummy_counter += 1;
                    let proof = dummy_proof(self.keypair.node(), self.dummy_counter, n);
                    self.proofs.extend(std::iter::repeat_n(Some(proof), n));
                }
            }
        }
        (self.proofs.drain(..), cost)
    }

    /// Verifies a signed payload. When `proof` is `None` the message is
    /// accepted only if signatures are disabled deployment-wide. The
    /// payload is only materialized under real crypto; the charged cost is
    /// computed from the same exact length either way.
    pub fn verify<P: SignedPayload + ?Sized>(
        &mut self,
        payload: &P,
        proof: Option<&BatchProof>,
    ) -> (bool, Duration) {
        if !self.enabled {
            return (true, Duration::ZERO);
        }
        let Some(proof) = proof else {
            return (false, Duration::ZERO);
        };
        // A signature-cache hit costs a hash-only check; a miss, a
        // standalone verification.
        let (valid, cached) = match self.mode {
            CryptoMode::Real => {
                let before_hits = self.cache.hits();
                let outcome: BatchVerifyOutcome =
                    proof.verify(&payload.to_bytes(), &self.registry, &mut self.cache);
                let cached = self.cache.hits() > before_hits;
                (outcome.valid, cached && outcome.valid)
            }
            // Structural acceptance; model the cache by root identity (one
            // fused lookup: hit check + miss insert).
            CryptoMode::Simulated => (
                true,
                self.cache.check_insert(proof.root, proof.root_signature),
            ),
        };
        let cost = COST.batch_verify_cost(proof.batch_size, payload.encoded_len().max(1), cached);
        (valid, cost)
    }

    /// [`SigEngine::verify`], and the proof must be `signer`'s: a replica's
    /// vote names the replica casting it, and a signature that verifies under
    /// somebody else's key says nothing about that claim. The verification is
    /// made — and its cost returned — whether or not the signer matches, so
    /// a mislabelled message costs its sender's victim what a forged one does.
    pub fn verify_from<P: SignedPayload + ?Sized>(
        &mut self,
        payload: &P,
        proof: Option<&BatchProof>,
        signer: NodeId,
    ) -> (bool, Duration) {
        let (ok, cost) = self.verify(payload, proof);
        let bound = !self.enabled || proof.is_some_and(|p| p.signer() == signer);
        (ok && bound, cost)
    }

    /// Verifies a set of signed payloads (certificate validation); returns
    /// whether all were valid and the summed cost.
    pub fn verify_all<'a, P: SignedPayload + ?Sized + 'a>(
        &mut self,
        items: impl IntoIterator<Item = (&'a P, Option<&'a BatchProof>)>,
    ) -> (bool, Duration) {
        let mut all_valid = true;
        let mut total = Duration::ZERO;
        for (payload, proof) in items {
            let (ok, cost) = self.verify(payload, proof);
            all_valid &= ok;
            total += cost;
        }
        (all_valid, total)
    }

    /// The per-message (de)serialization overhead from the cost model.
    pub fn message_cost(&self) -> Duration {
        COST.message_cost()
    }

    /// The identity this engine signs as.
    pub fn node(&self) -> NodeId {
        self.keypair.node()
    }
}

/// A placeholder proof used in [`CryptoMode::Simulated`]: structurally valid,
/// never actually checked. The root encodes the signer and a per-engine batch
/// counter so that distinct batches have distinct roots (the verifier-side
/// signature cache then amortizes exactly as it would with real batches).
fn dummy_proof(signer: NodeId, counter: u64, batch_size: usize) -> BatchProof {
    let mut root_bytes = [0u8; 32];
    root_bytes[..8].copy_from_slice(&counter.to_be_bytes());
    match signer {
        NodeId::Client(c) => {
            root_bytes[8] = 1;
            root_bytes[9..17].copy_from_slice(&c.0.to_be_bytes());
        }
        NodeId::Replica(r) => {
            root_bytes[8] = 2;
            root_bytes[9..13].copy_from_slice(&r.shard.0.to_be_bytes());
            root_bytes[13..17].copy_from_slice(&r.index.to_be_bytes());
        }
    }
    BatchProof {
        root: Digest(root_bytes),
        root_signature: Signature {
            signer,
            tag: Digest::ZERO,
        },
        inclusion: MerkleProof::single_leaf(),
        batch_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BasilConfig;
    use basil_common::{ClientId, ReplicaId, ShardId};

    fn replica(i: u32) -> NodeId {
        NodeId::Replica(ReplicaId::new(ShardId(0), i))
    }

    fn engine(mode: CryptoMode, signatures: bool) -> (SigEngine, SigEngine) {
        let mut cfg = BasilConfig::test_single_shard();
        cfg.crypto_mode = mode;
        cfg.system.signatures = signatures;
        let registry = KeyRegistry::from_seed(7);
        (
            SigEngine::new(replica(0), registry.clone(), &cfg),
            SigEngine::new(NodeId::Client(ClientId(1)), registry, &cfg),
        )
    }

    #[test]
    fn real_mode_signs_and_verifies() {
        let (mut signer, mut verifier) = engine(CryptoMode::Real, true);
        let (proof, sign_cost) = signer.sign(b"vote");
        assert!(sign_cost > Duration::ZERO);
        let (ok, verify_cost) = verifier.verify(b"vote", proof.as_ref());
        assert!(ok);
        assert!(verify_cost > Duration::ZERO);
        let (bad, _) = verifier.verify(b"other", proof.as_ref());
        assert!(!bad);
    }

    #[test]
    fn verify_from_binds_the_signature_to_the_claimed_signer() {
        for mode in [CryptoMode::Real, CryptoMode::Simulated] {
            // Fresh verifiers, so both checks meet the same (cold) cache.
            let (mut signer, mut honest) = engine(mode, true);
            let (_, mut lied_to) = engine(mode, true);
            let (proof, _) = signer.sign(b"vote");
            let (ok, cost) = honest.verify_from(b"vote", proof.as_ref(), replica(0));
            assert!(ok, "{mode:?}");
            // Replica 0's signature under a body that claims replica 1.
            let (ok, same_cost) = lied_to.verify_from(b"vote", proof.as_ref(), replica(1));
            assert!(!ok, "{mode:?}");
            assert_eq!(cost, same_cost, "the check is made and charged either way");
            assert!(cost > Duration::ZERO);
            assert!(!honest.verify_from(b"vote", None, replica(0)).0);
        }
        // Signatures off: nothing to bind, nothing charged.
        let (_, mut verifier) = engine(CryptoMode::Real, false);
        assert_eq!(
            verifier.verify_from(b"vote", None, replica(1)),
            (true, Duration::ZERO)
        );
    }

    #[test]
    fn missing_proof_is_rejected_when_signatures_enabled() {
        let (_, mut verifier) = engine(CryptoMode::Real, true);
        let (ok, _) = verifier.verify(b"vote", None);
        assert!(!ok);
    }

    #[test]
    fn disabled_signatures_cost_nothing_and_accept_everything() {
        let (mut signer, mut verifier) = engine(CryptoMode::Real, false);
        let (proof, cost) = signer.sign(b"vote");
        assert!(proof.is_none());
        assert_eq!(cost, Duration::ZERO);
        let (ok, vcost) = verifier.verify(b"vote", None);
        assert!(ok);
        assert_eq!(vcost, Duration::ZERO);
    }

    #[test]
    fn simulated_mode_charges_but_accepts() {
        let (mut signer, mut verifier) = engine(CryptoMode::Simulated, true);
        let (proof, cost) = signer.sign(b"vote");
        assert!(proof.is_some());
        assert!(cost > Duration::ZERO);
        let (ok, vcost) = verifier.verify(b"anything", proof.as_ref());
        assert!(ok);
        assert!(vcost > Duration::ZERO);
    }

    #[test]
    fn batch_signing_amortizes_cost_per_reply() {
        let (mut signer, mut verifier) = engine(CryptoMode::Real, true);
        let payloads: Vec<Vec<u8>> = (0..16).map(|i| format!("reply {i}").into_bytes()).collect();
        let (proofs, batch_cost) = signer.sign_batch(&payloads);
        let proofs: Vec<_> = proofs.collect();
        assert_eq!(proofs.len(), 16);
        let (single, single_cost) = signer.sign(b"reply 0");
        assert!(single.is_some());
        assert!(
            batch_cost < single_cost * 16,
            "batch {batch_cost:?} should be cheaper than 16 individual signatures {:?}",
            single_cost * 16
        );
        // All proofs verify, and the second verification of the same batch
        // hits the signature cache (cheaper).
        let (ok, first_cost) = verifier.verify(&payloads[0], proofs[0].as_ref());
        assert!(ok);
        let (ok, second_cost) = verifier.verify(&payloads[1], proofs[1].as_ref());
        assert!(ok);
        assert!(second_cost < first_cost);
    }

    #[test]
    fn sign_batch_frontier_matches_one_shot_tree() {
        use basil_crypto::MerkleTree;
        let (mut signer, _) = engine(CryptoMode::Real, true);
        let payloads: Vec<Vec<u8>> = (0..13).map(|i| format!("reply {i}").into_bytes()).collect();
        let (proofs, _) = signer.sign_batch(&payloads);
        let tree = MerkleTree::build(&payloads);
        assert_eq!(proofs.len(), 13);
        for (i, proof) in proofs.enumerate() {
            let proof = proof.expect("signed");
            assert_eq!(proof.root, tree.root());
            assert_eq!(proof.inclusion, tree.prove(i));
        }
        // The scratch frontier and proof buffer reset cleanly between
        // batches, also after a batch whose proofs were not all taken.
        let (mut proofs2, _) = signer.sign_batch(&payloads[..5]);
        let tree2 = MerkleTree::build(&payloads[..5]);
        assert_eq!(proofs2.next().flatten().expect("signed").root, tree2.root());
        drop(proofs2);
        let (proofs3, _) = signer.sign_batch(&payloads[..3]);
        assert_eq!(proofs3.len(), 3);
    }

    #[test]
    fn verify_all_aggregates() {
        let (mut signer, mut verifier) = engine(CryptoMode::Real, true);
        let (p1, _) = signer.sign(b"a");
        let (p2, _) = signer.sign(b"b");
        let (ok, cost) = verifier.verify_all([
            (b"a".as_slice(), p1.as_ref()),
            (b"b".as_slice(), p2.as_ref()),
        ]);
        assert!(ok);
        assert!(cost > Duration::ZERO);
        let (ok, _) = verifier.verify_all([
            (b"a".as_slice(), p1.as_ref()),
            (b"tampered".as_slice(), p2.as_ref()),
        ]);
        assert!(!ok);
    }
}
