//! Signing and verification with CPU-cost accounting.
//!
//! Every protocol participant owns a [`SigEngine`]. The engine produces and
//! checks [`BatchProof`]s (single-leaf proofs for unbatched messages) and
//! meters the CPU [`Duration`] each operation would cost on the paper's
//! testbed. The actor owning the engine charges the meter to its simulated
//! node once per callback ([`SigEngine::take_charged`]). In
//! [`CryptoMode::Simulated`] the arithmetic is skipped but the cost is still
//! metered, keeping benchmark wall-clock time low without changing simulated
//! results.

use crate::config::{BasilConfig, CryptoMode};
use basil_common::codec::{Len, Sink};
use basil_common::{Duration, NodeId};
use basil_crypto::merkle::MerkleProof;
use basil_crypto::sig::Signature;
use basil_crypto::{
    sign_frontier, BatchProof, CostModel, Digest, KeyPair, KeyRegistry, MerkleFrontier,
    SignatureCache,
};

/// The CPU cost model every engine meters by.
const COST: CostModel = CostModel::ed25519_default();

/// A canonical signable encoding, producible lazily.
///
/// The engine meters CPU costs from the payload *length* and only hashes
/// the payload bytes when the deployment runs real cryptography
/// ([`CryptoMode::Real`]). A message body writes its encoding once, to any
/// [`Sink`]: [`SignedPayload::to_bytes`] collects it and
/// [`SignedPayload::encoded_len`] counts it through [`Len`], so the metered
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
    /// CPU metered since the last [`SigEngine::take_charged`].
    charged: Duration,
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
            charged: Duration::ZERO,
        }
    }

    /// The CPU metered by signing and verification since the last call, for
    /// the caller to charge to its node; resets the meter.
    pub fn take_charged(&mut self) -> Duration {
        std::mem::take(&mut self.charged)
    }

    /// Whether signatures are produced at all (`false` in `NoProofs` runs).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Signs a single payload. Returns `None` (at zero cost) when signatures
    /// are disabled. The payload is only materialized under real crypto.
    pub fn sign<P: SignedPayload + ?Sized>(&mut self, payload: &P) -> Option<BatchProof> {
        if !self.enabled {
            return None;
        }
        self.charged += COST.sign + COST.hash_cost(payload.encoded_len());
        let proof = match self.mode {
            CryptoMode::Real => BatchProof::sign_single(&self.keypair, &payload.to_bytes()),
            CryptoMode::Simulated => {
                self.dummy_counter += 1;
                dummy_proof(self.keypair.node(), self.dummy_counter, 1)
            }
        };
        Some(proof)
    }

    /// Authenticates a client request. Requests only need point-to-point
    /// authentication (a MAC), not transferability, so the CPU cost metered
    /// is the MAC cost rather than a full signature.
    pub fn sign_request<P: SignedPayload + ?Sized>(&mut self, payload: &P) -> Option<BatchProof> {
        if !self.enabled {
            return None;
        }
        self.charged += COST.mac;
        let proof = match self.mode {
            CryptoMode::Real => BatchProof::sign_single(&self.keypair, &payload.to_bytes()),
            CryptoMode::Simulated => {
                self.dummy_counter += 1;
                dummy_proof(self.keypair.node(), self.dummy_counter, 1)
            }
        };
        Some(proof)
    }

    /// Verifies a client request MAC. The payload is only materialized
    /// under real crypto.
    pub fn verify_request<P: SignedPayload + ?Sized>(
        &mut self,
        payload: &P,
        proof: Option<&BatchProof>,
    ) -> bool {
        if !self.enabled {
            return true;
        }
        let Some(proof) = proof else {
            return false;
        };
        self.charged += COST.mac;
        match self.mode {
            CryptoMode::Real => {
                let outcome = proof.verify(&payload.to_bytes(), &self.registry, &mut self.cache);
                outcome.valid
            }
            CryptoMode::Simulated => true,
        }
    }

    /// Signs a batch of payloads (replica reply batching). Returns one proof
    /// per payload, in payload order, and meters the CPU cost of building
    /// and signing the batch. Payloads are only materialized under real
    /// crypto. The proofs are drained from a buffer the engine reuses across
    /// batches, like its Merkle frontier and encoding scratch.
    pub fn sign_batch<P: SignedPayload>(
        &mut self,
        payloads: &[P],
    ) -> std::vec::Drain<'_, Option<BatchProof>> {
        let n = payloads.len();
        if !self.enabled {
            self.proofs.resize(n, None);
        } else if let Some(avg_len) = payloads
            .iter()
            .map(P::encoded_len)
            .sum::<usize>()
            .checked_div(n)
        {
            self.charged += COST.batch_sign_cost(n, avg_len.max(1));
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
        self.proofs.drain(..)
    }

    /// Verifies a signed payload. When `proof` is `None` the message is
    /// accepted only if signatures are disabled deployment-wide. The
    /// payload is only materialized under real crypto; the metered cost is
    /// computed from the same exact length either way.
    pub fn verify<P: SignedPayload + ?Sized>(
        &mut self,
        payload: &P,
        proof: Option<&BatchProof>,
    ) -> bool {
        if !self.enabled {
            return true;
        }
        let Some(proof) = proof else {
            return false;
        };
        // A signature-cache hit costs a hash-only check; a miss, a
        // standalone verification.
        let (valid, cached) = match self.mode {
            CryptoMode::Real => {
                let outcome = proof.verify(&payload.to_bytes(), &self.registry, &mut self.cache);
                (outcome.valid, outcome.valid && !outcome.signature_checked)
            }
            // Structural acceptance; model the cache by root identity (one
            // fused lookup: hit check + miss insert).
            CryptoMode::Simulated => (
                true,
                self.cache.check_insert(proof.root, proof.root_signature),
            ),
        };
        self.charged +=
            COST.batch_verify_cost(proof.batch_size, payload.encoded_len().max(1), cached);
        valid
    }

    /// [`SigEngine::verify`], and the proof must be `signer`'s: a replica's
    /// vote names the replica casting it, and a signature that verifies under
    /// somebody else's key says nothing about that claim. The verification is
    /// made — and metered — whether or not the signer matches, so a
    /// mislabelled message costs its sender's victim what a forged one does.
    pub fn verify_from<P: SignedPayload + ?Sized>(
        &mut self,
        payload: &P,
        proof: Option<&BatchProof>,
        signer: NodeId,
    ) -> bool {
        let ok = self.verify(payload, proof);
        let bound = !self.enabled || proof.is_some_and(|p| p.signer() == signer);
        ok && bound
    }

    /// The per-message (de)serialization overhead from the cost model.
    pub fn message_cost(&self) -> Duration {
        COST.message_cost()
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
        let proof = signer.sign(b"vote");
        assert!(signer.take_charged() > Duration::ZERO);
        assert_eq!(signer.take_charged(), Duration::ZERO, "taking resets");
        assert!(verifier.verify(b"vote", proof.as_ref()));
        assert!(verifier.take_charged() > Duration::ZERO);
        assert!(!verifier.verify(b"other", proof.as_ref()));
    }

    #[test]
    fn verify_from_binds_the_signature_to_the_claimed_signer() {
        for mode in [CryptoMode::Real, CryptoMode::Simulated] {
            // Fresh verifiers, so both checks meet the same (cold) cache.
            let (mut signer, mut honest) = engine(mode, true);
            let (_, mut lied_to) = engine(mode, true);
            let proof = signer.sign(b"vote");
            assert!(
                honest.verify_from(b"vote", proof.as_ref(), replica(0)),
                "{mode:?}"
            );
            // Replica 0's signature under a body that claims replica 1.
            assert!(
                !lied_to.verify_from(b"vote", proof.as_ref(), replica(1)),
                "{mode:?}"
            );
            let cost = honest.take_charged();
            assert_eq!(
                cost,
                lied_to.take_charged(),
                "the check is made and metered either way"
            );
            assert!(cost > Duration::ZERO);
            assert!(!honest.verify_from(b"vote", None, replica(0)));
        }
        // Signatures off: nothing to bind, nothing metered.
        let (_, mut verifier) = engine(CryptoMode::Real, false);
        assert!(verifier.verify_from(b"vote", None, replica(1)));
        assert_eq!(verifier.take_charged(), Duration::ZERO);
    }

    #[test]
    fn missing_proof_is_rejected_when_signatures_enabled() {
        let (_, mut verifier) = engine(CryptoMode::Real, true);
        assert!(!verifier.verify(b"vote", None));
    }

    #[test]
    fn disabled_signatures_cost_nothing_and_accept_everything() {
        let (mut signer, mut verifier) = engine(CryptoMode::Real, false);
        assert!(signer.sign(b"vote").is_none());
        assert_eq!(signer.take_charged(), Duration::ZERO);
        assert!(verifier.verify(b"vote", None));
        assert_eq!(verifier.take_charged(), Duration::ZERO);
    }

    #[test]
    fn simulated_mode_charges_but_accepts() {
        let (mut signer, mut verifier) = engine(CryptoMode::Simulated, true);
        let proof = signer.sign(b"vote");
        assert!(proof.is_some());
        assert!(signer.take_charged() > Duration::ZERO);
        assert!(verifier.verify(b"anything", proof.as_ref()));
        assert!(verifier.take_charged() > Duration::ZERO);
    }

    #[test]
    fn batch_signing_amortizes_cost_per_reply() {
        let (mut signer, mut verifier) = engine(CryptoMode::Real, true);
        let payloads: Vec<Vec<u8>> = (0..16).map(|i| format!("reply {i}").into_bytes()).collect();
        let proofs: Vec<_> = signer.sign_batch(&payloads).collect();
        assert_eq!(proofs.len(), 16);
        let batch_cost = signer.take_charged();
        assert!(signer.sign(b"reply 0").is_some());
        let single_cost = signer.take_charged();
        assert!(
            batch_cost < single_cost * 16,
            "batch {batch_cost:?} should be cheaper than 16 individual signatures {:?}",
            single_cost * 16
        );
        // All proofs verify, and the second verification of the same batch
        // hits the signature cache (cheaper).
        assert!(verifier.verify(&payloads[0], proofs[0].as_ref()));
        let first_cost = verifier.take_charged();
        assert!(verifier.verify(&payloads[1], proofs[1].as_ref()));
        assert!(verifier.take_charged() < first_cost);
    }

    #[test]
    fn sign_batch_frontier_matches_one_shot_tree() {
        use basil_crypto::MerkleTree;
        let (mut signer, _) = engine(CryptoMode::Real, true);
        let payloads: Vec<Vec<u8>> = (0..13).map(|i| format!("reply {i}").into_bytes()).collect();
        let proofs = signer.sign_batch(&payloads);
        let tree = MerkleTree::build(&payloads);
        assert_eq!(proofs.len(), 13);
        for (i, proof) in proofs.enumerate() {
            let proof = proof.expect("signed");
            assert_eq!(proof.root, tree.root());
            assert_eq!(proof.inclusion, tree.prove(i));
        }
        // The scratch frontier and proof buffer reset cleanly between
        // batches, also after a batch whose proofs were not all taken.
        let mut proofs2 = signer.sign_batch(&payloads[..5]);
        let tree2 = MerkleTree::build(&payloads[..5]);
        assert_eq!(proofs2.next().flatten().expect("signed").root, tree2.root());
        drop(proofs2);
        assert_eq!(signer.sign_batch(&payloads[..3]).len(), 3);
    }
}
