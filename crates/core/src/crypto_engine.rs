//! Signing and verification with CPU-cost accounting.
//!
//! Every protocol participant owns a [`SigEngine`]. The engine produces and
//! checks [`BatchProof`]s on messages that may become evidence, and MACs (a
//! bare [`Signature`] over the signed encoding) on messages only their one
//! recipient checks. [`SigEngine::verify`] takes only a [`BatchProof`], so a
//! MAC cannot stand in for a vote. The engine meters the CPU [`Duration`]
//! each operation would cost on the paper's testbed, and the actor owning it
//! charges the meter to its simulated node once per callback
//! ([`SigEngine::take_charged`]). In [`CryptoMode::Simulated`] the
//! arithmetic is skipped but the cost is still metered, keeping benchmark
//! wall-clock time low without changing simulated results.
//!
//! Each public operation has one body for both modes. The mode is read only
//! where arithmetic is done (making a MAC, a proof or a placeholder;
//! checking a MAC, a Merkle path or a root signature), so the modes differ
//! in arithmetic alone: both meter the same cost and make the same
//! signature-cache decisions, through the cache's one rule
//! ([`SignatureCache::verify`]).

use crate::config::{BasilConfig, CryptoMode};
use basil_common::codec::{Len, Sink};
use basil_common::{Duration, NodeId, SimTime};
use basil_crypto::{
    sign_frontier, BatchProof, CostModel, Digest, KeyPair, KeyRegistry, MerkleFrontier,
    MerkleProof, Signature, SignatureCache,
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
    /// The (root, signature) pairs known to be valid: those this engine
    /// verified, and every root it signed ([`SigEngine::sign`],
    /// [`SigEngine::sign_batch`]), so a node never pays to verify its own
    /// signature (a replica meets its own vote again in the ST2 evidence
    /// and certificates it validates). That is sound because the cache
    /// remembers only that a pair is valid, which the signer knows: a hit
    /// still needs the identical signature, and a proof's Merkle path is
    /// still recomputed from the leaf it is given, so a forged payload under
    /// an own root is refused. A MAC ([`SigEngine::sign_request`]) has no
    /// root and never enters it.
    cache: SignatureCache,
    mode: CryptoMode,
    enabled: bool,
    /// Counter used to give each simulated-mode proof (or batch of proofs)
    /// a distinct root, so the verifier-side signature cache
    /// behaves as it would with real batches.
    dummy_counter: u64,
    /// The start time, in nanoseconds, of the incarnation this engine signs
    /// for ([`SigEngine::start_incarnation`]), also written into each
    /// simulated-mode root.
    incarnation: u64,
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
            incarnation: 0,
            frontier: MerkleFrontier::new(),
            encoding: Vec::new(),
            proofs: Vec::new(),
            charged: Duration::ZERO,
        }
    }

    /// Marks the engine as signing for the node incarnation that started at
    /// `start`. A node restarted with amnesia gets a fresh engine, whose
    /// counter numbers simulated-mode roots from 1 again; the start time in
    /// those roots keeps them apart from the roots its previous incarnation
    /// handed out, which its peers may still cache, as real roots would be.
    pub fn start_incarnation(&mut self, start: SimTime) {
        self.incarnation = start.as_nanos();
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

    /// Signs a single payload, as a one-leaf batch. Returns `None` (at zero
    /// cost) when signatures are disabled. The payload is only materialized
    /// under real crypto. The root is recorded as verified, like every root
    /// the engine signs.
    pub fn sign<P: SignedPayload + ?Sized>(&mut self, payload: &P) -> Option<BatchProof> {
        if !self.enabled {
            return None;
        }
        self.charged += COST.sign + COST.hash_cost(payload.encoded_len());
        self.batch_proofs(&[payload]);
        let proof = self.proofs.pop().flatten().expect("one payload, one proof");
        self.cache.insert(proof.root, proof.root_signature);
        Some(proof)
    }

    /// Authenticates a message only its recipient checks: a client
    /// request, or a replica's read reply. Such a message needs
    /// point-to-point authentication, not transferability, so it carries a
    /// MAC: one HMAC over its signed encoding (a zero tag under simulated
    /// crypto), metered at the MAC cost rather than a full signature.
    pub fn sign_request<P: SignedPayload + ?Sized>(&mut self, payload: &P) -> Option<Signature> {
        if !self.enabled {
            return None;
        }
        self.charged += COST.mac;
        Some(match self.mode {
            CryptoMode::Real => self.keypair.sign(encode(&mut self.encoding, payload)),
            CryptoMode::Simulated => Signature {
                signer: self.keypair.node(),
                tag: Digest::ZERO,
            },
        })
    }

    /// Verifies a MAC made by [`SigEngine::sign_request`]: a client
    /// request's, or a read reply's. The payload is only materialized under
    /// real crypto. Only this node checks the MAC, and only once, so it is
    /// not cached: an entry would never be hit and would only evict one
    /// that is.
    pub fn verify_request<P: SignedPayload + ?Sized>(
        &mut self,
        payload: &P,
        mac: Option<&Signature>,
    ) -> bool {
        if !self.enabled {
            return true;
        }
        let Some(mac) = mac else {
            return false;
        };
        self.charged += COST.mac;
        match self.mode {
            CryptoMode::Real => self
                .registry
                .verify(encode(&mut self.encoding, payload), mac),
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
            self.batch_proofs(payloads);
            // Every proof of the batch shares one root and signature.
            if let Some(Some(proof)) = self.proofs.first() {
                self.cache.insert(proof.root, proof.root_signature);
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
        // The Merkle path is recomputed on every call; the root signature
        // is checked only on a signature-cache miss. A hit costs a
        // hash-only check; a miss or a refusal, a standalone verification.
        let (mode, registry) = (self.mode, &self.registry);
        let reaches_root = match mode {
            CryptoMode::Real => {
                let leaf = encode(&mut self.encoding, payload);
                proof.inclusion.compute_root(leaf) == proof.root
            }
            CryptoMode::Simulated => true,
        };
        let (valid, cached) = if reaches_root {
            let outcome = self
                .cache
                .verify(proof.root, proof.root_signature, || match mode {
                    CryptoMode::Real => {
                        registry.verify(proof.root.as_bytes(), &proof.root_signature)
                    }
                    CryptoMode::Simulated => true,
                });
            (outcome.valid, !outcome.signature_checked)
        } else {
            (false, false)
        };
        self.charged += COST.batch_verify_cost(
            proof.inclusion.leaf_count,
            payload.encoded_len().max(1),
            cached,
        );
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

    /// Appends one proof per payload of a non-empty batch to `self.proofs`,
    /// all under one root.
    fn batch_proofs<P: SignedPayload>(&mut self, payloads: &[P]) {
        match self.mode {
            CryptoMode::Real => {
                // Incremental frontier instead of a full tree rebuild: each
                // payload's leaf is folded in as it is encoded, and sealing
                // only materializes the O(log b) right edge.
                self.frontier.reset();
                for payload in payloads {
                    self.frontier.append(encode(&mut self.encoding, payload));
                }
                let proofs = sign_frontier(&self.keypair, &mut self.frontier).map(Some);
                self.proofs.extend(proofs);
            }
            CryptoMode::Simulated => {
                self.dummy_counter += 1;
                let (signer, incarnation) = (self.keypair.node(), self.incarnation);
                let proof = dummy_proof(signer, incarnation, self.dummy_counter, payloads.len());
                self.proofs
                    .extend(std::iter::repeat_n(Some(proof), payloads.len()));
            }
        }
    }
}

/// `payload`'s signed encoding, written into `scratch`. A free function so
/// the engine can use its other fields while the encoding is borrowed.
fn encode<'a, P: SignedPayload + ?Sized>(scratch: &'a mut Vec<u8>, payload: &P) -> &'a [u8] {
    scratch.clear();
    payload.write_signed(scratch);
    scratch
}

/// A placeholder proof used in [`CryptoMode::Simulated`]: structurally valid,
/// never actually checked. The root encodes the signer, its incarnation and
/// a per-engine batch counter so that distinct batches have distinct roots,
/// across a node's amnesia restarts too (the verifier-side signature cache
/// then amortizes exactly as it would with real batches). Its inclusion
/// proof states the batch size and holds no siblings.
fn dummy_proof(signer: NodeId, incarnation: u64, counter: u64, leaf_count: usize) -> BatchProof {
    let mut root_bytes = [0u8; 32];
    root_bytes[..8].copy_from_slice(&counter.to_be_bytes());
    root_bytes[17..25].copy_from_slice(&incarnation.to_be_bytes());
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
        inclusion: MerkleProof {
            leaf_count,
            ..MerkleProof::single_leaf()
        },
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

    /// A node never pays to verify its own signature: every root it signs,
    /// singly or in a batch, verifies at the cached cost, in both crypto
    /// modes.
    #[test]
    fn own_roots_verify_at_the_cached_cost() {
        for mode in [CryptoMode::Real, CryptoMode::Simulated] {
            let (mut signer, _) = engine(mode, true);
            let payloads: Vec<Vec<u8>> =
                (0..4).map(|i| format!("reply {i}").into_bytes()).collect();
            let batch: Vec<_> = signer.sign_batch(&payloads).collect();
            let single = signer.sign(b"vote");
            signer.take_charged();
            let checks = [
                (&payloads[2][..], batch[2].as_ref()),
                (&payloads[0][..], batch[0].as_ref()),
                (&b"vote"[..], single.as_ref()),
            ];
            for (payload, proof) in checks {
                assert!(signer.verify(payload, proof), "{mode:?}");
                let size = proof.expect("signed").inclusion.leaf_count;
                assert_eq!(
                    signer.take_charged(),
                    COST.batch_verify_cost(size, payload.len(), true),
                    "{mode:?}"
                );
            }
        }
    }

    /// Trusting its own roots does not let a node accept a forgery under
    /// one: the Merkle path is still recomputed from the payload given, and
    /// a cache hit still needs the identical signature.
    #[test]
    fn a_forgery_under_an_own_root_is_refused() {
        let (mut signer, _) = engine(CryptoMode::Real, true);
        let payloads: Vec<Vec<u8>> = (0..4).map(|i| format!("reply {i}").into_bytes()).collect();
        let batch: Vec<_> = signer.sign_batch(&payloads).collect();
        let single = signer.sign(b"vote");
        // A forged leaf, and a real leaf under another leaf's path.
        assert!(!signer.verify(b"forged", batch[1].as_ref()));
        assert!(!signer.verify(&payloads[0], batch[1].as_ref()));
        assert!(!signer.verify(b"forged", single.as_ref()));
        // An own root with a different signature, then the genuine proof.
        for (payload, proof) in [(&payloads[1][..], &batch[1]), (&b"vote"[..], &single)] {
            let mut forged = proof.clone().expect("signed");
            forged.root_signature.tag = Digest([7; 32]);
            assert!(!signer.verify(payload, Some(&forged)));
            assert!(signer.verify(payload, proof.as_ref()));
        }
    }

    /// A request MAC is checked once, by its one recipient, so verifying
    /// it leaves the signature cache as it was, in both crypto modes, and
    /// costs a MAC. Under real crypto it is refused over another body and
    /// under another signer.
    #[test]
    fn a_verified_request_mac_is_not_cached() {
        for mode in [CryptoMode::Real, CryptoMode::Simulated] {
            let (mut replica, mut client) = engine(mode, true);
            let mac = client.sign_request(b"read");
            let cached = replica.cache.len();
            assert!(replica.verify_request(b"read", mac.as_ref()), "{mode:?}");
            assert_eq!(replica.cache.len(), cached, "{mode:?}");
            assert_eq!(replica.take_charged(), COST.mac, "{mode:?}");
        }
        let (mut verifier, mut client) = engine(CryptoMode::Real, true);
        let mac = client.sign_request(b"read").expect("signatures on");
        assert!(!verifier.verify_request(b"write", Some(&mac)));
        let relabelled = Signature {
            signer: replica(1),
            ..mac
        };
        assert!(!verifier.verify_request(b"read", Some(&relabelled)));
    }

    /// A signature that fails its check is never cached: refused again at
    /// the uncached cost, it leaves the cache as it was, and the genuine
    /// proof of the same root still verifies and is cached after it.
    #[test]
    fn a_refused_signature_is_not_remembered() {
        let (mut signer, mut verifier) = engine(CryptoMode::Real, true);
        let payloads: Vec<Vec<u8>> = (0..4).map(|i| format!("reply {i}").into_bytes()).collect();
        let batch: Vec<_> = signer.sign_batch(&payloads).collect();
        let genuine = batch[0].as_ref().expect("signed");
        let mut tampered = genuine.clone();
        tampered.root_signature.tag = Digest([7; 32]);
        let size = genuine.inclusion.leaf_count;
        let uncached = COST.batch_verify_cost(size, payloads[0].len(), false);
        let cached = verifier.cache.len();
        for _ in 0..2 {
            assert!(!verifier.verify(&payloads[0], Some(&tampered)));
            assert_eq!(verifier.take_charged(), uncached);
            assert_eq!(verifier.cache.len(), cached);
        }
        assert!(verifier.verify(&payloads[0], Some(genuine)));
        assert_eq!(verifier.take_charged(), uncached);
        assert!(verifier.verify(&payloads[1], batch[1].as_ref()));
        assert_eq!(
            verifier.take_charged(),
            COST.batch_verify_cost(size, payloads[1].len(), true)
        );
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
