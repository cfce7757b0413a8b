//! Per-node signatures and the verification key registry.
//!
//! ## Substitution note (see `docs/ARCHITECTURE.md`, "Real-crypto hot path")
//!
//! The paper's prototype uses ed25519 digital signatures. This reproduction
//! uses HMAC-SHA-256 tags under per-node keys that are derived
//! deterministically from a deployment master seed, and verifies them through
//! a [`KeyRegistry`] holding the same seed. That is a *shared-secret* scheme:
//! every holder of the registry can compute every node's tag. In the
//! simulator all participants live in one process, where asymmetric keys
//! would add no trust (the adversary either is the process or is modelled by
//! Byzantine behaviour hooks that only sign through their own [`KeyPair`]).
//! The `basil-net` deployment runs each node as its own OS process over TCP
//! and derives the same registry in each from the `--seed` flag, so there the
//! tags authenticate messages between cooperating processes and put the real
//! hashing cost on the hot path, but they are not unforgeable against a
//! participant that misuses the shared seed. Under `CryptoMode::Simulated`
//! the simulator does not compute tags at all and charges the CPU time of
//! signing and verifying from [`crate::cost::CostModel`] (published ed25519
//! latencies); under `CryptoMode::Real`, and always in `basil-net`, the tags
//! are computed and checked, through a per-key [`HmacKey`] so that a root
//! signature costs two SHA-256 compressions.

use crate::digest::Digest;
use crate::hmac::HmacKey;
use basil_common::{FastHashMap, NodeId};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A signature: an HMAC-SHA-256 tag over the message under the signer's key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The node that produced the signature.
    pub signer: NodeId,
    /// The MAC tag.
    pub tag: Digest,
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig[{:?}]{:?}", self.signer, self.tag)
    }
}

/// A node's signing key.
#[derive(Clone)]
pub struct KeyPair {
    node: NodeId,
    key: HmacKey,
}

impl KeyPair {
    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_parts(&[message])
    }

    /// Signs the concatenation of several message parts.
    pub fn sign_parts(&self, parts: &[&[u8]]) -> Signature {
        Signature {
            signer: self.node,
            tag: self.key.mac_parts(parts),
        }
    }

    /// The node this key belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret.
        write!(f, "KeyPair({:?})", self.node)
    }
}

/// Deployment-wide key material: derives per-node keys from a master seed and
/// verifies signatures.
///
/// Cloning is cheap (`Arc` inside); every replica and client in a simulation
/// shares one registry.
#[derive(Clone)]
pub struct KeyRegistry {
    inner: Arc<RegistryInner>,
}

struct RegistryInner {
    /// The master seed as a prepared HMAC key; node secrets are tags under it.
    master: HmacKey,
    /// Verification keys derived and prepared once at deployment build time.
    /// Plain immutable map after construction, so lookups are lock-free and
    /// the registry stays `Sync`. Nodes not listed
    /// here fall back to on-the-fly derivation (an HMAC under the master key
    /// plus the two pad compressions of [`HmacKey::new`] per verification —
    /// the cost the precomputation removes).
    precomputed: FastHashMap<NodeId, HmacKey>,
}

impl KeyRegistry {
    /// Creates a registry from a 64-bit seed (convenient for tests and
    /// deterministic experiments).
    pub fn from_seed(seed: u64) -> Self {
        Self::from_seed_with_nodes(seed, [])
    }

    /// Creates a registry and derives the verification keys of `nodes` up
    /// front. The cluster harness lists every replica and client of the
    /// deployment here, so the per-signature key derivation (an HMAC of its
    /// own) is paid once per node instead of once per verification — the
    /// "one pass per quorum" half of batched certificate validation.
    pub fn from_seed_with_nodes(seed: u64, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut master_seed = [0u8; 32];
        master_seed[..8].copy_from_slice(&seed.to_be_bytes());
        let master = HmacKey::new(&master_seed);
        let precomputed = nodes
            .into_iter()
            .map(|n| (n, derive_key(&master, n)))
            .collect();
        KeyRegistry {
            inner: Arc::new(RegistryInner {
                master,
                precomputed,
            }),
        }
    }

    /// Number of nodes whose verification keys are precomputed.
    pub fn precomputed_nodes(&self) -> usize {
        self.inner.precomputed.len()
    }

    /// Derives the signing key pair for a node.
    pub fn keypair(&self, node: NodeId) -> KeyPair {
        KeyPair {
            node,
            key: self.node_key(node).into_owned(),
        }
    }

    /// Verifies that `sig` is a valid signature by `sig.signer` over `message`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        self.verify_parts(&[message], sig)
    }

    /// Verifies a signature over the concatenation of several message parts.
    pub fn verify_parts(&self, parts: &[&[u8]], sig: &Signature) -> bool {
        let expected = self.node_key(sig.signer).mac_parts(parts);
        // Constant-time comparison is unnecessary in a simulation, but cheap.
        let mut diff = 0u8;
        for (a, b) in expected.as_bytes().iter().zip(sig.tag.as_bytes()) {
            diff |= a ^ b;
        }
        diff == 0
    }

    /// The node's prepared key: precomputed if the node was listed at
    /// construction, derived on the spot otherwise.
    fn node_key(&self, node: NodeId) -> Cow<'_, HmacKey> {
        match self.inner.precomputed.get(&node) {
            Some(key) => Cow::Borrowed(key),
            None => Cow::Owned(derive_key(&self.inner.master, node)),
        }
    }
}

/// A node's key: its 32-byte secret is the master key's tag over the node's
/// encoding.
fn derive_key(master: &HmacKey, node: NodeId) -> HmacKey {
    HmacKey::new(master.mac(&encode_node(node)).as_bytes())
}

impl fmt::Debug for KeyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("KeyRegistry{..}")
    }
}

fn encode_node(node: NodeId) -> [u8; 13] {
    let mut out = [0u8; 13];
    match node {
        NodeId::Client(c) => {
            out[0] = 0x01;
            out[1..9].copy_from_slice(&c.0.to_be_bytes());
        }
        NodeId::Replica(r) => {
            out[0] = 0x02;
            out[1..5].copy_from_slice(&r.shard.0.to_be_bytes());
            out[5..9].copy_from_slice(&r.index.to_be_bytes());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::{ClientId, ReplicaId, ShardId};

    fn client(n: u64) -> NodeId {
        NodeId::Client(ClientId(n))
    }

    fn replica(s: u32, i: u32) -> NodeId {
        NodeId::Replica(ReplicaId::new(ShardId(s), i))
    }

    #[test]
    fn sign_verify_round_trip() {
        let reg = KeyRegistry::from_seed(42);
        let kp = reg.keypair(replica(0, 3));
        let sig = kp.sign(b"prepare tx 17");
        assert!(reg.verify(b"prepare tx 17", &sig));
    }

    #[test]
    fn precomputed_registry_is_equivalent_to_derived() {
        let nodes = [replica(0, 0), replica(0, 1), client(7)];
        let plain = KeyRegistry::from_seed(42);
        let pre = KeyRegistry::from_seed_with_nodes(42, nodes);
        assert_eq!(pre.precomputed_nodes(), 3);
        for n in nodes {
            let sig = plain.keypair(n).sign(b"msg");
            assert_eq!(sig, pre.keypair(n).sign(b"msg"));
            assert!(pre.verify(b"msg", &sig));
        }
        // A node outside the precomputed set still verifies (fallback
        // derivation).
        let other = client(99);
        let sig = pre.keypair(other).sign(b"msg");
        assert!(pre.verify(b"msg", &sig));
    }

    #[test]
    fn verification_fails_for_tampered_message() {
        let reg = KeyRegistry::from_seed(42);
        let kp = reg.keypair(client(9));
        let sig = kp.sign(b"commit");
        assert!(!reg.verify(b"abort", &sig));
    }

    #[test]
    fn verification_fails_for_wrong_claimed_signer() {
        let reg = KeyRegistry::from_seed(42);
        let kp = reg.keypair(replica(0, 1));
        let mut sig = kp.sign(b"vote");
        // A Byzantine node claims the signature came from replica 2.
        sig.signer = replica(0, 2);
        assert!(!reg.verify(b"vote", &sig));
    }

    #[test]
    fn different_nodes_have_different_keys() {
        let reg = KeyRegistry::from_seed(1);
        let s1 = reg.keypair(replica(0, 0)).sign(b"m");
        let s2 = reg.keypair(replica(0, 1)).sign(b"m");
        let s3 = reg.keypair(client(0)).sign(b"m");
        assert_ne!(s1.tag, s2.tag);
        assert_ne!(s1.tag, s3.tag);
    }

    #[test]
    fn different_seeds_give_different_keys() {
        let a = KeyRegistry::from_seed(1).keypair(client(5)).sign(b"m");
        let b = KeyRegistry::from_seed(2).keypair(client(5)).sign(b"m");
        assert_ne!(a.tag, b.tag);
    }

    #[test]
    fn sign_parts_matches_concatenated_sign() {
        let reg = KeyRegistry::from_seed(7);
        let kp = reg.keypair(client(1));
        let a = kp.sign(b"hello world");
        let b = kp.sign_parts(&[b"hello", b" ", b"world"]);
        assert_eq!(a, b);
        assert!(reg.verify_parts(&[b"hello world"], &b));
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let reg = KeyRegistry::from_seed(3);
        let kp = reg.keypair(client(1));
        let dbg = format!("{kp:?}");
        assert!(!dbg.contains("secret"));
        assert_eq!(dbg, "KeyPair(c1)");
    }
}
