//! Identifiers for participants, shards, and transactions.

use std::fmt;

/// Identifier of a client process.
///
/// Clients drive transaction execution in Basil; a client identifier is also
/// embedded in every [`crate::Timestamp`] to make timestamps globally unique
/// and totally ordered.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u64);

/// Identifier of a data shard (a partition of the key space).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShardId(pub u32);

/// Identifier of a replica: the shard it belongs to and its index within the
/// shard (`0..n`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId {
    /// Shard this replica stores.
    pub shard: ShardId,
    /// Index of the replica within its shard, in `0..n`.
    pub index: u32,
}

impl ReplicaId {
    /// Creates a replica identifier.
    pub fn new(shard: ShardId, index: u32) -> Self {
        ReplicaId { shard, index }
    }
}

/// A network endpoint: either a client or a replica.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// A client node.
    Client(ClientId),
    /// A replica node.
    Replica(ReplicaId),
}

impl NodeId {
    /// Returns the replica identifier if this node is a replica.
    pub fn as_replica(&self) -> Option<ReplicaId> {
        match self {
            NodeId::Replica(r) => Some(*r),
            NodeId::Client(_) => None,
        }
    }

    /// Returns true if this node is a client.
    pub fn is_client(&self) -> bool {
        matches!(self, NodeId::Client(_))
    }
}

impl From<ClientId> for NodeId {
    fn from(c: ClientId) -> Self {
        NodeId::Client(c)
    }
}

impl From<ReplicaId> for NodeId {
    fn from(r: ReplicaId) -> Self {
        NodeId::Replica(r)
    }
}

/// Transaction identifier.
///
/// In Basil the transaction id is a cryptographic hash of the transaction's
/// metadata (timestamp, read set, write set, dependency set), so a Byzantine
/// client can neither spoof the set of involved shards nor equivocate the
/// transaction's contents (Section 4.2, step 1). The 32-byte digest is
/// produced by `basil-crypto`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct TxId(pub [u8; 32]);

/// A `TxId` is always a SHA-256 content hash (or the all-zero genesis id):
/// its bytes are uniformly distributed, so hash tables keyed by `TxId` —
/// replica records, the store's transaction table, client tallies, all
/// on the hot path — only need the first eight bytes. Consistent with
/// `Eq`: equal ids have equal prefixes. (This is deliberately *not* done
/// for `basil_crypto::Digest`: simulated-mode batch roots encode a
/// per-engine counter in their leading bytes, and prefix-hashing those
/// collides every engine's nth root with every other's.)
impl std::hash::Hash for TxId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from_le_bytes(
            self.0[..8].try_into().expect("8-byte prefix"),
        ));
    }
}

impl TxId {
    /// Builds a transaction id directly from raw digest bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        TxId(bytes)
    }

    /// Returns the raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Interprets the leading 8 bytes of the digest as a big-endian integer.
    ///
    /// Used for deterministic choices keyed on the transaction id, such as
    /// selecting the logging shard (`S_log`) and the round-robin fallback
    /// leader (`id_T mod n`).
    pub fn as_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest has at least 8 bytes"))
    }

    /// Short hexadecimal prefix, convenient for debugging output.
    pub fn short_hex(&self) -> String {
        self.0[..6].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Debug for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Debug for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}r{}", self.shard, self.index)
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}r{}", self.shard, self.index)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Client(c) => write!(f, "{c:?}"),
            NodeId::Replica(r) => write!(f, "{r:?}"),
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx:{}", self.short_hex())
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip() {
        let c = ClientId(7);
        let r = ReplicaId::new(ShardId(2), 3);
        let nc: NodeId = c.into();
        let nr: NodeId = r.into();
        assert_eq!(nc.as_replica(), None);
        assert_eq!(nr.as_replica(), Some(r));
        assert!(nc.is_client());
        assert!(!nr.is_client());
    }

    #[test]
    fn txid_as_u64_uses_leading_bytes() {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&42u64.to_be_bytes());
        assert_eq!(TxId::from_bytes(bytes).as_u64(), 42);
    }

    #[test]
    fn txid_short_hex_is_stable() {
        let mut bytes = [0u8; 32];
        bytes[0] = 0xab;
        bytes[1] = 0xcd;
        let id = TxId::from_bytes(bytes);
        assert!(id.short_hex().starts_with("abcd"));
        assert_eq!(format!("{id}"), format!("{id:?}"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ClientId(3)), "c3");
        assert_eq!(format!("{}", ShardId(1)), "s1");
        assert_eq!(format!("{}", ReplicaId::new(ShardId(1), 4)), "s1r4");
    }

    #[test]
    fn replica_ordering_is_by_shard_then_index() {
        let a = ReplicaId::new(ShardId(0), 5);
        let b = ReplicaId::new(ShardId(1), 0);
        assert!(a < b);
        let c = ReplicaId::new(ShardId(1), 1);
        assert!(b < c);
    }
}
