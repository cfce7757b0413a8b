//! Transaction representation.
//!
//! A Basil transaction `T` carries its timestamp `ts_T`, the set of keys it
//! read together with the version (timestamp) it read for each, the buffered
//! writes it wants to install, and the dependency set `Dep_T`: for every
//! *prepared-but-uncommitted* version the transaction read, the identifier of
//! the transaction that produced it. The transaction identifier `id_T` is a
//! SHA-256 hash over all of this metadata, so a Byzantine client can neither
//! spoof the set of involved shards nor equivocate the contents (Section 4.2).

use basil_common::codec::{DecodeError, Reader, Sink};
use basil_common::config::shard_for_key;
use basil_common::{Key, ShardId, Timestamp, TxId, Value};
use basil_crypto::Sha256;
use std::borrow::Cow;

/// One read performed by a transaction: the key and the timestamp of the
/// version that was read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadOp {
    /// Key that was read.
    pub key: Key,
    /// Timestamp of the version returned by the read (the writer's timestamp;
    /// `Timestamp::ZERO` for the initial value).
    pub version: Timestamp,
}

/// One buffered write of a transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteOp {
    /// Key being written.
    pub key: Key,
    /// New value.
    pub value: Value,
}

/// A write-read dependency: this transaction read `version` of `key`, which
/// was produced by the not-yet-committed transaction `txid`. The dependency
/// must commit before this transaction can.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dependency {
    /// The transaction that produced the version we read.
    pub txid: TxId,
    /// The key whose prepared version was read.
    pub key: Key,
    /// The timestamp of the prepared version (equals the dependency's
    /// transaction timestamp).
    pub version: Timestamp,
}

/// A transaction's metadata, as shipped in `ST1` (prepare) messages.
///
/// Transactions are frozen by [`TransactionBuilder::build`]: the fields are
/// private and only readable, which is what makes the identifier digest and
/// the canonical encoding safely memoizable — the first [`Transaction::id`]
/// or [`Transaction::encoded`] call serializes (and hashes) the metadata,
/// every later call (the replica and store hot paths ask for both on every
/// message) is a copy or a borrow. Cloning a transaction carries both memos
/// along; the protocol itself shares transactions behind `Arc` instead of
/// cloning (see the "Message plane & ownership" section of
/// `docs/ARCHITECTURE.md`).
pub struct Transaction {
    /// The client-chosen timestamp defining the serialization order.
    timestamp: Timestamp,
    /// Keys read, with the versions observed.
    read_set: Vec<ReadOp>,
    /// Buffered writes.
    write_set: Vec<WriteOp>,
    /// Write-read dependencies on prepared, uncommitted transactions.
    deps: Vec<Dependency>,
    /// Largest version claimed by any read, frozen at build time. The MVTSO
    /// prepare compares it against the transaction timestamp once instead of
    /// walking the read set (the read-from-the-future misbehaviour check).
    max_read_version: Timestamp,
    /// Memoized identifier digest.
    cached_id: std::sync::OnceLock<TxId>,
    /// Memoized canonical encoding (the signing payload of `ST1`); computed
    /// once instead of once per recipient and per verification.
    cached_encoding: std::sync::OnceLock<Vec<u8>>,
}

impl Clone for Transaction {
    fn clone(&self) -> Self {
        Transaction {
            timestamp: self.timestamp,
            read_set: self.read_set.clone(),
            write_set: self.write_set.clone(),
            deps: self.deps.clone(),
            max_read_version: self.max_read_version,
            cached_id: self.cached_id.clone(),
            cached_encoding: self.cached_encoding.clone(),
        }
    }
}

impl PartialEq for Transaction {
    fn eq(&self, other: &Self) -> bool {
        // The memo is derived state and excluded from equality.
        self.timestamp == other.timestamp
            && self.read_set == other.read_set
            && self.write_set == other.write_set
            && self.deps == other.deps
    }
}
impl Eq for Transaction {}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("timestamp", &self.timestamp)
            .field("read_set", &self.read_set)
            .field("write_set", &self.write_set)
            .field("deps", &self.deps)
            .finish()
    }
}

impl Transaction {
    /// The transaction identifier: a SHA-256 digest over the canonical
    /// encoding of the metadata, computed once and memoized.
    ///
    /// Deliberately does *not* populate the encoding memo: committed
    /// transactions are retained for the whole run (store indexes, audit
    /// log), and pinning the encoding bytes for every transaction that only
    /// ever needed its id — e.g. the baselines, which never sign `ST1` —
    /// would roughly double their resident size. Signing paths call
    /// [`Transaction::encoded`], which does cache.
    pub fn id(&self) -> TxId {
        *self.cached_id.get_or_init(|| {
            let digest = match self.cached_encoding.get() {
                Some(encoded) => Sha256::digest(encoded),
                None => Sha256::digest(&self.encode_uncached()),
            };
            TxId::from_bytes(*digest.as_bytes())
        })
    }

    /// The client-chosen timestamp defining the serialization order.
    pub fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// Keys read, with the versions observed.
    pub fn read_set(&self) -> &[ReadOp] {
        &self.read_set
    }

    /// Buffered writes.
    pub fn write_set(&self) -> &[WriteOp] {
        &self.write_set
    }

    /// Write-read dependencies on prepared, uncommitted transactions.
    pub fn deps(&self) -> &[Dependency] {
        &self.deps
    }

    /// The largest version claimed by any read (or [`Timestamp::ZERO`] for a
    /// read-free transaction), precomputed when the builder froze the
    /// metadata. `max_read_version() > timestamp()` proves the client claimed
    /// a read from the future.
    pub fn max_read_version(&self) -> Timestamp {
        self.max_read_version
    }

    /// The memoized canonical byte encoding used for hashing and signing.
    ///
    /// The first call serializes the metadata; every later call borrows the
    /// cached bytes. The signed bytes of an `ST1` are rebuilt once per
    /// recipient and once per verifying replica, so memoizing here turns ~12
    /// encodings per prepare fan-out into one encoding plus cheap copies.
    pub fn encoded(&self) -> &[u8] {
        self.cached_encoding.get_or_init(|| self.encode_uncached())
    }

    /// Canonical byte encoding used for hashing and for signing (owned copy;
    /// prefer [`Transaction::encoded`] on hot paths).
    pub fn encode(&self) -> Vec<u8> {
        self.encoded().to_vec()
    }

    fn encode_uncached(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 32 * (self.read_set.len() + self.write_set.len()));
        out.put_ts(self.timestamp);
        out.put_seq(&self.read_set, |out, r| {
            out.put_key(&r.key);
            out.put_ts(r.version);
        });
        out.put_seq(&self.write_set, |out, w| {
            out.put_key(&w.key);
            out.put_value(&w.value);
        });
        out.put_seq(&self.deps, |out, d| {
            out.put_txid(&d.txid);
            out.put_key(&d.key);
            out.put_ts(d.version);
        });
        out
    }

    /// Reads one canonically encoded transaction off the front of `r` (the
    /// inverse of [`Transaction::encoded`]). The decoded transaction
    /// re-derives `max_read_version` from the read set and re-serializes to
    /// the exact input bytes, so [`Transaction::id`] is preserved — which is
    /// what lets WAL replay and catch-up trust a shipped body after checking
    /// its hash.
    pub fn read(r: &mut Reader<'_>) -> Result<Transaction, DecodeError> {
        let mut b = TransactionBuilder::new(r.ts()?);
        // The second argument is the smallest encoding of one entry, which
        // bounds what a forged count can make the reader allocate.
        b.read_set = r.seq::<_, DecodeError>(4 + 16, |r| {
            Ok(ReadOp {
                key: r.key()?,
                version: r.ts()?,
            })
        })?;
        b.write_set = r.seq::<_, DecodeError>(4 + 4, |r| {
            Ok(WriteOp {
                key: r.key()?,
                value: r.value()?,
            })
        })?;
        b.deps = r.seq::<_, DecodeError>(32 + 4 + 16, |r| {
            Ok(Dependency {
                txid: r.txid()?,
                key: r.key()?,
                version: r.ts()?,
            })
        })?;
        Ok(b.build())
    }

    /// Decodes `bytes` as exactly one canonically encoded transaction:
    /// [`Transaction::read`], then nothing may follow.
    pub fn decode(bytes: &[u8]) -> Result<Transaction, DecodeError> {
        let mut r = Reader::new(bytes);
        let tx = Transaction::read(&mut r)?;
        r.finish()?;
        Ok(tx)
    }

    /// Whether the transaction writes `key`.
    pub fn writes(&self, key: &Key) -> bool {
        self.write_set.iter().any(|w| &w.key == key)
    }

    /// Whether the transaction reads `key`.
    pub fn reads(&self, key: &Key) -> bool {
        self.read_set.iter().any(|r| &r.key == key)
    }

    /// The value this transaction writes to `key`, if any.
    pub fn written_value(&self, key: &Key) -> Option<&Value> {
        self.write_set
            .iter()
            .find(|w| &w.key == key)
            .map(|w| &w.value)
    }

    /// The version this transaction read for `key`, if any.
    pub fn read_version(&self, key: &Key) -> Option<Timestamp> {
        self.read_set
            .iter()
            .find(|r| &r.key == key)
            .map(|r| r.version)
    }

    /// The shards touched by this transaction when keys are placed over
    /// `num_shards` shards, in ascending order. Borrowed, and so free of any
    /// allocation, in a single-shard deployment.
    pub fn involved_shards(&self, num_shards: u32) -> Cow<'static, [ShardId]> {
        if num_shards == 1 {
            return Cow::Borrowed(if self.is_empty() { &[] } else { &[ShardId(0)] });
        }
        let reads = self.read_set.iter().map(|r| &r.key);
        let writes = self.write_set.iter().map(|w| &w.key);
        let mut shards: Vec<ShardId> = reads
            .chain(writes)
            .map(|key| shard_for_key(key, num_shards))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        Cow::Owned(shards)
    }

    /// True when the transaction touches no keys at all.
    pub fn is_empty(&self) -> bool {
        self.read_set.is_empty() && self.write_set.is_empty()
    }
}

/// Incrementally assembles a [`Transaction`] during the execution phase.
///
/// The client buffers writes locally and records each read together with the
/// version it observed; prepared-version reads additionally record a
/// dependency. `build()` freezes the metadata.
#[derive(Clone, Debug)]
pub struct TransactionBuilder {
    timestamp: Timestamp,
    read_set: Vec<ReadOp>,
    write_set: Vec<WriteOp>,
    deps: Vec<Dependency>,
}

impl TransactionBuilder {
    /// Starts building a transaction with the given timestamp.
    pub fn new(timestamp: Timestamp) -> Self {
        TransactionBuilder {
            timestamp,
            read_set: Vec::new(),
            write_set: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// The transaction's timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// Records a read of `key` that observed `version`.
    pub fn record_read(&mut self, key: Key, version: Timestamp) -> &mut Self {
        self.read_set.push(ReadOp { key, version });
        self
    }

    /// Records a read of a prepared (uncommitted) version, adding the
    /// corresponding dependency.
    pub fn record_dependent_read(
        &mut self,
        key: Key,
        version: Timestamp,
        dep_txid: TxId,
    ) -> &mut Self {
        self.read_set.push(ReadOp {
            key: key.clone(),
            version,
        });
        self.deps.push(Dependency {
            txid: dep_txid,
            key,
            version,
        });
        self
    }

    /// Buffers a write. A later write to the same key overwrites the earlier
    /// one (last-writer-wins within the transaction).
    pub fn record_write(&mut self, key: Key, value: Value) -> &mut Self {
        if let Some(w) = self.write_set.iter_mut().find(|w| w.key == key) {
            w.value = value;
        } else {
            self.write_set.push(WriteOp { key, value });
        }
        self
    }

    /// The value this transaction has buffered for `key`, if any. Reads of
    /// keys the transaction itself wrote must return the buffered value
    /// (read-your-writes).
    pub fn buffered_value(&self, key: &Key) -> Option<&Value> {
        self.write_set
            .iter()
            .find(|w| &w.key == key)
            .map(|w| &w.value)
    }

    /// Freezes the metadata into an immutable [`Transaction`].
    pub fn build(self) -> Transaction {
        let max_read_version = self
            .read_set
            .iter()
            .map(|r| r.version)
            .max()
            .unwrap_or(Timestamp::ZERO);
        Transaction {
            timestamp: self.timestamp,
            read_set: self.read_set,
            write_set: self.write_set,
            deps: self.deps,
            max_read_version,
            cached_id: std::sync::OnceLock::new(),
            cached_encoding: std::sync::OnceLock::new(),
        }
    }

    /// Freezes the metadata into a reference-counted [`Transaction`], the
    /// form the message plane ships (prepare fan-out, record state, and the
    /// store share one allocation instead of deep-copying per hop).
    pub fn build_shared(self) -> std::sync::Arc<Transaction> {
        std::sync::Arc::new(self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::ClientId;

    fn ts(t: u64, c: u64) -> Timestamp {
        Timestamp::from_nanos(t, ClientId(c))
    }

    fn sample_tx() -> Transaction {
        let mut b = TransactionBuilder::new(ts(100, 1));
        b.record_read(Key::new("x"), ts(50, 2));
        b.record_write(Key::new("y"), Value::from_u64(7));
        b.build()
    }

    #[test]
    fn id_is_deterministic_and_content_sensitive() {
        let a = sample_tx();
        let b = sample_tx();
        assert_eq!(a.id(), b.id());

        // A different written value changes the digest.
        let mut cb = TransactionBuilder::new(ts(100, 1));
        cb.record_read(Key::new("x"), ts(50, 2));
        cb.record_write(Key::new("y"), Value::from_u64(8));
        let c = cb.build();
        assert_ne!(a.id(), c.id());

        // A different timestamp changes the digest.
        let mut db = TransactionBuilder::new(ts(101, 1));
        db.record_read(Key::new("x"), ts(50, 2));
        db.record_write(Key::new("y"), Value::from_u64(7));
        let d = db.build();
        assert_ne!(a.id(), d.id());
    }

    #[test]
    fn id_is_memoized_and_carried_by_clone() {
        let a = sample_tx();
        let first = a.id();
        assert_eq!(a.id(), first, "repeated calls return the memo");
        let b = a.clone();
        assert_eq!(b.id(), first, "clones carry the memo");
    }

    #[test]
    fn encoding_is_memoized_and_carried_by_clone() {
        let t = sample_tx();
        let first = t.encoded().as_ptr();
        assert_eq!(t.encoded().as_ptr(), first, "repeat calls borrow the memo");
        assert_eq!(t.encode(), t.encoded().to_vec(), "encode() matches");
        let c = t.clone();
        assert_eq!(c.encoded(), t.encoded(), "clones agree on the encoding");
        let shared = {
            let mut b = TransactionBuilder::new(ts(100, 1));
            b.record_read(Key::new("x"), ts(50, 2));
            b.record_write(Key::new("y"), Value::from_u64(7));
            b.build_shared()
        };
        assert_eq!(shared.encoded(), t.encoded());
        assert_eq!(shared.id(), t.id());
    }

    #[test]
    fn id_depends_on_dependencies() {
        let mut b = TransactionBuilder::new(ts(100, 1));
        b.record_dependent_read(Key::new("x"), ts(50, 2), TxId::from_bytes([9; 32]));
        let with_dep = b.build();

        let mut b2 = TransactionBuilder::new(ts(100, 1));
        b2.record_read(Key::new("x"), ts(50, 2));
        let without_dep = b2.build();

        assert_ne!(with_dep.id(), without_dep.id());
        assert_eq!(with_dep.deps.len(), 1);
        assert_eq!(with_dep.read_set.len(), 1);
    }

    #[test]
    fn builder_read_your_writes_and_overwrite() {
        let mut b = TransactionBuilder::new(ts(10, 1));
        b.record_write(Key::new("k"), Value::from_u64(1));
        assert_eq!(b.buffered_value(&Key::new("k")), Some(&Value::from_u64(1)));
        b.record_write(Key::new("k"), Value::from_u64(2));
        let t = b.build();
        assert_eq!(t.write_set.len(), 1);
        assert_eq!(t.written_value(&Key::new("k")), Some(&Value::from_u64(2)));
    }

    #[test]
    fn max_read_version_is_frozen_at_build() {
        let mut b = TransactionBuilder::new(ts(100, 1));
        b.record_read(Key::new("x"), ts(50, 2));
        b.record_read(Key::new("y"), ts(70, 3));
        b.record_read(Key::new("z"), ts(10, 1));
        let t = b.build();
        assert_eq!(t.max_read_version(), ts(70, 3));

        let empty = TransactionBuilder::new(ts(1, 1)).build();
        assert_eq!(empty.max_read_version(), Timestamp::ZERO);
    }

    #[test]
    fn accessors() {
        let t = sample_tx();
        assert!(t.reads(&Key::new("x")));
        assert!(!t.reads(&Key::new("y")));
        assert!(t.writes(&Key::new("y")));
        assert!(!t.writes(&Key::new("x")));
        assert_eq!(t.read_version(&Key::new("x")), Some(ts(50, 2)));
        assert_eq!(t.read_version(&Key::new("y")), None);
        assert!(!t.is_empty());
        assert!(TransactionBuilder::new(ts(1, 1)).build().is_empty());
    }

    #[test]
    fn involved_shards_covers_reads_and_writes() {
        let cfg = basil_common::SystemConfig::sharded(3);
        let mut b = TransactionBuilder::new(ts(10, 1));
        // Touch enough keys that more than one shard is involved.
        for i in 0..20 {
            b.record_write(Key::new(format!("w{i}")), Value::from_u64(i));
            b.record_read(Key::new(format!("r{i}")), Timestamp::ZERO);
        }
        let t = b.build();
        let shards = t.involved_shards(cfg.num_shards);
        assert!(
            shards.len() >= 2,
            "expected multiple shards, got {shards:?}"
        );
        assert!(shards.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        for s in shards.iter() {
            assert!(s.0 < 3);
        }
        // One shard needs no placement at all (and no allocation); no keys,
        // no shards.
        assert_eq!(t.involved_shards(1), vec![ShardId(0)]);
        assert!(matches!(t.involved_shards(1), Cow::Borrowed(_)));
        let empty = TransactionBuilder::new(ts(1, 1)).build();
        assert_eq!(empty.involved_shards(1), Vec::new());
        assert_eq!(empty.involved_shards(3), Vec::new());
    }

    #[test]
    fn decode_round_trips_and_preserves_the_id() {
        let mut b = TransactionBuilder::new(ts(100, 1));
        b.record_read(Key::new("x"), ts(50, 2));
        b.record_dependent_read(Key::new("dep"), ts(60, 3), TxId::from_bytes([5; 32]));
        b.record_write(Key::new("y"), Value::from_u64(7));
        b.record_write(Key::new("empty"), Value::new(b""));
        let original = b.build();

        let decoded = Transaction::decode(original.encoded()).expect("canonical bytes decode");
        assert_eq!(decoded, original);
        assert_eq!(decoded.encoded(), original.encoded());
        assert_eq!(decoded.id(), original.id());
        assert_eq!(decoded.max_read_version(), ts(60, 3));
        assert_eq!(decoded.deps().len(), 1);

        let empty = TransactionBuilder::new(ts(1, 9)).build();
        let decoded_empty = Transaction::decode(empty.encoded()).expect("empty tx decodes");
        assert_eq!(decoded_empty.id(), empty.id());
        assert_eq!(decoded_empty.max_read_version(), Timestamp::ZERO);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_bytes() {
        let encoded = sample_tx().encode();
        for cut in 0..encoded.len() {
            assert!(
                Transaction::decode(&encoded[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut padded = encoded.clone();
        padded.push(0);
        assert!(Transaction::decode(&padded).is_err(), "trailing byte");
        assert!(Transaction::decode(&encoded).is_ok());
    }

    /// Transaction ids, signatures over `ST1` and WAL files all depend on
    /// these bytes. The digests were captured at the commit before the
    /// shared codec replaced the hand-written encoders (the WAL one lives
    /// here because this module is the store's user of the hash).
    #[test]
    fn encodings_are_byte_identical_to_the_hand_written_encoders() {
        let hex = |bytes: &[u8]| Sha256::digest(bytes).to_hex();
        assert_eq!(
            hex(sample_tx().encoded()),
            "d72acb4cb55d8ca868f57bcbf1b866c4187e9d642bc65e62cd1ce33c4ecddf8b"
        );
        let mut wal = crate::Wal::new(basil_common::Duration::ZERO);
        for record in crate::wal::tests::sample_records() {
            wal.append(&record);
        }
        assert_eq!(
            hex(wal.bytes()),
            "8126f52a367be065a047f3086baa4b9f0dc24746ed9d709b1b9dfb0be0b6c15a"
        );
    }

    #[test]
    fn encoding_is_prefix_free_between_fields() {
        // Moving a byte between key and value must change the encoding.
        let mut b1 = TransactionBuilder::new(ts(1, 1));
        b1.record_write(Key::new("ab"), Value::new(b"c"));
        let mut b2 = TransactionBuilder::new(ts(1, 1));
        b2.record_write(Key::new("a"), Value::new(b"bc"));
        assert_ne!(b1.build().encode(), b2.build().encode());
    }
}
