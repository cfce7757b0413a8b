//! The one byte codec under every binary format in the workspace.
//!
//! Five formats are written and parsed by hand — the canonical transaction
//! encoding, the signed message bodies, WAL records, wire messages and the
//! node results file — and every one of them is read back from bytes a
//! Byzantine peer, a torn disk write or a crash chose. They share this
//! module so that there is a single place where a length is trusted:
//!
//! * [`Sink`] is the write side: big-endian integers, length-prefixed byte
//!   strings, the workspace's identifier types, options and sequences, all
//!   spelled in terms of one required method. It is implemented for
//!   `Vec<u8>` and for the byte-counting [`Len`], so an encoder written
//!   once yields both the bytes and their exact size.
//! * [`Reader`] is the read side: a bounds-checked cursor whose every
//!   method returns a value or a [`DecodeError`]. Nothing indexes the
//!   buffer, nothing panics, and a count is checked against the bytes that
//!   remain *before* anything is allocated for it.
//!
//! The `[len][check][payload]` frame that wraps WAL records, wire messages
//! and results records lives next to the hash it uses, in
//! `basil_crypto::frame`.

use crate::{ClientId, Key, NodeId, ReplicaId, ShardId, Timestamp, TxId, Value};

const NODE_CLIENT: u8 = 1;
const NODE_REPLICA: u8 = 2;

/// Why bytes failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value did.
    Truncated,
    /// A tag byte — boolean, option, node kind or a caller's enum — has a
    /// value the format does not define.
    BadTag {
        /// The offending byte.
        tag: u8,
    },
    /// A count cannot fit in the bytes that follow it, or bytes remain
    /// after the last field.
    BadLength,
    /// A key was not valid UTF-8.
    BadKey,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input ends inside a value"),
            DecodeError::BadTag { tag } => write!(f, "unknown tag byte {tag}"),
            DecodeError::BadLength => write!(f, "count or length does not match the input"),
            DecodeError::BadKey => write!(f, "key is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for std::io::Error {
    fn from(e: DecodeError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Something encoded values can be appended to.
pub trait Sink {
    /// Appends raw bytes, with no length prefix.
    fn put_bytes(&mut self, bytes: &[u8]);

    /// One byte.
    fn put_u8(&mut self, v: u8) {
        self.put_bytes(&[v]);
    }

    /// Big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_be_bytes());
    }

    /// Big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_be_bytes());
    }

    /// A boolean as the byte 0 or 1.
    fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// An item count or byte length as a `u32`.
    ///
    /// # Panics
    /// If `n` does not fit: no value this workspace encodes comes near
    /// 4 GiB, and wrapping the length would corrupt the stream silently.
    fn put_count(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("count fits the u32 length field"));
    }

    /// A byte string preceded by its length.
    fn put_len_prefixed(&mut self, bytes: &[u8]) {
        self.put_count(bytes.len());
        self.put_bytes(bytes);
    }

    /// A timestamp: time, then client id.
    fn put_ts(&mut self, ts: Timestamp) {
        self.put_u64(ts.time);
        self.put_u64(ts.client.0);
    }

    /// A transaction id: its 32 digest bytes.
    fn put_txid(&mut self, id: &TxId) {
        self.put_bytes(id.as_bytes());
    }

    /// A key, length-prefixed.
    fn put_key(&mut self, key: &Key) {
        self.put_len_prefixed(key.as_bytes());
    }

    /// A value, length-prefixed.
    fn put_value(&mut self, value: &Value) {
        self.put_len_prefixed(value.as_bytes());
    }

    /// A replica id: shard, then index.
    fn put_replica(&mut self, r: ReplicaId) {
        self.put_u32(r.shard.0);
        self.put_u32(r.index);
    }

    /// A node id: a kind byte, then the client or replica id.
    fn put_node(&mut self, node: NodeId) {
        match node {
            NodeId::Client(c) => {
                self.put_u8(NODE_CLIENT);
                self.put_u64(c.0);
            }
            NodeId::Replica(r) => {
                self.put_u8(NODE_REPLICA);
                self.put_replica(r);
            }
        }
    }

    /// An optional value: the byte 0, or the byte 1 followed by `put`'s
    /// encoding of the value.
    fn put_opt<T: ?Sized>(&mut self, v: Option<&T>, put: impl FnOnce(&mut Self, &T))
    where
        Self: Sized,
    {
        self.put_bool(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }

    /// A sequence: the item count, then `put`'s encoding of each item.
    fn put_seq<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T))
    where
        Self: Sized,
    {
        self.put_count(items.len());
        for item in items {
            put(self, item);
        }
    }
}

// The `#[inline]`s in this module are on functions other crates call once
// per encoded or decoded field. They are not generic, so without the hint
// each is a real call across the crate boundary: that way encoding a wire
// message measured 1.5x, and a signed body 2.4x, the time it takes with them.

impl Sink for Vec<u8> {
    #[inline]
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A [`Sink`] that keeps only the number of bytes written to it: the exact
/// encoded size of anything an encoder can write, without the encoding.
#[derive(Clone, Copy, Debug, Default)]
pub struct Len(pub usize);

impl Sink for Len {
    #[inline]
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// A bounds-checked cursor over bytes that are not trusted.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(DecodeError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    /// The next `N` raw bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, tail) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(DecodeError::Truncated)?;
        self.buf = tail;
        Ok(*head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// Big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// A boolean; any byte other than 0 or 1 is [`DecodeError::BadTag`].
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { tag }),
        }
    }

    /// A count of items that each occupy at least `min_item` bytes. A count
    /// the remaining input cannot hold is [`DecodeError::BadLength`], so a
    /// forged count never sizes an allocation.
    #[inline]
    pub fn count(&mut self, min_item: usize) -> Result<usize, DecodeError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_item.max(1)) > self.remaining() {
            return Err(DecodeError::BadLength);
        }
        Ok(count)
    }

    /// A byte string preceded by its length, borrowed from the input.
    #[inline]
    pub fn len_prefixed(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.bytes(len)
    }

    /// A timestamp.
    #[inline]
    pub fn ts(&mut self) -> Result<Timestamp, DecodeError> {
        let time = self.u64()?;
        let client = ClientId(self.u64()?);
        Ok(Timestamp::from_nanos(time, client))
    }

    /// A transaction id.
    #[inline]
    pub fn txid(&mut self) -> Result<TxId, DecodeError> {
        Ok(TxId::from_bytes(self.array()?))
    }

    /// A key; bytes that are not UTF-8 are [`DecodeError::BadKey`].
    pub fn key(&mut self) -> Result<Key, DecodeError> {
        let bytes = self.len_prefixed()?;
        std::str::from_utf8(bytes)
            .map(Key::new)
            .map_err(|_| DecodeError::BadKey)
    }

    /// A value.
    pub fn value(&mut self) -> Result<Value, DecodeError> {
        Ok(Value::new(self.len_prefixed()?))
    }

    /// A replica id.
    #[inline]
    pub fn replica(&mut self) -> Result<ReplicaId, DecodeError> {
        let shard = ShardId(self.u32()?);
        Ok(ReplicaId::new(shard, self.u32()?))
    }

    /// A node id.
    pub fn node(&mut self) -> Result<NodeId, DecodeError> {
        match self.u8()? {
            NODE_CLIENT => Ok(NodeId::Client(ClientId(self.u64()?))),
            NODE_REPLICA => Ok(NodeId::Replica(self.replica()?)),
            tag => Err(DecodeError::BadTag { tag }),
        }
    }

    /// An optional value written by [`Sink::put_opt`].
    pub fn opt<T, E: From<DecodeError>>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<Option<T>, E> {
        if self.bool()? {
            read(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A sequence written by [`Sink::put_seq`], each item at least
    /// `min_item` bytes long (see [`Reader::count`]).
    pub fn seq<T, E: From<DecodeError>>(
        &mut self,
        min_item: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let count = self.count(min_item)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(read(self)?);
        }
        Ok(items)
    }

    /// Ends the decode: bytes left over are [`DecodeError::BadLength`], so
    /// one value has exactly one accepted encoding.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::BadLength)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One field per `put_x` / `x()` pair.
    #[derive(Clone, Debug, PartialEq)]
    struct Sample {
        byte: u8,
        word: u32,
        long: u64,
        flag: bool,
        raw: [u8; 5],
        blob: Vec<u8>,
        ts: Timestamp,
        txid: TxId,
        key: Key,
        value: Value,
        node: NodeId,
        replica: ReplicaId,
        maybe: Option<u64>,
        many: Vec<u32>,
    }

    impl Sample {
        fn write(&self, out: &mut impl Sink) {
            out.put_u8(self.byte);
            out.put_u32(self.word);
            out.put_u64(self.long);
            out.put_bool(self.flag);
            out.put_bytes(&self.raw);
            out.put_len_prefixed(&self.blob);
            out.put_ts(self.ts);
            out.put_txid(&self.txid);
            out.put_key(&self.key);
            out.put_value(&self.value);
            out.put_node(self.node);
            out.put_replica(self.replica);
            out.put_opt(self.maybe.as_ref(), |out, v| out.put_u64(*v));
            out.put_seq(&self.many, |out, v| out.put_u32(*v));
        }

        fn read(r: &mut Reader<'_>) -> Result<Sample, DecodeError> {
            Ok(Sample {
                byte: r.u8()?,
                word: r.u32()?,
                long: r.u64()?,
                flag: r.bool()?,
                raw: r.array()?,
                blob: r.len_prefixed()?.to_vec(),
                ts: r.ts()?,
                txid: r.txid()?,
                key: r.key()?,
                value: r.value()?,
                node: r.node()?,
                replica: r.replica()?,
                maybe: r.opt(Reader::u64)?,
                many: r.seq(4, Reader::u32)?,
            })
        }

        fn encoded(&self) -> Vec<u8> {
            let mut out = Vec::new();
            self.write(&mut out);
            out
        }
    }

    fn sample() -> impl Strategy<Value = Sample> {
        let bytes = || proptest::collection::vec(any::<u8>(), 0..40);
        (
            (any::<u8>(), any::<u32>(), any::<u64>(), any::<bool>()),
            (bytes(), bytes(), bytes(), bytes()),
            (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
            (any::<bool>(), any::<bool>()),
            proptest::collection::vec(any::<u32>(), 0..6),
        )
            .prop_map(|(ints, byte_strings, ids, choices, many)| {
                let (byte, word, long, flag) = ints;
                let (blob, raw, key, value) = byte_strings;
                let (time, client, shard, index) = ids;
                let replica = ReplicaId::new(ShardId(shard), index);
                let mut txid = [byte; 32];
                txid[..8].copy_from_slice(&long.to_be_bytes());
                Sample {
                    byte,
                    word,
                    long,
                    flag,
                    raw: std::array::from_fn(|i| raw.get(i).copied().unwrap_or(0)),
                    blob,
                    ts: Timestamp::from_nanos(time, ClientId(client)),
                    txid: TxId::from_bytes(txid),
                    key: Key::new(String::from_utf8_lossy(&key)),
                    value: Value::new(value),
                    node: if choices.0 {
                        NodeId::Client(ClientId(client))
                    } else {
                        NodeId::Replica(replica)
                    },
                    replica,
                    maybe: choices.1.then_some(time),
                    many,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn every_put_round_trips_and_len_counts_exactly_the_bytes(s in sample()) {
            let bytes = s.encoded();
            let mut len = Len::default();
            s.write(&mut len);
            prop_assert_eq!(len.0, bytes.len());

            let mut r = Reader::new(&bytes);
            prop_assert_eq!(Sample::read(&mut r), Ok(s.clone()));
            prop_assert_eq!(r.remaining(), 0);
            prop_assert_eq!(r.finish(), Ok(()));

            let mut padded = bytes.clone();
            padded.push(0);
            let mut r = Reader::new(&padded);
            prop_assert_eq!(Sample::read(&mut r), Ok(s));
            prop_assert_eq!(r.finish(), Err(DecodeError::BadLength));
        }

        /// Up to the sequence every strict prefix is `Truncated`; inside the
        /// sequence a cut can also leave its count too large for what
        /// remains, which is `BadLength`.
        #[test]
        fn every_strict_prefix_fails_to_decode(s in sample()) {
            let bytes = s.encoded();
            let seq_at = bytes.len() - 4 * s.many.len();
            for cut in 0..bytes.len() {
                let got = Sample::read(&mut Reader::new(&bytes[..cut]));
                let want = if cut < seq_at {
                    DecodeError::Truncated
                } else {
                    DecodeError::BadLength
                };
                prop_assert!(got == Err(want), "cut at {cut} of {}: {got:?}", bytes.len());
            }
        }
    }

    #[test]
    fn a_forged_count_is_bad_length_before_anything_is_allocated() {
        let mut bytes = Vec::new();
        bytes.put_u32(u32::MAX);
        bytes.put_bytes(&[0; 64]);
        assert_eq!(
            Reader::new(&bytes).count(1),
            Err(DecodeError::BadLength),
            "4 Gi items in 64 bytes"
        );
        assert_eq!(
            Reader::new(&bytes).count(usize::MAX),
            Err(DecodeError::BadLength),
            "the size check saturates instead of wrapping"
        );
        let items = Reader::new(&bytes).seq(1, |_| -> Result<u8, DecodeError> {
            panic!("no item is read, so nothing was reserved for one")
        });
        assert_eq!(items, Err(DecodeError::BadLength));

        // The largest count the input can hold passes, the next does not.
        let mut exact = Vec::new();
        exact.put_u32(16);
        exact.put_bytes(&[0; 64]);
        assert_eq!(Reader::new(&exact).count(4), Ok(16));
        assert_eq!(Reader::new(&exact).count(5), Err(DecodeError::BadLength));
        assert_eq!(
            Reader::new(&exact).count(0),
            Ok(16),
            "min_item 0 counts as 1"
        );
    }

    #[test]
    fn undefined_tag_bytes_are_bad_tag() {
        for tag in 2..=u8::MAX {
            let bytes = [tag, 0, 0, 0, 0, 0, 0, 0, 0];
            let bad = DecodeError::BadTag { tag };
            assert_eq!(Reader::new(&bytes).bool(), Err(bad));
            assert_eq!(Reader::new(&bytes).opt(Reader::u64), Err(bad));
            if tag > NODE_REPLICA {
                assert_eq!(Reader::new(&bytes).node(), Err(bad));
            }
        }
        assert_eq!(
            Reader::new(&[0; 9]).node(),
            Err(DecodeError::BadTag { tag: 0 })
        );
    }

    #[test]
    fn a_key_must_be_utf8() {
        let mut bytes = Vec::new();
        bytes.put_len_prefixed(&[0xC3, 0x28]);
        assert_eq!(Reader::new(&bytes).key(), Err(DecodeError::BadKey));
        assert_eq!(
            Reader::new(&bytes).value(),
            Ok(Value::new([0xC3, 0x28])),
            "values are opaque bytes"
        );
    }
}
