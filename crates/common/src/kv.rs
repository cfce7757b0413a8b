//! Keys and values stored by the system.
//!
//! Basil is a key-value store: keys are opaque UTF-8 strings (benchmarks use
//! structured names such as `"warehouse:3"` or `"acct:12345:checking"`), and
//! values are opaque byte strings. Both are reference-counted so the
//! multiversion store and in-flight messages can share them without copying.
//!
//! A [`Key`] is hashed **once**, where it is constructed ([`Key::new`], which
//! is also what wire and WAL decoding call), and carries the 64-bit word with
//! it. That word is the placement hash `config::shard_for_key` reduces modulo
//! the shard count, and it is all a `Key`'s [`Hash`] impl feeds a hasher: every
//! `Key`-keyed map hashes in `O(1)`, grows without touching the string behind
//! the `Arc`, and rejects an unequal key on one integer comparison. Ordering
//! stays plain string order, so canonical encodings and `BTreeMap`s do not see
//! the hash at all.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A key in the store. Cheap to clone (a hash word and an `Arc<str>`).
#[derive(Clone)]
pub struct Key {
    /// [`placement_hash`] of `text`, fixed at construction.
    hash: u64,
    text: Arc<str>,
}

/// A value in the store. Cheap to clone (`Arc<[u8]>`).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Value(Arc<[u8]>);

impl Key {
    /// Creates a key from anything string-like.
    pub fn new(s: impl AsRef<str>) -> Self {
        let text = s.as_ref();
        Key {
            hash: placement_hash(text.as_bytes()),
            text: Arc::from(text),
        }
    }

    /// The key as a string slice.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The key as raw bytes (used when hashing transaction metadata).
    pub fn as_bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    /// Length of the key in bytes.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the key is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The stable 64-bit hash of the key bytes, computed once at construction:
    /// key placement reduces it modulo the shard count, and hash maps use it
    /// as the key's whole hash.
    pub(crate) fn hash64(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.text == other.text
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.text.cmp(&other.text)
    }
}

/// The hash a [`Key`] carries: FNV-1a over the bytes, then the SplitMix64
/// finalizer, which diffuses the weak low bits of FNV for short keys so that
/// a modulo (shard placement) or a mask (hash-table bucket) of it is close to
/// uniform. Stable across processes and versions — every participant, and
/// every system under comparison, must place a key on the same shard — and
/// used for placement and table lookup only, never for integrity.
fn placement_hash(bytes: &[u8]) -> u64 {
    let mut x: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        x ^= b as u64;
        x = x.wrapping_mul(0x0000_0100_0000_01b3);
    }
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Value {
    /// Creates a value from raw bytes.
    pub fn new(bytes: impl AsRef<[u8]>) -> Self {
        Value(Arc::from(bytes.as_ref()))
    }

    /// Creates a value from a UTF-8 string.
    pub fn from_str_value(s: &str) -> Self {
        Value(Arc::from(s.as_bytes()))
    }

    /// A conventional empty value (e.g. a deleted marker or placeholder row).
    pub fn empty() -> Self {
        Value(Arc::from(&[] as &[u8]))
    }

    /// Encodes an unsigned integer as a value (used by the banking workloads
    /// that store balances).
    pub fn from_u64(v: u64) -> Self {
        Value(Arc::from(v.to_be_bytes().as_slice()))
    }

    /// Decodes a value previously produced by [`Value::from_u64`].
    ///
    /// Returns `None` if the value does not hold exactly eight bytes.
    pub fn as_u64(&self) -> Option<u64> {
        let bytes: [u8; 8] = self.0.as_ref().try_into().ok()?;
        Some(u64::from_be_bytes(bytes))
    }

    /// The raw bytes of the value.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length of the value in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the value is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<T: AsRef<str>> From<T> for Key {
    fn from(s: T) -> Self {
        Key::new(s)
    }
}

impl From<&[u8]> for Value {
    fn from(b: &[u8]) -> Self {
        Value::new(b)
    }
}

impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::new(b)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::from_u64(v)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k\"{}\"", self.text)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Ok(s) = std::str::from_utf8(&self.0) {
            if s.len() <= 32 && s.chars().all(|c| !c.is_control()) {
                return write!(f, "v\"{s}\"");
            }
        }
        write!(f, "v[{} bytes]", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_round_trips() {
        let k = Key::new("acct:42");
        assert_eq!(k.as_str(), "acct:42");
        assert_eq!(k.as_bytes(), b"acct:42");
        assert_eq!(k.len(), 7);
        assert!(!k.is_empty());
        let k2: Key = "acct:42".into();
        assert_eq!(k, k2);
    }

    #[test]
    fn value_u64_round_trip() {
        let v = Value::from_u64(123_456);
        assert_eq!(v.as_u64(), Some(123_456));
        assert_eq!(v.len(), 8);
        let text = Value::from_str_value("hello");
        assert_eq!(text.as_u64(), None);
    }

    #[test]
    fn empty_value() {
        let v = Value::empty();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
    }

    #[test]
    fn keys_order_lexicographically() {
        let a = Key::new("a:1");
        let b = Key::new("a:2");
        let c = Key::new("b:0");
        assert!(a < b && b < c);
    }

    #[test]
    fn equal_strings_hash_equally_however_the_key_was_made() {
        use crate::codec::{Reader, Sink};
        let made = Key::new("acct:42:checking");
        let again: Key = String::from("acct:42:checking").into();
        let mut wire = Vec::new();
        wire.put_key(&made);
        let decoded = Reader::new(&wire).key().expect("round trip");
        for other in [&again, &decoded] {
            assert_eq!(&made, other);
            assert_eq!(made.hash64(), other.hash64());
        }
        assert_ne!(made, Key::new("acct:42:savings"));
        assert_ne!(made.hash64(), Key::new("acct:42:savings").hash64());
    }

    #[test]
    fn order_is_string_order_not_hash_order() {
        let mut names: Vec<String> = (0..200).map(|i| format!("k{}", i * 7919 % 1000)).collect();
        let mut keys: Vec<Key> = names.iter().map(Key::new).collect();
        names.sort();
        keys.sort();
        let sorted: Vec<&str> = keys.iter().map(Key::as_str).collect();
        assert_eq!(sorted, names);
        assert!(
            keys.windows(2).any(|w| w[0].hash64() > w[1].hash64()),
            "the hashes of string-sorted keys are not themselves sorted"
        );
    }

    #[test]
    fn value_debug_is_readable_for_short_text() {
        assert_eq!(format!("{:?}", Value::from_str_value("hi")), "v\"hi\"");
        let big = Value::new(vec![0u8; 100]);
        assert_eq!(format!("{big:?}"), "v[100 bytes]");
    }

    #[test]
    fn clones_share_storage() {
        let v = Value::new(vec![1, 2, 3]);
        let w = v.clone();
        assert_eq!(v.as_bytes().as_ptr(), w.as_bytes().as_ptr());
    }
}
