//! HMAC-SHA-256 (RFC 2104), built on the from-scratch [`Sha256`].
//!
//! HMAC hashes a key-derived block before the message (inner pass) and
//! another before the inner digest (outer pass). Both blocks depend on the
//! key alone, so [`HmacKey`] absorbs them once; a tag under a cached key
//! then costs only the compressions of the message and of the 32-byte inner
//! digest — two for a Merkle root, against four when the key is given as
//! bytes every time.

use crate::digest::Digest;
use crate::sha256::Sha256;

const BLOCK_SIZE: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// An HMAC-SHA-256 key with both pad blocks already absorbed.
///
/// Build it once per key and reuse it; it deliberately has no `Debug`
/// implementation, so key material cannot end up in a log.
#[derive(Clone)]
pub struct HmacKey {
    /// SHA-256 state after the `key ^ ipad` block.
    inner: Sha256,
    /// SHA-256 state after the `key ^ opad` block.
    outer: Sha256,
}

impl HmacKey {
    /// Prepares `key`. Keys longer than one block are hashed first; shorter
    /// keys are padded with zeros to the block size.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            key_block[..32].copy_from_slice(Sha256::digest(key).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let absorbed = |pad: u8| {
            let mut state = Sha256::new();
            state.update(&key_block.map(|b| b ^ pad));
            state
        };
        HmacKey {
            inner: absorbed(IPAD),
            outer: absorbed(OPAD),
        }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> Digest {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(inner.finalize().as_bytes());
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)` for a caller without a cached
/// [`HmacKey`].
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).mac(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.to_hex()
    }

    /// RFC 4231 test cases 1-4, 6 and 7 (case 5 truncates the tag), through
    /// the free function and through a prepared key used twice. Cases 6 and
    /// 7 have a 131-byte key, which is hashed first.
    #[test]
    fn rfc4231_vectors() {
        let cases: [(&[u8], &[u8], &str); 6] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &[
                    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                    23, 24, 25,
                ],
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than \
block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (i, (key, data, expected)) in cases.into_iter().enumerate() {
            assert_eq!(hex(&hmac_sha256(key, data)), expected, "free fn, case {i}");
            let prepared = HmacKey::new(key);
            assert_eq!(hex(&prepared.mac(data)), expected, "cached key, case {i}");
            // Using a prepared key leaves it unchanged.
            assert_eq!(hex(&prepared.mac(data)), expected, "key reuse, case {i}");
        }
    }

    /// The point of caching: under a prepared key a 32-byte message (a
    /// Merkle root) costs one inner and one outer compression; preparing the
    /// key costs the other two.
    #[test]
    fn cached_key_mac_of_a_root_is_two_compressions() {
        use crate::sha256::count_compressions;
        let key = HmacKey::new(&[7; 32]);
        assert_eq!(count_compressions(|| key.mac(&[1; 32])), 2);
        assert_eq!(count_compressions(|| hmac_sha256(&[7; 32], &[1; 32])), 4);
    }

    #[test]
    fn different_keys_give_different_tags() {
        assert_ne!(hmac_sha256(b"key1", b"msg"), hmac_sha256(b"key2", b"msg"));
        assert_ne!(hmac_sha256(b"key", b"msg1"), hmac_sha256(b"key", b"msg2"));
    }
}
