//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The implementation supports incremental hashing (`update` / `finalize`) and
//! a one-shot convenience function, and is validated against the NIST test
//! vectors in the unit tests below.
//!
//! ## Compression backends
//!
//! All hashing funnels through one private `compress` function, which has two
//! implementations of the FIPS 180-4 compression function:
//!
//! * `compress_scalar` — portable Rust, a `const fn`. It runs on every
//!   target, it is the oracle the differential test compares the hardware path
//!   against, and it is what `const` contexts use (the Merkle interior-node
//!   chaining value in [`crate::merkle`]).
//! * the private `sha_ni` module — the x86 SHA extensions
//!   (`sha256rnds2`/`sha256msg1`/`sha256msg2`), several times faster. It is
//!   compiled only for `x86_64` and chosen only when the running CPU reports
//!   the `sha`, `ssse3` and `sse4.1` features.
//!
//! The choice is made from what the code observes about the CPU, once per
//! process; there is no setting for it. `sha_ni` is the only module of the
//! crate that contains `unsafe`: the single call into a
//! `#[target_feature]` function, guarded by a witness type that only the
//! feature check can construct.

use crate::digest::Digest;

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (used for the length suffix in padding).
    len: u64,
    /// Partial block buffer; `buf_len < 64` between calls.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Hashes `data` in one shot.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes the concatenation of several byte slices without materializing it.
    pub fn digest_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Feeds more data into the hasher.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        // Fill any partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
            data = &data[take..];
        }
        // Full blocks are compressed straight from the input, in one call.
        let (blocks, rest) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        // Stash the remainder.
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Completes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Pad in place: 0x80, zeros, then the 64-bit big-endian bit length in
        // the last eight bytes of a block — a second block only when the
        // length no longer fits behind the 0x80 marker.
        let bit_len = self.len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, std::slice::from_ref(&self.buf));
        state_digest(&self.state)
    }
}

/// One raw application of the compression function to a fixed-length input:
/// `block` is absorbed into the chaining value `iv` with **no** padding or
/// length suffix. Only sound where every input under `iv` has the same
/// length (see [`crate::merkle::node_hash`]).
pub(crate) fn compress_fixed(iv: &[u32; 8], block: &[u8; 64]) -> Digest {
    let mut state = *iv;
    compress(&mut state, std::slice::from_ref(block));
    state_digest(&state)
}

/// The SHA-256 chaining value after absorbing exactly `block` from the
/// initial state; usable in `const` items.
pub(crate) const fn chaining_value_after(block: &[u8; 64]) -> [u32; 8] {
    let mut state = H0;
    compress_scalar(&mut state, block);
    state
}

fn state_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

#[cfg(test)]
thread_local! {
    /// Blocks compressed by this thread, whichever backend ran them; lets
    /// tests pin how many compressions an operation costs.
    static COMPRESSIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of compression-function applications `f` performs on this thread.
#[cfg(test)]
pub(crate) fn count_compressions<R>(f: impl FnOnce() -> R) -> u64 {
    let before = COMPRESSIONS.get();
    std::hint::black_box(f());
    COMPRESSIONS.get() - before
}

/// Absorbs `blocks` into `state` with the fastest backend this CPU has.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(test)]
    COMPRESSIONS.set(COMPRESSIONS.get() + blocks.len() as u64);
    #[cfg(target_arch = "x86_64")]
    if let Some(hw) = sha_ni_backend() {
        return hw.compress(state, blocks);
    }
    for block in blocks {
        compress_scalar(state, block);
    }
}

/// The SHA-NI backend if this CPU has it; detected once per process.
#[cfg(target_arch = "x86_64")]
fn sha_ni_backend() -> Option<sha_ni::ShaNi> {
    static DETECTED: std::sync::OnceLock<Option<sha_ni::ShaNi>> = std::sync::OnceLock::new();
    *DETECTED.get_or_init(sha_ni::ShaNi::detect)
}

/// Portable compression function; also the reference the hardware backend is
/// tested against.
const fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    let mut i = 0;
    while i < 16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
        i += 1;
    }
    while i < 64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
        i += 1;
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    let mut i = 0;
    while i < 64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
        i += 1;
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The compression function on the x86 SHA extensions. The one module of
/// the crate allowed to contain `unsafe`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    /// Witness that the running CPU has every feature [`compress_blocks`] is
    /// compiled with. The field is private and [`ShaNi::detect`] is the only
    /// constructor, so holding a value proves the check passed.
    #[derive(Clone, Copy)]
    pub(super) struct ShaNi(());

    impl ShaNi {
        /// Returns the witness if the CPU reports every required feature.
        pub(super) fn detect() -> Option<ShaNi> {
            let supported = is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1");
            supported.then_some(ShaNi(()))
        }

        /// Absorbs `blocks` into `state`.
        pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
            // SAFETY: `compress_blocks` requires the `sha`, `sse2`, `ssse3`
            // and `sse4.1` CPU features and nothing else (it touches memory
            // only through its safe reference arguments). A `ShaNi` can only
            // come from `detect`, which returned it because the running CPU
            // reports all four.
            unsafe { compress_blocks(state, blocks) }
        }
    }

    /// Rounds `4 * group .. 4 * group + 4`, on their message words `w`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
        let k = K.as_chunks::<4>().0[group].map(|k| k as i32);
        let wk = _mm_add_epi32(w, _mm_set_epi32(k[3], k[2], k[1], k[0]));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// Message schedule: from `W[t-16..t]` in `w0..w3`, the next four words
    /// `W[t..t+4]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(partial, w3)
    }

    /// FIPS 180-4 compression of each block of `blocks` into `state`, in
    /// order.
    ///
    /// # Safety
    ///
    /// The function itself is safe code; calling it from a context without
    /// its target features is `unsafe` because the CPU must support `sha`,
    /// `sse2`, `ssse3` and `sse4.1`, or it executes an illegal instruction.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // The round instruction wants the state as two vectors, (a,b,e,f) and
        // (c,d,g,h), most significant lane first.
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        // Byte shuffle turning four big-endian words into four lanes.
        let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let load = |i: usize| {
                let raw = u128::from_le_bytes(block.as_chunks::<16>().0[i]);
                _mm_shuffle_epi8(_mm_set_epi64x((raw >> 64) as i64, raw as i64), big_endian)
            };
            let (mut w0, mut w1, mut w2, mut w3) = (load(0), load(1), load(2), load(3));
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            for group in [4, 8, 12] {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, group);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, group + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, group + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, group + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        *state = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ]
        .map(|word| word as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_two_blocks() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn rfc_vector_448_bits_longer() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "chunk={chunk}");
        }
    }

    /// Known answers (from an independent implementation) at every padding
    /// boundary: the last length whose padding fits one block (55), the
    /// first that spills into a second (56), block-aligned inputs, and the
    /// same one block later. Input byte `i` is `7 * i + 3`.
    #[test]
    fn known_answers_at_padding_boundaries() {
        const VECTORS: [(usize, &str); 10] = [
            (
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                55,
                "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
            ),
            (
                56,
                "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27",
            ),
            (
                57,
                "35df609437dcfea3279283ab79fd554e2bf78f8f7ae2de532d8ee300b09e8f73",
            ),
            (
                63,
                "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
            ),
            (
                64,
                "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
            ),
            (
                65,
                "aacca6ff74fdbb296d165a45cecfa04e5127bc008770fbbdd48006f2d2fae95e",
            ),
            (
                119,
                "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e",
            ),
            (
                120,
                "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5",
            ),
            (
                128,
                "d2742f1f4ac6bb7ca2b239ee18402ba8b3f9f8e652d2a72973c2b9ba11c08cf6",
            ),
        ];
        for (len, expected) in VECTORS {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            assert_eq!(hex(&Sha256::digest(&data)), expected, "len={len}");
        }
    }

    /// Every length up to three blocks, split at every position: the
    /// buffered path, the straight-from-input path and the padding agree.
    #[test]
    fn every_split_of_every_short_length_matches_one_shot() {
        let data: Vec<u8> = (0..192usize).map(|i| (i * 11 + 5) as u8).collect();
        for len in 0..=data.len() {
            let expected = Sha256::digest(&data[..len]);
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finalize(), expected, "len={len} split={split}");
            }
        }
    }

    /// Name of the backend `compress` dispatches to on this machine.
    fn backend() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if sha_ni_backend().is_some() {
            return "sha-ni";
        }
        "scalar"
    }

    /// The dispatched compression function against the scalar one on 10 000
    /// seeded (state, block) pairs. Where the hardware backend is absent the
    /// dispatcher runs the scalar routine itself and this compares it with
    /// itself; the backend in use is printed (`--nocapture`).
    #[test]
    fn dispatched_compress_matches_scalar() {
        println!("sha256 compress backend: {}", backend());
        let mut rng = basil_common::SmallPrng::new(0x5ba2_56c0);
        for case in 0..10_000 {
            let mut state = [0u32; 8];
            for word in &mut state {
                *word = rng.next_u64() as u32;
            }
            let mut blocks = [[0u8; 64]; 2];
            for chunk in blocks.as_flattened_mut().chunks_exact_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            // Alternate one- and two-block calls: the hardware path keeps the
            // state in registers across the blocks of one call.
            let blocks = &blocks[..1 + case % 2];
            let mut expected = state;
            for block in blocks {
                compress_scalar(&mut expected, block);
            }
            compress(&mut state, blocks);
            assert_eq!(state, expected, "case {case} on {}", backend());
        }
    }

    #[test]
    fn const_chaining_value_is_the_hasher_state_after_one_block() {
        let block: [u8; 64] = std::array::from_fn(|i| (i * 3 + 1) as u8);
        let mut h = Sha256::new();
        h.update(&block);
        assert_eq!(chaining_value_after(&block), h.state);
        assert_eq!(h.buf_len, 0);
    }

    /// The structural cost claims: padding adds exactly one block to a
    /// block-aligned input and none while the length still fits.
    #[test]
    fn compression_counts() {
        assert_eq!(count_compressions(|| Sha256::digest(&[0; 64])), 2);
        assert_eq!(count_compressions(|| Sha256::digest(&[0; 55])), 1);
        assert_eq!(count_compressions(|| Sha256::digest(&[0; 56])), 2);
        assert_eq!(count_compressions(|| Sha256::digest(&[0; 119])), 2);
        assert_eq!(count_compressions(|| Sha256::digest(&[0; 120])), 3);
    }

    #[test]
    fn digest_parts_equals_concatenation() {
        let a = b"hello ".as_slice();
        let b = b"world".as_slice();
        assert_eq!(
            Sha256::digest_parts(&[a, b]),
            Sha256::digest(b"hello world")
        );
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(Sha256::digest(b"a"), Sha256::digest(b"b"));
        assert_ne!(Sha256::digest(b""), Sha256::digest(b"\0"));
    }
}
