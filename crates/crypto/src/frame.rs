//! The one checksummed frame: `[u32-be payload length][4-byte check][payload]`.
//!
//! WAL records, wire messages and results-file records are all carried in
//! this frame, so the layout and the check function are each defined here
//! and nowhere else. The check is the first four bytes of the payload's
//! SHA-256: it exists to catch torn writes and flipped bits, not forgery —
//! that is the signatures' job — and any single-byte change to a frame is
//! detected (`crates/store/tests/wal_corruption.rs` holds the WAL to that).

use crate::Sha256;
use basil_common::codec::Reader;

/// Bytes in front of every payload: length, then check.
pub const HEADER: usize = 8;

/// Why the bytes at the front of a buffer are not a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The advertised payload length exceeds the caller's limit.
    Oversized {
        /// The advertised length.
        len: usize,
    },
    /// The check does not match the payload.
    ChecksumMismatch,
}

fn check(payload: &[u8]) -> [u8; 4] {
    let digest = Sha256::digest(payload);
    let [a, b, c, d, ..] = *digest.as_bytes();
    [a, b, c, d]
}

/// Appends one frame to `buf`, in place: reserves the header, lets `encode`
/// append the payload, then patches in the length and the check. Whatever
/// `encode` returns is passed through.
///
/// # Panics
/// If the payload exceeds `u32::MAX` bytes.
pub fn seal<R>(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    let start = buf.len();
    buf.extend_from_slice(&[0; HEADER]);
    let result = encode(buf);
    let (header, payload) = buf[start..].split_at_mut(HEADER);
    let len = u32::try_from(payload.len()).expect("frame payload fits the u32 length field");
    header[..4].copy_from_slice(&len.to_be_bytes());
    header[4..].copy_from_slice(&check(payload));
    result
}

/// Splits one frame off the front of `buf`.
///
/// `Ok(None)` means `buf` ends inside the frame — a stream reader waits for
/// more bytes, a log reader has found its torn tail. `Ok(Some((payload,
/// consumed)))` is the verified payload and the size of the whole frame.
/// A length above `max` is rejected before the payload is looked at.
pub fn split(buf: &[u8], max: usize) -> Result<Option<(&[u8], usize)>, FrameError> {
    let mut r = Reader::new(buf);
    let (Ok(len), Ok(expected)) = (r.u32(), r.array::<4>()) else {
        return Ok(None);
    };
    let len = len as usize;
    if len > max {
        return Err(FrameError::Oversized { len });
    }
    let Ok(payload) = r.bytes(len) else {
        return Ok(None);
    };
    if check(payload) != expected {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok(Some((payload, HEADER + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        seal(&mut buf, |out| out.extend_from_slice(payload));
        buf
    }

    #[test]
    fn seal_then_split_round_trips_and_appends_in_place() {
        let mut buf = sealed(b"first");
        let first_len = buf.len();
        assert_eq!(first_len, HEADER + 5);
        let answer = seal(&mut buf, |out| {
            out.extend_from_slice(b"second one");
            42
        });
        assert_eq!(answer, 42, "the encoder's result is passed through");

        let (payload, consumed) = split(&buf, 64).unwrap().unwrap();
        assert_eq!((payload, consumed), (&b"first"[..], first_len));
        let (payload, consumed) = split(&buf[first_len..], 64).unwrap().unwrap();
        assert_eq!(payload, b"second one");
        assert_eq!(first_len + consumed, buf.len());
        assert_eq!(split(&sealed(b""), 0), Ok(Some((&[][..], HEADER))));
    }

    #[test]
    fn every_strict_prefix_waits_and_every_byte_flip_is_caught() {
        let frame = sealed(b"some payload bytes");
        for cut in 0..frame.len() {
            assert_eq!(split(&frame[..cut], 1 << 20), Ok(None), "prefix {cut}");
        }
        for at in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[at] ^= 1 << bit;
                let accepted = matches!(split(&bad, 1 << 20), Ok(Some(_)));
                assert!(!accepted, "flip of bit {bit} at {at} went unnoticed");
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_from_the_header_alone() {
        let mut frame = sealed(&[7; 100]);
        assert_eq!(split(&frame, 99), Err(FrameError::Oversized { len: 100 }));
        frame.truncate(HEADER);
        assert_eq!(split(&frame, 99), Err(FrameError::Oversized { len: 100 }));
        assert_eq!(split(&frame, 100), Ok(None));
    }
}
