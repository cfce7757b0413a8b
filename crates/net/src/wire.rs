//! The wire codec: every [`BasilMsg`] as one checksummed frame.
//!
//! A message travels as a `basil_crypto::frame` frame whose payload is
//! `[msg tag][sender NodeId][message body]`, written and parsed with the
//! shared primitives of `basil_common::codec`; this module holds only what
//! is specific to messages. Transaction bodies reuse the memoized canonical
//! encoding ([`Transaction::encoded`]), so encoding an `ST1` fan-out
//! serializes the transaction once; decoding goes through
//! [`Transaction::decode`], the same parser WAL replay trusts.
//!
//! Decoding is total: every failure — truncated frame, oversized length,
//! checksum mismatch, unknown tag, counts pointing past the buffer, invalid
//! UTF-8 in a key, bytes after the message, a certificate that does not hold
//! exactly one proof of its decision — returns a typed [`WireError`], never
//! a panic, and no certificate holds another, so decoding never recurses. A
//! malformed frame is evidence of a faulty peer, and the connection manager
//! treats it as such (drop the connection, count it); it must never be able
//! to take the process down.

use basil_common::codec::{DecodeError, Reader, Sink};
use basil_common::{NodeId, ShardId};
use basil_core::certs::{DecisionCert, DecisionProof, ShardVotes, VoteCert};
use basil_core::messages::{
    BasilMsg, CatchUpReply, CommittedRead, DecFb, ElectFbBody, InvokeFb, PreparedRead,
    ProtoDecision, ProtoVote, ReadReply, ReadReplyBody, ReadRequest, SignedElectFb, SignedSt1Reply,
    SignedSt2Reply, St1, St1ReplyBody, St2, St2ReplyBody, Writeback,
};
use basil_crypto::frame::{self, FrameError};
use basil_crypto::{BatchProof, Digest, MerkleProof, Signature};
use basil_store::Transaction;
use std::sync::Arc;

/// Frame header: 4-byte big-endian payload length + 4-byte check.
pub const FRAME_HEADER: usize = frame::HEADER;

/// Hard ceiling on a single frame's payload. Anything larger is rejected
/// before allocation — a peer cannot make us reserve gigabytes by sending
/// eight bytes.
pub const MAX_FRAME: usize = 4 * 1024 * 1024;

/// Why a frame or payload failed to decode (or a message failed to encode).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the header or the advertised payload length.
    Truncated,
    /// Advertised payload length exceeds [`MAX_FRAME`], or a message to be
    /// encoded would.
    Oversized {
        /// The advertised (or encoded) length.
        len: usize,
    },
    /// Checksum prefix does not match the payload.
    ChecksumMismatch,
    /// Unknown message, node, vote, or option tag byte.
    BadTag {
        /// The offending byte.
        tag: u8,
    },
    /// A count field points past the end of the payload, or bytes follow
    /// the message.
    BadLength,
    /// A key was not valid UTF-8.
    BadKey,
    /// An embedded transaction failed canonical decoding.
    BadTransaction,
    /// A certificate holds both a fast and a slow proof, neither, or a
    /// logged decision other than its tag's.
    BadCert,
    /// Node-local timer variants are never wire-encoded.
    NotWireMessage,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized { len } => write!(f, "oversized frame ({len} bytes)"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::BadTag { tag } => write!(f, "unknown tag byte {tag}"),
            WireError::BadLength => write!(f, "count exceeds the payload, or bytes follow it"),
            WireError::BadKey => write!(f, "key is not valid UTF-8"),
            WireError::BadTransaction => write!(f, "embedded transaction failed to decode"),
            WireError::BadCert => write!(f, "certificate does not hold one proof of its decision"),
            WireError::NotWireMessage => write!(f, "timer messages are node-local"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => WireError::Truncated,
            DecodeError::BadTag { tag } => WireError::BadTag { tag },
            DecodeError::BadLength => WireError::BadLength,
            DecodeError::BadKey => WireError::BadKey,
        }
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Oversized { len } => WireError::Oversized { len },
            FrameError::ChecksumMismatch => WireError::ChecksumMismatch,
        }
    }
}

// Message tag bytes. Timers are deliberately absent: they never leave a node.
const TAG_READ: u8 = 1;
const TAG_READ_REPLY: u8 = 2;
const TAG_ST1: u8 = 3;
const TAG_ST1_REPLY: u8 = 4;
const TAG_ST2: u8 = 5;
const TAG_ST2_REPLY: u8 = 6;
const TAG_WRITEBACK: u8 = 7;
const TAG_RTS_RELEASE: u8 = 8;
const TAG_INVOKE_FB: u8 = 9;
const TAG_ELECT_FB: u8 = 10;
const TAG_DEC_FB: u8 = 11;
const TAG_CATCH_UP_REQUEST: u8 = 12;
const TAG_CATCH_UP_REPLY: u8 = 13;

// Certificate kind bytes.
const CERT_COMMIT: u8 = 1;
const CERT_ABORT: u8 = 2;

// Lower bounds on one item of each sequence the decoder reads: they keep a
// forged count from sizing an allocation (`Reader::count`). The tests below
// check each against the smallest item the encoder writes.
const MIN_SIBLING: usize = 1;
const MIN_ST1_REPLY: usize = 41;
const MIN_SHARD_VOTES: usize = 41;
const MIN_ST2_REPLY: usize = 58;
const MIN_ELECT_FB: usize = 50;
const MIN_WRITEBACK: usize = 39;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encodes `msg` from `from` as one complete frame (header + payload).
///
/// Fails for the node-local timer variants, which must never reach the
/// network layer, and for a payload above [`MAX_FRAME`], which every
/// receiver would refuse.
pub fn encode_msg(from: NodeId, msg: &BasilMsg) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(FRAME_HEADER + 128);
    frame::seal(&mut out, |out| put_msg(out, from, msg))?;
    let len = out.len() - FRAME_HEADER;
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len });
    }
    Ok(out)
}

fn put_msg(out: &mut Vec<u8>, from: NodeId, msg: &BasilMsg) -> Result<(), WireError> {
    let tag_at = out.len();
    out.put_u8(0); // message tag, patched below
    out.put_node(from);
    out[tag_at] = match msg {
        BasilMsg::Read(m) => {
            out.put_u64(m.req_id);
            out.put_key(&m.key);
            out.put_ts(m.ts);
            out.put_opt(m.auth.as_ref(), put_signature);
            TAG_READ
        }
        BasilMsg::ReadReply(m) => {
            put_read_reply(out, m);
            TAG_READ_REPLY
        }
        BasilMsg::St1(m) => {
            put_tx(out, &m.tx);
            out.put_opt(m.auth.as_ref(), put_signature);
            out.put_bool(m.recovery);
            TAG_ST1
        }
        BasilMsg::St1Reply(m) => {
            put_st1_reply(out, m);
            TAG_ST1_REPLY
        }
        BasilMsg::St2(m) => {
            out.put_txid(&m.txid);
            out.put_u8(m.decision.tag());
            out.put_seq(&m.shard_votes, put_shard_votes);
            out.put_u64(m.view);
            out.put_opt(m.auth.as_ref(), put_signature);
            TAG_ST2
        }
        BasilMsg::St2Reply(m) => {
            put_st2_reply(out, m);
            TAG_ST2_REPLY
        }
        BasilMsg::Writeback(m) => {
            put_writeback(out, m);
            TAG_WRITEBACK
        }
        BasilMsg::RtsRelease { key, ts } => {
            out.put_key(key);
            out.put_ts(*ts);
            TAG_RTS_RELEASE
        }
        BasilMsg::InvokeFb(m) => {
            out.put_txid(&m.txid);
            out.put_seq(&m.views, put_st2_reply);
            out.put_opt(m.auth.as_ref(), put_signature);
            TAG_INVOKE_FB
        }
        BasilMsg::ElectFb(m) => {
            put_elect_fb(out, m);
            TAG_ELECT_FB
        }
        BasilMsg::DecFb(m) => {
            out.put_txid(&m.txid);
            out.put_u8(m.decision.tag());
            out.put_u64(m.view);
            out.put_seq(&m.elect_proof, put_elect_fb);
            out.put_opt(m.auth.as_ref(), put_batch_proof);
            TAG_DEC_FB
        }
        BasilMsg::CatchUpRequest => TAG_CATCH_UP_REQUEST,
        BasilMsg::CatchUpReply(m) => {
            out.put_seq(&m.entries, put_writeback);
            TAG_CATCH_UP_REPLY
        }
        BasilMsg::ClientTimer(_) | BasilMsg::ReplicaTimer(_) => {
            return Err(WireError::NotWireMessage)
        }
    };
    Ok(())
}

fn put_digest(out: &mut impl Sink, d: &Digest) {
    out.put_bytes(d.as_bytes());
}

fn put_signature(out: &mut impl Sink, s: &Signature) {
    out.put_node(s.signer);
    put_digest(out, &s.tag);
}

fn put_batch_proof(out: &mut impl Sink, p: &BatchProof) {
    put_digest(out, &p.root);
    put_signature(out, &p.root_signature);
    out.put_count(p.inclusion.leaf_index);
    out.put_count(p.inclusion.leaf_count);
    out.put_seq(&p.inclusion.siblings, put_sibling);
}

fn put_sibling(out: &mut impl Sink, sib: &Option<Digest>) {
    out.put_opt(sib.as_ref(), put_digest)
}

fn put_tx(out: &mut impl Sink, tx: &Transaction) {
    out.put_len_prefixed(tx.encoded());
}

fn put_read_reply(out: &mut impl Sink, m: &ReadReply) {
    out.put_u64(m.body.req_id);
    out.put_key(&m.body.key);
    out.put_opt(m.body.committed.as_ref(), |out, c| {
        out.put_ts(c.version);
        out.put_value(&c.value);
        out.put_txid(&c.txid);
        out.put_opt(c.cert.as_deref(), put_cert);
        out.put_opt(c.tx.as_deref(), put_tx);
    });
    out.put_opt(m.body.prepared.as_ref(), |out, p| put_tx(out, &p.tx));
    out.put_opt(m.proof.as_ref(), put_signature);
}

fn put_st1_reply(out: &mut impl Sink, m: &SignedSt1Reply) {
    out.put_txid(&m.body.txid);
    out.put_replica(m.body.replica);
    out.put_u8(m.body.vote.tag());
    out.put_opt(m.proof.as_ref(), put_batch_proof);
}

fn put_st2_reply(out: &mut impl Sink, m: &SignedSt2Reply) {
    out.put_txid(&m.body.txid);
    out.put_replica(m.body.replica);
    out.put_u8(m.body.decision.tag());
    out.put_u64(m.body.view_decision);
    out.put_u64(m.body.view_current);
    out.put_opt(m.proof.as_ref(), put_batch_proof);
}

fn put_elect_fb(out: &mut impl Sink, m: &SignedElectFb) {
    out.put_txid(&m.body.txid);
    out.put_replica(m.body.replica);
    out.put_opt(m.body.decision.as_ref(), |out, d| out.put_u8(d.tag()));
    out.put_u64(m.body.view);
    out.put_opt(m.proof.as_ref(), put_batch_proof);
}

fn put_shard_votes(out: &mut impl Sink, sv: &ShardVotes) {
    out.put_txid(&sv.txid);
    out.put_u32(sv.shard.0);
    out.put_u8(sv.decision.tag());
    out.put_seq(&sv.votes, put_st1_reply);
}

fn put_vote_cert(out: &mut impl Sink, vc: &VoteCert) {
    out.put_txid(&vc.txid);
    out.put_u32(vc.shard.0);
    out.put_u8(vc.decision.tag());
    out.put_u64(vc.view);
    out.put_seq(&vc.replies, put_st2_reply);
}

/// `[kind][txid][fast evidence][optional slow evidence]`: a commit's fast
/// evidence is a sequence of shard vote sets, an abort's an optional one,
/// and exactly one of the two kinds of evidence is present.
fn put_cert(out: &mut impl Sink, cert: &DecisionCert) {
    let commit = cert.decision().is_commit();
    out.put_u8(if commit { CERT_COMMIT } else { CERT_ABORT });
    out.put_txid(&cert.txid);
    match &cert.proof {
        DecisionProof::FastCommit(votes) => out.put_seq(votes, put_shard_votes),
        DecisionProof::FastAbort(sv) => out.put_opt(Some(sv), put_shard_votes),
        // No fast evidence: an empty sequence, or an absent vote set.
        DecisionProof::Slow(_) if commit => out.put_count(0),
        DecisionProof::Slow(_) => out.put_bool(false),
    }
    let slow = match &cert.proof {
        DecisionProof::Slow(vc) => Some(vc),
        _ => None,
    };
    out.put_opt(slow, put_vote_cert);
}

fn put_writeback(out: &mut impl Sink, wb: &Writeback) {
    put_cert(out, &wb.cert);
    out.put_opt(wb.tx.as_deref(), put_tx);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn take_digest(r: &mut Reader<'_>) -> Result<Digest, WireError> {
    Ok(Digest(r.array()?))
}

fn take_vote(r: &mut Reader<'_>) -> Result<ProtoVote, WireError> {
    let tag = r.u8()?;
    ProtoVote::from_tag(tag).ok_or(WireError::BadTag { tag })
}

fn take_decision(r: &mut Reader<'_>) -> Result<ProtoDecision, WireError> {
    let tag = r.u8()?;
    ProtoDecision::from_tag(tag).ok_or(WireError::BadTag { tag })
}

fn take_signature(r: &mut Reader<'_>) -> Result<Signature, WireError> {
    Ok(Signature {
        signer: r.node()?,
        tag: take_digest(r)?,
    })
}

fn take_batch_proof(r: &mut Reader<'_>) -> Result<BatchProof, WireError> {
    Ok(BatchProof {
        root: take_digest(r)?,
        root_signature: take_signature(r)?,
        inclusion: MerkleProof {
            leaf_index: r.u32()? as usize,
            leaf_count: r.u32()? as usize,
            siblings: r.seq(MIN_SIBLING, |r| r.opt(take_digest))?,
        },
    })
}

fn take_tx(r: &mut Reader<'_>) -> Result<Arc<Transaction>, WireError> {
    Transaction::decode(r.len_prefixed()?)
        .map(Arc::new)
        .map_err(|_| WireError::BadTransaction)
}

fn take_st1_reply(r: &mut Reader<'_>) -> Result<SignedSt1Reply, WireError> {
    Ok(SignedSt1Reply {
        body: St1ReplyBody {
            txid: r.txid()?,
            replica: r.replica()?,
            vote: take_vote(r)?,
        },
        proof: r.opt(take_batch_proof)?,
    })
}

fn take_st2_reply(r: &mut Reader<'_>) -> Result<SignedSt2Reply, WireError> {
    Ok(SignedSt2Reply {
        body: St2ReplyBody {
            txid: r.txid()?,
            replica: r.replica()?,
            decision: take_decision(r)?,
            view_decision: r.u64()?,
            view_current: r.u64()?,
        },
        proof: r.opt(take_batch_proof)?,
    })
}

fn take_elect_fb(r: &mut Reader<'_>) -> Result<SignedElectFb, WireError> {
    Ok(SignedElectFb {
        body: ElectFbBody {
            txid: r.txid()?,
            replica: r.replica()?,
            decision: r.opt(take_decision)?,
            view: r.u64()?,
        },
        proof: r.opt(take_batch_proof)?,
    })
}

fn take_shard_votes(r: &mut Reader<'_>) -> Result<ShardVotes, WireError> {
    Ok(ShardVotes {
        txid: r.txid()?,
        shard: ShardId(r.u32()?),
        decision: take_decision(r)?,
        votes: r.seq(MIN_ST1_REPLY, take_st1_reply)?,
    })
}

fn take_vote_cert(r: &mut Reader<'_>) -> Result<VoteCert, WireError> {
    Ok(VoteCert {
        txid: r.txid()?,
        shard: ShardId(r.u32()?),
        decision: take_decision(r)?,
        view: r.u64()?,
        replies: r.seq(MIN_ST2_REPLY, take_st2_reply)?,
    })
}

fn take_cert(r: &mut Reader<'_>) -> Result<DecisionCert, WireError> {
    let (decision, txid, fast) = match r.u8()? {
        CERT_COMMIT => {
            let txid = r.txid()?;
            let votes = r.seq(MIN_SHARD_VOTES, take_shard_votes)?;
            let fast = (!votes.is_empty()).then_some(DecisionProof::FastCommit(votes));
            (ProtoDecision::Commit, txid, fast)
        }
        CERT_ABORT => {
            let txid = r.txid()?;
            let fast = r.opt(take_shard_votes)?.map(DecisionProof::FastAbort);
            (ProtoDecision::Abort, txid, fast)
        }
        tag => return Err(WireError::BadTag { tag }),
    };
    let proof = match (fast, r.opt(take_vote_cert)?) {
        (Some(fast), None) => fast,
        (None, Some(vc)) if vc.decision == decision => DecisionProof::Slow(vc),
        _ => return Err(WireError::BadCert),
    };
    Ok(DecisionCert { txid, proof })
}

fn take_writeback(r: &mut Reader<'_>) -> Result<Writeback, WireError> {
    Ok(Writeback {
        cert: Arc::new(take_cert(r)?),
        tx: r.opt(take_tx)?,
    })
}

/// Splits one frame off the front of `buf`, verifying the checksum.
///
/// Returns `Ok(None)` when `buf` holds only a partial frame (read more), or
/// `Ok(Some((payload, consumed)))` with the checksum-verified payload and
/// the total frame size to drain. Oversized and corrupt frames are errors —
/// the caller drops the connection.
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, WireError> {
    Ok(frame::split(buf, MAX_FRAME)?)
}

/// Decodes a checksum-verified frame payload into the sender and message.
/// The message must fill the payload: bytes after it are an error.
pub fn decode_frame_payload(payload: &[u8]) -> Result<(NodeId, BasilMsg), WireError> {
    let mut reader = Reader::new(payload);
    let r = &mut reader;
    let tag = r.u8()?;
    let from = r.node()?;
    let msg = match tag {
        TAG_READ => BasilMsg::Read(ReadRequest {
            req_id: r.u64()?,
            key: r.key()?,
            ts: r.ts()?,
            auth: r.opt(take_signature)?,
        }),
        TAG_READ_REPLY => BasilMsg::ReadReply(ReadReply {
            body: ReadReplyBody {
                req_id: r.u64()?,
                key: r.key()?,
                committed: r.opt(|r| {
                    Ok::<_, WireError>(CommittedRead {
                        version: r.ts()?,
                        value: r.value()?,
                        txid: r.txid()?,
                        cert: r.opt(take_cert)?.map(Arc::new),
                        tx: r.opt(take_tx)?,
                    })
                })?,
                prepared: r.opt(|r| take_tx(r).map(|tx| PreparedRead { tx }))?,
            },
            proof: r.opt(take_signature)?,
        }),
        TAG_ST1 => BasilMsg::St1(St1 {
            tx: take_tx(r)?,
            auth: r.opt(take_signature)?,
            recovery: r.bool()?,
        }),
        TAG_ST1_REPLY => BasilMsg::St1Reply(take_st1_reply(r)?),
        TAG_ST2 => BasilMsg::St2(St2 {
            txid: r.txid()?,
            decision: take_decision(r)?,
            shard_votes: r.seq(MIN_SHARD_VOTES, take_shard_votes)?,
            view: r.u64()?,
            auth: r.opt(take_signature)?,
        }),
        TAG_ST2_REPLY => BasilMsg::St2Reply(take_st2_reply(r)?),
        TAG_WRITEBACK => BasilMsg::Writeback(take_writeback(r)?),
        TAG_RTS_RELEASE => BasilMsg::RtsRelease {
            key: r.key()?,
            ts: r.ts()?,
        },
        TAG_INVOKE_FB => BasilMsg::InvokeFb(InvokeFb {
            txid: r.txid()?,
            views: r.seq(MIN_ST2_REPLY, take_st2_reply)?,
            auth: r.opt(take_signature)?,
        }),
        TAG_ELECT_FB => BasilMsg::ElectFb(take_elect_fb(r)?),
        TAG_DEC_FB => BasilMsg::DecFb(DecFb {
            txid: r.txid()?,
            decision: take_decision(r)?,
            view: r.u64()?,
            elect_proof: r.seq(MIN_ELECT_FB, take_elect_fb)?,
            auth: r.opt(take_batch_proof)?,
        }),
        TAG_CATCH_UP_REQUEST => BasilMsg::CatchUpRequest,
        TAG_CATCH_UP_REPLY => BasilMsg::CatchUpReply(CatchUpReply {
            entries: r.seq(MIN_WRITEBACK, take_writeback)?,
        }),
        tag => return Err(WireError::BadTag { tag }),
    };
    reader.finish()?;
    Ok((from, msg))
}

/// Incremental frame reassembly over a byte stream.
///
/// Feed raw socket reads in with [`FrameReader::extend`], pull decoded
/// `(sender, message)` pairs out with [`FrameReader::next_msg`]. The first
/// malformed frame poisons the stream — the connection carrying it should
/// be dropped, exactly like a WAL truncating at its first bad frame.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` that `next_msg` has already decoded.
    consumed: usize,
}

impl FrameReader {
    /// Creates an empty reassembly buffer.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends freshly read bytes. Decoded frames are dropped from the
    /// buffer here, once per read, rather than once per frame.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Decodes the next complete frame, if one is buffered.
    ///
    /// `Ok(None)` means "need more bytes"; an error means the stream is
    /// corrupt and the connection must be dropped.
    pub fn next_msg(&mut self) -> Result<Option<(NodeId, BasilMsg)>, WireError> {
        let Some((payload, frame_len)) = split_frame(&self.buf[self.consumed..])? else {
            return Ok(None);
        };
        let decoded = decode_frame_payload(payload)?;
        self.consumed += frame_len;
        Ok(Some(decoded))
    }

    /// Bytes buffered and not yet consumed (for backpressure accounting in
    /// tests).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::{ReplicaId, TxId};

    fn len<T>(item: &T, put: impl FnOnce(&mut Vec<u8>, &T)) -> usize {
        let mut out = Vec::new();
        put(&mut out, item);
        out.len()
    }

    /// Each `seq` bound is at most the length of the smallest item the encoder
    /// writes for it (no optional part, no nested item): a larger bound makes
    /// `Reader::count` refuse a valid frame as `BadLength`.
    #[test]
    fn seq_bounds_do_not_exceed_the_smallest_item() {
        let txid = TxId::from_bytes([0; 32]);
        let replica = ReplicaId::new(ShardId(0), 0);
        let st1_reply = SignedSt1Reply {
            body: St1ReplyBody {
                txid,
                replica,
                vote: ProtoVote::Abort,
            },
            proof: None,
        };
        let shard_votes = ShardVotes {
            txid,
            shard: ShardId(0),
            decision: ProtoDecision::Abort,
            votes: vec![],
        };
        let st2_reply = SignedSt2Reply {
            body: St2ReplyBody {
                txid,
                replica,
                decision: ProtoDecision::Abort,
                view_decision: 0,
                view_current: 0,
            },
            proof: None,
        };
        let elect_fb = SignedElectFb {
            body: ElectFbBody {
                txid,
                replica,
                decision: None,
                view: 0,
            },
            proof: None,
        };
        let proof = DecisionProof::FastCommit(vec![]);
        let writeback = Writeback {
            cert: Arc::new(DecisionCert { txid, proof }),
            tx: None,
        };
        assert!(MIN_SIBLING <= len(&None, put_sibling));
        assert!(MIN_ST1_REPLY <= len(&st1_reply, put_st1_reply));
        assert!(MIN_SHARD_VOTES <= len(&shard_votes, put_shard_votes));
        assert!(MIN_ST2_REPLY <= len(&st2_reply, put_st2_reply));
        assert!(MIN_ELECT_FB <= len(&elect_fb, put_elect_fb));
        assert!(MIN_WRITEBACK <= len(&writeback, put_writeback));
    }
}
