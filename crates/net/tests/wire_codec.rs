//! Wire codec round-trips and rejection paths.
//!
//! Round-trip equality is checked by re-encoding: the codec is
//! deterministic, so `encode(decode(encode(m))) == encode(m)` pins every
//! field without requiring `PartialEq` on the message types. The rejection
//! tests pin the codec's totality: truncation, oversized lengths, flipped
//! bytes, unknown tags, and trailing bytes are all typed errors.

use basil_common::codec::Sink;
use basil_common::{ClientId, Key, NodeId, ReplicaId, ShardId, Timestamp, TxId, Value};
use basil_core::certs::{DecisionCert, DecisionProof, ShardVotes, VoteCert};
use basil_core::messages::{
    BasilMsg, CatchUpReply, ClientTimer, CommittedRead, DecFb, ElectFbBody, InvokeFb, PreparedRead,
    ProtoDecision, ProtoVote, ReadReply, ReadReplyBody, ReadRequest, ReplicaTimer, SignedElectFb,
    SignedSt1Reply, SignedSt2Reply, St1, St1ReplyBody, St2, St2ReplyBody, Writeback,
};
use basil_crypto::{BatchProof, Digest, MerkleProof, Signature};
use basil_net::wire::{
    decode_frame_payload, encode_msg, split_frame, FrameReader, WireError, FRAME_HEADER, MAX_FRAME,
};
use basil_store::TransactionBuilder;
use std::sync::Arc;

fn ts(t: u64, c: u64) -> Timestamp {
    Timestamp::from_nanos(t, ClientId(c))
}

fn rep(i: u32) -> ReplicaId {
    ReplicaId::new(ShardId(0), i)
}

fn tx(t: u64) -> Arc<basil_store::Transaction> {
    let mut b = TransactionBuilder::new(ts(t, 7));
    b.record_write(Key::new(format!("k{t}")), Value::from_u64(t));
    b.build_shared()
}

fn proof(signer: NodeId, fill: u8) -> BatchProof {
    BatchProof {
        root: Digest([fill; 32]),
        root_signature: Signature {
            signer,
            tag: Digest([fill.wrapping_add(1); 32]),
        },
        inclusion: MerkleProof {
            leaf_index: 3,
            leaf_count: 8,
            siblings: vec![Some(Digest([fill.wrapping_add(2); 32])), None],
        },
    }
}

/// A MAC with the signer and tag `proof(signer, fill)` signs its root with.
fn mac(signer: NodeId, fill: u8) -> Signature {
    proof(signer, fill).root_signature
}

fn st1_vote(i: u32, vote: ProtoVote) -> SignedSt1Reply {
    SignedSt1Reply {
        body: St1ReplyBody {
            txid: TxId::from_bytes([i as u8; 32]),
            replica: rep(i),
            vote,
        },
        proof: Some(proof(NodeId::Replica(rep(i)), i as u8)),
    }
}

fn st2_reply(i: u32) -> SignedSt2Reply {
    SignedSt2Reply {
        body: St2ReplyBody {
            txid: TxId::from_bytes([9; 32]),
            replica: rep(i),
            decision: ProtoDecision::Commit,
            view_decision: 0,
            view_current: 1,
        },
        proof: Some(proof(NodeId::Replica(rep(i)), 40 + i as u8)),
    }
}

fn commit_votes() -> ShardVotes {
    ShardVotes {
        txid: TxId::from_bytes([9; 32]),
        shard: ShardId(0),
        decision: ProtoDecision::Commit,
        votes: (0..3).map(|i| st1_vote(i, ProtoVote::Commit)).collect(),
    }
}

/// `decision` logged for `txid` on shard 0 in view 1.
fn vote_cert(txid: TxId, decision: ProtoDecision) -> VoteCert {
    VoteCert {
        txid,
        shard: ShardId(0),
        decision,
        view: 1,
        replies: (0..2)
            .map(|i| {
                let mut reply = st2_reply(i);
                reply.body.txid = txid;
                reply.body.decision = decision;
                reply
            })
            .collect(),
    }
}

fn fast_commit_cert() -> DecisionCert {
    DecisionCert {
        txid: TxId::from_bytes([9; 32]),
        proof: DecisionProof::FastCommit(vec![commit_votes()]),
    }
}

fn slow_commit_cert() -> DecisionCert {
    let txid = TxId::from_bytes([9; 32]);
    DecisionCert {
        txid,
        proof: DecisionProof::Slow(vote_cert(txid, ProtoDecision::Commit)),
    }
}

/// `3f + 1` abort votes from one shard.
fn fast_abort_cert() -> DecisionCert {
    let txid = TxId::from_bytes([8; 32]);
    DecisionCert {
        txid,
        proof: DecisionProof::FastAbort(ShardVotes {
            txid,
            shard: ShardId(0),
            decision: ProtoDecision::Abort,
            votes: (0..4).map(|i| st1_vote(i, ProtoVote::Abort)).collect(),
        }),
    }
}

fn slow_abort_cert() -> DecisionCert {
    let txid = TxId::from_bytes([7; 32]);
    DecisionCert {
        txid,
        proof: DecisionProof::Slow(vote_cert(txid, ProtoDecision::Abort)),
    }
}

/// Every wire-encodable message variant, with nested certificates and
/// proofs present wherever the type allows them, and a certificate of each
/// shape: fast commit, slow commit, fast abort, slow abort.
fn representative_messages() -> Vec<BasilMsg> {
    let client = NodeId::Client(ClientId(4));
    vec![
        BasilMsg::Read(ReadRequest {
            req_id: 17,
            key: Key::new("user42"),
            ts: ts(1_000, 4),
            auth: Some(mac(client, 1)),
        }),
        BasilMsg::ReadReply(ReadReply {
            body: ReadReplyBody {
                req_id: 17,
                key: Key::new("user42"),
                committed: Some(CommittedRead {
                    version: ts(900, 2),
                    value: Value::from_u64(5),
                    txid: TxId::from_bytes([9; 32]),
                    cert: Some(Arc::new(fast_commit_cert())),
                    tx: Some(tx(900)),
                }),
                prepared: Some(PreparedRead { tx: tx(950) }),
            },
            proof: Some(mac(NodeId::Replica(rep(0)), 2)),
        }),
        BasilMsg::St1(St1 {
            tx: tx(1_000),
            auth: Some(mac(client, 3)),
            recovery: true,
        }),
        BasilMsg::St1Reply(st1_vote(2, ProtoVote::Abort)),
        BasilMsg::St2(St2 {
            txid: TxId::from_bytes([9; 32]),
            decision: ProtoDecision::Commit,
            shard_votes: vec![ShardVotes {
                txid: TxId::from_bytes([9; 32]),
                shard: ShardId(0),
                decision: ProtoDecision::Commit,
                votes: (0..4).map(|i| st1_vote(i, ProtoVote::Commit)).collect(),
            }],
            view: 0,
            auth: Some(mac(client, 5)),
        }),
        BasilMsg::St2Reply(st2_reply(1)),
        BasilMsg::Writeback(Writeback {
            cert: Arc::new(slow_commit_cert()),
            tx: Some(tx(1_000)),
        }),
        BasilMsg::RtsRelease {
            key: Key::new("user42"),
            ts: ts(1_000, 4),
        },
        BasilMsg::InvokeFb(InvokeFb {
            txid: TxId::from_bytes([9; 32]),
            views: (0..3).map(st2_reply).collect(),
            auth: Some(mac(client, 6)),
        }),
        BasilMsg::ElectFb(SignedElectFb {
            body: ElectFbBody {
                txid: TxId::from_bytes([9; 32]),
                replica: rep(3),
                decision: Some(ProtoDecision::Abort),
                view: 2,
            },
            proof: Some(proof(NodeId::Replica(rep(3)), 7)),
        }),
        BasilMsg::DecFb(DecFb {
            txid: TxId::from_bytes([9; 32]),
            decision: ProtoDecision::Commit,
            view: 2,
            elect_proof: vec![SignedElectFb {
                body: ElectFbBody {
                    txid: TxId::from_bytes([9; 32]),
                    replica: rep(0),
                    decision: None,
                    view: 2,
                },
                proof: None,
            }],
            auth: None,
        }),
        BasilMsg::CatchUpRequest,
        BasilMsg::CatchUpReply(CatchUpReply {
            entries: vec![
                Writeback {
                    cert: Arc::new(fast_commit_cert()),
                    tx: Some(tx(1_000)),
                },
                Writeback {
                    cert: Arc::new(fast_abort_cert()),
                    tx: None,
                },
                Writeback {
                    cert: Arc::new(slow_abort_cert()),
                    tx: None,
                },
            ],
        }),
    ]
}

#[test]
fn every_variant_round_trips_byte_identically() {
    let from = NodeId::Client(ClientId(4));
    for msg in representative_messages() {
        let frame = encode_msg(from, &msg).expect("wire variants encode");
        let (payload, consumed) = split_frame(&frame)
            .expect("own frames verify")
            .expect("complete frame");
        assert_eq!(consumed, frame.len(), "one frame, fully consumed");
        let (decoded_from, decoded) = decode_frame_payload(payload).expect("own payloads decode");
        assert_eq!(decoded_from, from);
        let reencoded = encode_msg(from, &decoded).expect("decoded messages re-encode");
        assert_eq!(
            reencoded, frame,
            "canonical: decode then encode is identity"
        );
    }
}

#[test]
fn replica_sender_round_trips() {
    let from = NodeId::Replica(rep(5));
    let msg = BasilMsg::St1Reply(st1_vote(5, ProtoVote::Commit));
    let frame = encode_msg(from, &msg).unwrap();
    let (payload, _) = split_frame(&frame).unwrap().unwrap();
    let (decoded_from, _) = decode_frame_payload(payload).unwrap();
    assert_eq!(decoded_from, from);
}

#[test]
fn timer_variants_are_not_wire_messages() {
    let from = NodeId::Client(ClientId(0));
    let client_timer = BasilMsg::ClientTimer(ClientTimer::RetryBackoff);
    let replica_timer = BasilMsg::ReplicaTimer(ReplicaTimer::BatchFlush);
    assert_eq!(
        encode_msg(from, &client_timer),
        Err(WireError::NotWireMessage)
    );
    assert_eq!(
        encode_msg(from, &replica_timer),
        Err(WireError::NotWireMessage)
    );
}

#[test]
fn partial_frames_wait_for_more_bytes() {
    let from = NodeId::Client(ClientId(4));
    let msg = BasilMsg::RtsRelease {
        key: Key::new("user1"),
        ts: ts(5, 4),
    };
    let frame = encode_msg(from, &msg).unwrap();
    // Every strict prefix is "need more bytes", never an error: stream
    // reads may split frames anywhere.
    for cut in 0..frame.len() {
        assert_eq!(
            split_frame(&frame[..cut]).expect("prefixes are not errors"),
            None,
            "prefix of {cut} bytes should wait"
        );
    }
}

#[test]
fn corrupt_checksum_is_rejected() {
    let from = NodeId::Client(ClientId(4));
    let msg = BasilMsg::RtsRelease {
        key: Key::new("user1"),
        ts: ts(5, 4),
    };
    let mut frame = encode_msg(from, &msg).unwrap();
    let last = frame.len() - 1;
    frame[last] ^= 0x40;
    assert_eq!(split_frame(&frame), Err(WireError::ChecksumMismatch));
}

#[test]
fn oversized_length_is_rejected_before_allocation() {
    let mut header = vec![0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&((MAX_FRAME as u32) + 1).to_be_bytes());
    match split_frame(&header) {
        Err(WireError::Oversized { len }) => assert_eq!(len, MAX_FRAME + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn truncated_payload_is_a_typed_error() {
    let from = NodeId::Client(ClientId(4));
    for msg in representative_messages() {
        let frame = encode_msg(from, &msg).unwrap();
        let payload = &frame[FRAME_HEADER..];
        // Chop the payload anywhere: decode must fail cleanly, not panic.
        for cut in [1usize, payload.len() / 2, payload.len() - 1] {
            let cut = cut.min(payload.len() - 1);
            assert!(
                decode_frame_payload(&payload[..cut]).is_err(),
                "truncated payload decoded"
            );
        }
    }
}

#[test]
fn unknown_tags_are_rejected() {
    // Unknown message tag.
    assert!(matches!(
        decode_frame_payload(&[200, 1, 0, 0, 0, 0, 0, 0, 0, 4]),
        Err(WireError::BadTag { tag: 200 })
    ));
    // Unknown node tag.
    assert!(matches!(
        decode_frame_payload(&[1, 7]),
        Err(WireError::BadTag { tag: 7 })
    ));
}

#[test]
fn flipped_bytes_never_panic_the_decoder() {
    let from = NodeId::Client(ClientId(4));
    for msg in representative_messages() {
        let frame = encode_msg(from, &msg).unwrap();
        let payload = frame[FRAME_HEADER..].to_vec();
        // Flip each byte in turn (checksum already stripped: this attacks
        // the payload decoder directly). Any result is fine except a panic,
        // and a changed first byte must not decode as the original tag.
        for at in 0..payload.len() {
            let mut bad = payload.clone();
            bad[at] ^= 0xA5;
            let _ = decode_frame_payload(&bad);
        }
    }
}

#[test]
fn frame_reader_reassembles_byte_by_byte() {
    let from = NodeId::Replica(rep(1));
    let msgs = vec![
        BasilMsg::CatchUpRequest,
        BasilMsg::St1Reply(st1_vote(1, ProtoVote::Commit)),
        BasilMsg::RtsRelease {
            key: Key::new("user9"),
            ts: ts(44, 2),
        },
    ];
    let mut stream = Vec::new();
    for m in &msgs {
        stream.extend_from_slice(&encode_msg(from, m).unwrap());
    }
    let mut reader = FrameReader::new();
    let mut decoded = Vec::new();
    for byte in stream {
        reader.extend(&[byte]);
        while let Some((f, m)) = reader.next_msg().expect("clean stream") {
            assert_eq!(f, from);
            decoded.push(m);
        }
    }
    assert_eq!(decoded.len(), msgs.len());
    assert_eq!(reader.buffered(), 0, "no leftover bytes");
    for (original, roundtripped) in msgs.iter().zip(&decoded) {
        assert_eq!(
            encode_msg(from, original).unwrap(),
            encode_msg(from, roundtripped).unwrap()
        );
    }
}

#[test]
fn frame_reader_poisons_on_first_bad_frame() {
    let from = NodeId::Replica(rep(1));
    let good = encode_msg(from, &BasilMsg::CatchUpRequest).unwrap();
    let mut corrupt = good.clone();
    corrupt[FRAME_HEADER] ^= 0xFF; // payload byte: checksum now mismatches
    let mut reader = FrameReader::new();
    reader.extend(&good);
    reader.extend(&corrupt);
    assert!(reader.next_msg().expect("first frame is clean").is_some());
    assert!(reader.next_msg().is_err(), "corrupt frame is an error");
}

#[test]
fn trailing_bytes_after_a_message_are_rejected() {
    let from = NodeId::Client(ClientId(4));
    for msg in representative_messages() {
        let frame = encode_msg(from, &msg).unwrap();
        // The checksum is already stripped, as it is for a peer that
        // computes a valid one over a padded payload.
        let mut padded = frame[FRAME_HEADER..].to_vec();
        padded.push(0);
        assert!(
            matches!(decode_frame_payload(&padded), Err(WireError::BadLength)),
            "a payload with one byte after the message decoded"
        );
    }
}

#[test]
fn frame_reader_drains_many_frames_from_one_read() {
    let from = NodeId::Replica(rep(1));
    let frame = encode_msg(from, &BasilMsg::St2Reply(st2_reply(1))).unwrap();
    let partial = &frame[..frame.len() / 2];
    let mut reader = FrameReader::new();
    reader.extend(&[frame.repeat(200).as_slice(), partial].concat());
    for drained in 0..200 {
        assert_eq!(
            reader.buffered(),
            (200 - drained) * frame.len() + partial.len(),
            "buffered() counts exactly the bytes not yet consumed"
        );
        let (f, m) = reader.next_msg().expect("clean stream").expect("a frame");
        assert_eq!(f, from);
        assert_eq!(encode_msg(from, &m).unwrap(), frame);
    }
    assert!(reader.next_msg().expect("clean stream").is_none());
    assert_eq!(reader.buffered(), partial.len());
    // The rest of the cut frame arrives with the next read.
    reader.extend(&frame[partial.len()..]);
    assert!(reader.next_msg().expect("clean stream").is_some());
    assert_eq!(reader.buffered(), 0);
}

/// A message every receiver would refuse as oversized is refused by the
/// encoder instead: an honest replica's huge catch-up reply must not reach
/// its peer as a "malformed" frame that costs the connection.
#[test]
fn oversized_messages_are_refused_at_the_sender() {
    let mut b = TransactionBuilder::new(ts(1, 7));
    b.record_write(Key::new("big"), Value::new(vec![0u8; MAX_FRAME]));
    let msg = BasilMsg::CatchUpReply(CatchUpReply {
        entries: vec![Writeback {
            cert: Arc::new(fast_commit_cert()),
            tx: Some(b.build_shared()),
        }],
    });
    match encode_msg(NodeId::Replica(rep(1)), &msg) {
        Err(WireError::Oversized { len }) => assert!(len > MAX_FRAME),
        other => panic!("expected Oversized, got {:?}", other.map(|f| f.len())),
    }
}

/// The `[msg tag][sender]` prefix of a Writeback payload from `from`.
fn writeback_head(from: NodeId) -> Vec<u8> {
    let msg = BasilMsg::Writeback(Writeback {
        cert: Arc::new(fast_commit_cert()),
        tx: None,
    });
    let frame = encode_msg(from, &msg).unwrap();
    let mut sender = Vec::new();
    sender.put_node(from);
    frame[FRAME_HEADER..FRAME_HEADER + 1 + sender.len()].to_vec()
}

/// The bytes the encoder writes for `cert`: those of a Writeback without a
/// body, minus the head and the trailing "no body" byte.
fn cert_bytes(cert: DecisionCert) -> Vec<u8> {
    let from = NodeId::Client(ClientId(4));
    let msg = BasilMsg::Writeback(Writeback {
        cert: Arc::new(cert),
        tx: None,
    });
    let frame = encode_msg(from, &msg).unwrap();
    frame[FRAME_HEADER + writeback_head(from).len()..frame.len() - 1].to_vec()
}

/// Decodes `cert` as the certificate of a Writeback without a body.
fn decode_cert(cert: &[u8]) -> Result<(), WireError> {
    let head = writeback_head(NodeId::Client(ClientId(4)));
    decode_frame_payload(&[&head[..], cert, &[0]].concat()).map(drop)
}

/// A certificate is `[kind][txid][fast evidence][optional slow evidence]`,
/// and the one certificate type holds exactly one proof of its decision.
/// Spliced from the encodings of the four legal shapes, every other
/// combination is a typed error.
#[test]
fn certificates_without_exactly_one_proof_of_their_decision_are_rejected() {
    let fast_commit = cert_bytes(fast_commit_cert());
    let slow_commit = cert_bytes(slow_commit_cert());
    let fast_abort = cert_bytes(fast_abort_cert());
    let slow_abort = cert_bytes(slow_abort_cert());
    for legal in [&fast_commit, &slow_commit, &fast_abort, &slow_abort] {
        assert_eq!(decode_cert(legal), Ok(()));
    }
    // Where the slow evidence starts: after kind, txid and an empty vote
    // set sequence (commit) or an absent vote set (abort).
    let (commit_slow, abort_slow) = (1 + 32 + 4, 1 + 32 + 1);
    let no_slow: &[u8] = &[0];
    let cases = [
        (
            "commit with both proofs",
            [
                &fast_commit[..fast_commit.len() - 1],
                &slow_commit[commit_slow..],
            ]
            .concat(),
        ),
        (
            "commit with neither proof",
            [&slow_commit[..commit_slow], no_slow].concat(),
        ),
        (
            "commit over logged aborts",
            [&slow_commit[..commit_slow], &slow_abort[abort_slow..]].concat(),
        ),
        (
            "abort with both proofs",
            [
                &fast_abort[..fast_abort.len() - 1],
                &slow_abort[abort_slow..],
            ]
            .concat(),
        ),
        (
            "abort with neither proof",
            [&slow_abort[..abort_slow], no_slow].concat(),
        ),
        (
            "abort over logged commits",
            [&slow_abort[..abort_slow], &slow_commit[commit_slow..]].concat(),
        ),
    ];
    for (shape, bytes) in cases {
        assert_eq!(decode_cert(&bytes), Err(WireError::BadCert), "{shape}");
    }
}

/// Every byte a node puts on the wire. The digest was captured over this
/// fixture by the encoder of the commit before certificates became one
/// type, so the change of type moved no byte. It moved once since, when the
/// catch-up request and reply lost their self-declared sender (the
/// receiver uses the transport sender): those two frames each lost that
/// replica id, and every other frame kept every byte. It moved again when
/// votes stopped carrying a conflicting commit certificate: every ST1 reply
/// and every shard vote set lost its option byte for one, the ST1 reply
/// that carried one became a plain abort vote, and the fast abort that was
/// one such vote became `3f + 1` abort votes. It moved again when a
/// committed read began to carry its writer's body: the read reply frame
/// grew by the option byte and the length-prefixed transaction (849 to 902
/// bytes), and the other twelve frames kept every byte. It moved again when
/// a MAC became a bare signature and a batch proof stopped repeating its
/// leaf count: the fixture's five MAC'd frames (READ, read reply, ST1, ST2,
/// InvokeFB) each lost the 82 bytes of root, two-level path and batch size
/// their proof carried, and every batch proof 4 bytes. READ went from 176
/// to 94 bytes, the read reply from 902 to 808, ST1 from 196 to 114, ST2
/// from 888 to 790, InvokeFB from 721 to 627, the catch-up reply from 1834
/// to 1798; RTS release, DecFB and the catch-up request kept every byte.
#[test]
fn wire_frames_are_byte_identical_to_the_hand_written_encoders() {
    let from = NodeId::Client(ClientId(4));
    let stream: Vec<u8> = representative_messages()
        .iter()
        .flat_map(|msg| encode_msg(from, msg).unwrap())
        .collect();
    assert_eq!(
        basil_crypto::Sha256::digest(&stream).to_hex(),
        "ffceb05ea092ba62dffe69174da0974331aab9e4586006c8110f399443271ec9"
    );
}

/// An ST1 reply ends with its proof: no vote carries a certificate, so an
/// option byte of 1 and a certificate after it (the old conflict-abort
/// encoding) are bytes after the message, and the frame is refused.
#[test]
fn an_abort_vote_followed_by_a_certificate_is_refused() {
    let from = NodeId::Replica(rep(2));
    let frame = encode_msg(from, &BasilMsg::St1Reply(st1_vote(2, ProtoVote::Abort))).unwrap();
    let (vote, cert) = (&frame[FRAME_HEADER..], cert_bytes(slow_commit_cert()));
    let with_conflict = [vote, &[1], &cert].concat();
    let decoded = decode_frame_payload(&with_conflict);
    assert_eq!(decoded.err(), Some(WireError::BadLength));
}
