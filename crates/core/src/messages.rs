//! The Basil wire protocol.
//!
//! Naming follows the paper: `READ`/read replies for the execution phase,
//! `ST1`/`ST1R` for stage one of the prepare phase, `ST2`/`ST2R` for the
//! decision-logging stage, writeback messages carrying commit/abort
//! certificates, and the fallback messages `RP` (recovery prepare),
//! `InvokeFB`, `ElectFB`, and `DecFB` of Section 5.
//!
//! Every message that may end up as evidence — an ST1 or ST2 vote, an
//! `ElectFB`, a `DecFB` — carries a [`basil_crypto::BatchProof`], which
//! covers both individually signed and batch-signed replies (Section 4.4).
//! A message that only its recipient checks carries a bare
//! [`basil_crypto::Signature`], a MAC over its signed encoding: the client
//! requests (`READ`, `ST1`, `ST2`, `InvokeFB`), and read replies, which no
//! certificate or forwarded message ever holds. When signatures are
//! disabled deployment-wide (`Basil-NoProofs`) both are absent.

use crate::certs::DecisionCert;
use crate::crypto_engine::SignedPayload;
use basil_common::codec::Sink;
use basil_common::{Key, ReplicaId, Timestamp, TxId, Value};
use basil_crypto::{BatchProof, Signature};
use basil_store::Transaction;
use std::sync::Arc;

/// A fallback view number (per transaction).
pub type View = u64;

/// A replica's vote on a transaction in stage ST1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoVote {
    /// Commit vote.
    Commit,
    /// Abort vote. It counts toward an abort quorum like any other vote:
    /// no single vote aborts a transaction on its own.
    Abort,
}

impl ProtoVote {
    /// True for [`ProtoVote::Commit`].
    pub fn is_commit(&self) -> bool {
        matches!(self, ProtoVote::Commit)
    }

    /// The byte this vote is encoded as, in signed bodies and on the wire.
    pub fn tag(&self) -> u8 {
        match self {
            ProtoVote::Commit => 1,
            ProtoVote::Abort => 2,
        }
    }

    /// The vote encoded as `tag`, if there is one.
    pub fn from_tag(tag: u8) -> Option<Self> {
        [ProtoVote::Commit, ProtoVote::Abort]
            .into_iter()
            .find(|v| v.tag() == tag)
    }
}

/// A two-phase-commit decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtoDecision {
    /// The transaction commits.
    Commit,
    /// The transaction aborts.
    Abort,
}

impl ProtoDecision {
    /// True for [`ProtoDecision::Commit`].
    pub fn is_commit(&self) -> bool {
        matches!(self, ProtoDecision::Commit)
    }

    /// The byte this decision is encoded as, in signed bodies and on the
    /// wire.
    pub fn tag(&self) -> u8 {
        match self {
            ProtoDecision::Commit => 1,
            ProtoDecision::Abort => 2,
        }
    }

    /// The decision encoded as `tag`, if there is one.
    pub fn from_tag(tag: u8) -> Option<Self> {
        [ProtoDecision::Commit, ProtoDecision::Abort]
            .into_iter()
            .find(|d| d.tag() == tag)
    }
}

// ---------------------------------------------------------------------------
// Execution phase
// ---------------------------------------------------------------------------

/// Client read request (`READ` in the paper).
#[derive(Clone, Debug)]
pub struct ReadRequest {
    /// Client-chosen request identifier, echoed in the reply.
    pub req_id: u64,
    /// Key to read.
    pub key: Key,
    /// The reading transaction's timestamp (used for version selection and
    /// recorded as the key's RTS).
    pub ts: Timestamp,
    /// The client's MAC.
    pub auth: Option<Signature>,
}

impl SignedPayload for ReadRequest {
    /// Canonical bytes covered by the client's signature.
    fn write_signed(&self, out: &mut impl Sink) {
        out.put_bytes(b"READ");
        out.put_u64(self.req_id);
        out.put_ts(self.ts);
        out.put_bytes(self.key.as_bytes());
    }
}

/// The committed half of a read reply: the newest committed version visible
/// to the reader, together with the writing transaction and the certificate
/// proving it committed.
#[derive(Clone, Debug)]
pub struct CommittedRead {
    /// Version timestamp (the writer's transaction timestamp).
    pub version: Timestamp,
    /// The value.
    pub value: Value,
    /// The writing transaction.
    pub txid: TxId,
    /// Commit certificate for the writing transaction, shared with the
    /// writer's replica record (a reference-count bump per reply, not a
    /// deep copy). `None` only for the initial (genesis) versions loaded at
    /// deployment time.
    pub cert: Option<Arc<DecisionCert>>,
    /// The writing transaction's body, shared with the writer's replica
    /// record. A certificate proves that `txid` committed; the body is what
    /// shows that `txid` wrote `value` at `version`
    /// ([`CommittedRead::written_by`]). Not signed: a reader checks it
    /// against the signed `txid`, `version` and `value`.
    pub tx: Option<Arc<Transaction>>,
}

impl CommittedRead {
    /// Whether [`CommittedRead::tx`] is transaction `txid` and wrote `value`
    /// to `key` at `version`. Without this a replica could pair a real commit
    /// certificate with a value its transaction never wrote.
    pub fn written_by(&self, key: &Key) -> bool {
        self.tx.as_ref().is_some_and(|tx| {
            tx.timestamp() == self.version
                && tx.written_value(key) == Some(&self.value)
                && tx.id() == self.txid
        })
    }
}

/// The prepared half of a read reply: the newest prepared-but-uncommitted
/// version visible to the reader. The full transaction is included so that
/// any reader can later take it upon itself to finish the transaction
/// (Section 5: "ST1 messages contain all of T's planned writes").
#[derive(Clone, Debug)]
pub struct PreparedRead {
    /// The preparing transaction (its timestamp is the version), shared with
    /// the replica's prepared set.
    pub tx: Arc<Transaction>,
}

/// Reply to a [`ReadRequest`].
#[derive(Clone, Debug)]
pub struct ReadReplyBody {
    /// Echo of the request identifier.
    pub req_id: u64,
    /// The key read.
    pub key: Key,
    /// Newest committed version below the reader's timestamp.
    pub committed: Option<CommittedRead>,
    /// Newest prepared version below the reader's timestamp.
    pub prepared: Option<PreparedRead>,
}

impl SignedPayload for ReadReplyBody {
    /// Canonical bytes covered by the replica's MAC. The key and the value
    /// are length-prefixed, so no two bodies share an encoding.
    fn write_signed(&self, out: &mut impl Sink) {
        out.put_bytes(b"READR");
        out.put_u64(self.req_id);
        out.put_key(&self.key);
        out.put_opt(self.committed.as_ref(), |out, c| {
            out.put_ts(c.version);
            out.put_txid(&c.txid);
            out.put_value(&c.value);
        });
        out.put_opt(self.prepared.as_ref(), |out, p| out.put_txid(&p.tx.id()));
    }
}

/// An authenticated read reply.
#[derive(Clone, Debug)]
pub struct ReadReply {
    /// Reply payload.
    pub body: ReadReplyBody,
    /// The replica's MAC over the body, made and sent in the callback that
    /// served the read (`SigEngine::sign_request`), not a batch signature:
    /// only the client the reply answers checks it, and no certificate or
    /// forwarded message carries it. Its signer is the replica that vouches
    /// for the version. Paper §4.2's optional dependency proofs (`f + 1`
    /// signed prepared reads, forwarded as evidence) would need a
    /// transferable signature here again.
    pub proof: Option<Signature>,
}

// ---------------------------------------------------------------------------
// Prepare phase
// ---------------------------------------------------------------------------

/// Stage ST1: the prepare request carrying the full transaction.
#[derive(Clone, Debug)]
pub struct St1 {
    /// The transaction to prepare. Shared: the fan-out to every replica of
    /// every involved shard clones the `Arc`, not the read/write sets, and
    /// the replica indexes the same allocation into its store.
    pub tx: Arc<Transaction>,
    /// The client's MAC over the transaction encoding.
    pub auth: Option<Signature>,
    /// True when this ST1 is a recovery prepare (`RP`) sent by a client
    /// trying to finish someone else's stalled transaction; replicas register
    /// the sender as an interested client and reply with whatever state they
    /// already have.
    pub recovery: bool,
}

impl SignedPayload for St1 {
    /// Canonical bytes covered by the client's signature. The transaction
    /// part is the memoized canonical encoding, so only the first call per
    /// transaction serializes; the rest are copies.
    fn write_signed(&self, out: &mut impl Sink) {
        out.put_bytes(self.tx.encoded());
        out.put_bytes(b"ST1");
    }
}

/// Body of an `ST1R` vote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct St1ReplyBody {
    /// The transaction voted on.
    pub txid: TxId,
    /// The voting replica (also bound by the signature).
    pub replica: ReplicaId,
    /// The replica's vote.
    pub vote: ProtoVote,
}

impl SignedPayload for St1ReplyBody {
    /// Canonical bytes covered by the replica's (batched) signature.
    fn write_signed(&self, out: &mut impl Sink) {
        out.put_bytes(b"ST1R");
        out.put_txid(&self.txid);
        out.put_replica(self.replica);
        out.put_u8(self.vote.tag());
    }
}

/// A signed `ST1R` vote, as aggregated into vote tallies and certificates.
#[derive(Clone, Debug)]
pub struct SignedSt1Reply {
    /// Vote payload.
    pub body: St1ReplyBody,
    /// Replica signature (batched).
    pub proof: Option<BatchProof>,
}

/// Stage ST2: the client logs its tentative 2PC decision on the logging
/// shard `S_log`.
#[derive(Clone, Debug)]
pub struct St2 {
    /// The transaction the decision is for.
    pub txid: TxId,
    /// The decision being logged.
    pub decision: ProtoDecision,
    /// The per-shard vote tallies justifying the decision.
    pub shard_votes: Vec<crate::certs::ShardVotes>,
    /// View in which the decision is proposed (`0` for the original client).
    pub view: View,
    /// The client's MAC.
    pub auth: Option<Signature>,
}

impl SignedPayload for St2 {
    /// Canonical bytes covered by the client's signature.
    fn write_signed(&self, out: &mut impl Sink) {
        out.put_bytes(b"ST2");
        out.put_txid(&self.txid);
        out.put_u8(self.decision.tag());
        out.put_u64(self.view);
    }
}

/// Body of an `ST2R` acknowledgement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct St2ReplyBody {
    /// The transaction.
    pub txid: TxId,
    /// The acknowledging replica (also bound by the signature).
    pub replica: ReplicaId,
    /// The decision this replica has logged.
    pub decision: ProtoDecision,
    /// The view in which the logged decision was adopted.
    pub view_decision: View,
    /// The replica's current view for this transaction.
    pub view_current: View,
}

impl SignedPayload for St2ReplyBody {
    /// Canonical bytes covered by the replica's signature.
    fn write_signed(&self, out: &mut impl Sink) {
        out.put_bytes(b"ST2R");
        out.put_txid(&self.txid);
        out.put_replica(self.replica);
        out.put_u8(self.decision.tag());
        out.put_u64(self.view_decision);
        out.put_u64(self.view_current);
    }
}

/// A signed `ST2R`.
#[derive(Clone, Debug)]
pub struct SignedSt2Reply {
    /// Acknowledgement payload.
    pub body: St2ReplyBody,
    /// Replica signature.
    pub proof: Option<BatchProof>,
}

// ---------------------------------------------------------------------------
// Writeback phase
// ---------------------------------------------------------------------------

/// Asynchronous writeback: the client forwards the decision certificate to
/// every participating shard.
#[derive(Clone, Debug)]
pub struct Writeback {
    /// The decision certificate (`C-CERT` or `A-CERT`). Shared: the
    /// per-shard fan-out, each replica's record of the transaction, and
    /// forwards to interested clients all hold the same allocation.
    pub cert: Arc<DecisionCert>,
    /// The transaction body, included so that replicas that never received
    /// the `ST1` (e.g. they were partitioned during prepare) can still apply
    /// the writes.
    pub tx: Option<Arc<Transaction>>,
}

// ---------------------------------------------------------------------------
// Fallback (Section 5)
// ---------------------------------------------------------------------------

/// `InvokeFB`: a client asks the logging shard to elect a fallback leader for
/// a stalled transaction whose ST2 state has diverged.
#[derive(Clone, Debug)]
pub struct InvokeFb {
    /// The stalled transaction.
    pub txid: TxId,
    /// The signed current views the client gathered from `RP` replies; these
    /// justify the view the replicas should move to (rules R1/R2).
    pub views: Vec<SignedSt2Reply>,
    /// The client's MAC.
    pub auth: Option<Signature>,
}

impl SignedPayload for InvokeFb {
    /// Canonical bytes covered by the client's signature.
    fn write_signed(&self, out: &mut impl Sink) {
        out.put_bytes(b"IFB");
        out.put_txid(&self.txid);
        out.put_count(self.views.len());
    }
}

/// Body of an `ElectFB` message: a replica nominates the fallback leader of
/// its current view and reports its logged decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElectFbBody {
    /// The stalled transaction.
    pub txid: TxId,
    /// The nominating replica (also bound by the signature).
    pub replica: ReplicaId,
    /// The decision this replica has logged, if any.
    pub decision: Option<ProtoDecision>,
    /// The view the replica is electing a leader for.
    pub view: View,
}

impl SignedPayload for ElectFbBody {
    /// Canonical bytes covered by the replica's signature.
    fn write_signed(&self, out: &mut impl Sink) {
        out.put_bytes(b"ELECTFB");
        out.put_txid(&self.txid);
        out.put_replica(self.replica);
        out.put_u8(self.decision.map_or(0, |d| d.tag()));
        out.put_u64(self.view);
    }
}

/// A signed `ElectFB`.
#[derive(Clone, Debug)]
pub struct SignedElectFb {
    /// Election payload.
    pub body: ElectFbBody,
    /// Replica signature.
    pub proof: Option<BatchProof>,
}

/// `DecFB`: the elected fallback leader proposes a reconciled decision,
/// justified by the quorum of `ElectFB` messages that elected it.
#[derive(Clone, Debug)]
pub struct DecFb {
    /// The stalled transaction.
    pub txid: TxId,
    /// The reconciled decision (majority of the reported logged decisions).
    pub decision: ProtoDecision,
    /// The view in which this leader was elected.
    pub view: View,
    /// The `ElectFB` messages proving the sender's leadership.
    pub elect_proof: Vec<SignedElectFb>,
    /// Leader signature.
    pub auth: Option<BatchProof>,
}

impl SignedPayload for DecFb {
    /// Canonical bytes covered by the leader's signature.
    fn write_signed(&self, out: &mut impl Sink) {
        out.put_bytes(b"DECFB");
        out.put_txid(&self.txid);
        out.put_u8(self.decision.tag());
        out.put_u64(self.view);
    }
}

// ---------------------------------------------------------------------------
// Crash-recovery catch-up
// ---------------------------------------------------------------------------

/// Shard peer -> recovering replica: a writeback for every decision
/// certificate the peer has applied, each with the transaction body when the
/// peer still holds it (commits need the body to re-install writes). The
/// recovering replica validates every certificate before applying it — a
/// Byzantine peer can send garbage, but not a certificate that verifies. It
/// names no sender: the recovering replica counts it against its transport
/// sender.
#[derive(Clone, Debug)]
pub struct CatchUpReply {
    /// The applied decisions, as the writebacks that would apply them.
    pub entries: Vec<Writeback>,
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

/// Client-side timers (delivered as self-messages).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientTimer {
    /// A read has not gathered enough replies.
    ReadTimeout {
        /// The outstanding request.
        req_id: u64,
    },
    /// The prepare phase (ST1) has not completed.
    PrepareTimeout {
        /// The transaction being prepared.
        txid: TxId,
    },
    /// The decision-logging stage (ST2) has not completed.
    St2Timeout {
        /// The transaction being logged.
        txid: TxId,
    },
    /// A dependency recovery attempt should be (re)driven.
    FallbackTimeout {
        /// The stalled dependency.
        txid: TxId,
    },
    /// The retry backoff after an abort has elapsed.
    RetryBackoff,
    /// An open-loop transaction arrival is due (Poisson pacing). Carries no
    /// payload: the client pulls the next profile from its generator and the
    /// next gap from the arrival distribution when the timer fires.
    OpenLoopArrival,
}

/// Replica-side timers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicaTimer {
    /// Flush a partially filled reply batch (Section 4.4).
    BatchFlush,
    /// Run a periodic store garbage-collection sweep (enabled by
    /// `BasilConfig::gc_interval`; see `BasilReplica` for the watermark
    /// rule).
    GcSweep,
    /// The post-amnesia catch-up window has elapsed: stop waiting for
    /// further `CatchUpReply` messages and resume normal service with
    /// whatever decisions were gathered.
    CatchUpDeadline,
}

// ---------------------------------------------------------------------------
// Top-level message enum
// ---------------------------------------------------------------------------

/// Every message exchanged in a Basil deployment.
#[derive(Clone, Debug)]
pub enum BasilMsg {
    /// Client -> replica: versioned read.
    Read(ReadRequest),
    /// Replica -> client: read reply.
    ReadReply(ReadReply),
    /// Client -> replica: stage ST1 prepare (also used as `RP`).
    St1(St1),
    /// Replica -> client: ST1 vote.
    St1Reply(SignedSt1Reply),
    /// Client -> replica (logging shard): stage ST2 decision logging.
    St2(St2),
    /// Replica -> client: ST2 acknowledgement.
    St2Reply(SignedSt2Reply),
    /// Client -> replica: writeback of the decision certificate.
    Writeback(Writeback),
    /// Client -> replica: remove the RTS left by an abandoned execution-phase
    /// read (client-side `Abort()`). It is unauthenticated and no honest
    /// client sends it, so a replica ignores it; it keeps its wire encoding.
    RtsRelease {
        /// Key whose RTS should be dropped.
        key: Key,
        /// The timestamp to remove.
        ts: Timestamp,
    },
    /// Client -> replica (logging shard): start fallback leader election.
    InvokeFb(InvokeFb),
    /// Replica -> fallback leader: leader nomination.
    ElectFb(SignedElectFb),
    /// Fallback leader -> replicas: reconciled decision.
    DecFb(DecFb),
    /// Recovering replica -> shard peers: request missed decisions after an
    /// amnesia restart. It carries nothing: the reply goes to its transport
    /// sender. Unsigned, because the reply carries self-validating
    /// certificates, so a forged request can at worst waste a peer's
    /// bandwidth, never poison state.
    CatchUpRequest,
    /// Shard peer -> recovering replica: applied decision certificates.
    CatchUpReply(CatchUpReply),
    /// Client self-message timers.
    ClientTimer(ClientTimer),
    /// Replica self-message timers.
    ReplicaTimer(ReplicaTimer),
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::{ClientId, ShardId};
    use basil_store::TransactionBuilder;

    fn ts(t: u64, c: u64) -> Timestamp {
        Timestamp::from_nanos(t, ClientId(c))
    }

    fn rep(i: u32) -> ReplicaId {
        ReplicaId::new(ShardId(0), i)
    }

    #[test]
    fn vote_and_decision_tags_are_distinct() {
        assert_ne!(ProtoVote::Commit.tag(), ProtoVote::Abort.tag());
        assert_ne!(ProtoDecision::Commit.tag(), ProtoDecision::Abort.tag());
        assert!(ProtoVote::Commit.is_commit());
        assert!(!ProtoVote::Abort.is_commit());
        assert!(ProtoDecision::Commit.is_commit());
        assert!(!ProtoDecision::Abort.is_commit());
    }

    #[test]
    fn signed_bytes_bind_the_vote() {
        let a = St1ReplyBody {
            txid: TxId::from_bytes([1; 32]),
            replica: rep(0),
            vote: ProtoVote::Commit,
        };
        let b = St1ReplyBody {
            txid: TxId::from_bytes([1; 32]),
            replica: rep(0),
            vote: ProtoVote::Abort,
        };
        assert_ne!(a.to_bytes(), b.to_bytes());
        let c = St1ReplyBody {
            txid: TxId::from_bytes([2; 32]),
            replica: rep(0),
            vote: ProtoVote::Commit,
        };
        assert_ne!(a.to_bytes(), c.to_bytes());
        let d = St1ReplyBody {
            txid: TxId::from_bytes([1; 32]),
            replica: rep(1),
            vote: ProtoVote::Commit,
        };
        assert_ne!(a.to_bytes(), d.to_bytes());
    }

    #[test]
    fn st2r_bytes_bind_views_and_decision() {
        let base = St2ReplyBody {
            txid: TxId::from_bytes([3; 32]),
            replica: rep(2),
            decision: ProtoDecision::Commit,
            view_decision: 0,
            view_current: 0,
        };
        let mut other = base.clone();
        other.view_current = 1;
        assert_ne!(base.to_bytes(), other.to_bytes());
        let mut flipped = base.clone();
        flipped.decision = ProtoDecision::Abort;
        assert_ne!(base.to_bytes(), flipped.to_bytes());
    }

    #[test]
    fn read_request_and_reply_bytes_are_content_sensitive() {
        let req = ReadRequest {
            req_id: 9,
            key: Key::new("x"),
            ts: ts(100, 1),
            auth: None,
        };
        let mut req2 = req.clone();
        req2.ts = ts(101, 1);
        assert_ne!(req.to_bytes(), req2.to_bytes());

        let reply = ReadReplyBody {
            req_id: 9,
            key: Key::new("x"),
            committed: Some(CommittedRead {
                version: ts(50, 2),
                value: Value::from_u64(5),
                txid: TxId::from_bytes([4; 32]),
                cert: None,
                tx: None,
            }),
            prepared: None,
        };
        let mut reply2 = reply.clone();
        reply2.committed.as_mut().expect("present").value = Value::from_u64(6);
        assert_ne!(reply.to_bytes(), reply2.to_bytes());
    }

    #[test]
    fn electfb_bytes_distinguish_absent_decision() {
        let body = |d: Option<ProtoDecision>| ElectFbBody {
            txid: TxId::from_bytes([7; 32]),
            replica: rep(4),
            decision: d,
            view: 3,
        };
        let none = body(None).to_bytes();
        let commit = body(Some(ProtoDecision::Commit)).to_bytes();
        let abort = body(Some(ProtoDecision::Abort)).to_bytes();
        assert_ne!(none, commit);
        assert_ne!(commit, abort);
    }

    /// Field values for one instance of each signed body.
    struct BodyFields {
        req_id: u64,
        key: Key,
        ts: Timestamp,
        /// The committed half of the read reply, when present.
        value: Option<Value>,
        /// Whether the read reply has a prepared half and the `ElectFB` a
        /// logged decision.
        prepared: bool,
        tx: Arc<Transaction>,
        replica: ReplicaId,
        commit: bool,
        views: [View; 2],
        invoke_views: usize,
    }

    /// `(encoded_len(), to_bytes())` of the nine signed bodies, in
    /// declaration order.
    fn nine_bodies(f: &BodyFields) -> Vec<(usize, Vec<u8>)> {
        fn both(p: &impl SignedPayload) -> (usize, Vec<u8>) {
            (p.encoded_len(), p.to_bytes())
        }
        let (txid, replica) = (f.tx.id(), f.replica);
        let (vote, decision) = if f.commit {
            (ProtoVote::Commit, ProtoDecision::Commit)
        } else {
            (ProtoVote::Abort, ProtoDecision::Abort)
        };
        let st2_reply = St2ReplyBody {
            txid,
            replica,
            decision,
            view_decision: f.views[0],
            view_current: f.views[1],
        };
        vec![
            both(&ReadRequest {
                req_id: f.req_id,
                key: f.key.clone(),
                ts: f.ts,
                auth: None,
            }),
            both(&ReadReplyBody {
                req_id: f.req_id,
                key: f.key.clone(),
                committed: f.value.clone().map(|value| CommittedRead {
                    version: f.ts,
                    value,
                    txid,
                    cert: None,
                    tx: None,
                }),
                prepared: f.prepared.then(|| PreparedRead {
                    tx: Arc::clone(&f.tx),
                }),
            }),
            both(&St1 {
                tx: Arc::clone(&f.tx),
                auth: None,
                recovery: false,
            }),
            both(&St1ReplyBody {
                txid,
                replica,
                vote,
            }),
            both(&St2 {
                txid,
                decision,
                shard_votes: Vec::new(),
                view: f.views[0],
                auth: None,
            }),
            both(&st2_reply),
            both(&InvokeFb {
                txid,
                views: vec![
                    SignedSt2Reply {
                        body: st2_reply.clone(),
                        proof: None,
                    };
                    f.invoke_views
                ],
                auth: None,
            }),
            both(&ElectFbBody {
                txid,
                replica,
                decision: f.prepared.then_some(decision),
                view: f.views[1],
            }),
            both(&DecFb {
                txid,
                decision,
                view: f.views[0],
                elect_proof: Vec::new(),
                auth: None,
            }),
        ]
    }

    /// Every signature in a run covers these bytes. The first digest was
    /// captured at the commit before `write_signed` replaced the nine
    /// hand-written `signed_bytes` bodies, and covers the eight bodies whose
    /// bytes have not moved since. The read reply's body length-prefixes its
    /// key and value since its MAC'd encoding was made injective, and is
    /// pinned from that version on.
    #[test]
    fn signed_bodies_are_byte_identical_to_the_hand_written_encoders() {
        let mut b = TransactionBuilder::new(ts(10, 1));
        b.record_write(Key::new("k"), Value::from_u64(1));
        b.record_dependent_read(Key::new("r"), ts(3, 2), TxId::from_bytes([4; 32]));
        let mut bodies = nine_bodies(&BodyFields {
            req_id: 9,
            key: Key::new("some-longer-key-17"),
            ts: ts(100, 1),
            value: Some(Value::from_u64(5)),
            prepared: true,
            tx: b.build_shared(),
            replica: ReplicaId::new(ShardId(2), 3),
            commit: false,
            views: [1, 7],
            invoke_views: 2,
        });
        let (_, read_reply) = bodies.remove(1);
        let older: Vec<u8> = bodies.into_iter().flat_map(|(_, bytes)| bytes).collect();
        assert_eq!(
            basil_crypto::Sha256::digest(&older).to_hex(),
            "4b49d8fb1b5a2896415bb0ca4cbaae90a37782287f64771e9686ab55b95e94b2"
        );
        assert_eq!(
            basil_crypto::Sha256::digest(&read_reply).to_hex(),
            "38f2040bca9279f59f0161f49526a0a5b941e9e5aff6bbeb0a6e1fec7f8e8bab"
        );
    }

    /// A read reply's MAC covers one body only. With the key and the value
    /// written raw, a key that swallows the committed half's bytes encoded
    /// the same as the body that carries them.
    #[test]
    fn read_reply_encoding_is_injective() {
        // Encoded, the version is "ttttttttcccccccc" and the txid 32 'x's.
        let version = ts(0x7474_7474_7474_7474, 0x6363_6363_6363_6363);
        let txid = TxId::from_bytes([b'x'; 32]);
        let carried = ReadReplyBody {
            req_id: 9,
            key: Key::new("a"),
            committed: Some(CommittedRead {
                version,
                value: Value::new(b"v\0"),
                txid,
                cert: None,
                tx: None,
            }),
            prepared: None,
        };
        let swallowed = ReadReplyBody {
            req_id: 9,
            key: Key::new(format!("a\x01ttttttttcccccccc{}v", "x".repeat(32))),
            committed: None,
            prepared: None,
        };
        assert_ne!(carried.to_bytes(), swallowed.to_bytes());
    }

    /// `encoded_len` feeds the cost model in simulated-crypto runs, so it
    /// must equal the materialized encoding's length *exactly* — a drift
    /// would silently change simulated results. Both now come from one
    /// `write_signed`, which makes this the regression test for the
    /// byte-counting `Len` sink.
    #[test]
    fn encoded_len_equals_the_materialized_length_for_generated_bodies() {
        let mut rng = basil_common::SmallPrng::new(0x5EED);
        let mut below = |bound: u64| rng.next_below(bound);
        for case in 0..200 {
            let text = |len: u64| "k".repeat(len as usize);
            let mut b = TransactionBuilder::new(ts(below(1 << 40), below(8)));
            for i in 0..below(4) {
                b.record_read(Key::new(format!("r{i}{}", text(below(20)))), ts(i, 1));
            }
            for i in 0..below(4) {
                let value = Value::new(vec![7; below(64) as usize]);
                b.record_write(Key::new(format!("w{i}{}", text(below(20)))), value);
            }
            for i in 0..below(3) {
                b.record_dependent_read(Key::new(format!("d{i}")), ts(i, 2), TxId([i as u8; 32]));
            }
            let fields = BodyFields {
                req_id: below(u64::MAX),
                key: Key::new(text(below(40))),
                ts: ts(below(u64::MAX), below(u64::MAX)),
                value: (below(2) == 1).then(|| Value::new(vec![1; below(100) as usize])),
                prepared: below(2) == 1,
                tx: b.build_shared(),
                replica: ReplicaId::new(ShardId(below(4) as u32), below(6) as u32),
                commit: below(2) == 1,
                views: [below(u64::MAX), below(u64::MAX)],
                invoke_views: below(5) as usize,
            };
            for (i, (len, bytes)) in nine_bodies(&fields).into_iter().enumerate() {
                assert_eq!(len, bytes.len(), "case {case}, body {i}");
            }
        }
    }

    #[test]
    fn st1_signed_bytes_cover_transaction() {
        let mut b = TransactionBuilder::new(ts(10, 1));
        b.record_write(Key::new("k"), Value::from_u64(1));
        let st1 = St1 {
            tx: b.build_shared(),
            auth: None,
            recovery: false,
        };
        let mut b2 = TransactionBuilder::new(ts(10, 1));
        b2.record_write(Key::new("k"), Value::from_u64(2));
        let st1_other = St1 {
            tx: b2.build_shared(),
            auth: None,
            recovery: false,
        };
        assert_ne!(st1.to_bytes(), st1_other.to_bytes());
    }
}
