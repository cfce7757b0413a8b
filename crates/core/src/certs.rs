//! Vote tallies and decision certificates (`V-CERT`, `C-CERT`, `A-CERT`).
//!
//! A shard's vote on a transaction is made durable in one of two ways
//! (Section 4.2): on the fast path the raw set of `ST1R` votes is itself a
//! vote certificate (unanimous commit, or `3f+1` abort); on the slow path the
//! client logs its 2PC decision on a single logging shard and the `n-f`
//! matching `ST2R` acknowledgements form the certificate. A decision
//! certificate carries exactly one such proof — every involved shard's
//! unanimous commit votes, one shard's abort votes, or S_log's
//! acknowledgements — and travels in writeback messages, catch-up replies and
//! read replies (committed versions). One validator,
//! [`validate_decision_cert`], checks all three against the shards the
//! transaction involves; no certificate holds another, so validation never
//! recurses. Vote sets, in a fast proof or in the justification an ST2
//! carries, pass one rule, `votes_justify`.
//!
//! The validators return a verdict. The CPU of the signature checks they
//! make is metered by the [`SigEngine`] they are handed, so the order and
//! number of those checks is part of their contract: every check made here
//! is charged to the validating node.

use crate::crypto_engine::{SigEngine, SignedPayload};
use crate::messages::{SignedSt1Reply, SignedSt2Reply, View};
use crate::views::logging_shard;
use basil_common::{NodeId, ReplicaId, ShardConfig, ShardId, TxId};
use basil_crypto::BatchProof;
use basil_store::Decision;

/// Allocation-free set of the replica indices a quorum counted. Shards have
/// `n = 5f + 1` replicas, so a 64-bit mask covers every deployment up to
/// `f = 12`; larger indices (only reachable with hand-built configs) spill
/// into a short list.
#[derive(Default)]
struct IndexSet {
    mask: u64,
    spill: Vec<u32>,
}

impl IndexSet {
    fn insert(&mut self, index: u32) {
        if index < 64 {
            self.mask |= 1u64 << index;
        } else if !self.spill.contains(&index) {
            self.spill.push(index);
        }
    }

    fn contains(&self, index: u32) -> bool {
        if index < 64 {
            self.mask & (1u64 << index) != 0
        } else {
            self.spill.contains(&index)
        }
    }
}

/// The votes a client gathered from one shard in stage ST1: either a durable
/// fast-path certificate or a slow-path tally that still needs logging.
#[derive(Clone, Debug)]
pub struct ShardVotes {
    /// The transaction voted on.
    pub txid: TxId,
    /// The shard these votes come from.
    pub shard: ShardId,
    /// The shard-level decision the votes support.
    pub decision: Decision,
    /// The signed `ST1R` votes.
    pub votes: Vec<SignedSt1Reply>,
}

/// The logging-shard certificate produced by stage ST2: `n - f` matching
/// acknowledgements.
#[derive(Clone, Debug)]
pub struct VoteCert {
    /// The transaction.
    pub txid: TxId,
    /// The logging shard.
    pub shard: ShardId,
    /// The logged decision.
    pub decision: Decision,
    /// The view in which the decision was logged (0 unless the fallback ran).
    pub view: View,
    /// The matching signed `ST2R` acknowledgements.
    pub replies: Vec<SignedSt2Reply>,
}

/// A decision certificate (`C-CERT` or `A-CERT`): the transaction and the
/// one proof of how it was decided. The decision is the proof's, so a
/// certificate cannot claim one decision while carrying evidence of the
/// other, and it holds exactly one proof.
#[derive(Clone, Debug)]
pub struct DecisionCert {
    /// The decided transaction.
    pub txid: TxId,
    /// The evidence.
    pub proof: DecisionProof,
}

/// How a decision was made durable (Section 4.2).
#[derive(Clone, Debug)]
pub enum DecisionProof {
    /// Fast commit: the unanimous vote sets of every involved shard.
    FastCommit(Vec<ShardVotes>),
    /// Fast abort: one shard's `3f+1` abort votes.
    FastAbort(ShardVotes),
    /// Slow path: the `n - f` acknowledgements logged on S_log, which carry
    /// the decision.
    Slow(VoteCert),
}

impl DecisionCert {
    /// The decision carried by the certificate.
    pub fn decision(&self) -> Decision {
        match &self.proof {
            DecisionProof::FastCommit(_) => Decision::Commit,
            DecisionProof::FastAbort(_) => Decision::Abort,
            DecisionProof::Slow(slow) => slow.decision,
        }
    }
}

/// The one quorum counter: how many distinct replicas of `shard` stand behind
/// `items`. `part` picks the items that count toward this quorum (`None`
/// skips one) and names, for each, the replica it claims to come from, the
/// signed body and the proof. Only the first item that claims a replica is
/// checked: it counts when [`SigEngine::verify_from`] binds the signature to
/// that replica, and `counted` sees each such item. Every later item that
/// claims the same replica is skipped *before* its signature is looked at,
/// whether the first one verified or not, so padding a certificate, with
/// copies or with forgeries, buys no verification work.
pub(crate) fn count_distinct_signed<'a, T, B: SignedPayload + 'a>(
    items: &'a [T],
    shard: ShardId,
    engine: &mut SigEngine,
    part: impl Fn(&'a T) -> Option<(ReplicaId, &'a B, Option<&'a BatchProof>)>,
    mut counted: impl FnMut(&'a T),
) -> u32 {
    let mut seen = IndexSet::default();
    let mut count = 0;
    for item in items {
        let Some((replica, body, proof)) = part(item) else {
            continue;
        };
        if replica.shard != shard || seen.contains(replica.index) {
            continue;
        }
        seen.insert(replica.index);
        if engine.verify_from(body, proof, NodeId::Replica(replica)) {
            count += 1;
            counted(item);
        }
    }
    count
}

/// Whether at least `quorum` distinct replicas of the shard cast a correctly
/// signed vote for the decision and transaction in `sv`.
fn vote_quorum(sv: &ShardVotes, quorum: u32, engine: &mut SigEngine) -> bool {
    let count = count_distinct_signed(
        &sv.votes,
        sv.shard,
        engine,
        |v| {
            (v.body.txid == sv.txid && v.body.vote == sv.decision).then_some((
                v.body.replica,
                &v.body,
                v.proof.as_ref(),
            ))
        },
        |_| {},
    );
    count >= quorum
}

/// Validates a slow-path logging certificate: `n - f` matching, correctly
/// signed `ST2R` acknowledgements from distinct replicas of the logging
/// shard.
pub fn validate_vote_cert(cert: &VoteCert, cfg: &ShardConfig, engine: &mut SigEngine) -> bool {
    let count = count_distinct_signed(
        &cert.replies,
        cert.shard,
        engine,
        |r| {
            let b = &r.body;
            (b.txid == cert.txid && b.decision == cert.decision && b.view_decision == cert.view)
                .then_some((b.replica, b, r.proof.as_ref()))
        },
        |_| {},
    );
    count >= cfg.st2_quorum()
}

/// How much a shard's votes must hold to count as evidence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strength {
    /// A durable fast-path vote certificate, needing no ST2.
    Fast,
    /// A tally that justifies logging a 2PC decision in ST2.
    Slow,
}

impl Strength {
    /// The one quorum table of ST1 votes (Section 4.2): how many distinct
    /// replicas of a shard must vote `decision` for their votes to hold at
    /// this strength. The client's [`ShardTally`](crate::quorum::ShardTally)
    /// classifies by it and `votes_justify` checks by it.
    ///
    /// | | commit | abort |
    /// |---|---|---|
    /// | fast | `5f + 1` (all `n`) | `3f + 1` |
    /// | slow | `3f + 1` | `f + 1` |
    pub fn quorum(self, decision: Decision, cfg: &ShardConfig) -> u32 {
        let f = cfg.f;
        match (self, decision) {
            (Strength::Fast, Decision::Commit) => cfg.n(),
            (Strength::Fast, Decision::Abort) => 3 * f + 1,
            (Strength::Slow, Decision::Commit) => 3 * f + 1,
            (Strength::Slow, Decision::Abort) => f + 1,
        }
    }
}

/// The one evidence rule: whether the vote sets `offered` justify
/// `decision` for `txid` at `strength`, on `involved`, the shards the
/// transaction involves. It walks `involved` in order and checks the first
/// vote set offered for each shard; a commit needs every involved shard's,
/// an abort one involved shard's. A vote set from any other shard is never
/// looked at, and one for another transaction or the other decision is
/// refused before a signature is read.
pub(crate) fn votes_justify(
    txid: TxId,
    decision: Decision,
    strength: Strength,
    offered: &[ShardVotes],
    involved: &[ShardId],
    cfg: &ShardConfig,
    engine: &mut SigEngine,
) -> bool {
    let quorum = strength.quorum(decision, cfg);
    let mut justified = involved.iter().map(|&shard| {
        offered
            .iter()
            .find(|sv| sv.shard == shard)
            .is_some_and(|sv| {
                sv.txid == txid && sv.decision == decision && vote_quorum(sv, quorum, engine)
            })
    });
    match decision {
        Decision::Commit => !involved.is_empty() && justified.all(|ok| ok),
        Decision::Abort => justified.any(|ok| ok),
    }
}

/// Validates a decision certificate for a transaction that involves
/// `involved`: a slow proof must come from their S_log, and the vote sets of
/// a fast one must pass `votes_justify` on them (a fast commit covers all
/// of them, a fast abort comes from one of them). Cheap field checks come
/// before any signature check.
pub fn validate_decision_cert(
    cert: &DecisionCert,
    involved: &[ShardId],
    cfg: &ShardConfig,
    engine: &mut SigEngine,
) -> bool {
    let (decision, offered) = match &cert.proof {
        // Only S_log logs decisions: with f = 1, four commit and two abort
        // votes justify both, so acknowledgements gathered on any other
        // shard could certify the opposite of what S_log holds.
        DecisionProof::Slow(slow) => {
            return slow.txid == cert.txid
                && logging_shard(cert.txid, involved) == Some(slow.shard)
                && validate_vote_cert(slow, cfg, engine);
        }
        DecisionProof::FastCommit(votes) => (Decision::Commit, &votes[..]),
        DecisionProof::FastAbort(sv) => (Decision::Abort, std::slice::from_ref(sv)),
    };
    votes_justify(
        cert.txid,
        decision,
        Strength::Fast,
        offered,
        involved,
        cfg,
        engine,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BasilConfig;
    use crate::messages::{St1ReplyBody, St2ReplyBody};
    use basil_common::{ClientId, Duration};
    use basil_crypto::KeyRegistry;

    fn cfg() -> BasilConfig {
        BasilConfig::test_single_shard()
    }

    fn registry() -> KeyRegistry {
        KeyRegistry::from_seed(11)
    }

    fn engine_for(node: NodeId) -> SigEngine {
        SigEngine::new(node, registry(), &cfg())
    }

    fn client_engine() -> SigEngine {
        engine_for(NodeId::Client(ClientId(0)))
    }

    fn txid() -> TxId {
        TxId::from_bytes([42; 32])
    }

    fn signed_vote(replica_index: u32, vote: Decision) -> SignedSt1Reply {
        let replica = ReplicaId::new(ShardId(0), replica_index);
        let body = St1ReplyBody {
            txid: txid(),
            replica,
            vote,
        };
        let mut engine = engine_for(NodeId::Replica(replica));
        let proof = engine.sign(&body);
        SignedSt1Reply { body, proof }
    }

    fn signed_st2(replica_index: u32, decision: Decision, id: TxId, view: View) -> SignedSt2Reply {
        signed_st2_on(ShardId(0), replica_index, decision, id, view)
    }

    fn signed_st2_on(
        shard: ShardId,
        replica_index: u32,
        decision: Decision,
        id: TxId,
        view: View,
    ) -> SignedSt2Reply {
        let replica = ReplicaId::new(shard, replica_index);
        let body = St2ReplyBody {
            txid: id,
            replica,
            decision,
            view_decision: view,
            view_current: view,
        };
        let mut engine = engine_for(NodeId::Replica(replica));
        let proof = engine.sign(&body);
        SignedSt2Reply { body, proof }
    }

    fn commit_votes(n: u32) -> Vec<SignedSt1Reply> {
        (0..n).map(|i| signed_vote(i, Decision::Commit)).collect()
    }

    fn abort_votes(n: u32) -> Vec<SignedSt1Reply> {
        (0..n).map(|i| signed_vote(i, Decision::Abort)).collect()
    }

    fn shard_votes(decision: Decision, votes: Vec<SignedSt1Reply>) -> ShardVotes {
        ShardVotes {
            txid: txid(),
            shard: ShardId(0),
            decision,
            votes,
        }
    }

    fn cert(proof: DecisionProof) -> DecisionCert {
        DecisionCert {
            txid: txid(),
            proof,
        }
    }

    /// `n - f` signed acknowledgements of `decision` from replicas of `shard`.
    fn acks(shard: ShardId, decision: Decision) -> DecisionProof {
        DecisionProof::Slow(VoteCert {
            txid: txid(),
            shard,
            decision,
            view: 0,
            replies: (0..5)
                .map(|i| signed_st2_on(shard, i, decision, txid(), 0))
                .collect(),
        })
    }

    #[test]
    fn index_set_spills_past_the_mask_without_duplicates() {
        let mut set = IndexSet::default();
        for i in [3, 63, 64, 200, 200] {
            set.insert(i);
        }
        assert!([3, 63, 64, 200].iter().all(|&i| set.contains(i)));
        assert!(!set.contains(4) && !set.contains(65));
        assert_eq!(set.spill, [64, 200]);
    }

    /// The quorum table's sizes, and the intersections the protocol rests
    /// on (Section 4.2): two slow commit quorums share a correct replica, so
    /// do a fast commit and a fast abort, and a client finishing a fast
    /// commit sees a slow commit quorum among any `n - 2f` of its votes.
    #[test]
    fn quorum_intersection_properties() {
        use Decision::{Abort, Commit};
        use Strength::{Fast, Slow};
        let sizes = |f| {
            let c = ShardConfig::new(f);
            [(Fast, Commit), (Fast, Abort), (Slow, Commit), (Slow, Abort)]
                .map(|(strength, decision)| strength.quorum(decision, &c))
        };
        assert_eq!(sizes(1), [6, 4, 4, 2]);
        assert_eq!(sizes(2), [11, 7, 7, 3]);
        for f in 1..5u32 {
            let c = ShardConfig::new(f);
            let q = |strength: Strength, decision| i64::from(strength.quorum(decision, &c));
            let (n, f) = (i64::from(c.n()), i64::from(f));
            assert!(
                2 * q(Slow, Commit) - n > f,
                "f={f}: CQ/CQ overlap too small"
            );
            assert!(q(Fast, Commit) + q(Fast, Abort) - n > f);
            assert!(q(Fast, Commit) - 2 * f >= q(Slow, Commit));
        }
    }

    /// Whether the one vote set `votes` justifies `decision` at `strength`
    /// on `involved`, checked by a fresh client engine.
    fn justifies(
        decision: Decision,
        strength: Strength,
        votes: Vec<SignedSt1Reply>,
        involved: &[ShardId],
    ) -> bool {
        let offered = [shard_votes(decision, votes)];
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        votes_justify(
            txid(),
            decision,
            strength,
            &offered,
            involved,
            &shard_cfg,
            &mut engine,
        )
    }

    #[test]
    fn fast_commit_requires_unanimity() {
        let fast_commit = |votes| justifies(Decision::Commit, Strength::Fast, votes, &[ShardId(0)]);
        assert!(fast_commit(commit_votes(6)));
        assert!(!fast_commit(commit_votes(5)));
    }

    #[test]
    fn duplicate_votes_do_not_inflate_the_count() {
        let mut votes = commit_votes(3);
        // Replica 0's vote repeated three more times.
        votes.extend(std::iter::repeat_n(signed_vote(0, Decision::Commit), 3));
        assert!(!justifies(
            Decision::Commit,
            Strength::Fast,
            votes,
            &[ShardId(0)]
        ));
    }

    /// A repeated replica is skipped before its signature is looked at: a
    /// certificate padded with copies of a genuine vote, or with forgeries
    /// that all claim one replica, costs its validator no more than the same
    /// certificate with one such item. A forgery here is replica 5's body
    /// under the proof replica 5 made for its abort vote.
    #[test]
    fn padding_a_certificate_buys_no_verification_work() {
        let copy = signed_vote(0, Decision::Commit);
        let forged = SignedSt1Reply {
            proof: signed_vote(5, Decision::Abort).proof,
            ..signed_vote(5, Decision::Commit)
        };
        let with = |genuine: u32, extra: &SignedSt1Reply, count: usize| {
            let mut votes = commit_votes(genuine);
            votes.extend(std::iter::repeat_n(extra.clone(), count));
            shard_votes(Decision::Commit, votes)
        };
        // (padding, strength, the padded set's genuine votes, the padding item)
        let rows = [
            ("copies", Strength::Fast, 6, copy),
            ("forgeries", Strength::Slow, 5, forged),
        ];
        let shard_cfg = cfg().system.shard;
        for (padding, strength, genuine, extra) in rows {
            let cost = |offered: ShardVotes| {
                // A fresh engine: every validation starts from a cold cache.
                let mut engine = client_engine();
                assert!(
                    votes_justify(
                        txid(),
                        Decision::Commit,
                        strength,
                        &[offered],
                        &[ShardId(0)],
                        &shard_cfg,
                        &mut engine
                    ),
                    "{padding}"
                );
                engine.take_charged()
            };
            let one = cost(with(genuine, &extra, 1));
            assert!(one > Duration::ZERO, "{padding}");
            assert_eq!(cost(with(genuine, &extra, 1_000)), one, "{padding}");
        }
    }

    /// With f = 1, four commit and two abort votes justify both decisions,
    /// so `n - f` acknowledgements gathered on a shard that is not S_log
    /// prove nothing about what S_log holds, whichever decision they log.
    #[test]
    fn slow_commit_cert_must_come_from_the_logging_shard() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let involved = [ShardId(0), ShardId(1)];
        let slog = logging_shard(txid(), &involved).expect("two shards");
        let other = involved[usize::from(slog == ShardId(0))];
        let mut valid =
            |proof| validate_decision_cert(&cert(proof), &involved, &shard_cfg, &mut engine);
        for decision in [Decision::Commit, Decision::Abort] {
            assert!(valid(acks(slog, decision)));
            assert!(!valid(acks(other, decision)));
        }
    }

    /// A fast abort must come from a shard the transaction involves, and a
    /// vote set from any other shard is refused before a signature is read.
    #[test]
    fn fast_abort_cert_must_come_from_an_involved_shard() {
        let shard_cfg = cfg().system.shard;
        let abort = cert(DecisionProof::FastAbort(shard_votes(
            Decision::Abort,
            abort_votes(4),
        )));
        let mut engine = client_engine();
        assert!(validate_decision_cert(
            &abort,
            &[ShardId(0), ShardId(1)],
            &shard_cfg,
            &mut engine
        ));
        let mut engine = client_engine();
        assert!(!validate_decision_cert(
            &abort,
            &[ShardId(1), ShardId(2)],
            &shard_cfg,
            &mut engine
        ));
        assert_eq!(engine.take_charged(), Duration::ZERO);
    }

    #[test]
    fn forged_signature_is_not_counted() {
        let mut votes = commit_votes(5);
        // A vote whose body claims replica 5 but is signed by replica 0.
        let mut forged = signed_vote(0, Decision::Commit);
        forged.body.replica = ReplicaId::new(ShardId(0), 5);
        votes.push(forged);
        assert!(!justifies(
            Decision::Commit,
            Strength::Fast,
            votes,
            &[ShardId(0)]
        ));
    }

    #[test]
    fn fast_abort_needs_3f_plus_1() {
        let fast_abort = |votes| justifies(Decision::Abort, Strength::Fast, votes, &[ShardId(0)]);
        assert!(fast_abort(abort_votes(4)));
        assert!(!fast_abort(abort_votes(3)));
    }

    #[test]
    fn slow_tallies_use_smaller_quorums() {
        let slow = |decision, votes| justifies(decision, Strength::Slow, votes, &[ShardId(0)]);
        assert!(slow(Decision::Commit, commit_votes(4)));
        assert!(!slow(Decision::Commit, commit_votes(3)));
        assert!(slow(Decision::Abort, abort_votes(2)));
        assert!(!slow(Decision::Abort, abort_votes(1)));
    }

    #[test]
    fn st2_justification_commit_needs_every_expected_shard() {
        let commit =
            |involved| justifies(Decision::Commit, Strength::Slow, commit_votes(4), involved);
        assert!(commit(&[ShardId(0)]));
        assert!(!commit(&[ShardId(0), ShardId(1)]));
    }

    #[test]
    fn st2_justification_abort_needs_one_abort_quorum() {
        let involved = [ShardId(0)];
        assert!(justifies(
            Decision::Abort,
            Strength::Slow,
            abort_votes(2),
            &involved
        ));
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let nothing_offered = votes_justify(
            txid(),
            Decision::Abort,
            Strength::Slow,
            &[],
            &involved,
            &shard_cfg,
            &mut engine,
        );
        assert!(!nothing_offered);
    }

    #[test]
    fn vote_cert_requires_n_minus_f_matching_acks() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let cert = VoteCert {
            txid: txid(),
            shard: ShardId(0),
            decision: Decision::Commit,
            view: 0,
            replies: (0..5)
                .map(|i| signed_st2(i, Decision::Commit, txid(), 0))
                .collect(),
        };
        assert!(validate_vote_cert(&cert, &shard_cfg, &mut engine));

        let mut short = cert.clone();
        short.replies.truncate(4);
        assert!(!validate_vote_cert(&short, &shard_cfg, &mut engine));

        // A mismatching decision view breaks the match.
        let mut mixed = cert.clone();
        mixed.replies[0] = signed_st2(0, Decision::Commit, txid(), 1);
        assert!(!validate_vote_cert(&mixed, &shard_cfg, &mut engine));
    }

    #[test]
    fn commit_cert_fast_and_slow_paths() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let mut valid =
            |proof| validate_decision_cert(&cert(proof), &[ShardId(0)], &shard_cfg, &mut engine);
        let unanimous = shard_votes(Decision::Commit, commit_votes(6));
        assert!(valid(DecisionProof::FastCommit(vec![unanimous.clone()])));
        assert!(valid(acks(ShardId(0), Decision::Commit)));

        // A fast commit covers every involved shard: one shard's unanimous
        // votes, however often repeated, do not commit a two-shard
        // transaction.
        let one_shard = cert(DecisionProof::FastCommit(vec![unanimous.clone(); 2]));
        let two = [ShardId(0), ShardId(1)];
        let mut engine = client_engine();
        assert!(!validate_decision_cert(
            &one_shard,
            &two,
            &shard_cfg,
            &mut engine
        ));

        // Unanimous votes on another transaction prove nothing about this one.
        let foreign = ShardVotes {
            txid: TxId::from_bytes([1; 32]),
            ..unanimous
        };
        assert!(!valid(DecisionProof::FastCommit(vec![foreign])));

        // The decision is the proof's: logged aborts certify an abort.
        let logged_abort = cert(acks(ShardId(0), Decision::Abort));
        assert_eq!(logged_abort.decision(), Decision::Abort);
    }

    /// A fast abort is `3f + 1` abort votes: one abort vote certifies
    /// nothing.
    #[test]
    fn single_abort_vote_is_not_an_abort_cert() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let one_vote = shard_votes(Decision::Abort, abort_votes(1));
        let weak = cert(DecisionProof::FastAbort(one_vote));
        let valid = validate_decision_cert(&weak, &[ShardId(0)], &shard_cfg, &mut engine);
        assert!(!valid);
    }

    /// With signatures off the same rule runs, for free: unsigned votes
    /// (proof = None) are counted by replica identity alone.
    #[test]
    fn validation_is_free_and_permissive_when_signatures_disabled() {
        let mut no_sig_cfg = cfg().without_proofs();
        no_sig_cfg.crypto_mode = crate::config::CryptoMode::Real;
        let mut engine = SigEngine::new(NodeId::Client(ClientId(0)), registry(), &no_sig_cfg);
        let votes: Vec<SignedSt1Reply> = (0..6)
            .map(|i| SignedSt1Reply {
                body: St1ReplyBody {
                    txid: txid(),
                    replica: ReplicaId::new(ShardId(0), i),
                    vote: Decision::Commit,
                },
                proof: None,
            })
            .collect();
        let sv = shard_votes(Decision::Commit, votes);
        let shard_cfg = no_sig_cfg.system.shard;
        assert!(votes_justify(
            txid(),
            Decision::Commit,
            Strength::Fast,
            &[sv],
            &[ShardId(0)],
            &shard_cfg,
            &mut engine
        ));
        assert_eq!(engine.take_charged(), Duration::ZERO);
    }
}
