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
//! [`validate_decision_cert`], checks all three; no certificate holds
//! another, so validation never recurses.
//!
//! The validators return a verdict. The CPU of the signature checks they
//! make is metered by the [`SigEngine`] they are handed, so the order and
//! number of those checks is part of their contract: every check made here
//! is charged to the validating node.

use crate::crypto_engine::{SigEngine, SignedPayload};
use crate::messages::{ProtoDecision, ProtoVote, SignedSt1Reply, SignedSt2Reply, View};
use crate::views::logging_shard;
use basil_common::{NodeId, ReplicaId, ShardConfig, ShardId, TxId};
use basil_crypto::BatchProof;

/// Allocation-free set of small indices: the replica indices a quorum
/// counted, or the shards a certificate covers. Shards have `n = 5f + 1`
/// replicas, so a 64-bit mask covers every deployment up to `f = 12` (and up
/// to 64 shards); larger indices (only reachable with hand-built configs)
/// spill into a short list.
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

    fn is_empty(&self) -> bool {
        self.mask == 0 && self.spill.is_empty()
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
    pub decision: ProtoDecision,
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
    pub decision: ProtoDecision,
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
    pub fn decision(&self) -> ProtoDecision {
        match &self.proof {
            DecisionProof::FastCommit(_) => ProtoDecision::Commit,
            DecisionProof::FastAbort(_) => ProtoDecision::Abort,
            DecisionProof::Slow(slow) => slow.decision,
        }
    }
}

/// The one quorum counter: how many distinct replicas of `shard` stand behind
/// `items`. `part` picks the items that count toward this quorum (`None`
/// skips one) and names, for each, the replica it claims to come from, the
/// signed body and the proof. An item counts when it is the first from its
/// replica and [`SigEngine::verify_from`] binds the signature to that replica;
/// `counted` sees each such item. A repeated replica is skipped *before* its
/// signature is looked at, so padding a certificate buys no verification work.
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
        if engine.verify_from(body, proof, NodeId::Replica(replica)) {
            seen.insert(replica.index);
            count += 1;
            counted(item);
        }
    }
    count
}

/// Whether at least `quorum` distinct replicas of the shard cast a correctly
/// signed `want` vote for the transaction in `sv`.
fn vote_quorum(sv: &ShardVotes, want: ProtoVote, quorum: u32, engine: &mut SigEngine) -> bool {
    let count = count_distinct_signed(
        &sv.votes,
        sv.shard,
        engine,
        |v| {
            (v.body.txid == sv.txid && v.body.vote == want).then_some((
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

/// Validates one shard's vote set as *fast-path* evidence for `decision`.
///
/// * Commit: all `5f + 1` replicas voted commit.
/// * Abort: `3f + 1` replicas voted abort.
pub fn validate_fast_shard_votes(
    sv: &ShardVotes,
    cfg: &ShardConfig,
    engine: &mut SigEngine,
) -> bool {
    match sv.decision {
        ProtoDecision::Commit => {
            vote_quorum(sv, ProtoVote::Commit, cfg.fast_commit_quorum(), engine)
        }
        ProtoDecision::Abort => vote_quorum(sv, ProtoVote::Abort, cfg.fast_abort_quorum(), engine),
    }
}

/// Validates one shard's vote set as *slow-path justification* for a 2PC
/// decision being logged in ST2: a commit decision needs a commit quorum
/// (`3f + 1`) from every shard; an abort decision needs an abort quorum
/// (`f + 1`) from at least one shard.
pub fn validate_tally_for_decision(
    sv: &ShardVotes,
    decision: ProtoDecision,
    cfg: &ShardConfig,
    engine: &mut SigEngine,
) -> bool {
    match decision {
        ProtoDecision::Commit => vote_quorum(sv, ProtoVote::Commit, cfg.commit_quorum(), engine),
        ProtoDecision::Abort => vote_quorum(sv, ProtoVote::Abort, cfg.abort_quorum(), engine),
    }
}

/// Validates an ST2 message's justification: the decision must be supported
/// by the attached tallies. `expected_shards`, when known (the replica has
/// the transaction), lets the validator insist that *every* involved shard
/// voted commit for a commit decision.
pub fn validate_st2_justification(
    txid: TxId,
    decision: ProtoDecision,
    shard_votes: &[ShardVotes],
    expected_shards: Option<&[ShardId]>,
    cfg: &ShardConfig,
    engine: &mut SigEngine,
) -> bool {
    match decision {
        ProtoDecision::Commit => {
            let mut supported = IndexSet::default();
            for sv in shard_votes {
                if sv.txid != txid || !sv.decision.is_commit() {
                    continue;
                }
                if validate_tally_for_decision(sv, ProtoDecision::Commit, cfg, engine) {
                    supported.insert(sv.shard.0);
                }
            }
            match expected_shards {
                Some(shards) => shards.iter().all(|s| supported.contains(s.0)),
                None => !supported.is_empty(),
            }
        }
        // The first valid abort tally is enough.
        ProtoDecision::Abort => shard_votes.iter().any(|sv| {
            sv.txid == txid
                && !sv.decision.is_commit()
                && validate_tally_for_decision(sv, ProtoDecision::Abort, cfg, engine)
        }),
    }
}

/// Validates a decision certificate. `expected_shards`, when known (the
/// validator has the transaction), are the shards it involves, and one rule
/// holds for both decisions: a slow proof must come from their S_log, a fast
/// commit must cover all of them and a fast abort must come from one of them.
/// Cheap field checks come before any signature check.
pub fn validate_decision_cert(
    cert: &DecisionCert,
    expected_shards: Option<&[ShardId]>,
    cfg: &ShardConfig,
    engine: &mut SigEngine,
) -> bool {
    match &cert.proof {
        DecisionProof::Slow(slow) => {
            // Only S_log logs decisions: with f = 1, four commit and two
            // abort votes justify both, so acknowledgements gathered on any
            // other shard could certify the opposite of what S_log holds.
            let stray =
                expected_shards.is_some_and(|s| logging_shard(cert.txid, s) != Some(slow.shard));
            slow.txid == cert.txid && !stray && validate_vote_cert(slow, cfg, engine)
        }
        DecisionProof::FastCommit(votes) => {
            let mut supported = IndexSet::default();
            for sv in votes {
                if sv.txid != cert.txid || !sv.decision.is_commit() {
                    continue;
                }
                if validate_fast_shard_votes(sv, cfg, engine) {
                    supported.insert(sv.shard.0);
                }
            }
            match expected_shards {
                Some(shards) => {
                    !shards.is_empty() && shards.iter().all(|s| supported.contains(s.0))
                }
                None => !supported.is_empty(),
            }
        }
        DecisionProof::FastAbort(sv) => {
            let foreign = expected_shards.is_some_and(|s| !s.contains(&sv.shard));
            sv.txid == cert.txid
                && !sv.decision.is_commit()
                && !foreign
                && validate_fast_shard_votes(sv, cfg, engine)
        }
    }
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

    fn signed_vote(replica_index: u32, vote: ProtoVote) -> SignedSt1Reply {
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

    fn signed_st2(
        replica_index: u32,
        decision: ProtoDecision,
        id: TxId,
        view: View,
    ) -> SignedSt2Reply {
        signed_st2_on(ShardId(0), replica_index, decision, id, view)
    }

    fn signed_st2_on(
        shard: ShardId,
        replica_index: u32,
        decision: ProtoDecision,
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
        (0..n).map(|i| signed_vote(i, ProtoVote::Commit)).collect()
    }

    fn abort_votes(n: u32) -> Vec<SignedSt1Reply> {
        (0..n).map(|i| signed_vote(i, ProtoVote::Abort)).collect()
    }

    fn shard_votes(decision: ProtoDecision, votes: Vec<SignedSt1Reply>) -> ShardVotes {
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
    fn acks(shard: ShardId, decision: ProtoDecision) -> DecisionProof {
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
        assert!(set.is_empty());
        for i in [3, 63, 64, 200, 200] {
            set.insert(i);
        }
        assert!(!set.is_empty());
        assert!([3, 63, 64, 200].iter().all(|&i| set.contains(i)));
        assert!(!set.contains(4) && !set.contains(65));
        assert_eq!(set.spill, [64, 200]);
    }

    #[test]
    fn fast_commit_requires_unanimity() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let sv = shard_votes(ProtoDecision::Commit, commit_votes(6));
        assert!(validate_fast_shard_votes(&sv, &shard_cfg, &mut engine));

        let sv5 = shard_votes(ProtoDecision::Commit, commit_votes(5));
        assert!(!validate_fast_shard_votes(&sv5, &shard_cfg, &mut engine));
    }

    #[test]
    fn duplicate_votes_do_not_inflate_the_count() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let mut votes = commit_votes(3);
        // Replica 0's vote repeated three more times.
        votes.extend(std::iter::repeat_n(signed_vote(0, ProtoVote::Commit), 3));
        let sv = shard_votes(ProtoDecision::Commit, votes);
        assert!(!validate_fast_shard_votes(&sv, &shard_cfg, &mut engine));
    }

    /// A repeated replica is skipped before its signature is looked at: a
    /// certificate padded with copies costs its validator nothing extra.
    #[test]
    fn padding_a_certificate_buys_no_verification_work() {
        let shard_cfg = cfg().system.shard;
        let plain = shard_votes(ProtoDecision::Commit, commit_votes(6));
        let mut votes = commit_votes(6);
        votes.extend(std::iter::repeat_n(signed_vote(0, ProtoVote::Commit), 50));
        let padded = shard_votes(ProtoDecision::Commit, votes);
        // Fresh engines: both validations start from a cold signature cache.
        let (mut a, mut b) = (client_engine(), client_engine());
        assert!(validate_fast_shard_votes(&plain, &shard_cfg, &mut a));
        assert!(validate_fast_shard_votes(&padded, &shard_cfg, &mut b));
        let cost = a.take_charged();
        assert!(cost > Duration::ZERO);
        assert_eq!(cost, b.take_charged());
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
            |proof, shards| validate_decision_cert(&cert(proof), shards, &shard_cfg, &mut engine);
        for decision in [ProtoDecision::Commit, ProtoDecision::Abort] {
            assert!(valid(acks(slog, decision), Some(&involved)));
            assert!(!valid(acks(other, decision), Some(&involved)));
            // Without the transaction the involved shards, hence S_log, are
            // unknown; the acknowledgements are all there is to check.
            assert!(valid(acks(other, decision), None));
        }
    }

    /// A fast abort must come from a shard the transaction involves, and a
    /// vote set from any other shard is refused before a signature is read.
    #[test]
    fn fast_abort_cert_must_come_from_an_involved_shard() {
        let shard_cfg = cfg().system.shard;
        let abort = cert(DecisionProof::FastAbort(shard_votes(
            ProtoDecision::Abort,
            abort_votes(4),
        )));
        let mut engine = client_engine();
        assert!(validate_decision_cert(
            &abort,
            Some(&[ShardId(0), ShardId(1)]),
            &shard_cfg,
            &mut engine
        ));
        assert!(validate_decision_cert(
            &abort,
            None,
            &shard_cfg,
            &mut engine
        ));
        let mut engine = client_engine();
        assert!(!validate_decision_cert(
            &abort,
            Some(&[ShardId(1), ShardId(2)]),
            &shard_cfg,
            &mut engine
        ));
        assert_eq!(engine.take_charged(), Duration::ZERO);
    }

    #[test]
    fn forged_signature_is_not_counted() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let mut votes = commit_votes(5);
        // A vote whose body claims replica 5 but is signed by replica 0.
        let mut forged = signed_vote(0, ProtoVote::Commit);
        forged.body.replica = ReplicaId::new(ShardId(0), 5);
        votes.push(forged);
        let sv = shard_votes(ProtoDecision::Commit, votes);
        assert!(!validate_fast_shard_votes(&sv, &shard_cfg, &mut engine));
    }

    #[test]
    fn fast_abort_needs_3f_plus_1() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let sv = shard_votes(ProtoDecision::Abort, abort_votes(4));
        assert!(validate_fast_shard_votes(&sv, &shard_cfg, &mut engine));
        let sv3 = shard_votes(ProtoDecision::Abort, abort_votes(3));
        assert!(!validate_fast_shard_votes(&sv3, &shard_cfg, &mut engine));
    }

    #[test]
    fn slow_tallies_use_smaller_quorums() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let mut valid = |decision, votes| {
            let tally = shard_votes(decision, votes);
            validate_tally_for_decision(&tally, decision, &shard_cfg, &mut engine)
        };
        assert!(valid(ProtoDecision::Commit, commit_votes(4)));
        assert!(!valid(ProtoDecision::Commit, commit_votes(3)));
        assert!(valid(ProtoDecision::Abort, abort_votes(2)));
        assert!(!valid(ProtoDecision::Abort, abort_votes(1)));
    }

    #[test]
    fn vote_cert_requires_n_minus_f_matching_acks() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let cert = VoteCert {
            txid: txid(),
            shard: ShardId(0),
            decision: ProtoDecision::Commit,
            view: 0,
            replies: (0..5)
                .map(|i| signed_st2(i, ProtoDecision::Commit, txid(), 0))
                .collect(),
        };
        assert!(validate_vote_cert(&cert, &shard_cfg, &mut engine));

        let mut short = cert.clone();
        short.replies.truncate(4);
        assert!(!validate_vote_cert(&short, &shard_cfg, &mut engine));

        // A mismatching decision view breaks the match.
        let mut mixed = cert.clone();
        mixed.replies[0] = signed_st2(0, ProtoDecision::Commit, txid(), 1);
        assert!(!validate_vote_cert(&mixed, &shard_cfg, &mut engine));
    }

    #[test]
    fn st2_justification_commit_needs_every_expected_shard() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let tally = shard_votes(ProtoDecision::Commit, commit_votes(4));
        let ok = validate_st2_justification(
            txid(),
            ProtoDecision::Commit,
            std::slice::from_ref(&tally),
            Some(&[ShardId(0)]),
            &shard_cfg,
            &mut engine,
        );
        assert!(ok);
        let missing_shard = validate_st2_justification(
            txid(),
            ProtoDecision::Commit,
            &[tally],
            Some(&[ShardId(0), ShardId(1)]),
            &shard_cfg,
            &mut engine,
        );
        assert!(!missing_shard);
    }

    #[test]
    fn st2_justification_abort_needs_one_abort_quorum() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let tally = shard_votes(ProtoDecision::Abort, abort_votes(2));
        let ok = validate_st2_justification(
            txid(),
            ProtoDecision::Abort,
            &[tally],
            Some(&[ShardId(0)]),
            &shard_cfg,
            &mut engine,
        );
        assert!(ok);
        let not_ok = validate_st2_justification(
            txid(),
            ProtoDecision::Abort,
            &[],
            Some(&[ShardId(0)]),
            &shard_cfg,
            &mut engine,
        );
        assert!(!not_ok);
    }

    #[test]
    fn commit_cert_fast_and_slow_paths() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let mut valid = |proof| {
            validate_decision_cert(&cert(proof), Some(&[ShardId(0)]), &shard_cfg, &mut engine)
        };
        let unanimous = shard_votes(ProtoDecision::Commit, commit_votes(6));
        assert!(valid(DecisionProof::FastCommit(vec![unanimous.clone()])));
        assert!(valid(acks(ShardId(0), ProtoDecision::Commit)));

        // Unanimous votes on another transaction prove nothing about this one.
        let foreign = ShardVotes {
            txid: TxId::from_bytes([1; 32]),
            ..unanimous
        };
        assert!(!valid(DecisionProof::FastCommit(vec![foreign])));

        // The decision is the proof's: logged aborts certify an abort.
        let logged_abort = cert(acks(ShardId(0), ProtoDecision::Abort));
        assert_eq!(logged_abort.decision(), ProtoDecision::Abort);
    }

    /// A fast abort is `3f + 1` abort votes: one abort vote certifies
    /// nothing.
    #[test]
    fn single_abort_vote_is_not_an_abort_cert() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let one_vote = shard_votes(ProtoDecision::Abort, abort_votes(1));
        let weak = cert(DecisionProof::FastAbort(one_vote));
        let valid = validate_decision_cert(&weak, None, &shard_cfg, &mut engine);
        assert!(!valid);
    }

    #[test]
    fn validation_is_free_and_permissive_when_signatures_disabled() {
        let mut no_sig_cfg = cfg().without_proofs();
        no_sig_cfg.crypto_mode = crate::config::CryptoMode::Real;
        let mut engine = SigEngine::new(NodeId::Client(ClientId(0)), registry(), &no_sig_cfg);
        // Unsigned votes (proof = None) are still counted by replica identity.
        let votes: Vec<SignedSt1Reply> = (0..6)
            .map(|i| SignedSt1Reply {
                body: St1ReplyBody {
                    txid: txid(),
                    replica: ReplicaId::new(ShardId(0), i),
                    vote: ProtoVote::Commit,
                },
                proof: None,
            })
            .collect();
        let sv = shard_votes(ProtoDecision::Commit, votes);
        let shard_cfg = no_sig_cfg.system.shard;
        assert!(validate_fast_shard_votes(&sv, &shard_cfg, &mut engine));
        assert_eq!(engine.take_charged(), Duration::ZERO);
    }
}
