//! Vote tallies and decision certificates (`V-CERT`, `C-CERT`, `A-CERT`).
//!
//! A shard's vote on a transaction is made durable in one of two ways
//! (Section 4.2): on the fast path the raw set of `ST1R` votes is itself a
//! vote certificate (unanimous commit, `3f+1` abort, or one abort backed by a
//! conflicting commit certificate); on the slow path the client logs its
//! 2PC decision on a single logging shard and the `n-f` matching `ST2R`
//! acknowledgements form the certificate. Decision certificates bundle this
//! evidence and travel in writeback messages, read replies (committed
//! versions), and conflict-abort votes.

use crate::crypto_engine::{SigEngine, SignedPayload};
use crate::messages::{ProtoDecision, ProtoVote, SignedSt1Reply, SignedSt2Reply, View};
use crate::views::logging_shard;
use basil_common::{Duration, NodeId, ReplicaId, ShardConfig, ShardId, TxId};
use basil_crypto::BatchProof;
use std::sync::Arc;

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
    /// For the conflict-abort fast path: a commit certificate of a
    /// conflicting transaction, in which case a single abort vote suffices.
    /// Shared (`Arc`) so tallies and certificates carrying the same conflict
    /// evidence do not deep-copy it.
    pub conflict: Option<Arc<DecisionCert>>,
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

/// A commit certificate (`C-CERT`).
#[derive(Clone, Debug)]
pub struct CommitCert {
    /// The committed transaction.
    pub txid: TxId,
    /// Fast path: the unanimous vote sets of every involved shard.
    /// Slow path: empty.
    pub fast_votes: Vec<ShardVotes>,
    /// Slow path: the logging-shard certificate. Fast path: `None`.
    pub slow: Option<VoteCert>,
}

/// An abort certificate (`A-CERT`).
#[derive(Clone, Debug)]
pub struct AbortCert {
    /// The aborted transaction.
    pub txid: TxId,
    /// Fast path: one shard's abort vote set (either `3f+1` abort votes, or a
    /// single vote backed by a conflicting commit certificate).
    pub fast_votes: Option<ShardVotes>,
    /// Slow path: the logging-shard certificate.
    pub slow: Option<VoteCert>,
}

/// Either kind of decision certificate.
#[derive(Clone, Debug)]
pub enum DecisionCert {
    /// Commit certificate.
    Commit(CommitCert),
    /// Abort certificate.
    Abort(AbortCert),
}

impl DecisionCert {
    /// The transaction this certificate decides.
    pub fn txid(&self) -> TxId {
        match self {
            DecisionCert::Commit(c) => c.txid,
            DecisionCert::Abort(a) => a.txid,
        }
    }

    /// The decision carried by the certificate.
    pub fn decision(&self) -> ProtoDecision {
        match self {
            DecisionCert::Commit(_) => ProtoDecision::Commit,
            DecisionCert::Abort(_) => ProtoDecision::Abort,
        }
    }
}

/// Outcome of validating a certificate: whether it is acceptable and how much
/// CPU the validation cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Validation {
    /// Whether the certificate (or tally) is valid.
    pub valid: bool,
    /// CPU cost of the signature checks performed.
    pub cost: Duration,
}

impl Validation {
    fn invalid(cost: Duration) -> Self {
        Validation { valid: false, cost }
    }
}

/// The one quorum counter: how many distinct replicas of `shard` stand behind
/// `items`. `part` picks the items that count toward this quorum (`None`
/// skips one) and names, for each, the replica it claims to come from, the
/// signed body and the proof. An item counts when it is the first from its
/// replica and [`SigEngine::verify_from`] binds the signature to that replica;
/// `counted` sees each such item. A repeated replica is skipped *before* its
/// signature is looked at, so padding a certificate buys no verification work.
/// Returns the count and the cost of the checks made.
pub(crate) fn count_distinct_signed<'a, T, B: SignedPayload + 'a>(
    items: &'a [T],
    shard: ShardId,
    engine: &mut SigEngine,
    part: impl Fn(&'a T) -> Option<(ReplicaId, &'a B, Option<&'a BatchProof>)>,
    mut counted: impl FnMut(&'a T),
) -> (u32, Duration) {
    let mut seen = IndexSet::default();
    let (mut count, mut cost) = (0, Duration::ZERO);
    for item in items {
        let Some((replica, body, proof)) = part(item) else {
            continue;
        };
        if replica.shard != shard || seen.contains(replica.index) {
            continue;
        }
        let (ok, c) = engine.verify_from(body, proof, NodeId::Replica(replica));
        cost += c;
        if ok {
            seen.insert(replica.index);
            count += 1;
            counted(item);
        }
    }
    (count, cost)
}

/// Whether at least `quorum` distinct replicas of the shard cast a correctly
/// signed `want` vote for the transaction in `sv`.
fn vote_quorum(
    sv: &ShardVotes,
    want: ProtoVote,
    quorum: u32,
    engine: &mut SigEngine,
) -> Validation {
    let (count, cost) = count_distinct_signed(
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
    Validation {
        valid: count >= quorum,
        cost,
    }
}

/// Validates a slow-path logging certificate: `n - f` matching, correctly
/// signed `ST2R` acknowledgements from distinct replicas of the logging
/// shard.
pub fn validate_vote_cert(
    cert: &VoteCert,
    cfg: &ShardConfig,
    engine: &mut SigEngine,
) -> Validation {
    let (count, cost) = count_distinct_signed(
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
    Validation {
        valid: count >= cfg.st2_quorum(),
        cost,
    }
}

/// Validates one shard's vote set as *fast-path* evidence for `decision`.
///
/// * Commit: all `5f + 1` replicas voted commit.
/// * Abort: either `3f + 1` abort votes, or one abort vote accompanied by a
///   valid commit certificate of a conflicting transaction.
pub fn validate_fast_shard_votes(
    sv: &ShardVotes,
    cfg: &ShardConfig,
    engine: &mut SigEngine,
) -> Validation {
    match (sv.decision, &sv.conflict) {
        (ProtoDecision::Commit, _) => {
            vote_quorum(sv, ProtoVote::Commit, cfg.fast_commit_quorum(), engine)
        }
        (ProtoDecision::Abort, None) => {
            vote_quorum(sv, ProtoVote::Abort, cfg.fast_abort_quorum(), engine)
        }
        (ProtoDecision::Abort, Some(conflict)) => {
            // Conflict-abort: the conflicting transaction's commit
            // certificate must itself be valid and must be for a
            // *different* transaction.
            if conflict.txid() == sv.txid || !conflict.decision().is_commit() {
                return Validation::invalid(Duration::ZERO);
            }
            let cert = validate_decision_cert(conflict, cfg, engine);
            let vote = vote_quorum(sv, ProtoVote::Abort, 1, engine);
            Validation {
                valid: cert.valid && vote.valid,
                cost: cert.cost + vote.cost,
            }
        }
    }
}

/// Validates one shard's vote set as *slow-path justification* for a 2PC
/// decision being logged in ST2: a commit decision needs a commit quorum
/// (`3f + 1`) from every shard; an abort decision needs an abort quorum
/// (`f + 1`) or a conflict certificate from at least one shard.
pub fn validate_tally_for_decision(
    sv: &ShardVotes,
    decision: ProtoDecision,
    cfg: &ShardConfig,
    engine: &mut SigEngine,
) -> Validation {
    match decision {
        ProtoDecision::Commit => vote_quorum(sv, ProtoVote::Commit, cfg.commit_quorum(), engine),
        ProtoDecision::Abort if sv.conflict.is_some() => validate_fast_shard_votes(sv, cfg, engine),
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
) -> Validation {
    let mut cost = Duration::ZERO;
    match decision {
        ProtoDecision::Commit => {
            let mut supported = IndexSet::default();
            for sv in shard_votes {
                if sv.txid != txid || !sv.decision.is_commit() {
                    continue;
                }
                let v = validate_tally_for_decision(sv, ProtoDecision::Commit, cfg, engine);
                cost += v.cost;
                if v.valid {
                    supported.insert(sv.shard.0);
                }
            }
            let valid = match expected_shards {
                Some(shards) => shards.iter().all(|s| supported.contains(s.0)),
                None => !supported.is_empty(),
            };
            Validation { valid, cost }
        }
        ProtoDecision::Abort => {
            for sv in shard_votes {
                if sv.txid != txid || sv.decision.is_commit() {
                    continue;
                }
                let v = validate_tally_for_decision(sv, ProtoDecision::Abort, cfg, engine);
                cost += v.cost;
                if v.valid {
                    return Validation { valid: true, cost };
                }
            }
            Validation { valid: false, cost }
        }
    }
}

/// Validates a commit certificate.
pub fn validate_commit_cert(
    cert: &CommitCert,
    expected_shards: Option<&[ShardId]>,
    cfg: &ShardConfig,
    engine: &mut SigEngine,
) -> Validation {
    if let Some(slow) = &cert.slow {
        // Only S_log logs decisions: with f = 1, four commit and two abort
        // votes justify both, so acknowledgements gathered on any other shard
        // could certify the opposite of what S_log holds.
        let stray =
            expected_shards.is_some_and(|s| logging_shard(cert.txid, s) != Some(slow.shard));
        if slow.txid != cert.txid || !slow.decision.is_commit() || stray {
            return Validation::invalid(Duration::ZERO);
        }
        return validate_vote_cert(slow, cfg, engine);
    }
    let mut cost = Duration::ZERO;
    // Fast path: every involved shard must have a unanimous vote set.
    let mut supported = IndexSet::default();
    for sv in &cert.fast_votes {
        if sv.txid != cert.txid || !sv.decision.is_commit() {
            continue;
        }
        let v = validate_fast_shard_votes(sv, cfg, engine);
        cost += v.cost;
        if v.valid {
            supported.insert(sv.shard.0);
        }
    }
    let valid = match expected_shards {
        Some(shards) => !shards.is_empty() && shards.iter().all(|s| supported.contains(s.0)),
        None => !supported.is_empty(),
    };
    Validation { valid, cost }
}

/// Validates an abort certificate.
pub fn validate_abort_cert(
    cert: &AbortCert,
    cfg: &ShardConfig,
    engine: &mut SigEngine,
) -> Validation {
    if let Some(slow) = &cert.slow {
        if slow.txid != cert.txid || slow.decision.is_commit() {
            return Validation::invalid(Duration::ZERO);
        }
        return validate_vote_cert(slow, cfg, engine);
    }
    match &cert.fast_votes {
        Some(sv) => {
            if sv.txid != cert.txid || sv.decision.is_commit() {
                return Validation::invalid(Duration::ZERO);
            }
            validate_fast_shard_votes(sv, cfg, engine)
        }
        None => Validation::invalid(Duration::ZERO),
    }
}

/// Validates either kind of decision certificate.
pub fn validate_decision_cert(
    cert: &DecisionCert,
    cfg: &ShardConfig,
    engine: &mut SigEngine,
) -> Validation {
    match cert {
        DecisionCert::Commit(c) => validate_commit_cert(c, None, cfg, engine),
        DecisionCert::Abort(a) => validate_abort_cert(a, cfg, engine),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BasilConfig;
    use crate::messages::{St1ReplyBody, St2ReplyBody};
    use basil_common::ClientId;
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

    fn signed_vote(replica_index: u32, vote: ProtoVote, id: TxId) -> SignedSt1Reply {
        let replica = ReplicaId::new(ShardId(0), replica_index);
        let body = St1ReplyBody {
            txid: id,
            replica,
            vote,
        };
        let mut engine = engine_for(NodeId::Replica(replica));
        let (proof, _) = engine.sign(&body);
        SignedSt1Reply {
            body,
            proof,
            conflict: None,
        }
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
        let (proof, _) = engine.sign(&body);
        SignedSt2Reply { body, proof }
    }

    fn commit_votes(n: u32) -> Vec<SignedSt1Reply> {
        (0..n)
            .map(|i| signed_vote(i, ProtoVote::Commit, txid()))
            .collect()
    }

    fn abort_votes(n: u32) -> Vec<SignedSt1Reply> {
        (0..n)
            .map(|i| signed_vote(i, ProtoVote::Abort, txid()))
            .collect()
    }

    fn shard_votes(decision: ProtoDecision, votes: Vec<SignedSt1Reply>) -> ShardVotes {
        ShardVotes {
            txid: txid(),
            shard: ShardId(0),
            decision,
            votes,
            conflict: None,
        }
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
        assert!(validate_fast_shard_votes(&sv, &shard_cfg, &mut engine).valid);

        let sv5 = shard_votes(ProtoDecision::Commit, commit_votes(5));
        assert!(!validate_fast_shard_votes(&sv5, &shard_cfg, &mut engine).valid);
    }

    #[test]
    fn duplicate_votes_do_not_inflate_the_count() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let mut votes = commit_votes(3);
        // Replica 0's vote repeated three more times.
        votes.extend(std::iter::repeat_n(
            signed_vote(0, ProtoVote::Commit, txid()),
            3,
        ));
        let sv = shard_votes(ProtoDecision::Commit, votes);
        assert!(!validate_fast_shard_votes(&sv, &shard_cfg, &mut engine).valid);
    }

    /// A repeated replica is skipped before its signature is looked at: a
    /// certificate padded with copies costs its validator nothing extra.
    #[test]
    fn padding_a_certificate_buys_no_verification_work() {
        let shard_cfg = cfg().system.shard;
        let plain = shard_votes(ProtoDecision::Commit, commit_votes(6));
        let mut votes = commit_votes(6);
        votes.extend(std::iter::repeat_n(
            signed_vote(0, ProtoVote::Commit, txid()),
            50,
        ));
        let padded = shard_votes(ProtoDecision::Commit, votes);
        // Fresh engines: both validations start from a cold signature cache.
        let a = validate_fast_shard_votes(&plain, &shard_cfg, &mut client_engine());
        let b = validate_fast_shard_votes(&padded, &shard_cfg, &mut client_engine());
        assert!(a.valid && b.valid);
        assert!(a.cost > Duration::ZERO);
        assert_eq!(a.cost, b.cost);
    }

    /// With f = 1, four commit and two abort votes justify both decisions,
    /// so `n - f` acknowledgements gathered on a shard that is not S_log
    /// prove nothing about what S_log holds.
    #[test]
    fn slow_commit_cert_must_come_from_the_logging_shard() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let involved = [ShardId(0), ShardId(1)];
        let slog = logging_shard(txid(), &involved).expect("two shards");
        let acks_of = |shard: ShardId| CommitCert {
            txid: txid(),
            fast_votes: vec![],
            slow: Some(VoteCert {
                txid: txid(),
                shard,
                decision: ProtoDecision::Commit,
                view: 0,
                replies: (0..5)
                    .map(|i| signed_st2_on(shard, i, ProtoDecision::Commit, txid(), 0))
                    .collect(),
            }),
        };
        let other = involved[usize::from(slog == ShardId(0))];
        assert!(
            validate_commit_cert(&acks_of(slog), Some(&involved), &shard_cfg, &mut engine).valid
        );
        assert!(
            !validate_commit_cert(&acks_of(other), Some(&involved), &shard_cfg, &mut engine).valid
        );
        // Without the transaction the involved shards, hence S_log, are
        // unknown; the acknowledgements are all there is to check.
        assert!(validate_commit_cert(&acks_of(other), None, &shard_cfg, &mut engine).valid);
    }

    #[test]
    fn forged_signature_is_not_counted() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let mut votes = commit_votes(5);
        // A vote whose body claims replica 5 but is signed by replica 0.
        let mut forged = signed_vote(0, ProtoVote::Commit, txid());
        forged.body.replica = ReplicaId::new(ShardId(0), 5);
        votes.push(forged);
        let sv = shard_votes(ProtoDecision::Commit, votes);
        assert!(!validate_fast_shard_votes(&sv, &shard_cfg, &mut engine).valid);
    }

    #[test]
    fn fast_abort_needs_3f_plus_1() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let sv = shard_votes(ProtoDecision::Abort, abort_votes(4));
        assert!(validate_fast_shard_votes(&sv, &shard_cfg, &mut engine).valid);
        let sv3 = shard_votes(ProtoDecision::Abort, abort_votes(3));
        assert!(!validate_fast_shard_votes(&sv3, &shard_cfg, &mut engine).valid);
    }

    #[test]
    fn slow_tallies_use_smaller_quorums() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let commit_tally = shard_votes(ProtoDecision::Commit, commit_votes(4));
        assert!(
            validate_tally_for_decision(
                &commit_tally,
                ProtoDecision::Commit,
                &shard_cfg,
                &mut engine
            )
            .valid
        );
        let commit_small = shard_votes(ProtoDecision::Commit, commit_votes(3));
        assert!(
            !validate_tally_for_decision(
                &commit_small,
                ProtoDecision::Commit,
                &shard_cfg,
                &mut engine
            )
            .valid
        );

        let abort_tally = shard_votes(ProtoDecision::Abort, abort_votes(2));
        assert!(
            validate_tally_for_decision(
                &abort_tally,
                ProtoDecision::Abort,
                &shard_cfg,
                &mut engine
            )
            .valid
        );
        let abort_small = shard_votes(ProtoDecision::Abort, abort_votes(1));
        assert!(
            !validate_tally_for_decision(
                &abort_small,
                ProtoDecision::Abort,
                &shard_cfg,
                &mut engine
            )
            .valid
        );
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
        assert!(validate_vote_cert(&cert, &shard_cfg, &mut engine).valid);

        let mut short = cert.clone();
        short.replies.truncate(4);
        assert!(!validate_vote_cert(&short, &shard_cfg, &mut engine).valid);

        // A mismatching decision view breaks the match.
        let mut mixed = cert.clone();
        mixed.replies[0] = signed_st2(0, ProtoDecision::Commit, txid(), 1);
        assert!(!validate_vote_cert(&mixed, &shard_cfg, &mut engine).valid);
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
        assert!(ok.valid);
        let missing_shard = validate_st2_justification(
            txid(),
            ProtoDecision::Commit,
            &[tally],
            Some(&[ShardId(0), ShardId(1)]),
            &shard_cfg,
            &mut engine,
        );
        assert!(!missing_shard.valid);
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
        assert!(ok.valid);
        let not_ok = validate_st2_justification(
            txid(),
            ProtoDecision::Abort,
            &[],
            Some(&[ShardId(0)]),
            &shard_cfg,
            &mut engine,
        );
        assert!(!not_ok.valid);
    }

    #[test]
    fn commit_cert_fast_and_slow_paths() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        let fast = CommitCert {
            txid: txid(),
            fast_votes: vec![shard_votes(ProtoDecision::Commit, commit_votes(6))],
            slow: None,
        };
        assert!(validate_commit_cert(&fast, Some(&[ShardId(0)]), &shard_cfg, &mut engine).valid);

        let slow = CommitCert {
            txid: txid(),
            fast_votes: vec![],
            slow: Some(VoteCert {
                txid: txid(),
                shard: ShardId(0),
                decision: ProtoDecision::Commit,
                view: 0,
                replies: (0..5)
                    .map(|i| signed_st2(i, ProtoDecision::Commit, txid(), 0))
                    .collect(),
            }),
        };
        assert!(validate_commit_cert(&slow, Some(&[ShardId(0)]), &shard_cfg, &mut engine).valid);

        // A slow cert whose inner decision is abort cannot prove a commit.
        let bogus = CommitCert {
            txid: txid(),
            fast_votes: vec![],
            slow: Some(VoteCert {
                txid: txid(),
                shard: ShardId(0),
                decision: ProtoDecision::Abort,
                view: 0,
                replies: (0..5)
                    .map(|i| signed_st2(i, ProtoDecision::Abort, txid(), 0))
                    .collect(),
            }),
        };
        assert!(!validate_commit_cert(&bogus, Some(&[ShardId(0)]), &shard_cfg, &mut engine).valid);
    }

    #[test]
    fn abort_cert_via_conflicting_commit_cert() {
        let shard_cfg = cfg().system.shard;
        let mut engine = client_engine();
        // A valid commit certificate for some other transaction.
        let other_tx = TxId::from_bytes([9; 32]);
        let other_votes: Vec<SignedSt1Reply> = (0..6)
            .map(|i| signed_vote(i, ProtoVote::Commit, other_tx))
            .collect();
        let conflicting_cert = DecisionCert::Commit(CommitCert {
            txid: other_tx,
            fast_votes: vec![ShardVotes {
                txid: other_tx,
                shard: ShardId(0),
                decision: ProtoDecision::Commit,
                votes: other_votes,
                conflict: None,
            }],
            slow: None,
        });

        let cert = AbortCert {
            txid: txid(),
            fast_votes: Some(ShardVotes {
                txid: txid(),
                shard: ShardId(0),
                decision: ProtoDecision::Abort,
                votes: abort_votes(1),
                conflict: Some(Arc::new(conflicting_cert)),
            }),
            slow: None,
        };
        assert!(validate_abort_cert(&cert, &shard_cfg, &mut engine).valid);

        // Without the conflict certificate a single abort vote is not enough.
        let weak = AbortCert {
            txid: txid(),
            fast_votes: Some(shard_votes(ProtoDecision::Abort, abort_votes(1))),
            slow: None,
        };
        assert!(!validate_abort_cert(&weak, &shard_cfg, &mut engine).valid);
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
                conflict: None,
            })
            .collect();
        let sv = shard_votes(ProtoDecision::Commit, votes);
        let shard_cfg = no_sig_cfg.system.shard;
        let v = validate_fast_shard_votes(&sv, &shard_cfg, &mut engine);
        assert!(v.valid);
        assert_eq!(v.cost, Duration::ZERO);
    }
}
