//! Client-side quorum counting: choosing the version a read takes from its
//! replies (Section 4.1), classifying a shard's `ST1R` votes into the
//! fast/slow commit/abort paths of Section 4.2, and collecting `ST2R`
//! acknowledgements.

use crate::certs::{validate_decision_cert, ShardVotes, Strength, VoteCert};
use crate::crypto_engine::SigEngine;
use crate::messages::{CommittedRead, ReadReply, SignedSt1Reply, SignedSt2Reply, View};
use basil_common::{
    FastHashMap, Key, ReplicaId, ShardConfig, ShardId, SystemConfig, Timestamp, TxId, Value,
};
use basil_store::{Decision, Transaction};
use std::sync::Arc;

/// The version a read takes: its timestamp (`Timestamp::ZERO` for genesis),
/// its value, and the prepared transaction that wrote it, with its id, when
/// it is not committed yet (the read then depends on that transaction).
pub(crate) type ReadVersion = (Timestamp, Value, Option<(TxId, Arc<Transaction>)>);

/// Collects the replies to one read, one per replica in arrival order (a
/// small `Vec`: a read waits for `f + 1` ≈ 2 replies).
#[derive(Clone, Debug, Default)]
pub(crate) struct ReadTally {
    replies: Vec<(ReplicaId, ReadReply)>,
}

impl ReadTally {
    /// Adds a (pre-verified) reply of `replica`; a later reply of the same
    /// replica replaces its earlier one.
    pub fn add(&mut self, replica: ReplicaId, reply: ReadReply) {
        match self.replies.iter_mut().find(|(r, _)| *r == replica) {
            Some((_, existing)) => *existing = reply,
            None => self.replies.push((replica, reply)),
        }
    }

    /// Number of replicas that replied.
    pub fn total(&self) -> u32 {
        self.replies.len() as u32
    }

    /// The version the read of `key` takes (Section 4.1), or `None` while
    /// fewer replies than the read quorum waits for are in hand, or while
    /// they settle nothing yet.
    ///
    /// A committed claim above genesis counts with a certificate that names
    /// its transaction, commits it, binds it as the writer and validates on
    /// the writer's shards; every such claim is checked, in reply order (each
    /// check is charged CPU, which every simulated output depends on). A
    /// prepared claim counts once `f + 1` replies name the same transaction
    /// and it writes `key`. The read takes the highest counted version; on
    /// equal versions the first seen wins, committed claims before prepared
    /// ones. Only when nothing counts does genesis decide: a value with
    /// `f + 1` vouchers, or the only value claimed (one of the `f + 1`
    /// replies is correct; a one-reply quorum trusts its reply). Genesis
    /// claims that disagree wait for the rest of the fanout or the widened
    /// read; no claim at all reads the empty value at version 0.
    pub fn classify(
        &self,
        key: &Key,
        system: &SystemConfig,
        engine: &mut SigEngine,
    ) -> Option<ReadVersion> {
        if self.total() < system.read_quorum.wait_for(&system.shard) {
            return None;
        }
        let vouch = system.shard.prepared_vouch_quorum();
        let replies = || self.replies.iter().map(|(_, r)| &r.body);
        let committed = replies()
            .filter_map(|r| r.committed.as_ref())
            .filter(|c| c.version != Timestamp::ZERO && certified(c, key, system, engine))
            .map(|c| (c.version, &c.value, None));
        let prepared =
            count_by(replies().filter_map(|r| r.prepared.as_ref().map(|p| (p.tx.id(), &p.tx))));
        let vouched = prepared
            .into_iter()
            .filter(|(.., n)| *n >= vouch)
            .filter_map(|(txid, tx, _)| {
                Some((tx.timestamp(), tx.written_value(key)?, Some((txid, tx))))
            });
        let newest = committed
            .chain(vouched)
            .reduce(|best, claim| if claim.0 > best.0 { claim } else { best });
        let empty = Value::empty();
        let (version, value, dependency) = match newest {
            Some(counted) => counted,
            None => (Timestamp::ZERO, self.genesis(vouch, &empty)?, None),
        };
        let dependency = dependency.map(|(txid, tx)| (txid, Arc::clone(tx)));
        Some((version, value.clone(), dependency))
    }

    /// The genesis value the replies settle on when nothing else counts. A
    /// reply with no committed version claims the empty value.
    fn genesis<'a>(&'a self, vouch: u32, empty: &'a Value) -> Option<&'a Value> {
        let claims = self
            .replies
            .iter()
            .filter_map(|(_, r)| match &r.body.committed {
                Some(c) if c.version != Timestamp::ZERO => None,
                claim => Some((claim.as_ref().map_or(empty, |c| &c.value), ())),
            });
        let claims = count_by(claims);
        match (claims.iter().find(|(.., n)| *n >= vouch), &claims[..]) {
            (Some((value, ..)), _) | (None, [(value, ..)]) => Some(value),
            (None, []) => Some(empty),
            (None, _) => None,
        }
    }
}

/// Whether a committed claim's certificate names its transaction, commits
/// it and binds it as the writer, all checked before any signature, and
/// then validates on the shards the writer involves.
fn certified(c: &CommittedRead, key: &Key, system: &SystemConfig, engine: &mut SigEngine) -> bool {
    let (Some(cert), Some(writer)) = (&c.cert, &c.tx) else {
        return false;
    };
    cert.txid == c.txid
        && cert.decision().is_commit()
        && c.written_by(key)
        && validate_decision_cert(
            cert,
            &writer.involved_shards(system.num_shards),
            &system.shard,
            engine,
        )
}

/// Groups `claims` by their first element, in first-seen order, counting
/// each group.
fn count_by<K: PartialEq, T>(claims: impl Iterator<Item = (K, T)>) -> Vec<(K, T, u32)> {
    let mut groups: Vec<(K, T, u32)> = Vec::new();
    for (k, t) in claims {
        match groups.iter_mut().find(|(g, ..)| *g == k) {
            Some((.., n)) => *n += 1,
            None => groups.push((k, t, 1)),
        }
    }
    groups
}

/// A classified shard: the votes backing its decision (`votes.decision`),
/// and how much they hold by the quorum table of [`Strength::quorum`]: fast
/// votes are durable without ST2, slow ones must be logged in stage ST2.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// Whether the shard's vote is durable as it stands (a `V-CERT`).
    pub strength: Strength,
    /// The votes (a `V-CERT` when fast, a vote tally when slow).
    pub votes: ShardVotes,
}

/// Accumulates one shard's `ST1R` votes for a transaction.
#[derive(Clone, Debug)]
pub struct ShardTally {
    txid: TxId,
    shard: ShardId,
    cfg: ShardConfig,
    /// Deduplicated votes by replica index.
    votes: FastHashMap<u32, SignedSt1Reply>,
}

impl ShardTally {
    /// Creates an empty tally for `shard`.
    pub fn new(txid: TxId, shard: ShardId, cfg: ShardConfig) -> Self {
        ShardTally {
            txid,
            shard,
            cfg,
            votes: FastHashMap::default(),
        }
    }

    /// Adds a (pre-verified) vote. Votes for other transactions or shards and
    /// duplicate votes from the same replica are ignored. Returns `true` if
    /// the vote was recorded.
    pub fn add(&mut self, vote: SignedSt1Reply) -> bool {
        if vote.body.txid != self.txid || vote.body.replica.shard != self.shard {
            return false;
        }
        if vote.body.replica.index >= self.cfg.n() {
            return false;
        }
        if self.votes.contains_key(&vote.body.replica.index) {
            return false;
        }
        self.votes.insert(vote.body.replica.index, vote);
        true
    }

    /// Number of votes received so far.
    pub fn total(&self) -> u32 {
        self.votes.len() as u32
    }

    /// Replica indices of the shard that have not voted yet, in index order
    /// (the retransmission targets when the prepare timer fires).
    pub fn missing(&self) -> Vec<u32> {
        (0..self.cfg.n())
            .filter(|i| !self.votes.contains_key(i))
            .collect()
    }

    /// Number of `decision` votes received so far.
    fn count(&self, decision: Decision) -> u32 {
        self.votes
            .values()
            .filter(|v| v.body.vote == decision)
            .count() as u32
    }

    /// Whether both slow quorums, for commit and for abort, are
    /// simultaneously present — the precondition for a Byzantine client to
    /// equivocate its ST2 decision (Section 6.4, `equiv-real`).
    pub fn can_equivocate(&self) -> bool {
        [Decision::Commit, Decision::Abort]
            .into_iter()
            .all(|d| self.count(d) >= Strength::Slow.quorum(d, &self.cfg))
    }

    /// Tries to classify the shard's vote by [`Strength::quorum`], in the
    /// order fast commit, fast abort, slow commit, slow abort.
    ///
    /// `complete` indicates that the client does not expect further replies
    /// (its prepare timer fired); all `n` having voted says the same. Only
    /// then are the slow paths taken, because earlier a unanimous fast path
    /// might still materialize.
    pub fn classify(&self, complete: bool) -> Option<ShardOutcome> {
        let settled = complete || self.total() >= self.cfg.n();
        [
            (Strength::Fast, Decision::Commit),
            (Strength::Fast, Decision::Abort),
            (Strength::Slow, Decision::Commit),
            (Strength::Slow, Decision::Abort),
        ]
        .into_iter()
        .filter(|&(strength, _)| strength == Strength::Fast || settled)
        .find(|&(strength, decision)| self.count(decision) >= strength.quorum(decision, &self.cfg))
        .map(|(strength, decision)| ShardOutcome {
            strength,
            votes: self.shard_votes(decision),
        })
    }

    /// The received `decision` votes as this shard's vote set: a classified
    /// shard's evidence, or one of the two tallies an equivocating Byzantine
    /// client sends.
    pub fn shard_votes(&self, decision: Decision) -> ShardVotes {
        ShardVotes {
            txid: self.txid,
            shard: self.shard,
            decision,
            votes: self
                .votes
                .values()
                .filter(|v| v.body.vote == decision)
                .cloned()
                .collect(),
        }
    }
}

/// Result of combining all shards' classifications into a 2PC decision.
#[derive(Clone, Debug)]
pub struct PrepareOutcome {
    /// The 2PC decision.
    pub decision: Decision,
    /// [`Strength::Fast`] when the decision is already durable without
    /// stage ST2 (all shards fast, or one fast shard aborted).
    pub strength: Strength,
    /// Evidence from each shard (tallies or certificates).
    pub shard_votes: Vec<ShardVotes>,
}

/// Combines per-shard outcomes, one per involved shard in `involved` order
/// (`None` while a shard is unclassified), into the transaction's 2PC
/// decision (Section 4.2, end of stage 1). Returns `None` until every
/// involved shard has been classified — except that a single *fast* abort
/// shard decides the transaction immediately.
pub fn combine_outcomes(outcomes: &[Option<ShardOutcome>]) -> Option<PrepareOutcome> {
    // A fast abort from any shard is final on its own. The first in
    // `involved` order is the one whose votes end up in the A-CERT, so its
    // contents, and hence downstream validation cost, are the same on every
    // run.
    if let Some(outcome) = outcomes
        .iter()
        .flatten()
        .find(|o| o.strength == Strength::Fast && !o.votes.decision.is_commit())
    {
        return Some(PrepareOutcome {
            decision: Decision::Abort,
            strength: Strength::Fast,
            shard_votes: vec![outcome.votes.clone()],
        });
    }
    if outcomes.iter().any(Option::is_none) {
        return None;
    }
    let classified = || outcomes.iter().flatten();
    let decision = if classified().all(|o| o.votes.decision.is_commit()) {
        Decision::Commit
    } else {
        Decision::Abort
    };
    Some(PrepareOutcome {
        decision,
        strength: if classified().all(|o| o.strength == Strength::Fast) {
            Strength::Fast
        } else {
            Strength::Slow
        },
        shard_votes: classified().map(|o| o.votes.clone()).collect(),
    })
}

/// Accumulates `ST2R` acknowledgements from the logging shard.
#[derive(Clone, Debug)]
pub struct St2Tally {
    txid: TxId,
    shard: ShardId,
    cfg: ShardConfig,
    replies: FastHashMap<u32, SignedSt2Reply>,
}

/// What the collected `ST2R` acknowledgements amount to.
#[derive(Clone, Debug)]
pub enum St2Outcome {
    /// `n - f` acknowledgements match: the decision is durable.
    Certified(VoteCert),
    /// Enough replies arrived to rule out a matching quorum for any single
    /// (decision, view): the log has diverged and the fallback must run.
    Divergent {
        /// The acknowledgements seen (used to build `InvokeFB.views`).
        replies: Vec<SignedSt2Reply>,
    },
}

impl St2Tally {
    /// Creates an empty tally for the logging shard.
    pub fn new(txid: TxId, shard: ShardId, cfg: ShardConfig) -> Self {
        St2Tally {
            txid,
            shard,
            cfg,
            replies: FastHashMap::default(),
        }
    }

    /// Adds a (pre-verified) acknowledgement; ignores duplicates and replies
    /// for other transactions/shards. Returns `true` if recorded.
    pub fn add(&mut self, reply: SignedSt2Reply) -> bool {
        if reply.body.txid != self.txid
            || reply.body.replica.shard != self.shard
            || reply.body.replica.index >= self.cfg.n()
        {
            return false;
        }
        // A newer reply from the same replica replaces the old one (views
        // may have advanced).
        self.replies.insert(reply.body.replica.index, reply);
        true
    }

    /// Number of acknowledgements collected.
    pub fn total(&self) -> u32 {
        self.replies.len() as u32
    }

    /// Replica indices of the logging shard that have not acknowledged yet,
    /// in index order (the retransmission targets when the ST2 timer fires).
    pub fn missing(&self) -> Vec<u32> {
        (0..self.cfg.n())
            .filter(|i| !self.replies.contains_key(i))
            .collect()
    }

    /// Tries to conclude stage ST2.
    pub fn classify(&self) -> Option<St2Outcome> {
        // Group by (decision, view_decision): a shard's handful of replies
        // form a handful of groups, so a list scan beats hashing. At most
        // one group can reach `n - f` of `n` replies.
        let mut groups: Vec<((Decision, View), Vec<&SignedSt2Reply>)> = Vec::new();
        for r in self.replies.values() {
            let group = (r.body.decision, r.body.view_decision);
            match groups.iter_mut().find(|(g, _)| *g == group) {
                Some((_, members)) => members.push(r),
                None => groups.push((group, vec![r])),
            }
        }
        let quorum = self.cfg.st2_quorum();
        for ((decision, view), members) in &groups {
            if members.len() as u32 >= quorum {
                return Some(St2Outcome::Certified(VoteCert {
                    txid: self.txid,
                    shard: self.shard,
                    decision: *decision,
                    view: *view,
                    replies: members.iter().map(|r| (*r).clone()).collect(),
                }));
            }
        }
        // Divergence: even if every missing replica joined the largest group,
        // no quorum could form.
        let largest = groups.iter().map(|(_, m)| m.len()).max().unwrap_or(0) as u32;
        let outstanding = self.cfg.n() - self.total();
        if largest + outstanding < quorum {
            let replies = self.replies.values().cloned().collect();
            return Some(St2Outcome::Divergent { replies });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{St1ReplyBody, St2ReplyBody};
    use basil_common::ReplicaId;

    fn cfg() -> ShardConfig {
        ShardConfig::new(1) // n = 6
    }

    fn txid() -> TxId {
        TxId::from_bytes([1; 32])
    }

    fn vote(i: u32, v: Decision) -> SignedSt1Reply {
        SignedSt1Reply {
            body: St1ReplyBody {
                txid: txid(),
                replica: ReplicaId::new(ShardId(0), i),
                vote: v,
            },
            proof: None,
        }
    }

    fn st2r(i: u32, d: Decision, view: View) -> SignedSt2Reply {
        SignedSt2Reply {
            body: St2ReplyBody {
                txid: txid(),
                replica: ReplicaId::new(ShardId(0), i),
                decision: d,
                view_decision: view,
                view_current: view,
            },
            proof: None,
        }
    }

    fn tally_with(votes: impl IntoIterator<Item = SignedSt1Reply>) -> ShardTally {
        let mut t = ShardTally::new(txid(), ShardId(0), cfg());
        for v in votes {
            t.add(v);
        }
        t
    }

    #[test]
    fn unanimous_commit_is_fast() {
        let t = tally_with((0..6).map(|i| vote(i, Decision::Commit)));
        let o = t.classify(false).expect("classified");
        assert_eq!(o.strength, Strength::Fast);
        assert_eq!(o.votes.decision, Decision::Commit);
        assert_eq!(o.votes.votes.len(), 6);
    }

    #[test]
    fn commit_quorum_without_unanimity_is_slow_and_waits_for_completion() {
        let t = tally_with((0..4).map(|i| vote(i, Decision::Commit)));
        assert!(t.classify(false).is_none(), "might still reach fast path");
        let o = t.classify(true).expect("slow classification");
        assert_eq!(o.strength, Strength::Slow);
        assert_eq!(o.votes.decision, Decision::Commit);
    }

    #[test]
    fn three_f_plus_one_aborts_is_fast_abort() {
        let t = tally_with((0..4).map(|i| vote(i, Decision::Abort)));
        let o = t.classify(false).expect("classified");
        assert_eq!(o.strength, Strength::Fast);
        assert_eq!(o.votes.decision, Decision::Abort);
    }

    #[test]
    fn f_plus_one_aborts_is_slow_abort() {
        let mut votes: Vec<_> = (0..2).map(|i| vote(i, Decision::Abort)).collect();
        votes.extend((2..5).map(|i| vote(i, Decision::Commit)));
        let t = tally_with(votes);
        assert!(t.classify(false).is_none());
        let o = t.classify(true).expect("classified");
        assert_eq!(o.strength, Strength::Slow);
        assert_eq!(o.votes.decision, Decision::Abort);
        assert_eq!(o.votes.votes.len(), 2, "only abort votes in the tally");
    }

    #[test]
    fn duplicate_and_foreign_votes_are_ignored() {
        let mut t = ShardTally::new(txid(), ShardId(0), cfg());
        assert!(t.add(vote(0, Decision::Commit)));
        assert!(!t.add(vote(0, Decision::Abort)), "duplicate replica");
        let mut foreign = vote(1, Decision::Commit);
        foreign.body.txid = TxId::from_bytes([8; 32]);
        assert!(!t.add(foreign));
        let mut out_of_range = vote(1, Decision::Commit);
        out_of_range.body.replica.index = 17;
        assert!(!t.add(out_of_range));
        assert_eq!(t.total(), 1);
    }

    #[test]
    fn equivocation_precondition() {
        // 4 commits + 2 aborts: both CQ (4) and AQ (2) present.
        let mut votes: Vec<_> = (0..4).map(|i| vote(i, Decision::Commit)).collect();
        votes.extend((4..6).map(|i| vote(i, Decision::Abort)));
        let t = tally_with(votes);
        assert!(t.can_equivocate());
        assert_eq!(t.shard_votes(Decision::Commit).votes.len(), 4);
        assert_eq!(t.shard_votes(Decision::Abort).votes.len(), 2);

        let t2 = tally_with((0..6).map(|i| vote(i, Decision::Commit)));
        assert!(!t2.can_equivocate());
    }

    /// The client's tally and the validator read one quorum table. On a
    /// shard of `f = 1` and of `f = 2`, with real signatures, for every split
    /// of its replicas into commit votes, abort votes and missing ones:
    /// whatever the tally classifies, the validator accepts at that strength,
    /// and the tally sees an equivocation exactly when the validator accepts
    /// both slow tallies.
    #[test]
    fn client_classification_agrees_with_the_validator() {
        use crate::certs::votes_justify;
        use crate::config::{BasilConfig, CryptoMode};
        use crate::crypto_engine::SigEngine;
        use basil_common::{ClientId, NodeId};
        use Decision::{Abort, Commit};

        for f in [1, 2] {
            let mut cfg = BasilConfig::test_single_shard();
            assert_eq!(cfg.crypto_mode, CryptoMode::Real);
            cfg.system.shard = ShardConfig::new(f);
            let (shard_cfg, n) = (cfg.system.shard, cfg.system.shard.n());
            let registry = basil_crypto::KeyRegistry::from_seed(5);
            let signed = |vote: Decision| -> Vec<SignedSt1Reply> {
                (0..n)
                    .map(|i| {
                        let replica = ReplicaId::new(ShardId(0), i);
                        let body = St1ReplyBody {
                            txid: txid(),
                            replica,
                            vote,
                        };
                        let node = NodeId::Replica(replica);
                        let proof = SigEngine::new(node, registry.clone(), &cfg).sign(&body);
                        SignedSt1Reply { body, proof }
                    })
                    .collect()
            };
            let (commit_votes, abort_votes) = (signed(Commit), signed(Abort));
            let justifies = |votes: &ShardVotes, strength| {
                let client = NodeId::Client(ClientId(1));
                let mut engine = SigEngine::new(client, registry.clone(), &cfg);
                let offered = std::slice::from_ref(votes);
                let involved = [ShardId(0)];
                let d = votes.decision;
                votes_justify(
                    txid(),
                    d,
                    strength,
                    offered,
                    &involved,
                    &shard_cfg,
                    &mut engine,
                )
            };
            for commits in 0..=n {
                for aborts in 0..=n - commits {
                    let split = format!("f = {f}, {commits} commit and {aborts} abort votes");
                    let mut tally = ShardTally::new(txid(), ShardId(0), shard_cfg);
                    let votes = commit_votes[..commits as usize]
                        .iter()
                        .chain(&abort_votes[commits as usize..(commits + aborts) as usize]);
                    for vote in votes {
                        assert!(tally.add(vote.clone()));
                    }
                    for complete in [false, true] {
                        if let Some(o) = tally.classify(complete) {
                            let (strength, decision) = (o.strength, o.votes.decision);
                            assert!(
                                justifies(&o.votes, strength),
                                "{split}: {strength:?} {decision:?} refused"
                            );
                        }
                    }
                    let both_slow = [Commit, Abort]
                        .into_iter()
                        .all(|d| justifies(&tally.shard_votes(d), Strength::Slow));
                    assert_eq!(tally.can_equivocate(), both_slow, "{split}");
                }
            }
        }
    }

    #[test]
    fn combine_requires_all_shards_unless_fast_abort() {
        let commit_outcome = |shard: u32| ShardOutcome {
            strength: Strength::Fast,
            votes: ShardVotes {
                txid: txid(),
                shard: ShardId(shard),
                decision: Decision::Commit,
                votes: vec![],
            },
        };
        let mut outcomes = [Some(commit_outcome(0)), None];
        assert!(combine_outcomes(&outcomes).is_none());

        outcomes[1] = Some(commit_outcome(1));
        let combined = combine_outcomes(&outcomes).expect("both shards in");
        assert_eq!(combined.decision, Decision::Commit);
        assert_eq!(combined.strength, Strength::Fast);
        assert_eq!(combined.shard_votes.len(), 2);

        // A fast abort from one shard decides immediately even if the other
        // shard has not been classified.
        let with_abort = [
            None,
            Some(ShardOutcome {
                strength: Strength::Fast,
                votes: ShardVotes {
                    txid: txid(),
                    shard: ShardId(1),
                    decision: Decision::Abort,
                    votes: vec![],
                },
            }),
        ];
        let combined = combine_outcomes(&with_abort).expect("fast abort decides");
        assert_eq!(combined.decision, Decision::Abort);
        assert_eq!(combined.strength, Strength::Fast);
    }

    #[test]
    fn slow_shard_makes_combined_outcome_slow() {
        let outcomes = [
            Some(ShardOutcome {
                strength: Strength::Slow,
                votes: ShardVotes {
                    txid: txid(),
                    shard: ShardId(0),
                    decision: Decision::Commit,
                    votes: vec![],
                },
            }),
            Some(ShardOutcome {
                strength: Strength::Fast,
                votes: ShardVotes {
                    txid: txid(),
                    shard: ShardId(1),
                    decision: Decision::Commit,
                    votes: vec![],
                },
            }),
        ];
        let combined = combine_outcomes(&outcomes).expect("classified");
        assert_eq!(combined.decision, Decision::Commit);
        assert_eq!(combined.strength, Strength::Slow);
    }

    #[test]
    fn st2_tally_certifies_matching_quorum() {
        let mut t = St2Tally::new(txid(), ShardId(0), cfg());
        for i in 0..5 {
            t.add(st2r(i, Decision::Commit, 0));
        }
        match t.classify() {
            Some(St2Outcome::Certified(cert)) => {
                assert_eq!(cert.decision, Decision::Commit);
                assert_eq!(cert.replies.len(), 5);
                assert_eq!(cert.view, 0);
            }
            other => panic!("expected certification, got {other:?}"),
        }
    }

    #[test]
    fn st2_tally_detects_divergence() {
        let mut t = St2Tally::new(txid(), ShardId(0), cfg());
        // 3 commit, 3 abort: even the missing 0 replicas cannot complete a
        // quorum of 5 for either group.
        for i in 0..3 {
            t.add(st2r(i, Decision::Commit, 0));
        }
        for i in 3..6 {
            t.add(st2r(i, Decision::Abort, 0));
        }
        match t.classify() {
            Some(St2Outcome::Divergent { replies }) => assert_eq!(replies.len(), 6),
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn st2_tally_waits_while_quorum_still_possible() {
        let mut t = St2Tally::new(txid(), ShardId(0), cfg());
        for i in 0..3 {
            t.add(st2r(i, Decision::Commit, 0));
        }
        t.add(st2r(3, Decision::Abort, 0));
        // 3 commit + 1 abort, 2 replicas outstanding: commit could still
        // reach 5.
        assert!(t.classify().is_none());
    }

    #[test]
    fn st2_replaces_stale_reply_from_same_replica() {
        let mut t = St2Tally::new(txid(), ShardId(0), cfg());
        t.add(st2r(0, Decision::Commit, 0));
        t.add(st2r(0, Decision::Commit, 1));
        assert_eq!(t.total(), 1);
        assert_eq!(t.replies[&0].body.view_decision, 1);
    }

    // ------------------------------------------------------------------
    // The read rule
    // ------------------------------------------------------------------

    use crate::certs::{DecisionCert, DecisionProof};
    use crate::config::BasilConfig;
    use crate::messages::{CommittedRead, PreparedRead, ReadReplyBody};
    use basil_common::{ClientId, NodeId, ReadQuorum};
    use basil_store::TransactionBuilder;

    /// A transaction at `nanos` that writes `value` to `key`.
    fn writer(nanos: u64, key: &str, value: u64) -> Arc<Transaction> {
        let mut b = TransactionBuilder::new(Timestamp::from_nanos(nanos, ClientId(7)));
        b.record_write(Key::new(key), Value::from_u64(value));
        b.build_shared()
    }

    /// A committed claim of `tx`'s write of "x", carrying a fast commit
    /// certificate of all six replicas' (unsigned) votes if `certified`.
    fn committed(tx: &Arc<Transaction>, certified: bool) -> Option<CommittedRead> {
        let votes = (0..6).map(|i| SignedSt1Reply {
            body: St1ReplyBody {
                txid: tx.id(),
                replica: ReplicaId::new(ShardId(0), i),
                vote: Decision::Commit,
            },
            proof: None,
        });
        let cert = DecisionCert {
            txid: tx.id(),
            proof: DecisionProof::FastCommit(vec![ShardVotes {
                txid: tx.id(),
                shard: ShardId(0),
                decision: Decision::Commit,
                votes: votes.collect(),
            }]),
        };
        Some(CommittedRead {
            version: tx.timestamp(),
            value: tx.written_value(&Key::new("x")).cloned()?,
            txid: tx.id(),
            cert: certified.then(|| Arc::new(cert)),
            tx: Some(Arc::clone(tx)),
        })
    }

    /// A genesis claim of `value`.
    fn genesis(value: u64) -> Option<CommittedRead> {
        Some(CommittedRead {
            version: Timestamp::ZERO,
            value: Value::from_u64(value),
            txid: TxId::default(),
            cert: None,
            tx: None,
        })
    }

    /// A reply to a read of "x" with `committed` and `tx`'s prepared write.
    fn reply(committed: Option<CommittedRead>, prepared: Option<&Arc<Transaction>>) -> ReadReply {
        let prepared = prepared.map(|tx| PreparedRead { tx: Arc::clone(tx) });
        let (req_id, key) = (1, Key::new("x"));
        let body = ReadReplyBody {
            req_id,
            key,
            committed,
            prepared,
        };
        ReadReply { body, proof: None }
    }

    /// One row per clause of the read rule: the replies in arrival order,
    /// the read quorum, and the version, value and dependency the read
    /// takes (`None`: it waits).
    #[test]
    fn read_tally_classifies_each_clause_of_the_read_rule() {
        let (a, b) = (writer(500, "x", 1), writer(600, "x", 2));
        // Same version as `a`, another transaction and value.
        let a2 = writer(500, "x", 3);
        let elsewhere = writer(700, "y", 4);
        let mut forged = committed(&b, true);
        if let Some(c) = &mut forged {
            c.txid = a.id();
        }
        let mut unwritten = committed(&b, true);
        if let Some(c) = &mut unwritten {
            c.value = Value::from_u64(666);
        }
        let at = |tx: &Arc<Transaction>| tx.timestamp();
        let zero = Timestamp::ZERO;
        type Row = (
            &'static str,
            ReadQuorum,
            Vec<ReadReply>,
            Option<(Timestamp, u64, bool)>,
        );
        let rows: Vec<Row> = vec![
            (
                "fewer replies than the quorum waits for",
                ReadQuorum::FPlusOne,
                vec![reply(committed(&b, true), None)],
                None,
            ),
            (
                "the highest certified committed version",
                ReadQuorum::FPlusOne,
                vec![
                    reply(committed(&a, true), None),
                    reply(committed(&b, true), None),
                ],
                Some((at(&b), 2, false)),
            ),
            (
                "equal committed versions: the first seen",
                ReadQuorum::FPlusOne,
                vec![
                    reply(committed(&a2, true), None),
                    reply(committed(&a, true), None),
                ],
                Some((at(&a), 3, false)),
            ),
            (
                "an uncertified newer claim does not count",
                ReadQuorum::FPlusOne,
                vec![
                    reply(committed(&b, false), None),
                    reply(committed(&a, true), None),
                ],
                Some((at(&a), 1, false)),
            ),
            (
                "a certificate for another transaction does not count",
                ReadQuorum::FPlusOne,
                vec![reply(forged, None), reply(committed(&a, true), None)],
                Some((at(&a), 1, false)),
            ),
            (
                "a value its certified writer did not write does not count",
                ReadQuorum::FPlusOne,
                vec![reply(unwritten, None), reply(committed(&a, true), None)],
                Some((at(&a), 1, false)),
            ),
            (
                "a strictly newer prepared version with f + 1 vouchers",
                ReadQuorum::FPlusOne,
                vec![
                    reply(committed(&a, true), Some(&b)),
                    reply(genesis(0), Some(&b)),
                ],
                Some((at(&b), 2, true)),
            ),
            (
                "a prepared version equal to the committed one",
                ReadQuorum::FPlusOne,
                vec![
                    reply(committed(&a, true), Some(&a2)),
                    reply(genesis(0), Some(&a2)),
                ],
                Some((at(&a), 1, false)),
            ),
            (
                "a prepared version with one voucher",
                ReadQuorum::FPlusOne,
                vec![reply(genesis(0), Some(&b)), reply(genesis(0), Some(&a))],
                Some((zero, 0, false)),
            ),
            (
                "a prepared transaction that does not write the key",
                ReadQuorum::FPlusOne,
                vec![
                    reply(genesis(0), Some(&elsewhere)),
                    reply(genesis(0), Some(&elsewhere)),
                ],
                Some((zero, 0, false)),
            ),
            (
                "genesis with f + 1 matching values",
                ReadQuorum::FPlusOne,
                vec![
                    reply(genesis(666), None),
                    reply(genesis(10), None),
                    reply(genesis(10), None),
                ],
                Some((zero, 10, false)),
            ),
            (
                "genesis claims that disagree wait",
                ReadQuorum::FPlusOne,
                vec![reply(genesis(666), None), reply(genesis(10), None)],
                None,
            ),
            (
                "no committed version claims the empty genesis value",
                ReadQuorum::FPlusOne,
                vec![
                    reply(None, None),
                    reply(genesis(10), None),
                    reply(None, None),
                ],
                Some((zero, u64::MAX, false)),
            ),
            (
                "unanimous genesis under a one-reply quorum",
                ReadQuorum::One,
                vec![reply(genesis(666), None)],
                Some((zero, 666, false)),
            ),
            (
                "only uncertified claims above genesis: the empty value",
                ReadQuorum::FPlusOne,
                vec![
                    reply(committed(&a, false), None),
                    reply(committed(&b, false), None),
                ],
                Some((zero, u64::MAX, false)),
            ),
        ];
        for (clause, quorum, replies, expected) in rows {
            let mut cfg = BasilConfig::test_single_shard().without_proofs();
            cfg.system.read_quorum = quorum;
            let registry = basil_crypto::KeyRegistry::from_seed(5);
            let mut engine = SigEngine::new(NodeId::Client(ClientId(1)), registry, &cfg);
            let mut tally = ReadTally::default();
            for (i, r) in replies.into_iter().enumerate() {
                tally.add(ReplicaId::new(ShardId(0), i as u32), r);
            }
            let read = tally.classify(&Key::new("x"), &cfg.system, &mut engine);
            // `u64::MAX` stands for the empty value.
            let value = |v| match v {
                u64::MAX => Value::empty(),
                v => Value::from_u64(v),
            };
            let expected = expected.map(|(version, v, dependent)| (version, value(v), dependent));
            let got = read.map(|(version, value, dep)| (version, value, dep.is_some()));
            assert_eq!(got, expected, "{clause}");
        }
    }

    /// A replica's later reply replaces its earlier one: one replica cannot
    /// vouch twice.
    #[test]
    fn read_tally_keeps_one_reply_per_replica() {
        let cfg = BasilConfig::test_single_shard().without_proofs();
        let registry = basil_crypto::KeyRegistry::from_seed(5);
        let mut engine = SigEngine::new(NodeId::Client(ClientId(1)), registry, &cfg);
        let b = writer(600, "x", 2);
        let mut tally = ReadTally::default();
        let replica = |i| ReplicaId::new(ShardId(0), i);
        tally.add(replica(0), reply(genesis(0), Some(&b)));
        tally.add(replica(0), reply(genesis(0), Some(&b)));
        assert_eq!(tally.total(), 1);
        assert!(tally
            .classify(&Key::new("x"), &cfg.system, &mut engine)
            .is_none());
        tally.add(replica(1), reply(genesis(0), Some(&b)));
        let read = tally.classify(&Key::new("x"), &cfg.system, &mut engine);
        let dependency = read.and_then(|(.., dep)| dep).map(|(txid, _)| txid);
        assert_eq!(dependency, Some(b.id()));
    }
}
