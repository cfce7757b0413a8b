//! Client-side vote aggregation: classifying a shard's `ST1R` votes into the
//! fast/slow commit/abort paths of Section 4.2, and collecting `ST2R`
//! acknowledgements.

use crate::certs::{ShardVotes, VoteCert};
use crate::messages::{ProtoDecision, ProtoVote, SignedSt1Reply, SignedSt2Reply, View};
use basil_common::{FastHashMap, ShardConfig, ShardId, TxId};

/// A classified shard: the votes backing its decision (`votes.decision`),
/// and whether they are already durable without ST2. Fast: all `5f + 1`
/// replicas voted commit, or `3f + 1` voted abort. Slow: at least `3f + 1`
/// commit or `f + 1` abort votes, which must be logged in stage ST2.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// Whether the shard's vote is durable as it stands (a `V-CERT`).
    pub fast: bool,
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

    /// Number of commit votes received so far.
    pub fn commits(&self) -> u32 {
        self.votes
            .values()
            .filter(|v| v.body.vote.is_commit())
            .count() as u32
    }

    /// Number of abort votes received so far.
    pub fn aborts(&self) -> u32 {
        self.total() - self.commits()
    }

    /// Whether both a commit quorum (`3f+1`) and an abort quorum (`f+1`) are
    /// simultaneously present — the precondition for a Byzantine client to
    /// equivocate its ST2 decision (Section 6.4, `equiv-real`).
    pub fn can_equivocate(&self) -> bool {
        self.commits() >= self.cfg.commit_quorum() && self.aborts() >= self.cfg.abort_quorum()
    }

    /// Tries to classify the shard's vote.
    ///
    /// `complete` indicates that the client does not expect further replies
    /// (its prepare timer fired); all `n` having voted says the same. Only
    /// then are the slow paths taken, because earlier a unanimous fast path
    /// might still materialize.
    pub fn classify(&self, complete: bool) -> Option<ShardOutcome> {
        let commits = self.commits();
        let aborts = self.aborts();

        // Fast paths can be recognized as soon as their thresholds are met.
        if commits >= self.cfg.fast_commit_quorum() {
            return Some(self.outcome(true, ProtoDecision::Commit));
        }
        if aborts >= self.cfg.fast_abort_quorum() {
            return Some(self.outcome(true, ProtoDecision::Abort));
        }
        if !complete && self.total() < self.cfg.n() {
            return None;
        }
        if commits >= self.cfg.commit_quorum() {
            return Some(self.outcome(false, ProtoDecision::Commit));
        }
        if aborts >= self.cfg.abort_quorum() {
            return Some(self.outcome(false, ProtoDecision::Abort));
        }
        None
    }

    fn outcome(&self, fast: bool, decision: ProtoDecision) -> ShardOutcome {
        let wanted = match decision {
            ProtoDecision::Commit => ProtoVote::Commit,
            ProtoDecision::Abort => ProtoVote::Abort,
        };
        ShardOutcome {
            fast,
            votes: ShardVotes {
                txid: self.txid,
                shard: self.shard,
                decision,
                votes: self.votes_matching(wanted),
            },
        }
    }

    /// The received votes that are `vote`: a classified shard's evidence, or
    /// one of the two tallies an equivocating Byzantine client sends.
    pub fn votes_matching(&self, vote: ProtoVote) -> Vec<SignedSt1Reply> {
        self.votes
            .values()
            .filter(|v| v.body.vote == vote)
            .cloned()
            .collect()
    }
}

/// Result of combining all shards' classifications into a 2PC decision.
#[derive(Clone, Debug)]
pub struct PrepareOutcome {
    /// The 2PC decision.
    pub decision: ProtoDecision,
    /// Whether the decision is already durable without stage ST2 (all shards
    /// fast, or one fast shard aborted).
    pub fast: bool,
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
        .find(|o| o.fast && !o.votes.decision.is_commit())
    {
        return Some(PrepareOutcome {
            decision: ProtoDecision::Abort,
            fast: true,
            shard_votes: vec![outcome.votes.clone()],
        });
    }
    if outcomes.iter().any(Option::is_none) {
        return None;
    }
    let classified = || outcomes.iter().flatten();
    let decision = if classified().all(|o| o.votes.decision.is_commit()) {
        ProtoDecision::Commit
    } else {
        ProtoDecision::Abort
    };
    Some(PrepareOutcome {
        decision,
        fast: classified().all(|o| o.fast),
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

    /// The replies themselves (for `InvokeFB.views`).
    pub fn replies(&self) -> Vec<SignedSt2Reply> {
        self.replies.values().cloned().collect()
    }

    /// Tries to conclude stage ST2.
    pub fn classify(&self) -> Option<St2Outcome> {
        // Group by (decision, view_decision): a shard's handful of replies
        // form a handful of groups, so a list scan beats hashing. At most
        // one group can reach `n - f` of `n` replies.
        let mut groups: Vec<((ProtoDecision, View), Vec<&SignedSt2Reply>)> = Vec::new();
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
            return Some(St2Outcome::Divergent {
                replies: self.replies(),
            });
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

    fn vote(i: u32, v: ProtoVote) -> SignedSt1Reply {
        SignedSt1Reply {
            body: St1ReplyBody {
                txid: txid(),
                replica: ReplicaId::new(ShardId(0), i),
                vote: v,
            },
            proof: None,
        }
    }

    fn st2r(i: u32, d: ProtoDecision, view: View) -> SignedSt2Reply {
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
        let t = tally_with((0..6).map(|i| vote(i, ProtoVote::Commit)));
        let o = t.classify(false).expect("classified");
        assert!(o.fast);
        assert_eq!(o.votes.decision, ProtoDecision::Commit);
        assert_eq!(o.votes.votes.len(), 6);
    }

    #[test]
    fn commit_quorum_without_unanimity_is_slow_and_waits_for_completion() {
        let t = tally_with((0..4).map(|i| vote(i, ProtoVote::Commit)));
        assert!(t.classify(false).is_none(), "might still reach fast path");
        let o = t.classify(true).expect("slow classification");
        assert!(!o.fast);
        assert_eq!(o.votes.decision, ProtoDecision::Commit);
    }

    #[test]
    fn three_f_plus_one_aborts_is_fast_abort() {
        let t = tally_with((0..4).map(|i| vote(i, ProtoVote::Abort)));
        let o = t.classify(false).expect("classified");
        assert!(o.fast);
        assert_eq!(o.votes.decision, ProtoDecision::Abort);
    }

    #[test]
    fn f_plus_one_aborts_is_slow_abort() {
        let mut votes: Vec<_> = (0..2).map(|i| vote(i, ProtoVote::Abort)).collect();
        votes.extend((2..5).map(|i| vote(i, ProtoVote::Commit)));
        let t = tally_with(votes);
        assert!(t.classify(false).is_none());
        let o = t.classify(true).expect("classified");
        assert!(!o.fast);
        assert_eq!(o.votes.decision, ProtoDecision::Abort);
        assert_eq!(o.votes.votes.len(), 2, "only abort votes in the tally");
    }

    #[test]
    fn duplicate_and_foreign_votes_are_ignored() {
        let mut t = ShardTally::new(txid(), ShardId(0), cfg());
        assert!(t.add(vote(0, ProtoVote::Commit)));
        assert!(!t.add(vote(0, ProtoVote::Abort)), "duplicate replica");
        let mut foreign = vote(1, ProtoVote::Commit);
        foreign.body.txid = TxId::from_bytes([8; 32]);
        assert!(!t.add(foreign));
        let mut out_of_range = vote(1, ProtoVote::Commit);
        out_of_range.body.replica.index = 17;
        assert!(!t.add(out_of_range));
        assert_eq!(t.total(), 1);
    }

    #[test]
    fn equivocation_precondition() {
        // 4 commits + 2 aborts: both CQ (4) and AQ (2) present.
        let mut votes: Vec<_> = (0..4).map(|i| vote(i, ProtoVote::Commit)).collect();
        votes.extend((4..6).map(|i| vote(i, ProtoVote::Abort)));
        let t = tally_with(votes);
        assert!(t.can_equivocate());
        assert_eq!(t.votes_matching(ProtoVote::Commit).len(), 4);
        assert_eq!(t.votes_matching(ProtoVote::Abort).len(), 2);

        let t2 = tally_with((0..6).map(|i| vote(i, ProtoVote::Commit)));
        assert!(!t2.can_equivocate());
    }

    #[test]
    fn combine_requires_all_shards_unless_fast_abort() {
        let commit_outcome = |shard: u32| ShardOutcome {
            fast: true,
            votes: ShardVotes {
                txid: txid(),
                shard: ShardId(shard),
                decision: ProtoDecision::Commit,
                votes: vec![],
            },
        };
        let mut outcomes = [Some(commit_outcome(0)), None];
        assert!(combine_outcomes(&outcomes).is_none());

        outcomes[1] = Some(commit_outcome(1));
        let combined = combine_outcomes(&outcomes).expect("both shards in");
        assert_eq!(combined.decision, ProtoDecision::Commit);
        assert!(combined.fast);
        assert_eq!(combined.shard_votes.len(), 2);

        // A fast abort from one shard decides immediately even if the other
        // shard has not been classified.
        let with_abort = [
            None,
            Some(ShardOutcome {
                fast: true,
                votes: ShardVotes {
                    txid: txid(),
                    shard: ShardId(1),
                    decision: ProtoDecision::Abort,
                    votes: vec![],
                },
            }),
        ];
        let combined = combine_outcomes(&with_abort).expect("fast abort decides");
        assert_eq!(combined.decision, ProtoDecision::Abort);
        assert!(combined.fast);
    }

    #[test]
    fn slow_shard_makes_combined_outcome_slow() {
        let outcomes = [
            Some(ShardOutcome {
                fast: false,
                votes: ShardVotes {
                    txid: txid(),
                    shard: ShardId(0),
                    decision: ProtoDecision::Commit,
                    votes: vec![],
                },
            }),
            Some(ShardOutcome {
                fast: true,
                votes: ShardVotes {
                    txid: txid(),
                    shard: ShardId(1),
                    decision: ProtoDecision::Commit,
                    votes: vec![],
                },
            }),
        ];
        let combined = combine_outcomes(&outcomes).expect("classified");
        assert_eq!(combined.decision, ProtoDecision::Commit);
        assert!(!combined.fast);
    }

    #[test]
    fn st2_tally_certifies_matching_quorum() {
        let mut t = St2Tally::new(txid(), ShardId(0), cfg());
        for i in 0..5 {
            t.add(st2r(i, ProtoDecision::Commit, 0));
        }
        match t.classify() {
            Some(St2Outcome::Certified(cert)) => {
                assert_eq!(cert.decision, ProtoDecision::Commit);
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
            t.add(st2r(i, ProtoDecision::Commit, 0));
        }
        for i in 3..6 {
            t.add(st2r(i, ProtoDecision::Abort, 0));
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
            t.add(st2r(i, ProtoDecision::Commit, 0));
        }
        t.add(st2r(3, ProtoDecision::Abort, 0));
        // 3 commit + 1 abort, 2 replicas outstanding: commit could still
        // reach 5.
        assert!(t.classify().is_none());
    }

    #[test]
    fn st2_replaces_stale_reply_from_same_replica() {
        let mut t = St2Tally::new(txid(), ShardId(0), cfg());
        t.add(st2r(0, ProtoDecision::Commit, 0));
        t.add(st2r(0, ProtoDecision::Commit, 1));
        assert_eq!(t.total(), 1);
        let replies = t.replies();
        assert_eq!(replies[0].body.view_decision, 1);
    }
}
