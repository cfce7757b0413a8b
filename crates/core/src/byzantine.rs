//! Byzantine behaviour strategies for clients and replicas.
//!
//! Section 6.4 of the paper evaluates Basil under client misbehaviour. A
//! Byzantine client's best strategy is to follow the workload's access
//! distribution, use plausible timestamps, and then either withhold progress
//! (stall) or equivocate its ST2 decision. Replica misbehaviour (refusing to
//! vote, voting abort, ignoring reads) is used in the read-quorum
//! and fast-path experiments and in the robustness tests.

use basil_common::prng::SmallPrng;

/// Strategy a client applies to the transactions it marks as faulty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientStrategy {
    /// Follow the protocol.
    Correct,
    /// Send `ST1` and then stop: never aggregate votes, never log, never
    /// write back (`stall-early`).
    StallEarly,
    /// Drive the transaction to a decision (including ST2 when needed) but
    /// never send the writeback certificates (`stall-late`).
    StallLate,
    /// Equivocate the ST2 decision whenever the collected votes allow both a
    /// commit and an abort tally, then stall (`equiv-real`). When the votes
    /// do not allow it, behave like `StallLate`.
    EquivReal,
    /// Always equivocate the ST2 decision, regardless of the votes received
    /// (`equiv-forced`); requires the experiment hook that relaxes ST2
    /// justification checking at replicas.
    EquivForced,
}

impl ClientStrategy {
    /// Whether this strategy ever equivocates.
    pub fn equivocates(&self) -> bool {
        matches!(
            self,
            ClientStrategy::EquivReal | ClientStrategy::EquivForced
        )
    }

    /// Whether the strategy is the honest one.
    pub fn is_correct(&self) -> bool {
        matches!(self, ClientStrategy::Correct)
    }

    /// All strategies, in a stable order: the names [`std::str::FromStr`]
    /// parses. The scenario fuzzer does not enumerate them; it draws from
    /// `StallEarly`, `StallLate` and `EquivReal` only (`EquivForced` needs
    /// the relaxed ST2 hook).
    pub const ALL: [ClientStrategy; 5] = [
        ClientStrategy::Correct,
        ClientStrategy::StallEarly,
        ClientStrategy::StallLate,
        ClientStrategy::EquivReal,
        ClientStrategy::EquivForced,
    ];

    /// The stable textual name of this strategy, as used by bench labels and
    /// scenario specs (`correct`, `stall-early`, `stall-late`, `equiv-real`,
    /// `equiv-forced`). Round-trips through [`std::str::FromStr`].
    pub fn name(&self) -> &'static str {
        match self {
            ClientStrategy::Correct => "correct",
            ClientStrategy::StallEarly => "stall-early",
            ClientStrategy::StallLate => "stall-late",
            ClientStrategy::EquivReal => "equiv-real",
            ClientStrategy::EquivForced => "equiv-forced",
        }
    }
}

impl std::fmt::Display for ClientStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ClientStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ClientStrategy::ALL
            .into_iter()
            .find(|v| v.name() == s)
            .ok_or_else(|| format!("unknown client strategy `{s}`"))
    }
}

/// Behaviour of a replica. A misbehaving replica runs the protocol honestly
/// (its store, log and records are a correct replica's) and differs only in
/// the replies it sends: the replica's reply queue drops or rewrites them
/// before the batch is signed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaBehavior {
    /// Follow the protocol.
    Correct,
    /// Send no `ST1` vote, for a recovery `ST1` either (forces the slow path
    /// / recovery). `ST2` acknowledgements and writeback answers still go
    /// out.
    WithholdVotes,
    /// Send every `ST1` vote, deferred ones included, as `Abort` (disables
    /// the fast commit path; one abort vote alone decides nothing).
    AlwaysVoteAbort,
    /// Send no read reply; the read still runs, so it records its read
    /// timestamp (forces clients to rely on the other replicas of the read
    /// quorum).
    IgnoreReads,
}

impl ReplicaBehavior {
    /// Whether the replica follows the protocol.
    pub fn is_correct(&self) -> bool {
        matches!(self, ReplicaBehavior::Correct)
    }

    /// All behaviours, in a stable order: the names [`std::str::FromStr`]
    /// parses. The scenario fuzzer draws every one but `Correct` (a test in
    /// `basil_scenario::fuzz` holds it to that). A replica that ignores
    /// every message is a crash, which the simulator models itself.
    pub const ALL: [ReplicaBehavior; 4] = [
        ReplicaBehavior::Correct,
        ReplicaBehavior::WithholdVotes,
        ReplicaBehavior::AlwaysVoteAbort,
        ReplicaBehavior::IgnoreReads,
    ];

    /// The stable textual name of this behaviour, as used by scenario specs
    /// (`correct`, `withhold-votes`, `vote-abort`, `ignore-reads`).
    /// Round-trips through [`std::str::FromStr`].
    pub fn name(&self) -> &'static str {
        match self {
            ReplicaBehavior::Correct => "correct",
            ReplicaBehavior::WithholdVotes => "withhold-votes",
            ReplicaBehavior::AlwaysVoteAbort => "vote-abort",
            ReplicaBehavior::IgnoreReads => "ignore-reads",
        }
    }
}

impl std::fmt::Display for ReplicaBehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ReplicaBehavior {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ReplicaBehavior::ALL
            .into_iter()
            .find(|v| v.name() == s)
            .ok_or_else(|| format!("unknown replica behavior `{s}`"))
    }
}

/// Per-client fault injection: which strategy to use and what fraction of the
/// client's newly admitted transactions are faulty.
#[derive(Clone, Copy, Debug)]
pub struct FaultProfile {
    /// Strategy applied to faulty transactions.
    pub strategy: ClientStrategy,
    /// Probability in `[0, 1]` that a newly admitted transaction is faulty.
    pub faulty_fraction: f64,
}

impl FaultProfile {
    /// A fully honest client.
    pub fn honest() -> Self {
        FaultProfile {
            strategy: ClientStrategy::Correct,
            faulty_fraction: 0.0,
        }
    }

    /// A client applying `strategy` to every transaction.
    pub fn always(strategy: ClientStrategy) -> Self {
        FaultProfile {
            strategy,
            faulty_fraction: 1.0,
        }
    }

    /// Samples whether the next transaction is faulty.
    pub fn sample_faulty(&self, prng: &mut SmallPrng) -> bool {
        !self.strategy.is_correct()
            && self.faulty_fraction > 0.0
            && prng.next_f64() < self.faulty_fraction
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::honest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::prng::SmallPrng;

    #[test]
    fn strategy_classification() {
        assert!(ClientStrategy::Correct.is_correct());
        assert!(!ClientStrategy::StallEarly.is_correct());
        assert!(ClientStrategy::EquivReal.equivocates());
        assert!(ClientStrategy::EquivForced.equivocates());
        assert!(!ClientStrategy::StallLate.equivocates());
        assert!(ReplicaBehavior::Correct.is_correct());
        assert!(!ReplicaBehavior::IgnoreReads.is_correct());
    }

    #[test]
    fn names_round_trip() {
        for s in ClientStrategy::ALL {
            assert_eq!(s.name().parse::<ClientStrategy>().unwrap(), s);
            assert_eq!(format!("{s}"), s.name());
        }
        for b in ReplicaBehavior::ALL {
            assert_eq!(b.name().parse::<ReplicaBehavior>().unwrap(), b);
            assert_eq!(format!("{b}"), b.name());
        }
        assert!("equivreal".parse::<ClientStrategy>().is_err());
        assert!("".parse::<ReplicaBehavior>().is_err());
    }

    #[test]
    fn honest_profile_never_faulty() {
        let mut prng = SmallPrng::new(1);
        let p = FaultProfile::honest();
        assert!((0..1000).all(|_| !p.sample_faulty(&mut prng)));
    }

    #[test]
    fn fault_fraction_is_roughly_respected() {
        let mut prng = SmallPrng::new(7);
        let p = FaultProfile {
            strategy: ClientStrategy::StallEarly,
            faulty_fraction: 0.3,
        };
        let faulty = (0..10_000).filter(|_| p.sample_faulty(&mut prng)).count();
        assert!((2_500..3_500).contains(&faulty), "faulty={faulty}");
    }

    #[test]
    fn always_profile_is_always_faulty() {
        let mut prng = SmallPrng::new(3);
        let p = FaultProfile::always(ClientStrategy::StallLate);
        assert!((0..100).all(|_| p.sample_faulty(&mut prng)));
    }
}
