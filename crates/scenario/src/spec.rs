//! The declarative scenario grammar: deployments × fault events × budgets.
//!
//! A [`ScenarioSpec`] is *data* — it names a deployment (clients, Byzantine
//! client mix, `f`, batching, workload), a run schedule (warmup, total
//! duration, quiet tail), a fault budget, and a list of timed
//! [`FaultEvent`]s. One function, `crate::runner::drive`, compiles a spec's
//! faults onto the simulator seam — `basil_simnet`'s link faults, node
//! properties and crash hooks, and `basil_core`'s behaviour knobs — so one
//! spec drives Basil and the baselines, and replays bit-for-bit
//! identically.
//!
//! A partition of replica `r` is not a fault kind of its own: it is two
//! link drops at probability 1, `DropLink(from: Replica(r), to: Any, ..)`
//! and `DropLink(from: Any, to: Replica(r), ..)`. What `r` sends itself
//! crosses no link and still arrives.
//!
//! ## Fault taxonomy and budgets
//!
//! Following Basilic's split of the fault space into *benign* (crashing)
//! and *deceitful* (lying) replicas, a spec carries a [`FaultBudget`] with
//! separate `crash` and `deceit` allowances, enforced at validation time:
//!
//! * **benign** — the targets of [`FaultEvent::Crash`],
//!   [`FaultEvent::SlowReplica`], [`FaultEvent::ClockSkew`], and the
//!   replica ends of a [`FaultEvent::Link`] that drops, delays or replays
//!   (so a partitioned replica is charged once). These replicas follow the
//!   protocol but may be late or unreachable.
//! * **deceitful** — the targets of [`FaultEvent::Misbehave`] and the
//!   replica ends of a [`FaultEvent::Link`] that corrupts. These replicas
//!   (or their links) actively deviate.
//!
//! Only a link end that names one replica (`Replica(i)`) is charged; a
//! broad end (e.g. `DropLink(from: Any, to: Any, ..)`) models a lossy
//! *network* rather than a faulty replica, consumes no replica budget, and
//! disables the liveness check unless its window closes before the quiet
//! tail.
//!
//! Safety requires `deceit ≤ f` (Basil's n = 5f+1 tolerates at most `f`
//! Byzantine replicas); liveness additionally requires
//! `crash + deceit ≤ f`, which is why [`ScenarioSpec::liveness_checkable`]
//! is a property of the spec, not a separate assertion mode.

use basil_common::{Duration, ShardConfig};
use basil_core::{ClientStrategy, ReplicaBehavior};
use basil_simnet::LinkFaultKind;
use std::collections::BTreeSet;

/// The longest run a spec may ask for, and the longest extra delay a link
/// fault may add: a quarter of what `SimTime`'s u64 nanoseconds hold, so
/// every window end, and a delay added on top of it, stays representable.
const MAX_DURATION_MS: u64 = u64::MAX / 4 / 1_000_000;

/// Distinct allowances for benign (crashing/slow) and deceitful (lying)
/// replicas, after Basilic's benign-vs-deceitful fault split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultBudget {
    /// Maximum number of distinct replicas that may crash, be partitioned,
    /// run slow, or run with a skewed clock.
    pub crash: u32,
    /// Maximum number of distinct replicas that may lie (misbehave, or
    /// corrupt traffic on their links). Safety requires `deceit ≤ f`.
    pub deceit: u32,
}

/// One side of a link-fault selector (single-shard deployments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Selector {
    /// Every node.
    Any,
    /// Every client.
    Clients,
    /// Every replica.
    Replicas,
    /// Replica `index` of shard 0.
    Replica(u32),
}

impl Selector {
    /// The replica index this selector targets, if it targets exactly one.
    pub fn targeted_replica(&self) -> Option<u32> {
        match self {
            Selector::Replica(i) => Some(*i),
            _ => None,
        }
    }
}

/// What a crashed replica remembers when it comes back.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Warm restart: volatile state survives (the pre-durability model —
    /// the process pauses and resumes with its memory intact).
    #[default]
    Warm,
    /// Amnesia restart: all volatile state is lost; the replica rebuilds
    /// from its write-ahead log and then catches up missed decisions from
    /// peers before serving traffic again.
    Amnesia,
}

impl std::fmt::Display for RecoveryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryMode::Warm => write!(f, "Warm"),
            RecoveryMode::Amnesia => write!(f, "Amnesia"),
        }
    }
}

/// A timed fault event. Times are milliseconds from the start of the run;
/// windows are `[at_ms, until_ms)`.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Crash-stop `replica` at `at_ms`; restart it at `restart_ms` if set.
    /// An `Amnesia` crash is a process kill: the simulator replaces the
    /// replica with one rebuilt from its write-ahead log, which then
    /// catches up from its peers.
    Crash {
        /// Target replica index (shard 0).
        replica: u32,
        /// Crash time.
        at_ms: u64,
        /// Restart time (`None` = stays down).
        restart_ms: Option<u64>,
        /// What the replica remembers when it restarts.
        recovery: RecoveryMode,
    },
    /// Apply `kind` (drop, delay, replay or corrupt) to the messages sent
    /// from a `from` node to a different `to` node during
    /// `[at_ms, until_ms)`.
    /// Corruption is a detected garble on Basil's authenticated channels:
    /// the receiver discards the message.
    Link {
        /// What happens to a matching message.
        kind: LinkFaultKind,
        /// Sender selector.
        from: Selector,
        /// Receiver selector.
        to: Selector,
        /// Window start.
        at_ms: u64,
        /// Window end (exclusive).
        until_ms: u64,
    },
    /// Run `replica` with a skewed clock for the whole run (set before the
    /// first event).
    ClockSkew {
        /// Target replica index.
        replica: u32,
        /// Skew in microseconds (positive = clock runs ahead).
        skew_us: i64,
    },
    /// Run `replica` with fewer cores for the whole run (set before the
    /// first event).
    SlowReplica {
        /// Target replica index.
        replica: u32,
        /// Core count (< the 8 cores of `basil_simnet::NodeProps::replica`).
        cores: u32,
    },
    /// Switch `replica` to `behavior` at `at_ms`; revert to correct at
    /// `revert_ms` if set.
    Misbehave {
        /// Target replica index.
        replica: u32,
        /// The Byzantine behaviour to switch to.
        behavior: ReplicaBehavior,
        /// Switch time.
        at_ms: u64,
        /// Revert-to-correct time (`None` = lies until the end).
        revert_ms: Option<u64>,
    },
}

impl FaultEvent {
    /// The time the fault starts acting.
    pub fn start_ms(&self) -> u64 {
        match self {
            FaultEvent::Crash { at_ms, .. }
            | FaultEvent::Link { at_ms, .. }
            | FaultEvent::Misbehave { at_ms, .. } => *at_ms,
            FaultEvent::ClockSkew { .. } | FaultEvent::SlowReplica { .. } => 0,
        }
    }

    /// The time the fault stops acting, or `None` if it acts until the end
    /// of the run (an unhealed crash or misbehaviour, or a whole-run
    /// property like skew / slowness).
    pub fn end_ms(&self) -> Option<u64> {
        match self {
            FaultEvent::Crash { restart_ms, .. } => *restart_ms,
            FaultEvent::Link { until_ms, .. } => Some(*until_ms),
            FaultEvent::Misbehave { revert_ms, .. } => *revert_ms,
            FaultEvent::ClockSkew { .. } | FaultEvent::SlowReplica { .. } => None,
        }
    }

    /// Replica indices this event charges against the *benign* budget.
    fn benign_targets(&self) -> Vec<u32> {
        match self {
            FaultEvent::Crash { replica, .. }
            | FaultEvent::ClockSkew { replica, .. }
            | FaultEvent::SlowReplica { replica, .. } => vec![*replica],
            FaultEvent::Link { kind, from, to, .. } if !is_deceit(kind) => link_ends(*from, *to),
            _ => Vec::new(),
        }
    }

    /// Replica indices this event charges against the *deceit* budget.
    fn deceit_targets(&self) -> Vec<u32> {
        match self {
            FaultEvent::Misbehave { replica, .. } => vec![*replica],
            FaultEvent::Link { kind, from, to, .. } if is_deceit(kind) => link_ends(*from, *to),
            _ => Vec::new(),
        }
    }
}

/// The replicas a link fault's ends name one by one.
fn link_ends(from: Selector, to: Selector) -> Vec<u32> {
    [from, to]
        .iter()
        .filter_map(Selector::targeted_replica)
        .collect()
}

/// A corrupting link lies on the wire; dropping, delaying and replaying
/// only make it late or silent.
fn is_deceit(kind: &LinkFaultKind) -> bool {
    matches!(kind, LinkFaultKind::Corrupt { .. })
}

/// The workload driven by every client (the YCSB-T variants the fault
/// experiments use; per-client generator seeds derive from the spec seed
/// exactly as `basil-bench` derives them).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// Uniform reads/writes over `keys` keys.
    RwUniform {
        /// Reads per transaction.
        reads: u32,
        /// Writes per transaction.
        writes: u32,
        /// Key-space size.
        keys: u64,
    },
    /// Zipfian reads/writes over `keys` keys with parameter `theta`.
    RwZipf {
        /// Reads per transaction.
        reads: u32,
        /// Writes per transaction.
        writes: u32,
        /// Key-space size.
        keys: u64,
        /// Zipf skew parameter.
        theta: f64,
    },
}

/// Pinned expected outcome of a corpus scenario: the regression test
/// replays the spec and compares against these.
#[derive(Clone, Debug, PartialEq)]
pub struct Expectation {
    /// Committed transactions across correct clients.
    pub committed: u64,
    /// Aborted attempts across correct clients.
    pub aborted_attempts: u64,
    /// Commits by Byzantine clients.
    pub byz_committed: u64,
    /// SHA-256 hex digest of the committed transaction-id set.
    pub digest: String,
}

/// A declarative fault scenario: deployment, schedule, budgeted fault
/// events, and (for corpus entries) the pinned expected outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (corpus file stem / display label).
    pub name: String,
    /// Simulation seed — drives *all* randomness of the run.
    pub seed: u64,
    /// Number of closed-loop clients.
    pub clients: u32,
    /// How many clients follow the Byzantine strategy.
    pub byz_clients: u32,
    /// The strategy Byzantine clients apply.
    pub byz_strategy: ClientStrategy,
    /// Fraction of a Byzantine client's transactions that are faulty.
    pub byz_fraction: f64,
    /// Fault-tolerance parameter: the deployment runs `5f + 1` replicas.
    pub f: u32,
    /// Reply batch size.
    pub batch_size: u32,
    /// Enables the experiment hook that relaxes ST2 justification checking
    /// (required by [`ClientStrategy::EquivForced`]).
    pub relax_st2: bool,
    /// Fault-free warmup before the measurement window.
    pub warmup_ms: u64,
    /// Total run length (including warmup and tail).
    pub duration_ms: u64,
    /// Quiet tail at the end of the run: the liveness check requires
    /// progress here, so every windowed fault must close before it.
    pub tail_ms: u64,
    /// Benign/deceitful replica allowances.
    pub budget: FaultBudget,
    /// The workload every client drives.
    pub workload: WorkloadSpec,
    /// The timed fault events.
    pub faults: Vec<FaultEvent>,
    /// Pinned expected outcome (corpus entries only).
    pub expect: Option<Expectation>,
}

impl ScenarioSpec {
    /// Number of replicas in the (single-shard) deployment: `5f + 1`.
    pub fn num_replicas(&self) -> u32 {
        ShardConfig::new(self.f).n()
    }

    /// The distinct replicas charged against the benign budget.
    pub fn benign_replicas(&self) -> BTreeSet<u32> {
        self.faults
            .iter()
            .flat_map(FaultEvent::benign_targets)
            .collect()
    }

    /// The distinct replicas charged against the deceit budget.
    pub fn deceit_replicas(&self) -> BTreeSet<u32> {
        self.faults
            .iter()
            .flat_map(FaultEvent::deceit_targets)
            .collect()
    }

    /// Start of the quiet tail.
    pub fn tail_start_ms(&self) -> u64 {
        self.duration_ms.saturating_sub(self.tail_ms)
    }

    /// Whether the liveness-under-budget check applies: the combined
    /// benign + deceitful replica set stays within `f` (Basilic's liveness
    /// bound), permanent behaviour faults are absent, and every windowed
    /// fault — including broad network faults — closes before the quiet
    /// tail, so correct clients must make progress there.
    pub fn liveness_checkable(&self) -> bool {
        if self.tail_ms == 0 {
            return false;
        }
        let mut faulty = self.benign_replicas();
        faulty.extend(self.deceit_replicas());
        if faulty.len() as u32 > self.f {
            return false;
        }
        let tail = self.tail_start_ms();
        self.faults.iter().all(|ev| match ev {
            // Whole-run properties never clear, but a slow or skewed
            // replica within the budget does not block quorums.
            FaultEvent::ClockSkew { .. } | FaultEvent::SlowReplica { .. } => true,
            _ => ev.end_ms().is_some_and(|end| end <= tail),
        })
    }

    /// Validates the spec: structural sanity (counts, windows,
    /// probabilities, replica indices) and the fault budgets, including
    /// Basilic's safety bound `deceit ≤ f`.
    pub fn validate(&self) -> Result<(), SpecError> {
        let err = |msg: String| Err(SpecError(msg));
        if self.clients == 0 {
            return err("clients must be >= 1".into());
        }
        if self.byz_clients > self.clients {
            return err(format!(
                "byz_clients {} exceeds clients {}",
                self.byz_clients, self.clients
            ));
        }
        if !(0.0..=1.0).contains(&self.byz_fraction) {
            return err(format!("byz_fraction {} outside [0, 1]", self.byz_fraction));
        }
        if self.f == 0 {
            return err("f must be >= 1".into());
        }
        if self.batch_size == 0 {
            return err("batch_size must be >= 1".into());
        }
        if self.byz_strategy == ClientStrategy::EquivForced && !self.relax_st2 {
            return err("equiv-forced requires relax_st2 (the ST2 experiment hook)".into());
        }
        if self.duration_ms > MAX_DURATION_MS {
            return err(format!(
                "duration {} ms exceeds {MAX_DURATION_MS} ms",
                self.duration_ms
            ));
        }
        if self
            .warmup_ms
            .checked_add(self.tail_ms)
            .is_none_or(|busy| busy >= self.duration_ms)
        {
            return err(format!(
                "warmup {} + tail {} must leave room inside duration {}",
                self.warmup_ms, self.tail_ms, self.duration_ms
            ));
        }
        match self.workload {
            WorkloadSpec::RwUniform { keys, .. } => {
                if keys == 0 {
                    return err("workload keys must be >= 1".into());
                }
            }
            WorkloadSpec::RwZipf { keys, theta, .. } => {
                if keys == 0 {
                    return err("workload keys must be >= 1".into());
                }
                // The Zipf sampler requires strictly positive skew; theta
                // of 0 is what RwUniform is for.
                if theta <= 0.0 || theta >= 1.0 {
                    return err(format!("zipf theta {theta} outside (0, 1)"));
                }
            }
        }

        let n = self.num_replicas();
        for (i, ev) in self.faults.iter().enumerate() {
            let ctx = |msg: String| SpecError(format!("fault #{i}: {msg}"));
            for r in ev.benign_targets().into_iter().chain(ev.deceit_targets()) {
                if r >= n {
                    return Err(ctx(format!("replica {r} out of range (n = {n})")));
                }
            }
            if ev.start_ms() >= self.duration_ms {
                return Err(ctx(format!(
                    "starts at {} ms, past the run end {}",
                    ev.start_ms(),
                    self.duration_ms
                )));
            }
            if let Some(end) = ev.end_ms() {
                if end <= ev.start_ms() {
                    return Err(ctx(format!(
                        "window end {} not after start {}",
                        end,
                        ev.start_ms()
                    )));
                }
                if end > self.duration_ms {
                    return Err(ctx(format!(
                        "window end {} past the run end {}",
                        end, self.duration_ms
                    )));
                }
            }
            match ev {
                FaultEvent::Link {
                    kind:
                        LinkFaultKind::Drop { probability }
                        | LinkFaultKind::Replay { probability }
                        | LinkFaultKind::Corrupt { probability },
                    ..
                } if !(0.0..=1.0).contains(probability) => {
                    return Err(ctx(format!("probability {probability} outside [0, 1]")));
                }
                FaultEvent::Link {
                    kind: LinkFaultKind::Delay { extra },
                    ..
                } if *extra > Duration::from_millis(MAX_DURATION_MS) => {
                    return Err(ctx(format!(
                        "extra delay {extra:?} exceeds {MAX_DURATION_MS} ms"
                    )));
                }
                // The timestamp window `basil_common::config::DELTA` is
                // 50 ms; skew beyond it would reject every transaction of
                // the replica, which is a crash in disguise — model that as
                // a crash.
                FaultEvent::ClockSkew { skew_us, .. } if skew_us.unsigned_abs() > 20_000 => {
                    return Err(ctx(format!("clock skew {skew_us} us exceeds 20 ms")));
                }
                FaultEvent::SlowReplica { cores: 0, .. } => {
                    return Err(ctx("slow replica needs >= 1 core".into()));
                }
                _ => {}
            }
        }

        let benign = self.benign_replicas();
        let deceit = self.deceit_replicas();
        if benign.len() as u32 > self.budget.crash {
            return err(format!(
                "benign faults touch {} replicas {:?}, budget allows {}",
                benign.len(),
                benign,
                self.budget.crash
            ));
        }
        if deceit.len() as u32 > self.budget.deceit {
            return err(format!(
                "deceitful faults touch {} replicas {:?}, budget allows {}",
                deceit.len(),
                deceit,
                self.budget.deceit
            ));
        }
        if self.budget.deceit > self.f {
            return err(format!(
                "deceit budget {} exceeds f = {} (safety bound)",
                self.budget.deceit, self.f
            ));
        }
        Ok(())
    }
}

/// A spec-validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scenario: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
pub(crate) use tests::{base_spec, partition};

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn base_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "base".into(),
            seed: 7,
            clients: 4,
            byz_clients: 1,
            byz_strategy: ClientStrategy::EquivReal,
            byz_fraction: 1.0,
            f: 1,
            batch_size: 16,
            relax_st2: false,
            warmup_ms: 30,
            duration_ms: 200,
            tail_ms: 60,
            budget: FaultBudget {
                crash: 1,
                deceit: 1,
            },
            workload: WorkloadSpec::RwZipf {
                reads: 2,
                writes: 2,
                keys: 1_000,
                theta: 0.9,
            },
            faults: vec![
                FaultEvent::Crash {
                    replica: 4,
                    at_ms: 50,
                    restart_ms: Some(90),
                    recovery: RecoveryMode::Warm,
                },
                FaultEvent::Link {
                    kind: LinkFaultKind::Drop { probability: 0.5 },
                    from: Selector::Clients,
                    to: Selector::Replica(4),
                    at_ms: 40,
                    until_ms: 120,
                },
            ],
            expect: None,
        }
    }

    /// The two drops that cut `replica` off during `[at_ms, until_ms)`.
    pub(crate) fn partition(replica: u32, at_ms: u64, until_ms: u64) -> [FaultEvent; 2] {
        [
            (Selector::Replica(replica), Selector::Any),
            (Selector::Any, Selector::Replica(replica)),
        ]
        .map(|(from, to)| FaultEvent::Link {
            kind: LinkFaultKind::Drop { probability: 1.0 },
            from,
            to,
            at_ms,
            until_ms,
        })
    }

    #[test]
    fn base_spec_is_valid_and_liveness_checkable() {
        let spec = base_spec();
        spec.validate().expect("valid");
        assert_eq!(spec.benign_replicas(), BTreeSet::from([4]));
        assert!(spec.deceit_replicas().is_empty());
        assert!(spec.liveness_checkable());
    }

    #[test]
    fn budget_violations_are_rejected() {
        let mut spec = base_spec();
        spec.faults.extend(partition(2, 60, 100));
        let e = spec.validate().unwrap_err();
        assert!(e.0.contains("benign"), "{e}");

        let mut spec = base_spec();
        spec.faults.push(FaultEvent::Misbehave {
            replica: 1,
            behavior: ReplicaBehavior::WithholdVotes,
            at_ms: 50,
            revert_ms: Some(100),
        });
        spec.faults.push(FaultEvent::Link {
            kind: LinkFaultKind::Corrupt { probability: 0.5 },
            from: Selector::Replica(2),
            to: Selector::Any,
            at_ms: 50,
            until_ms: 100,
        });
        let e = spec.validate().unwrap_err();
        assert!(e.0.contains("deceitful"), "{e}");

        let mut spec = base_spec();
        spec.budget.deceit = 2; // > f = 1
        let e = spec.validate().unwrap_err();
        assert!(e.0.contains("safety"), "{e}");
    }

    #[test]
    fn window_and_range_violations_are_rejected() {
        let mut spec = base_spec();
        spec.faults[0] = FaultEvent::Crash {
            replica: 6, // n = 6, max index 5
            at_ms: 50,
            restart_ms: None,
            recovery: RecoveryMode::Warm,
        };
        assert!(spec.validate().is_err());

        let mut spec = base_spec();
        spec.faults[1] = FaultEvent::Link {
            kind: LinkFaultKind::Drop { probability: 0.5 },
            from: Selector::Any,
            to: Selector::Any,
            at_ms: 120,
            until_ms: 100,
        };
        assert!(spec.validate().is_err());

        let mut spec = base_spec();
        spec.warmup_ms = 150;
        spec.tail_ms = 60;
        assert!(spec.validate().is_err(), "warmup+tail >= duration");
    }

    #[test]
    fn liveness_checkability_rules() {
        // Unhealed crash: not checkable.
        let mut spec = base_spec();
        spec.faults[0] = FaultEvent::Crash {
            replica: 4,
            at_ms: 50,
            restart_ms: None,
            recovery: RecoveryMode::Amnesia,
        };
        assert!(!spec.liveness_checkable());

        // Window reaching into the tail: not checkable.
        let mut spec = base_spec();
        spec.faults[1] = FaultEvent::Link {
            kind: LinkFaultKind::Drop { probability: 0.5 },
            from: Selector::Clients,
            to: Selector::Replica(4),
            at_ms: 40,
            until_ms: 190, // tail starts at 140
        };
        assert!(!spec.liveness_checkable());

        // Benign + deceitful on distinct replicas exceeds f = 1.
        let mut spec = base_spec();
        spec.faults.push(FaultEvent::Misbehave {
            replica: 1,
            behavior: ReplicaBehavior::AlwaysVoteAbort,
            at_ms: 50,
            revert_ms: Some(100),
        });
        spec.validate().expect("within budgets");
        assert!(!spec.liveness_checkable());

        // Whole-run slowness within the budget stays checkable.
        let mut spec = base_spec();
        spec.faults = vec![FaultEvent::SlowReplica {
            replica: 3,
            cores: 1,
        }];
        assert!(spec.liveness_checkable());
    }

    #[test]
    fn broad_network_faults_consume_no_budget() {
        let mut spec = base_spec();
        spec.faults = vec![FaultEvent::Link {
            kind: LinkFaultKind::Drop { probability: 0.2 },
            from: Selector::Any,
            to: Selector::Any,
            at_ms: 40,
            until_ms: 100,
        }];
        spec.validate().expect("valid");
        assert!(spec.benign_replicas().is_empty());
        assert!(spec.liveness_checkable(), "window closes before the tail");
    }
}
