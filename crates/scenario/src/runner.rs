//! Compiles a [`ScenarioSpec`] onto the simulator seam and executes it.
//!
//! One spec drives any [`ClusterProtocol`] deployment, and [`drive`] is the
//! one function that turns its faults into simulator state: clock skew and
//! slow cores rewrite the target replica's `NodeProps` before the first
//! event, link faults (a partition is two of them) become `basil_simnet`
//! [`LinkFault`]s installed up-front with absolute windows, and the timed
//! actions (crash/restart, misbehave/revert) are walked as a sorted
//! timeline of `run_for` steps. Because every fault compiles to the
//! deterministic simulator's own hooks, replaying the same `(spec, seed)`
//! is bit-for-bit identical — which is exactly what the fuzzer's replay
//! cross-check asserts.

use crate::spec::{FaultEvent, RecoveryMode, ScenarioSpec, Selector, WorkloadSpec};
use basil::cluster::{ClusterProtocol, ProtocolCluster, RuntimeMode};
use basil::harness::{BasilCluster, ClusterConfig};
use basil::report::RunReport;
use basil::workloads::ycsb::YcsbGenerator;
use basil::{BaselineCluster, BaselineClusterConfig};
use basil::{
    BasilConfig, Duration, NodeId, ReplicaBehavior, ReplicaId, ShardConfig, ShardId, SimTime,
    SystemConfig, TxId,
};
use basil_baselines::{BaselineConfig, SystemKind};
use basil_core::byzantine::FaultProfile;
use basil_simnet::{LinkFault, NodeMatcher};
use basil_store::mvtso::Decision;

/// Everything a scenario run produces, comparable across replays and
/// against pinned corpus expectations.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Committed transactions across correct clients (whole run).
    pub committed: u64,
    /// Aborted attempts across correct clients (whole run).
    pub aborted_attempts: u64,
    /// Commits by Byzantine clients (whole run).
    pub byz_committed: u64,
    /// Fast-path decisions (whole run).
    pub fast_path: u64,
    /// Slow-path decisions (whole run).
    pub slow_path: u64,
    /// Fallback recoveries started (whole run).
    pub fallbacks: u64,
    /// Correct-client commits inside the quiet tail (the liveness signal).
    pub tail_committed: u64,
    /// SHA-256 hex digest of the committed transaction-id set.
    pub digest: String,
    /// SHA-256 hex digest over every replica's per-transaction decision
    /// (replica order × sorted transaction ids): pins decision agreement,
    /// not just the committed set.
    pub decisions_digest: String,
    /// The audit failure, if the committed history failed serializability
    /// or decision agreement.
    pub audit_failure: Option<String>,
    /// Simulator metric: messages dropped (crashes, partitions, faults).
    pub messages_dropped: u64,
    /// Simulator metric: messages garbled by corrupt-link faults.
    pub messages_corrupted: u64,
    /// Simulator metric: messages duplicated by replay-link faults.
    pub messages_replayed: u64,
    /// Throughput/latency report over the post-warmup window.
    pub report: RunReport,
}

/// The failure classes the scenario checks can detect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The committed history failed the serializability or
    /// decision-agreement audit (a safety violation).
    Audit,
    /// A liveness-checkable scenario made no progress in the quiet tail.
    Liveness,
    /// Two runs of the same `(spec, seed)` disagreed.
    Divergence,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Audit => write!(f, "audit"),
            FailureKind::Liveness => write!(f, "liveness"),
            FailureKind::Divergence => write!(f, "divergence"),
        }
    }
}

impl ScenarioOutcome {
    /// Checks this single-run outcome against the spec's invariants:
    /// the safety audit always applies; the liveness-under-budget check
    /// applies when [`ScenarioSpec::liveness_checkable`] holds.
    pub fn check(&self, spec: &ScenarioSpec) -> Option<FailureKind> {
        if self.audit_failure.is_some() {
            return Some(FailureKind::Audit);
        }
        if spec.liveness_checkable() && self.tail_committed == 0 {
            return Some(FailureKind::Liveness);
        }
        None
    }

    /// Whether two runs of the same spec disagree on any decision-bearing
    /// result (counts, committed-set digest, or per-replica decisions).
    pub fn diverges_from(&self, other: &ScenarioOutcome) -> bool {
        self.committed != other.committed
            || self.aborted_attempts != other.aborted_attempts
            || self.byz_committed != other.byz_committed
            || self.fast_path != other.fast_path
            || self.slow_path != other.slow_path
            || self.fallbacks != other.fallbacks
            || self.tail_committed != other.tail_committed
            || self.digest != other.digest
            || self.decisions_digest != other.decisions_digest
    }
}

/// One step of the compiled fault timeline.
#[derive(Clone, Copy)]
enum Action {
    Crash(u32),
    Restart(u32, RecoveryMode),
    Behave(u32, ReplicaBehavior),
    MarkWarm,
    MarkTail,
}

fn rid(index: u32) -> ReplicaId {
    ReplicaId::new(ShardId(0), index)
}

fn matcher(sel: Selector) -> NodeMatcher {
    match sel {
        Selector::Any => NodeMatcher::Any,
        Selector::Clients => NodeMatcher::Clients,
        Selector::Replicas => NodeMatcher::Replicas,
        Selector::Replica(i) => NodeMatcher::Node(NodeId::Replica(rid(i))),
    }
}

/// Executes `spec` against a built cluster that has not yet run, and
/// collects the outcome. This is the one place a spec's faults become
/// simulator state, so a cluster built by hand runs a spec exactly as
/// [`run_basil_spec`] and [`run_baseline_spec`] do. Generic over the
/// protocol: the same spec drives Basil and the baselines, and a fault on a
/// replica index a smaller deployment lacks is a no-op.
pub fn drive<P: ClusterProtocol>(
    cluster: &mut ProtocolCluster<P>,
    spec: &ScenarioSpec,
) -> ScenarioOutcome {
    // Node properties are set before the first event; link faults are
    // installed up-front with absolute windows, and the simulator applies
    // each only to messages sent inside [at, until).
    let sim = cluster.sim_mut();
    for ev in &spec.faults {
        match *ev {
            FaultEvent::ClockSkew { replica, skew_us } => {
                sim.update_node_props(NodeId::Replica(rid(replica)), |p| {
                    p.with_skew_ns(skew_us.saturating_mul(1_000))
                });
            }
            FaultEvent::SlowReplica { replica, cores } => {
                sim.update_node_props(NodeId::Replica(rid(replica)), |p| p.with_cores(cores));
            }
            FaultEvent::Link {
                kind,
                from,
                to,
                at_ms,
                until_ms,
            } => {
                sim.add_link_fault(LinkFault::new(
                    kind,
                    matcher(from),
                    matcher(to),
                    SimTime::from_millis(at_ms),
                    SimTime::from_millis(until_ms),
                ));
            }
            _ => {}
        }
    }

    // Timed actions, sorted by (time, insertion order) so every run walks
    // an identical timeline. The measurement marks come first at their
    // timestamp: a snapshot taken at t precedes any fault injected at t.
    let mut timeline: Vec<(u64, usize, Action)> = Vec::new();
    timeline.push((spec.warmup_ms, 0, Action::MarkWarm));
    timeline.push((spec.tail_start_ms(), 1, Action::MarkTail));
    let mut seq = 2;
    let mut push = |timeline: &mut Vec<(u64, usize, Action)>, ms: u64, a: Action| {
        timeline.push((ms, seq, a));
        seq += 1;
    };
    for ev in &spec.faults {
        match *ev {
            FaultEvent::Crash {
                replica,
                at_ms,
                restart_ms,
                recovery,
            } => {
                push(&mut timeline, at_ms, Action::Crash(replica));
                if let Some(r) = restart_ms {
                    push(&mut timeline, r, Action::Restart(replica, recovery));
                }
            }
            FaultEvent::Misbehave {
                replica,
                behavior,
                at_ms,
                revert_ms,
            } => {
                push(&mut timeline, at_ms, Action::Behave(replica, behavior));
                if let Some(r) = revert_ms {
                    push(
                        &mut timeline,
                        r,
                        Action::Behave(replica, ReplicaBehavior::Correct),
                    );
                }
            }
            _ => {}
        }
    }
    timeline.sort_by_key(|(ms, seq, _)| (*ms, *seq));

    let mut warm = None;
    let mut tail = None;
    let mut now_ms = 0u64;
    for (ms, _, action) in timeline {
        if ms > now_ms {
            cluster.run_for(Duration::from_millis(ms - now_ms));
            now_ms = ms;
        }
        match action {
            Action::Crash(r) => cluster.crash_replica(rid(r)),
            Action::Restart(r, RecoveryMode::Warm) => cluster.restart_replica_warm(rid(r)),
            Action::Restart(r, RecoveryMode::Amnesia) => cluster.restart_replica_amnesia(rid(r)),
            Action::Behave(r, b) => cluster.set_replica_behavior(rid(r), b),
            Action::MarkWarm => warm = Some(cluster.snapshot()),
            Action::MarkTail => tail = Some(cluster.snapshot()),
        }
    }
    if spec.duration_ms > now_ms {
        cluster.run_for(Duration::from_millis(spec.duration_ms - now_ms));
    }

    let end = cluster.snapshot();
    let warm = warm.unwrap_or_default();
    let tail = tail.unwrap_or_default();
    let metrics = cluster.sim().metrics();
    ScenarioOutcome {
        committed: end.committed,
        aborted_attempts: end.aborted_attempts,
        byz_committed: end.byz_committed,
        fast_path: end.fast_path,
        slow_path: end.slow_path,
        fallbacks: end.fallbacks,
        tail_committed: end.committed.saturating_sub(tail.committed),
        digest: cluster.committed_history_digest(),
        decisions_digest: decisions_digest(cluster),
        audit_failure: cluster.audit().err().map(|e| e.to_string()),
        messages_dropped: metrics.messages_dropped,
        messages_corrupted: metrics.messages_corrupted,
        messages_replayed: metrics.messages_replayed,
        report: RunReport::between(
            &warm,
            &end,
            Duration::from_millis(spec.duration_ms - spec.warmup_ms),
        ),
    }
}

/// SHA-256 hex digest over `(replica, txid, decision)` for every replica ×
/// every committed transaction id (sorted), pinning decision agreement
/// independent of replica iteration order.
fn decisions_digest<P: ClusterProtocol>(cluster: &ProtocolCluster<P>) -> String {
    let mut txids: Vec<TxId> = cluster
        .committed_transactions()
        .iter()
        .map(|tx| tx.id())
        .collect();
    txids.sort_by_key(|t| *t.as_bytes());
    let mut rids: Vec<ReplicaId> = cluster.replica_ids().to_vec();
    rids.sort();
    let mut hasher = basil_crypto::Sha256::new();
    for r in rids {
        if let Some(replica) = cluster.sim().actor::<P::Replica>(NodeId::Replica(r)) {
            for txid in &txids {
                hasher.update(txid.as_bytes());
                hasher.update(&[match P::decision(replica, txid) {
                    None => 0u8,
                    Some(Decision::Commit) => 1,
                    Some(Decision::Abort) => 2,
                }]);
            }
        }
    }
    hasher
        .finalize()
        .as_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn make_generator(spec: &ScenarioSpec, client: u64) -> Box<dyn basil::TxGenerator> {
    let seed = basil::workloads::client_seed(spec.seed, client);
    match spec.workload {
        WorkloadSpec::RwUniform {
            reads,
            writes,
            keys,
        } => Box::new(YcsbGenerator::rw_uniform(
            seed,
            keys,
            reads as usize,
            writes as usize,
        )),
        WorkloadSpec::RwZipf {
            reads,
            writes,
            keys,
            theta,
        } => Box::new(YcsbGenerator::rw_zipf(
            seed,
            keys,
            reads as usize,
            writes as usize,
            theta,
        )),
    }
}

/// Runs `spec` against a Basil deployment and returns the outcome. Panics
/// if the spec fails [`ScenarioSpec::validate`] — validate at the boundary
/// (fuzzer, corpus loader) first.
///
/// `benchmark/src/sim.rs` passes the mode; the next `benchmark` PR removes it.
pub fn run_basil_spec(spec: &ScenarioSpec, _mode: RuntimeMode) -> ScenarioOutcome {
    spec.validate().expect("spec validated before running");
    let mut system = SystemConfig::single_shard_f1();
    system.shard = ShardConfig::new(spec.f);
    let mut basil_cfg = BasilConfig::bench(system).with_batch_size(spec.batch_size);
    basil_cfg.relax_st2_validation = spec.relax_st2;
    let mut config = ClusterConfig::basil_default(spec.clients)
        .with_basil(basil_cfg)
        .with_seed(spec.seed);
    if spec.byz_clients > 0 {
        config = config.with_byzantine_clients(
            spec.byz_clients,
            FaultProfile {
                strategy: spec.byz_strategy,
                faulty_fraction: spec.byz_fraction,
            },
        );
    }
    let mut cluster = BasilCluster::build(config, |cid| make_generator(spec, cid.0));
    drive(&mut cluster, spec)
}

/// Runs `spec` against one of the baseline systems. The baselines deploy
/// fewer replicas than Basil's `5f + 1` and ignore client strategies and
/// replica misbehaviour they don't implement; fault events targeting
/// replica indices outside the baseline's range are harmless no-ops.
pub fn run_baseline_spec(spec: &ScenarioSpec, kind: SystemKind) -> ScenarioOutcome {
    spec.validate().expect("spec validated before running");
    let baseline = BaselineConfig::new(kind)
        .with_shards(1)
        .with_batch_size(spec.batch_size);
    let config = BaselineClusterConfig::new(baseline, spec.clients).with_seed(spec.seed);
    let mut cluster = BaselineCluster::build(config, |cid| make_generator(spec, cid.0));
    drive(&mut cluster, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::base_spec;

    #[test]
    fn base_spec_runs_and_passes_checks_on_serial() {
        let spec = base_spec();
        let out = run_basil_spec(&spec, RuntimeMode::Serial);
        assert!(out.committed > 0, "progress under faults: {out:?}");
        assert!(out.tail_committed > 0, "tail progress: {out:?}");
        assert!(
            out.messages_dropped > 0,
            "crash + drop-link dropped traffic"
        );
        assert_eq!(out.check(&spec), None, "{:?}", out.audit_failure);
    }

    // Named for the serial-vs-parallel comparison it used to include; one
    // runtime is left.
    #[test]
    fn replay_is_bit_identical_and_runtime_independent() {
        let spec = base_spec();
        let a = run_basil_spec(&spec, RuntimeMode::Serial);
        let b = run_basil_spec(&spec, RuntimeMode::Serial);
        assert!(!a.diverges_from(&b), "run vs replay: {a:?} vs {b:?}");
    }

    #[test]
    fn amnesia_restart_recovers_and_stays_deterministic() {
        let mut spec = base_spec();
        spec.name = "amnesia".into();
        spec.faults = vec![crate::spec::FaultEvent::Crash {
            replica: 4,
            at_ms: 50,
            restart_ms: Some(90),
            recovery: RecoveryMode::Amnesia,
        }];
        spec.validate().expect("valid");
        let out = run_basil_spec(&spec, RuntimeMode::Serial);
        assert!(out.committed > 0, "progress across the amnesia crash");
        assert!(out.tail_committed > 0, "liveness after recovery");
        assert_eq!(out.check(&spec), None, "{:?}", out.audit_failure);
        let replay = run_basil_spec(&spec, RuntimeMode::Serial);
        assert!(
            !out.diverges_from(&replay),
            "run vs replay: {out:?} vs {replay:?}"
        );
    }

    #[test]
    fn skew_slow_and_misbehave_compile_onto_the_cluster() {
        let mut spec = base_spec();
        spec.name = "props".into();
        spec.faults = vec![
            crate::spec::FaultEvent::ClockSkew {
                replica: 2,
                skew_us: 5_000,
            },
            crate::spec::FaultEvent::SlowReplica {
                replica: 2,
                cores: 1,
            },
            crate::spec::FaultEvent::Misbehave {
                replica: 2,
                behavior: basil::ReplicaBehavior::WithholdVotes,
                at_ms: 50,
                revert_ms: Some(100),
            },
        ];
        spec.budget.crash = 1;
        spec.budget.deceit = 1;
        spec.validate().expect("valid");
        let out = run_basil_spec(&spec, RuntimeMode::Serial);
        assert!(out.committed > 0, "{out:?}");
        assert_eq!(out.check(&spec), None, "{:?}", out.audit_failure);
    }

    /// `drive` alone turns a spec's faults into simulator state: a cluster
    /// built with `ProtocolCluster::build`, as the benchmark builds its own,
    /// runs the skew-slow corpus entry exactly as `run_basil_spec` does.
    #[test]
    fn drive_sets_skew_and_slow_cores_on_a_directly_built_cluster() {
        let spec = crate::ron::decode(include_str!("../../../tests/corpus/skew-slow.ron"))
            .expect("corpus entry decodes");
        let mut system = SystemConfig::single_shard_f1();
        system.shard = ShardConfig::new(spec.f);
        let basil = BasilConfig::bench(system).with_batch_size(spec.batch_size);
        let config = ClusterConfig::for_protocol(basil::BasilProtocol::new(basil), spec.clients)
            .with_seed(spec.seed)
            .with_byzantine_clients(
                spec.byz_clients,
                FaultProfile {
                    strategy: spec.byz_strategy,
                    faulty_fraction: spec.byz_fraction,
                },
            );
        let mut cluster = ProtocolCluster::build(config, |cid| make_generator(&spec, cid.0));
        let direct = drive(&mut cluster, &spec);

        let front_end = run_basil_spec(&spec, RuntimeMode::Serial);
        assert!(
            !direct.diverges_from(&front_end),
            "direct {direct:?} vs front end {front_end:?}"
        );
        let healthy = ScenarioSpec {
            faults: Vec::new(),
            ..spec.clone()
        };
        assert!(
            run_basil_spec(&healthy, RuntimeMode::Serial).diverges_from(&front_end),
            "the skewed, slow replica changes the run"
        );
    }

    #[test]
    fn baseline_runs_the_same_spec() {
        let mut spec = base_spec();
        spec.byz_clients = 0; // baselines have no Byzantine-client support
        let out = run_baseline_spec(&spec, SystemKind::Tapir);
        assert!(out.committed > 0, "{out:?}");
        assert!(out.audit_failure.is_none(), "{:?}", out.audit_failure);
    }
}
