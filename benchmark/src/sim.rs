//! The simulator workloads: `sim-rwu`, `sim-rwu-hmac`, `sim-rwz`, `sim-byz30`.
//!
//! Each is a declarative `ScenarioSpec` executed by `basil_scenario::runner::
//! drive` — the path the figure binaries, the corpus and the fuzzer share —
//! on the serial runtime with the figure configuration
//! (`BasilConfig::bench(single shard, f = 1)`, reply batches of 16). The
//! cluster is built exactly as `runner::run_basil_spec` builds it, except
//! that clients sit behind [`ClientProbe`]; a test pins that the probe leaves
//! the committed history bit-identical to `run_basil_spec`'s. `sim-rwu-hmac`
//! alone departs from the figure configuration: it computes and verifies its
//! signatures (`CryptoMode::Real`), as the TCP deployment does.
//!
//! A run simulates its scenario several times ([`repetitions`]). The simulated outputs
//! of the repetitions are identical; their real-time cost is not, on a shared
//! host, and the report keeps the least disturbed observation of each piece.

use crate::probe::{ClientLog, ClientProbe, TraceCtl};
use crate::report::{undisturbed_us_per_commit, CpuSplit, WorkloadRun};
use basil::cluster::{ClusterConfig, ClusterProtocol, ProtocolCluster, RuntimeMode};
use basil::harness::BasilProtocol;
use basil::report::Snapshot;
use basil::workloads::YcsbGenerator;
use basil_common::{ClientId, Key, NodeId, ReplicaId, ShardId, TxGenerator, TxId, Value};
use basil_core::byzantine::{ClientStrategy, FaultProfile};
use basil_core::config::CryptoMode;
use basil_core::{BasilConfig, BasilMsg, BasilReplica, ClientStats, ReplicaBehavior};
use basil_scenario::runner::drive;
use basil_scenario::spec::{FaultBudget, FaultEvent, RecoveryMode, ScenarioSpec, WorkloadSpec};
use basil_store::mvtso::Decision;
use basil_store::Transaction;
use std::sync::Arc;
use std::time::Instant;

/// Key space of the YCSB-T workloads (the figure binaries' scale-down of the
/// paper's ten million).
pub const YCSB_KEYS: u64 = 1_000_000;

/// Simulated warm-up before the window opens.
const WARMUP_MS: u64 = 100;
/// Simulated time after the window, so a handler crosses the last slice
/// boundary and samples the CPU clock there.
const COOLDOWN_MS: u64 = 5;
/// How often a run repeats its simulation. The repetitions are the same work
/// (one seed, a deterministic simulator), so they differ only by what the host
/// did meanwhile; `report::undisturbed_us_per_commit` keeps the least
/// disturbed observation of every commit, and each repetition is one set-up.
/// More repetitions of a shorter window repeat better and cover less of the
/// scenario; each costs a set-up and a warm-up on top of its window. `sim-rwu`
/// is the workload the host's memory contention slows most (six repetitions
/// read 77 us per commit in a quiet hour and 99 us in a disturbed one), sets
/// up in milliseconds and costs the same from seed to seed, so it runs many
/// short ones; the contended workloads need their longer windows (their
/// simulated throughput moves 7-14% with the seed as it is) and spend over a
/// second per set-up.
pub fn repetitions(workload: &str) -> usize {
    match workload {
        "sim-rwu" => 16,
        _ => 6,
    }
}

/// Simulated window of one repetition per second of `--seconds`, sized on the
/// 2-core box so the repetitions together (set-up, warm-up and audit included)
/// take 17-24 s at the default `--seconds`. Frozen: the simulated metrics are
/// deterministic only for a fixed window.
fn window_ms_per_second(workload: &str) -> u64 {
    match workload {
        "sim-rwu" => 10,
        "sim-rwu-hmac" => 8,
        "sim-rwz" => 80,
        _ => 110,
    }
}

/// `BasilProtocol` with every client wrapped in a [`ClientProbe`]. Replicas
/// are the unwrapped `BasilReplica`, so audits, recovery and fault injection
/// go through the shipped adapter's code.
#[derive(Clone)]
pub struct TracedBasil {
    inner: BasilProtocol,
    ctl: Arc<TraceCtl>,
}

impl ClusterProtocol for TracedBasil {
    type Msg = BasilMsg;
    type Client = ClientProbe;
    type Replica = BasilReplica;
    type Stats = ClientStats;

    fn prepare_build(&mut self, seed: u64, num_clients: u32) {
        self.inner.prepare_build(seed, num_clients);
    }
    fn shards(&self) -> Vec<ShardId> {
        self.inner.shards()
    }
    fn shard_for_key(&self, key: &Key) -> ShardId {
        self.inner.shard_for_key(key)
    }
    fn replicas_per_shard(&self) -> u32 {
        self.inner.replicas_per_shard()
    }
    fn default_replica_behavior(&self) -> ReplicaBehavior {
        self.inner.default_replica_behavior()
    }
    fn make_replica(
        &self,
        rid: ReplicaId,
        behavior: ReplicaBehavior,
        initial_data: Vec<(Key, Value)>,
    ) -> BasilReplica {
        self.inner.make_replica(rid, behavior, initial_data)
    }
    fn recover_replica(
        &self,
        rid: ReplicaId,
        initial_data: Vec<(Key, Value)>,
        old: &mut BasilReplica,
    ) -> Option<BasilReplica> {
        self.inner.recover_replica(rid, initial_data, old)
    }
    fn make_client(
        &self,
        cid: ClientId,
        generator: Box<dyn TxGenerator>,
        fault: FaultProfile,
        seed: u64,
    ) -> ClientProbe {
        let honest = fault.strategy.is_correct() || fault.faulty_fraction <= 0.0;
        ClientProbe::new(
            self.inner.make_client(cid, generator, fault, seed),
            Arc::clone(&self.ctl),
            honest,
        )
    }
    fn client_stats(client: &ClientProbe) -> &ClientStats {
        client.inner().stats()
    }
    fn accumulate(stats: &ClientStats, byzantine: bool, snap: &mut Snapshot) {
        BasilProtocol::accumulate(stats, byzantine, snap);
    }
    fn latest_value(replica: &BasilReplica, key: &Key) -> Option<Value> {
        BasilProtocol::latest_value(replica, key)
    }
    fn committed_transactions(replica: &BasilReplica) -> Vec<&Transaction> {
        BasilProtocol::committed_transactions(replica)
    }
    fn decision(replica: &BasilReplica, txid: &TxId) -> Option<Decision> {
        BasilProtocol::decision(replica, txid)
    }
    fn set_behavior(replica: &mut BasilReplica, behavior: ReplicaBehavior) {
        BasilProtocol::set_behavior(replica, behavior);
    }
}

/// The scenario behind a simulator workload, for a window of `window_ms`.
pub fn spec_for(workload: &str, seed: u64, window_ms: u64) -> ScenarioSpec {
    let duration_ms = WARMUP_MS + window_ms + COOLDOWN_MS;
    let uncontended = WorkloadSpec::RwUniform {
        reads: 2,
        writes: 2,
        keys: YCSB_KEYS,
    };
    let contended = WorkloadSpec::RwZipf {
        reads: 2,
        writes: 2,
        keys: YCSB_KEYS,
        theta: 0.9,
    };
    let mut spec = ScenarioSpec {
        name: workload.to_string(),
        seed,
        clients: 96,
        byz_clients: 0,
        byz_strategy: ClientStrategy::Correct,
        byz_fraction: 0.0,
        f: 1,
        batch_size: 16,
        relax_st2: false,
        warmup_ms: WARMUP_MS,
        duration_ms,
        tail_ms: 0,
        budget: FaultBudget {
            crash: 0,
            deceit: 0,
        },
        workload: uncontended,
        faults: Vec::new(),
        expect: None,
    };
    match workload {
        "sim-rwu" | "sim-rwu-hmac" => {}
        "sim-rwz" => spec.workload = contended,
        "sim-byz30" => {
            spec.workload = contended;
            spec.clients = 48;
            spec.byz_clients = 14; // 30% of 48, rounded
            spec.byz_strategy = ClientStrategy::StallLate;
            spec.byz_fraction = 1.0;
            spec.budget.crash = 1;
            // The quiet tail makes the scenario liveness-checkable: correct
            // clients must still commit after the crash and the recovery.
            spec.tail_ms = window_ms / 4;
            spec.faults = vec![FaultEvent::Crash {
                replica: 4,
                at_ms: WARMUP_MS + window_ms / 3,
                restart_ms: Some(WARMUP_MS + window_ms / 2),
                recovery: RecoveryMode::Amnesia,
            }];
        }
        other => panic!("{other} is not a simulator workload"),
    }
    spec.validate().expect("benchmark scenario is well-formed");
    spec
}

/// The protocol configuration `runner::run_basil_spec` derives from a spec.
pub fn basil_config(spec: &ScenarioSpec) -> BasilConfig {
    let mut system = basil_common::SystemConfig::single_shard_f1();
    system.shard = basil_common::ShardConfig::new(spec.f);
    let mut cfg = BasilConfig::bench(system).with_batch_size(spec.batch_size);
    cfg.relax_st2_validation = spec.relax_st2;
    if spec.name == "sim-rwu-hmac" {
        cfg.crypto_mode = CryptoMode::Real;
    }
    cfg
}

/// The generator client `client` of `workload` drives.
pub fn generator_for(workload: &str, seed: u64, client: u64) -> Box<dyn TxGenerator> {
    generator(&spec_for(workload, seed, 100), client)
}

fn generator(spec: &ScenarioSpec, client: u64) -> Box<dyn TxGenerator> {
    // The scenario runner's per-client seed split.
    let seed = spec.seed.wrapping_add(client.wrapping_mul(7919));
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

/// Builds the deployment `runner::run_basil_spec` would, probes attached.
pub fn build_cluster(spec: &ScenarioSpec, ctl: Arc<TraceCtl>) -> ProtocolCluster<TracedBasil> {
    let protocol = TracedBasil {
        inner: BasilProtocol::new(basil_config(spec)),
        ctl,
    };
    let mut config = ClusterConfig::for_protocol(protocol, spec.clients)
        .with_seed(spec.seed)
        .with_runtime(RuntimeMode::Serial);
    if spec.byz_clients > 0 {
        config = config.with_byzantine_clients(
            spec.byz_clients,
            FaultProfile {
                strategy: spec.byz_strategy,
                faulty_fraction: spec.byz_fraction,
            },
        );
    }
    ProtocolCluster::build(config, |cid| generator(spec, cid.0))
}

/// Takes every honest client's log out of a finished cluster.
pub fn take_logs(cluster: &mut ProtocolCluster<TracedBasil>, end_ns: u64) -> Vec<ClientLog> {
    let ids: Vec<ClientId> = cluster.client_ids().to_vec();
    ids.into_iter()
        .filter_map(|cid| {
            let probe = cluster
                .sim_mut()
                .actor_mut::<ClientProbe>(NodeId::Client(cid))?;
            probe.is_honest().then(|| probe.finish(end_ns))
        })
        .collect()
}

/// Runs one simulator workload.
pub fn run(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<WorkloadRun, String> {
    let window_ms = seconds.max(1) * window_ms_per_second(workload);
    let spec = spec_for(workload, seed, window_ms);

    let repetitions = repetitions(workload);
    let (mut run, digest) = measure(&spec, window_ms, traced)?;
    for _ in 1..repetitions {
        let (again, digest_again) = measure(&spec, window_ms, traced)?;
        if digest_again != digest || again.commit_gap_ns[0].len() != run.commit_gap_ns[0].len() {
            run.problems.push(format!(
                "two simulations of seed {seed} diverged: digests {digest} and {digest_again}"
            ));
        }
        run.problems.extend(again.problems);
        run.setup_s.extend(again.setup_s);
        run.commit_gap_ns.extend(again.commit_gap_ns);
    }
    let by_repetitions: Vec<String> = (1..=repetitions)
        .map(|r| format!("{:.1}", undisturbed_us_per_commit(&run.commit_gap_ns[..r])))
        .collect();
    eprintln!(
        "[{workload}] us per commit, least disturbed of the first 1..{repetitions} repetitions: {}",
        by_repetitions.join(" ")
    );
    Ok(run)
}

/// Builds the deployment of `spec`, drives it, and collects what the probes
/// and the system's own counters recorded, with the digest of the outcome.
fn measure(
    spec: &ScenarioSpec,
    window_ms: u64,
    traced: bool,
) -> Result<(WorkloadRun, String), String> {
    let workload = spec.name.as_str();
    let seed = spec.seed;
    let ctl = Arc::new(TraceCtl::new(
        traced,
        WARMUP_MS * 1_000_000,
        window_ms * 1_000_000,
        true,
    ));
    let wall = Instant::now();
    let mut cluster = build_cluster(spec, Arc::clone(&ctl));
    let outcome = drive(&mut cluster, spec);
    let wall_s = wall.elapsed().as_secs_f64();
    let (commit_gap_ns, first_commit) = ctl.take_commit_gaps();
    let first_commit =
        first_commit.ok_or_else(|| format!("{workload}: no transaction committed"))?;

    let mut problems = Vec::new();
    if let Some(failure) = &outcome.audit_failure {
        problems.push(format!("audit failed: {failure}"));
    }
    if let Some(kind) = outcome.check(spec) {
        problems.push(format!("scenario check failed: {kind}"));
    }
    let boundaries = ctl.boundary_cpu();
    if boundaries.len() != crate::probe::SLICES + 1 {
        return Err(format!(
            "{workload}: only {} of {} slice boundaries were reached",
            boundaries.len(),
            crate::probe::SLICES + 1
        ));
    }
    let slice_cpu = boundaries
        .windows(2)
        .map(|w| CpuSplit {
            replicas_ns: 0,
            bench_ns: w[1].saturating_sub(w[0]),
            sys_ns: 0,
        })
        .collect();

    // Layer counters the simulator and the replicas already expose.
    let mut layer = crate::metrics::Values::new();
    let metrics = cluster.sim().metrics();
    let commits_all = (outcome.committed + outcome.byz_committed).max(1) as f64;
    layer.insert(
        "simnet.events_per_commit",
        metrics.events_processed as f64 / commits_all,
    );
    layer.insert(
        "simnet.msgs_per_commit",
        metrics.messages_delivered as f64 / commits_all,
    );
    let (mut wait_ns, mut processed) = (0u128, 0u64);
    let (mut wal_appends, mut wal_bytes, mut applied) = (0u64, 0u64, 0u64);
    let replica_ids: Vec<ReplicaId> = cluster.replica_ids().to_vec();
    for rid in replica_ids {
        let node = NodeId::Replica(rid);
        if let Some(m) = metrics.node(node) {
            wait_ns += u128::from(m.queue_wait.as_nanos());
            processed += m.messages_processed;
        }
        if let Some(replica) = cluster.sim_mut().actor_mut::<BasilReplica>(node) {
            wal_appends += replica.stats().wal_appends;
            applied += replica.stats().commits_applied;
            wal_bytes += replica.take_wal_bytes().len() as u64;
        }
    }
    layer.insert(
        "simnet.queue_wait_ms",
        wait_ns as f64 / processed.max(1) as f64 / 1e6,
    );
    layer.insert(
        "wal.appends_per_commit",
        wal_appends as f64 / applied.max(1) as f64,
    );
    layer.insert(
        "wal.bytes_per_commit",
        wal_bytes as f64 / applied.max(1) as f64,
    );
    layer.insert(
        "proc.peak_rss_mb",
        crate::procfs::peak_rss_mb(std::process::id()),
    );

    eprintln!(
        "[{workload}] {window_ms} ms simulated window, set-up to audit in {wall_s:.1} s wall; {} commits by correct clients, {} fallbacks, digest {}",
        outcome.committed,
        outcome.fallbacks,
        &outcome.digest[..12]
    );
    let run = WorkloadRun {
        workload: workload.to_string(),
        seed,
        logs: take_logs(&mut cluster, (spec.duration_ms + spec.tail_ms) * 1_000_000),
        window_start_ns: ctl.window_start_ns,
        window_ns: ctl.window_ns,
        // From starting to build the deployment to the first commit by a
        // correct client.
        setup_s: vec![first_commit.duration_since(wall).as_secs_f64()],
        slice_cpu,
        commit_gap_ns: vec![commit_gap_ns],
        problems,
        layer,
        replay_config: basil_config(spec),
        deployment_clients: spec.clients,
    };
    Ok((run, outcome.digest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_scenario::runner::run_basil_spec;

    #[test]
    fn probed_cluster_matches_run_basil_spec_bit_for_bit() {
        for workload in ["sim-rwz", "sim-byz30"] {
            let spec = spec_for(workload, 11, 120);
            let reference = run_basil_spec(&spec, RuntimeMode::Serial);
            let ctl = Arc::new(TraceCtl::new(true, 100_000_000, 120_000_000, true));
            let mut cluster = build_cluster(&spec, ctl);
            let probed = drive(&mut cluster, &spec);
            assert!(
                !probed.diverges_from(&reference),
                "{workload}: probe changed the run: {probed:?} vs {reference:?}"
            );
            assert!(probed.committed > 0);
            assert_eq!(probed.audit_failure, None);
        }
    }

    /// The simulated end-to-end metrics of a short `sim-rwz` run.
    fn simulated_metrics(seed: u64) -> Vec<(&'static str, f64)> {
        let spec = spec_for("sim-rwz", seed, 150);
        let (run, _) = measure(&spec, 150, false).expect("runs");
        assert!(run.problems.is_empty(), "{:?}", run.problems);
        let e = run.end_to_end();
        assert!(e.commits > 500, "{} commits", e.commits);
        e.values
            .into_iter()
            .filter(|(name, _)| !matches!(*name, "setup_s" | "cpu_us_per_commit"))
            .collect()
    }

    #[test]
    fn one_seed_repeats_exactly_and_another_seed_does_not() {
        let first = simulated_metrics(7);
        assert_eq!(first, simulated_metrics(7), "same seed, same model outputs");
        assert_ne!(first, simulated_metrics(8), "another seed, other inputs");
    }

    #[test]
    fn byzantine_clients_are_not_logged() {
        let spec = spec_for("sim-byz30", 3, 120);
        let ctl = Arc::new(TraceCtl::new(false, 100_000_000, 120_000_000, true));
        let mut cluster = build_cluster(&spec, ctl);
        let outcome = drive(&mut cluster, &spec);
        let logs = take_logs(&mut cluster, (spec.duration_ms + spec.tail_ms) * 1_000_000);
        assert_eq!(logs.len() as u32, spec.clients - spec.byz_clients);
        let commits: u64 = logs
            .iter()
            .flat_map(|l| &l.events)
            .filter(|(_, e)| matches!(e, crate::probe::Ev::Commit { .. }))
            .count() as u64;
        assert_eq!(commits, outcome.committed, "probe and client stats agree");
    }
}
