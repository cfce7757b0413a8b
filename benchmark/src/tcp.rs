//! The TCP workloads: `tcp-rwu`, `tcp-retwis-open`.
//!
//! Replicas are `basil-node --role replica` processes with default flags, so
//! `node.rs`'s assembly, the WAL file hook and the `--executors` default are
//! what is measured. The two clients run inside this process, each on its own
//! thread behind `ConnManager::start` + `NodeRuntime::run_until`, wrapped in
//! a [`ClientProbe`]: that yields exact latencies (the node's results file
//! has none) and keeps generator and seed in the benchmark's hands.
//!
//! Hygiene: listening ports are probed free in a block below 21000 (the
//! in-tree tests listen from 21000 up, the ephemeral range starts at 32768);
//! every child is SIGKILLed on every exit path by a drop guard; every wait
//! has a deadline and names the node it waited for; WAL and results files
//! live in a unique directory under `benchmark/out/` that is removed
//! afterwards; and the run fails if any process of it is still alive.

use crate::metrics::Values;
use crate::probe::{ClientLog, ClientProbe, TraceCtl, SLICES};
use crate::procfs::{self, CpuTimes};
use crate::report::{CpuSplit, WorkloadRun};
use basil::audit_history;
use basil::workloads::{PoissonTxGenerator, RetwisGenerator, YcsbGenerator};
use basil_common::{ClientId, NodeId, ReplicaId, SimTime, TxGenerator, TxId};
use basil_core::byzantine::FaultProfile;
use basil_core::BasilClient;
use basil_net::conn::{ConnManager, ConnOptions, NetStats};
use basil_net::node::{self, NodeResults, ReplicaResults};
use basil_net::runtime::{Clock, NodeRuntime};
use basil_store::Transaction;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// In-process clients: one per core of the 2-core box the load was sized on.
pub const CLIENTS: u32 = 2;
/// Key space of `tcp-rwu`.
const RWU_KEYS: u64 = 100_000;
/// User population of `tcp-retwis-open`.
const RETWIS_USERS: u64 = 1_000_000;
/// Offered load of `tcp-retwis-open`, all clients together: the round number
/// nearest 40% of the closed-loop Retwis capacity measured on the 2-core box
/// (see CALIBRATION.md). Frozen.
pub const RETWIS_OFFERED_TPS: f64 = 300.0;

/// Deployment time allowed for launch before the warm-up starts.
const LAUNCH_ALLOWANCE_MS: u64 = 1_000;
/// Warm-up before the window opens (connections up, caches and allocator
/// warm; the first commits pay connect + backoff).
const WARMUP_MS: u64 = 2_000;
/// Clients keep running this long past the window so in-flight work lands.
const CLIENT_DRAIN_MS: u64 = 300;
/// Replicas outlive the clients by this much, then write their results.
const REPLICA_DRAIN_MS: u64 = 300;
/// How long a node may overstay its own deadline before it is killed and
/// reported as hung.
const EXIT_GRACE: Duration = Duration::from_secs(10);
/// Arrivals an in-process client queues before it sheds one. The shipped
/// default (32) is 0.2 s of arrivals: a stall of the guest overflows it, and a
/// shed arrival is a failed operation. This is 7 s of arrivals; latency still
/// counts from the arrival instant.
const ADMISSION_BOUND: usize = 1_024;
/// Set-up-only launches per run, besides the measured deployment's own.
const EXTRA_SETUPS: usize = 2;
/// Deployment time a set-up-only launch may take to its first commit.
const SETUP_ONLY_MS: u64 = 900;

/// The children of a run. Dropping any handle to it SIGKILLs and reaps every
/// one still running — a holder going away means the run is over — so no exit
/// path (error, panic, watchdog) leaves a `basil-node` behind.
#[derive(Clone, Default)]
pub struct Children(Arc<Mutex<Vec<(String, Child)>>>);

impl Children {
    fn push(&self, name: String, child: Child) {
        self.0
            .lock()
            .expect("children lock poisoned")
            .push((name, child));
    }

    /// SIGKILLs and reaps everything still running.
    pub fn kill_all(&self) {
        let mut children = self.0.lock().unwrap_or_else(|e| e.into_inner());
        for (_, child) in children.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        children.clear();
    }

    fn pids(&self) -> Vec<(String, u32)> {
        self.0
            .lock()
            .expect("children lock poisoned")
            .iter()
            .map(|(n, c)| (n.clone(), c.id()))
            .collect()
    }

    /// Waits until every child has exited by itself. A child that exits
    /// non-zero, or is still running at `deadline`, fails the run by name.
    fn await_clean_exit(&self, deadline: Instant) -> Result<(), String> {
        loop {
            let mut children = self.0.lock().expect("children lock poisoned");
            let mut running = None;
            for (name, child) in children.iter_mut() {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => {}
                    Ok(Some(status)) => return Err(format!("{name} exited with {status}")),
                    Ok(None) => running = Some(name.clone()),
                    Err(e) => return Err(format!("{name}: wait failed: {e}")),
                }
            }
            let Some(name) = running else {
                children.clear();
                return Ok(());
            };
            drop(children);
            if Instant::now() > deadline {
                return Err(format!("{name} hung past its deadline"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Children {
    fn drop(&mut self) {
        self.kill_all();
    }
}

/// A unique scratch directory under `benchmark/out/`, removed on drop.
struct Workdir(PathBuf);

impl Workdir {
    fn create() -> std::io::Result<Workdir> {
        let dir = crate::out_dir().join(format!(
            "run-{}-{}",
            std::process::id(),
            Clock::unix_now_nanos()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Workdir(dir))
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Finds a base port below 21000 such that every port of the deployment's
/// address book is free right now. `salt` spreads concurrent runs apart.
pub fn free_port_block(salt: u64, clients: u32) -> Result<u16, String> {
    const LOW: u16 = 10_000;
    const HIGH: u16 = 21_000;
    const STEP: u16 = 200;
    let blocks = u64::from((HIGH - LOW) / STEP);
    let start = salt ^ u64::from(std::process::id()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for i in 0..blocks {
        let base = LOW + ((start.wrapping_add(i) % blocks) as u16) * STEP;
        let ports: Vec<u16> = node::address_book(base, clients)
            .values()
            .map(SocketAddr::port)
            .collect();
        if ports.iter().all(|p| *p < HIGH && port_is_free(*p)) {
            return Ok(base);
        }
    }
    Err("no free port block below 21000".to_string())
}

fn port_is_free(port: u16) -> bool {
    TcpListener::bind(("127.0.0.1", port)).is_ok()
}

fn node_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("basil-node");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found: build the whole package (benchmark/run.sh does)",
            bin.display()
        ))
    }
}

/// One launched deployment: replica processes plus what is needed to talk
/// to them.
struct Deployment {
    children: Children,
    workdir: Workdir,
    base_port: u16,
    epoch: u64,
    seed: u64,
    launched: Instant,
    replicas: u32,
}

impl Deployment {
    /// Spawns the replicas and waits until each accepts connections.
    fn launch(seed: u64, duration_ms: u64, children: &Children) -> Result<Deployment, String> {
        let node_bin = node_binary()?;
        let workdir = Workdir::create().map_err(|e| format!("workdir: {e}"))?;
        let base_port = free_port_block(seed, CLIENTS)?;
        let replicas = node::deployment_config().system.shard.n();
        let launched = Instant::now();
        let epoch = Clock::unix_now_nanos();
        for i in 0..replicas {
            let name = format!("replica-{i}");
            let child = Command::new(&node_bin)
                .args(["--role", "replica", "--who", &i.to_string()])
                .args(["--clients", &CLIENTS.to_string()])
                .args(["--seed", &seed.to_string()])
                .args(["--base-port", &base_port.to_string()])
                .args(["--epoch-nanos", &epoch.to_string()])
                .args(["--duration-ms", &duration_ms.to_string()])
                .arg("--wal")
                .arg(workdir.0.join(format!("{name}.wal")))
                .arg("--results")
                .arg(workdir.0.join(format!("{name}.results")))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawning {name}: {e}"))?;
            children.push(name, child);
        }
        let deployment = Deployment {
            children: children.clone(),
            workdir,
            base_port,
            epoch,
            seed,
            launched,
            replicas,
        };
        deployment.await_listening(Duration::from_secs(5))?;
        Ok(deployment)
    }

    /// Polls every replica's port; a replica that died (failed bind) or
    /// never listens fails the run by name.
    fn await_listening(&self, timeout: Duration) -> Result<(), String> {
        let book = node::address_book(self.base_port, CLIENTS);
        for i in 0..self.replicas {
            let addr = book[&NodeId::Replica(ReplicaId::new(node::SHARD, i))];
            loop {
                if TcpStream::connect_timeout(&addr, Duration::from_millis(50)).is_ok() {
                    break;
                }
                let mut children = self.children.0.lock().expect("children lock poisoned");
                let me = format!("replica-{i}");
                if let Some((name, child)) = children.iter_mut().find(|(n, _)| *n == me) {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(format!(
                            "{name} died during start-up ({status}); is {addr} in use?"
                        ));
                    }
                }
                drop(children);
                if self.launched.elapsed() > timeout {
                    return Err(format!("replica-{i} never listened on {addr}"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(())
    }

    fn clock(&self) -> Clock {
        Clock::new(self.epoch)
    }

    /// Starts client `id` on its own thread; it runs until `deadline_ms` of
    /// deployment time and hands its probe back.
    fn start_client(
        &self,
        id: u64,
        generator: Box<dyn TxGenerator>,
        ctl: &Arc<TraceCtl>,
        deadline_ms: u64,
    ) -> Result<RunningClient, String> {
        let self_id = NodeId::Client(ClientId(id));
        let book = node::address_book(self.base_port, CLIENTS);
        let (conn, inbound) =
            ConnManager::start(book[&self_id], book, ConnOptions::default(), self.seed)
                .map_err(|e| format!("client-{id}: bind failed: {e}"))?;
        // Same derivations as `basil-node --role client`.
        let client = BasilClient::new(
            ClientId(id),
            node::deployment_config().with_admission_bound(ADMISSION_BOUND),
            node::derive_registry(self.seed, CLIENTS),
            generator,
            FaultProfile::honest(),
            self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let probe = ClientProbe::new(client, Arc::clone(ctl), true);
        let clock = self.clock();
        let thread_conn = Arc::clone(&conn);
        let thread = std::thread::Builder::new()
            .name(format!("client-{id}"))
            .spawn(move || {
                let runtime =
                    NodeRuntime::new(self_id, Box::new(probe), clock, thread_conn, inbound);
                let mut actor = runtime.run_until(SimTime::from_millis(deadline_ms));
                actor
                    .as_any_mut()
                    .downcast_mut::<ClientProbe>()
                    .map(|probe| probe.finish(deadline_ms * 1_000_000))
            })
            .map_err(|e| format!("client-{id}: thread: {e}"))?;
        Ok(RunningClient { id, thread, conn })
    }
}

struct RunningClient {
    id: u64,
    thread: JoinHandle<Option<ClientLog>>,
    conn: Arc<ConnManager>,
}

impl RunningClient {
    fn join(self) -> Result<(ClientLog, Arc<NetStats>), String> {
        let log = self
            .thread
            .join()
            .map_err(|_| format!("client-{} panicked", self.id))?
            .ok_or_else(|| format!("client-{} lost its probe", self.id))?;
        self.conn.shutdown();
        Ok((log, Arc::clone(self.conn.stats())))
    }
}

pub fn generator_for(workload: &str, seed: u64, client: u64) -> Box<dyn TxGenerator> {
    // The per-client seed split `basil-node` and the scenario runner use.
    let gen_seed = seed.wrapping_add(client.wrapping_mul(7919));
    match workload {
        "tcp-rwu" => Box::new(YcsbGenerator::rw_uniform(gen_seed, RWU_KEYS, 2, 2)),
        "tcp-retwis-open" => Box::new(PoissonTxGenerator::new(
            RetwisGenerator::paper_config(gen_seed, RETWIS_USERS),
            seed.wrapping_add(client.wrapping_mul(104_729)),
            RETWIS_OFFERED_TPS / f64::from(CLIENTS),
        )),
        other => panic!("{other} is not a TCP workload"),
    }
}

fn sleep_until(clock: &Clock, deployment_ns: u64) {
    let now = clock.now().as_nanos();
    if deployment_ns > now {
        std::thread::sleep(Duration::from_nanos(deployment_ns - now));
    }
}

/// Launches a deployment only to time launch → first commit, then kills it.
fn time_setup_only(workload: &str, seed: u64) -> Result<f64, String> {
    let children = Children::default();
    let deployment = Deployment::launch(seed, SETUP_ONLY_MS + 2_000, &children)?;
    let ctl = Arc::new(TraceCtl::new(false, u64::MAX / 2, 1, false));
    let mut clients = Vec::new();
    for id in 0..u64::from(CLIENTS) {
        let gen = generator_for(workload, seed, id);
        clients.push(deployment.start_client(id, gen, &ctl, SETUP_ONLY_MS)?);
    }
    let first = await_first_commit(&ctl, &deployment, Duration::from_millis(SETUP_ONLY_MS));
    for client in clients {
        client.join()?;
    }
    children.kill_all();
    first
}

fn await_first_commit(
    ctl: &TraceCtl,
    deployment: &Deployment,
    timeout: Duration,
) -> Result<f64, String> {
    loop {
        if ctl.commits.load(Ordering::Relaxed) > 0 {
            return Ok(deployment.launched.elapsed().as_secs_f64());
        }
        if deployment.launched.elapsed() > timeout {
            return Err(format!(
                "no commit within {} ms of launch",
                timeout.as_millis()
            ));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// CPU of every replica process (summed) and of this process.
fn sample_cpu(pids: &[(String, u32)]) -> Result<(CpuTimes, CpuTimes), String> {
    let mut replicas = CpuTimes::default();
    for (name, pid) in pids {
        let cpu = procfs::cpu_times(*pid)
            .ok_or_else(|| format!("{name} (pid {pid}) vanished during the window"))?;
        replicas = replicas.plus(&cpu);
    }
    let me = procfs::cpu_times(std::process::id()).ok_or("cannot read /proc/self/stat")?;
    Ok((replicas, me))
}

fn context_switches(pids: &[(String, u32)]) -> u64 {
    pids.iter()
        .map(|(_, pid)| procfs::context_switches(*pid))
        .sum::<u64>()
        + procfs::context_switches(std::process::id())
}

/// The union of committed transactions over all replicas plus every id any
/// replica finalized as an abort — the inputs of `basil::audit_history`.
fn union_history(results: &[ReplicaResults]) -> (Vec<Transaction>, Vec<TxId>) {
    let mut committed: HashMap<TxId, Transaction> = HashMap::new();
    let mut aborted = Vec::new();
    for r in results {
        for tx in &r.committed {
            committed.entry(tx.id()).or_insert_with(|| tx.clone());
        }
        aborted.extend(r.decisions.iter().filter(|(_, c)| !c).map(|(id, _)| *id));
    }
    (committed.into_values().collect(), aborted)
}

fn read_replica_results(dir: &Path, replicas: u32) -> Result<Vec<ReplicaResults>, String> {
    (0..replicas)
        .map(|i| {
            let path = dir.join(format!("replica-{i}.results"));
            match node::read_results(&path) {
                Ok(NodeResults::Replica(r)) => Ok(r),
                Ok(NodeResults::Client(_)) => Err(format!("replica-{i} wrote client results")),
                Err(e) => Err(format!("replica-{i}: results file: {e}")),
            }
        })
        .collect()
}

/// Runs one TCP workload.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    children: &Children,
) -> Result<WorkloadRun, String> {
    let mut setup_s = Vec::with_capacity(EXTRA_SETUPS + 1);
    for i in 0..EXTRA_SETUPS {
        setup_s.push(time_setup_only(workload, seed.wrapping_add(1 + i as u64))?);
    }

    let window_start_ms = LAUNCH_ALLOWANCE_MS + WARMUP_MS;
    let window_ms = seconds.max(1) * 1_000;
    let client_deadline_ms = window_start_ms + window_ms + CLIENT_DRAIN_MS;
    let replica_deadline_ms = client_deadline_ms + REPLICA_DRAIN_MS;
    let ctl = Arc::new(TraceCtl::new(
        traced,
        window_start_ms * 1_000_000,
        window_ms * 1_000_000,
        false,
    ));

    let deployment = Deployment::launch(seed, replica_deadline_ms, children)?;
    let clock = deployment.clock();
    let mut clients = Vec::new();
    for id in 0..u64::from(CLIENTS) {
        let gen = generator_for(workload, seed, id);
        clients.push(deployment.start_client(id, gen, &ctl, client_deadline_ms)?);
    }
    setup_s.push(await_first_commit(
        &ctl,
        &deployment,
        Duration::from_millis(LAUNCH_ALLOWANCE_MS),
    )?);

    // The window: sample every process's CPU at each slice boundary.
    let pids = children.pids();
    let mut samples = Vec::with_capacity(SLICES + 1);
    let mut switches = (0u64, 0u64);
    for i in 0..=SLICES {
        sleep_until(&clock, ctl.boundary_ns(i));
        samples.push(sample_cpu(&pids)?);
        if traced && i == 0 {
            switches.0 = context_switches(&pids);
        }
        if traced && i == SLICES {
            switches.1 = context_switches(&pids);
        }
    }
    let mut peak_rss_mb = procfs::peak_rss_mb(std::process::id());
    for (_, pid) in &pids {
        peak_rss_mb += procfs::peak_rss_mb(*pid);
    }

    let mut logs = Vec::new();
    let mut net = Vec::new();
    for client in clients {
        let (log, stats) = client.join()?;
        logs.push(log);
        net.push(stats);
    }
    children.await_clean_exit(
        deployment.launched + Duration::from_millis(replica_deadline_ms) + EXIT_GRACE,
    )?;

    // Correctness: the simulator's own audit over the collected histories.
    let mut problems = Vec::new();
    let results = read_replica_results(&deployment.workdir.0, deployment.replicas)?;
    let (committed, aborted) = union_history(&results);
    if let Err(e) = audit_history(&committed, aborted) {
        problems.push(format!("audit failed: {e}"));
    }
    let client_commits: usize = logs
        .iter()
        .flat_map(|l| &l.events)
        .filter(|(_, e)| matches!(e, crate::probe::Ev::Commit { .. }))
        .count();
    if committed.len() < client_commits {
        problems.push(format!(
            "clients saw {client_commits} commits but replicas hold only {}",
            committed.len()
        ));
    }
    let needle = deployment.workdir.0.to_string_lossy().into_owned();
    let strays = procfs::pids_with_cmdline(&needle);
    if !strays.is_empty() {
        problems.push(format!("stray node processes left behind: {strays:?}"));
    }

    let slice_cpu = samples
        .windows(2)
        .map(|w| {
            let replicas = w[1].0.since(&w[0].0);
            let bench = w[1].1.since(&w[0].1);
            CpuSplit {
                replicas_ns: replicas.total_ns(),
                bench_ns: bench.total_ns(),
                sys_ns: replicas.sys_ns + bench.sys_ns,
            }
        })
        .collect();

    let mut layer = Values::new();
    let applied: u64 = results.iter().map(|r| r.committed.len() as u64).sum();
    let appends: u64 = results.iter().map(|r| r.wal_appends).sum();
    let wal_bytes: u64 = (0..deployment.replicas)
        .filter_map(|i| {
            std::fs::metadata(deployment.workdir.0.join(format!("replica-{i}.wal"))).ok()
        })
        .map(|m| m.len())
        .sum();
    layer.insert(
        "wal.appends_per_commit",
        appends as f64 / applied.max(1) as f64,
    );
    layer.insert(
        "wal.bytes_per_commit",
        wal_bytes as f64 / applied.max(1) as f64,
    );
    let sum = |f: fn(&NetStats) -> u64| net.iter().map(|s| f(s)).sum::<u64>() as f64;
    layer.insert(
        "net.frames_shed",
        sum(|s| s.frames_shed.load(Ordering::Relaxed)),
    );
    layer.insert(
        "net.reconnect_attempts",
        sum(|s| s.reconnect_attempts.load(Ordering::Relaxed)),
    );
    layer.insert(
        "net.malformed_frames",
        sum(|s| s.malformed_frames.load(Ordering::Relaxed)),
    );
    layer.insert("proc.peak_rss_mb", peak_rss_mb);
    layer.insert(
        "proc.ctx_switches",
        switches.1.saturating_sub(switches.0) as f64,
    );

    eprintln!(
        "[{workload}] {} replicas on ports {}..; {} commits seen by clients, {} transactions on replicas",
        deployment.replicas,
        deployment.base_port,
        client_commits,
        committed.len()
    );
    Ok(WorkloadRun {
        workload: workload.to_string(),
        seed,
        logs,
        window_start_ns: ctl.window_start_ns,
        window_ns: ctl.window_ns,
        setup_s,
        slice_cpu,
        commit_gap_ns: Vec::new(),
        problems,
        layer,
        replay_config: node::deployment_config(),
        deployment_clients: CLIENTS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_blocks_are_below_the_test_range_and_skip_busy_ports() {
        let base = free_port_block(1, CLIENTS).expect("a free block");
        assert!((10_000..21_000).contains(&base));
        // Occupy the block's first port: the probe must move on.
        let _held = TcpListener::bind(("127.0.0.1", base)).expect("bind");
        let other = free_port_block(1, CLIENTS).expect("another free block");
        assert_ne!(other, base);
    }

    #[test]
    fn drop_guard_kills_children() {
        let children = Children::default();
        let child = Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleep");
        let pid = child.id();
        children.push("sleeper".into(), child);
        assert!(procfs::cpu_times(pid).is_some());
        let watchdog_handle = children.clone();
        drop(children);
        assert!(
            procfs::cpu_times(pid).is_none(),
            "dropping the guard reaps the child"
        );
        watchdog_handle.kill_all(); // nothing left: a no-op
    }

    #[test]
    fn hung_and_failed_children_are_named() {
        let children = Children::default();
        children.push(
            "replica-9".into(),
            Command::new("sleep").arg("30").spawn().expect("spawn"),
        );
        let err = children
            .await_clean_exit(Instant::now() + Duration::from_millis(50))
            .expect_err("hung");
        assert!(err.contains("replica-9 hung"), "{err}");
        children.kill_all();
        children.push(
            "replica-3".into(),
            Command::new("false").spawn().expect("spawn"),
        );
        let err = children
            .await_clean_exit(Instant::now() + Duration::from_secs(5))
            .expect_err("failed");
        assert!(err.contains("replica-3 exited"), "{err}");
    }

    #[test]
    fn union_history_dedups_and_collects_aborts() {
        use basil_common::Timestamp;
        use basil_store::TransactionBuilder;
        let tx = |t: u64| {
            let mut b = TransactionBuilder::new(Timestamp::from_nanos(t, ClientId(1)));
            b.record_write(
                basil_common::Key::new("k"),
                basil_common::Value::from_u64(t),
            );
            b.build()
        };
        let (a, b) = (tx(1), tx(2));
        let r0 = ReplicaResults {
            committed: vec![a.clone(), b.clone()],
            decisions: vec![(a.id(), true), (b.id(), true)],
            ..ReplicaResults::default()
        };
        let r1 = ReplicaResults {
            committed: vec![a.clone()],
            decisions: vec![(a.id(), true), (b.id(), false)],
            ..ReplicaResults::default()
        };
        let (committed, aborted) = union_history(&[r0, r1]);
        assert_eq!(committed.len(), 2);
        assert_eq!(aborted, vec![b.id()]);
        assert!(
            audit_history(&committed, aborted).is_err(),
            "divergent decision"
        );
    }
}
