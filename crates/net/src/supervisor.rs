//! The process-cluster supervisor: launches an n = 6 / f = 1 single-shard
//! Basil deployment as OS processes, SIGKILLs a replica mid-run, restarts
//! it through the real WAL file, and audits the collected results with the
//! same serializability + decision-agreement judgement the simulator uses.
//!
//! This is the harness half of the real-IO runtime. Where the simulator
//! inspects live actors, the supervisor only ever sees what the processes
//! wrote to disk on clean exit — which is precisely the vantage point of a
//! real operator, and the reason [`basil::audit_history`] exists as a free
//! function over collected histories.

use crate::node::{read_results, ClientResults, NodeResults, ReplicaResults};
use basil::{audit_history, ClusterAuditError};
use basil_common::TxId;
use basil_store::Transaction;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// A mid-run SIGKILL of one replica, with its restart time.
#[derive(Clone, Copy, Debug)]
pub struct KillPlan {
    /// Replica index to kill.
    pub replica: u32,
    /// Deployment time of the kill, milliseconds.
    pub at_ms: u64,
    /// Deployment time of the restart, milliseconds (same WAL file, so the
    /// new process recovers through `BasilReplica::recover` and real
    /// catch-up traffic).
    pub restart_ms: u64,
}

/// Everything needed to launch one process cluster.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Path to the `basil-node` binary.
    pub node_bin: PathBuf,
    /// Clients to launch.
    pub num_clients: u32,
    /// Deployment seed.
    pub seed: u64,
    /// First port of the deployment's range (replicas, then clients at
    /// +100).
    pub base_port: u16,
    /// Run length in deployment milliseconds.
    pub run_ms: u64,
    /// Optional mid-run kill + restart.
    pub kill: Option<KillPlan>,
    /// Directory for WAL and results files.
    pub workdir: PathBuf,
    /// Workload knobs: keys, reads, writes per transaction.
    pub workload: (u64, usize, usize),
}

/// The harvested outcome of a supervised run.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// Per-replica results, by replica index.
    pub replicas: HashMap<u32, ReplicaResults>,
    /// Per-client results, by client id.
    pub clients: HashMap<u64, ClientResults>,
}

impl ClusterOutcome {
    /// The union of committed transactions over all replicas, deduplicated
    /// by transaction id.
    pub fn committed_union(&self) -> Vec<Transaction> {
        let mut seen: HashMap<TxId, Transaction> = HashMap::new();
        for r in self.replicas.values() {
            for tx in &r.committed {
                seen.entry(tx.id()).or_insert_with(|| tx.clone());
            }
        }
        seen.into_values().collect()
    }

    /// Every transaction id any replica finalized as an abort.
    pub fn aborted_anywhere(&self) -> Vec<TxId> {
        let mut out = Vec::new();
        for r in self.replicas.values() {
            for (txid, commit) in &r.decisions {
                if !commit {
                    out.push(*txid);
                }
            }
        }
        out
    }

    /// Total client-observed commits.
    pub fn total_committed(&self) -> u64 {
        self.clients.values().map(|c| c.committed).sum()
    }

    /// The simulator's cluster audit over the collected histories:
    /// decision agreement (Lemma 2) then serializability.
    pub fn audit(&self) -> Result<(), ClusterAuditError> {
        audit_history(&self.committed_union(), self.aborted_anywhere())
    }
}

/// Failures of a supervised run (before any audit is attempted).
#[derive(Debug)]
pub enum SupervisorError {
    /// Spawning or signalling a child failed.
    Io(std::io::Error),
    /// A child was still running at the hard deadline.
    Hung {
        /// Human-readable identity of the hung process.
        which: String,
    },
    /// A child exited non-zero.
    Failed {
        /// Human-readable identity of the failed process.
        which: String,
    },
}

impl From<std::io::Error> for SupervisorError {
    fn from(e: std::io::Error) -> Self {
        SupervisorError::Io(e)
    }
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::Io(e) => write!(f, "spawn/signal failed: {e}"),
            SupervisorError::Hung { which } => write!(f, "{which} hung past the deadline"),
            SupervisorError::Failed { which } => write!(f, "{which} exited non-zero"),
        }
    }
}

impl std::error::Error for SupervisorError {}

fn wal_path(workdir: &Path, index: u32) -> PathBuf {
    workdir.join(format!("replica-{index}.wal"))
}

fn results_path(workdir: &Path, who: &str) -> PathBuf {
    workdir.join(format!("{who}.results"))
}

/// Spawns one `basil-node` process.
#[allow(clippy::too_many_arguments)]
fn spawn_node(
    cfg: &SupervisorConfig,
    role: &str,
    who: u64,
    epoch: u64,
    duration_ms: u64,
) -> std::io::Result<Child> {
    let (keys, reads, writes) = cfg.workload;
    let mut cmd = Command::new(&cfg.node_bin);
    cmd.arg("--role")
        .arg(role)
        .arg("--who")
        .arg(who.to_string())
        .arg("--clients")
        .arg(cfg.num_clients.to_string())
        .arg("--seed")
        .arg(cfg.seed.to_string())
        .arg("--base-port")
        .arg(cfg.base_port.to_string())
        .arg("--epoch-nanos")
        .arg(epoch.to_string())
        .arg("--duration-ms")
        .arg(duration_ms.to_string())
        .arg("--keys")
        .arg(keys.to_string())
        .arg("--reads")
        .arg(reads.to_string())
        .arg("--writes")
        .arg(writes.to_string());
    let who_name = if role == "replica" {
        cmd.arg("--wal").arg(wal_path(&cfg.workdir, who as u32));
        format!("replica-{who}")
    } else {
        format!("client-{who}")
    };
    cmd.arg("--results")
        .arg(results_path(&cfg.workdir, &who_name));
    cmd.spawn()
}

/// Runs the full cluster lifecycle: spawn replicas, spawn clients, execute
/// the kill plan, await every child (with a hard grace period past the run
/// length), and harvest the results files.
pub fn run_cluster(cfg: &SupervisorConfig) -> Result<ClusterOutcome, SupervisorError> {
    std::fs::create_dir_all(&cfg.workdir)?;
    let n = crate::node::deployment_config().system.shard.n();
    let epoch = crate::runtime::Clock::unix_now_nanos() + 200_000_000; // 200 ms of spawn slack
    let start = Instant::now();
    let deployment_elapsed_ms = move || {
        let now = crate::runtime::Clock::unix_now_nanos();
        now.saturating_sub(epoch) / 1_000_000
    };

    let mut replicas: HashMap<u32, Child> = HashMap::new();
    for i in 0..n {
        replicas.insert(
            i,
            spawn_node(cfg, "replica", u64::from(i), epoch, cfg.run_ms)?,
        );
    }
    let mut clients: HashMap<u64, Child> = HashMap::new();
    for c in 0..cfg.num_clients {
        clients.insert(
            u64::from(c),
            spawn_node(cfg, "client", u64::from(c), epoch, cfg.run_ms)?,
        );
    }

    // Execute the kill plan against deployment time.
    if let Some(kill) = cfg.kill {
        while deployment_elapsed_ms() < kill.at_ms {
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(victim) = replicas.get_mut(&kill.replica) {
            // SIGKILL: no atexit, no flush, no goodbye — the only state
            // that survives is what write(2) already put in the WAL file.
            victim.kill()?;
            let _ = victim.wait();
        }
        while deployment_elapsed_ms() < kill.restart_ms {
            std::thread::sleep(Duration::from_millis(5));
        }
        replicas.insert(
            kill.replica,
            spawn_node(cfg, "replica", u64::from(kill.replica), epoch, cfg.run_ms)?,
        );
    }

    // Await everything, with a grace period past the nominal run length for
    // spawn slack and shutdown. A child that overstays is killed and
    // reported — a wedged node is a test failure, not a hang.
    let hard_deadline = start + Duration::from_millis(cfg.run_ms + 15_000);
    let await_child = |which: String, child: &mut Child| -> Result<(), SupervisorError> {
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(_)) => return Err(SupervisorError::Failed { which }),
                Ok(None) => {
                    if Instant::now() > hard_deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(SupervisorError::Hung { which });
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(SupervisorError::Io(e)),
            }
        }
    };
    for (c, child) in clients.iter_mut() {
        await_child(format!("client-{c}"), child)?;
    }
    for (i, child) in replicas.iter_mut() {
        await_child(format!("replica-{i}"), child)?;
    }

    // Harvest.
    let mut outcome = ClusterOutcome {
        replicas: HashMap::new(),
        clients: HashMap::new(),
    };
    for i in 0..n {
        let path = results_path(&cfg.workdir, &format!("replica-{i}"));
        match read_results(&path)? {
            NodeResults::Replica(r) => {
                outcome.replicas.insert(i, r);
            }
            NodeResults::Client(_) => {
                return Err(SupervisorError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("replica-{i} wrote client results"),
                )))
            }
        }
    }
    for c in 0..cfg.num_clients {
        let path = results_path(&cfg.workdir, &format!("client-{c}"));
        match read_results(&path)? {
            NodeResults::Client(r) => {
                outcome.clients.insert(u64::from(c), r);
            }
            NodeResults::Replica(_) => {
                return Err(SupervisorError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("client-{c} wrote replica results"),
                )))
            }
        }
    }
    Ok(outcome)
}
