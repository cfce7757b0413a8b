//! Assembly of one node process: address book, key derivation, WAL file
//! handling, the role-specific actor, and the results file the supervisor
//! harvests.
//!
//! The point of this module is that it contains **no protocol code**. It
//! instantiates the exact `BasilReplica` / `BasilClient` state machines the
//! simulator runs — same constructors, same configuration type — and wires
//! them to real sockets ([`crate::conn`]), real time ([`crate::runtime`]),
//! and a real WAL file. Key material is derived from the deployment seed
//! with the identical node enumeration the simulator harness uses
//! (replicas `0..n` of each shard, then clients `0..num_clients`), so
//! signatures verify across processes exactly as they do across simulated
//! actors.

use crate::conn::{ConnManager, ConnOptions};
use crate::runtime::{Clock, NodeRuntime};
use basil_common::{ClientId, Duration, Key, NodeId, ReplicaId, ShardId, SimTime, TxId, Value};
use basil_core::byzantine::FaultProfile;
use basil_core::{BasilClient, BasilConfig, BasilReplica, ReplicaBehavior};
use basil_crypto::KeyRegistry;
use basil_simnet::Actor;
use basil_store::mvtso::Decision;
use basil_store::Transaction;
use basil_workloads::YcsbGenerator;
use std::collections::HashMap;
use std::io::{Read as IoRead, Write as IoWrite};
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::path::PathBuf;

/// Which actor this process runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Replica `index` of the single shard.
    Replica {
        /// Replica index in `0..n`.
        index: u32,
    },
    /// Client with the given id.
    Client {
        /// Client id in `0..num_clients`.
        id: u64,
    },
}

/// Everything a node process needs to know, decoded from the command line
/// by `basil-node` and produced by the supervisor.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This process's role.
    pub role: Role,
    /// Clients in the deployment (for key derivation and the address book).
    pub num_clients: u32,
    /// Deployment seed: key material, workload, backoff jitter.
    pub seed: u64,
    /// First port of the deployment's port range.
    pub base_port: u16,
    /// Shared time base (UNIX nanoseconds), minted by the supervisor.
    pub epoch_unix_nanos: u64,
    /// How long to run, in deployment time.
    pub duration_ms: u64,
    /// WAL file (replicas only). Present and non-empty at startup means
    /// this is a post-crash restart: recover through the real WAL image.
    pub wal_path: Option<PathBuf>,
    /// Where to write the results record on clean exit.
    pub results_path: PathBuf,
    /// Workload: keys in the uniform read/write mix.
    pub keys: u64,
    /// Workload: reads per transaction.
    pub reads: usize,
    /// Workload: writes per transaction.
    pub writes: usize,
}

/// The single shard of the real-IO deployment (n = 6, f = 1).
pub const SHARD: ShardId = ShardId(0);

/// The protocol configuration every process derives locally — identical by
/// construction, like the simulator handing each actor a clone. Timeouts
/// are the simulator's test profile with the catch-up window widened to
/// cover real TCP connection establishment.
pub fn deployment_config() -> BasilConfig {
    let mut cfg = BasilConfig::test_single_shard();
    cfg.catch_up_timeout = Duration::from_millis(1_000);
    cfg
}

/// The port every node listens on: replicas at `base_port + index`,
/// clients at `base_port + 100 + id`.
pub fn port_of(base_port: u16, node: NodeId) -> u16 {
    match node {
        NodeId::Replica(r) => base_port + r.index as u16,
        NodeId::Client(c) => base_port + 100 + c.0 as u16,
    }
}

/// The full deployment address book (everything on localhost).
pub fn address_book(base_port: u16, num_clients: u32) -> HashMap<NodeId, SocketAddr> {
    let n = deployment_config().system.shard.n();
    let localhost = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let mut book = HashMap::new();
    for i in 0..n {
        let node = NodeId::Replica(ReplicaId::new(SHARD, i));
        book.insert(node, SocketAddr::new(localhost, port_of(base_port, node)));
    }
    for c in 0..num_clients {
        let node = NodeId::Client(ClientId(u64::from(c)));
        book.insert(node, SocketAddr::new(localhost, port_of(base_port, node)));
    }
    book
}

/// Derives the deployment's key registry — the same enumeration as the
/// simulator harness (`BasilProtocol::prepare_build`): replicas `0..n`,
/// then clients `0..num_clients`. Any divergence here makes every
/// cross-process signature check fail, so it is pinned by a unit test
/// against the simulator's own registry.
pub fn derive_registry(seed: u64, num_clients: u32) -> KeyRegistry {
    let n = deployment_config().system.shard.n();
    let replicas = (0..n).map(|i| NodeId::Replica(ReplicaId::new(SHARD, i)));
    let clients = (0..num_clients).map(|i| NodeId::Client(ClientId(u64::from(i))));
    KeyRegistry::from_seed_with_nodes(seed, replicas.chain(clients))
}

/// What a node process writes on clean exit, harvested by the supervisor.
#[derive(Clone, Debug)]
pub enum NodeResults {
    /// A replica's view of the history.
    Replica(ReplicaResults),
    /// A client's counters.
    Client(ClientResults),
}

/// A replica's collected history and counters.
#[derive(Clone, Debug, Default)]
pub struct ReplicaResults {
    /// Every committed transaction in the replica's store.
    pub committed: Vec<Transaction>,
    /// Every final decision: `(txid, committed?)`.
    pub decisions: Vec<(TxId, bool)>,
    /// WAL records appended over the process lifetime.
    pub wal_appends: u64,
    /// Certificates applied from peer catch-up (recovered processes).
    pub catch_up_applied: u64,
    /// Messages shed by the bounded recovery buffer.
    pub catch_up_shed: u64,
}

/// A client's counters.
#[derive(Clone, Debug, Default)]
pub struct ClientResults {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted attempts (retried).
    pub aborted_attempts: u64,
}

/// Runs this process's actor to the configured deadline and writes the
/// results file. This is the whole life of a `basil-node` process.
pub fn run_node(cfg: &NodeConfig) -> std::io::Result<()> {
    let registry = derive_registry(cfg.seed, cfg.num_clients);
    let basil_cfg = deployment_config();
    let self_id = match cfg.role {
        Role::Replica { index } => NodeId::Replica(ReplicaId::new(SHARD, index)),
        Role::Client { id } => NodeId::Client(ClientId(id)),
    };
    let book = address_book(cfg.base_port, cfg.num_clients);
    let listen = book[&self_id];
    let (conn, inbound) = ConnManager::start(listen, book, ConnOptions::default(), cfg.seed)?;
    let clock = Clock::new(cfg.epoch_unix_nanos);
    let deadline = SimTime(cfg.duration_ms.saturating_mul(1_000_000));

    let actor: Box<dyn Actor<basil_core::BasilMsg>> = match cfg.role {
        Role::Replica { index } => {
            let rid = ReplicaId::new(SHARD, index);
            let genesis: Vec<(Key, Value)> = Vec::new();
            let wal_image = match &cfg.wal_path {
                Some(path) => std::fs::read(path).unwrap_or_default(),
                None => Vec::new(),
            };
            let mut replica = if wal_image.is_empty() {
                BasilReplica::new(rid, basil_cfg, registry, ReplicaBehavior::Correct, genesis)
            } else {
                BasilReplica::recover(
                    rid,
                    basil_cfg,
                    registry,
                    ReplicaBehavior::Correct,
                    genesis,
                    wal_image,
                )
            };
            if let Some(path) = &cfg.wal_path {
                // Rewrite the file with the clean prefix recovery kept (a
                // torn tail from the crash is truncated, exactly like the
                // simulator's recovery path), then keep appending to it.
                std::fs::write(path, replica.take_wal_bytes())?;
            }
            Box::new(replica)
        }
        Role::Client { id } => {
            // Same per-client generator seed split as the scenario runner,
            // so process-cluster workloads match simulated ones in shape.
            let gen_seed = cfg.seed.wrapping_add(id.wrapping_mul(7919));
            let generator = Box::new(YcsbGenerator::rw_uniform(
                gen_seed, cfg.keys, cfg.reads, cfg.writes,
            ));
            Box::new(BasilClient::new(
                ClientId(id),
                basil_cfg,
                registry,
                generator,
                FaultProfile::honest(),
                cfg.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ))
        }
    };

    let mut runtime = NodeRuntime::new(self_id, actor, clock, conn.clone(), inbound);
    if let Some(path) = cfg.wal_path.clone() {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        runtime.set_post_event(Box::new(move |actor| {
            let bytes = take_replica_wal(actor);
            if !bytes.is_empty() {
                // write(2) into the page cache survives SIGKILL (only
                // power loss defeats it), which is the crash model the
                // supervisor exercises — no fsync per event needed.
                let _ = file.write_all(&bytes);
                let _ = file.flush();
            }
        }));
    }

    let actor = runtime.run_until(deadline);
    conn.shutdown();

    let results = harvest(cfg.role, actor);
    write_results(&cfg.results_path, &results)
}

/// Drains pending WAL bytes from a replica actor; empty for clients.
fn take_replica_wal(actor: &mut dyn Actor<basil_core::BasilMsg>) -> Vec<u8> {
    actor
        .as_any_mut()
        .downcast_mut::<BasilReplica>()
        .map(BasilReplica::take_wal_bytes)
        .unwrap_or_default()
}

/// Extracts the results record from the finished actor.
fn harvest(role: Role, mut actor: Box<dyn Actor<basil_core::BasilMsg>>) -> NodeResults {
    match role {
        Role::Replica { .. } => {
            let replica = actor
                .as_any_mut()
                .downcast_mut::<BasilReplica>()
                .expect("replica role runs a BasilReplica");
            let mut res = ReplicaResults {
                committed: replica.store().committed_iter().cloned().collect(),
                decisions: replica
                    .store()
                    .decisions_iter()
                    .map(|(txid, d)| (*txid, *d == Decision::Commit))
                    .collect(),
                ..ReplicaResults::default()
            };
            let stats = replica.stats();
            res.wal_appends = stats.wal_appends;
            res.catch_up_applied = stats.catch_up_applied;
            res.catch_up_shed = stats.catch_up_shed;
            NodeResults::Replica(res)
        }
        Role::Client { .. } => {
            let client = actor
                .as_any_mut()
                .downcast_mut::<BasilClient>()
                .expect("client role runs a BasilClient");
            let stats = client.stats();
            NodeResults::Client(ClientResults {
                committed: stats.committed,
                aborted_attempts: stats.aborted_attempts,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Results file codec (tagged length-prefixed records; local file, trusted)
// ---------------------------------------------------------------------------

const REC_COMMITTED: u8 = b'C';
const REC_DECISION: u8 = b'D';
const REC_REPLICA_STATS: u8 = b'S';
const REC_CLIENT_STATS: u8 = b'L';

/// Writes `results` to `path` (atomically: temp file + rename, so the
/// supervisor never reads a half-written record set).
pub fn write_results(path: &PathBuf, results: &NodeResults) -> std::io::Result<()> {
    let mut out: Vec<u8> = Vec::new();
    let rec = |tag: u8, body: &[u8], out: &mut Vec<u8>| {
        out.push(tag);
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(body);
    };
    match results {
        NodeResults::Replica(r) => {
            for tx in &r.committed {
                rec(REC_COMMITTED, tx.encoded(), &mut out);
            }
            for (txid, commit) in &r.decisions {
                let mut body = txid.as_bytes().to_vec();
                body.push(*commit as u8);
                rec(REC_DECISION, &body, &mut out);
            }
            let mut body = Vec::with_capacity(24);
            body.extend_from_slice(&r.wal_appends.to_be_bytes());
            body.extend_from_slice(&r.catch_up_applied.to_be_bytes());
            body.extend_from_slice(&r.catch_up_shed.to_be_bytes());
            rec(REC_REPLICA_STATS, &body, &mut out);
        }
        NodeResults::Client(c) => {
            let mut body = Vec::with_capacity(16);
            body.extend_from_slice(&c.committed.to_be_bytes());
            body.extend_from_slice(&c.aborted_attempts.to_be_bytes());
            rec(REC_CLIENT_STATS, &body, &mut out);
        }
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&out)?;
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// Reads a results file written by [`write_results`].
pub fn read_results(path: &PathBuf) -> std::io::Result<NodeResults> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut replica = ReplicaResults::default();
    let mut client: Option<ClientResults> = None;
    let mut saw_replica = false;
    let mut pos = 0usize;
    while pos < bytes.len() {
        if bytes.len() - pos < 5 {
            return Err(bad("truncated record header"));
        }
        let tag = bytes[pos];
        let len = u32::from_be_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
        pos += 5;
        if bytes.len() - pos < len {
            return Err(bad("truncated record body"));
        }
        let body = &bytes[pos..pos + len];
        pos += len;
        match tag {
            REC_COMMITTED => {
                let tx = Transaction::decode(body).ok_or_else(|| bad("bad transaction"))?;
                replica.committed.push(tx);
                saw_replica = true;
            }
            REC_DECISION => {
                if body.len() != 33 {
                    return Err(bad("bad decision record"));
                }
                let txid = TxId::from_bytes(body[..32].try_into().unwrap());
                replica.decisions.push((txid, body[32] == 1));
                saw_replica = true;
            }
            REC_REPLICA_STATS => {
                if body.len() != 24 {
                    return Err(bad("bad replica stats record"));
                }
                replica.wal_appends = u64::from_be_bytes(body[..8].try_into().unwrap());
                replica.catch_up_applied = u64::from_be_bytes(body[8..16].try_into().unwrap());
                replica.catch_up_shed = u64::from_be_bytes(body[16..24].try_into().unwrap());
                saw_replica = true;
            }
            REC_CLIENT_STATS => {
                if body.len() != 16 {
                    return Err(bad("bad client stats record"));
                }
                client = Some(ClientResults {
                    committed: u64::from_be_bytes(body[..8].try_into().unwrap()),
                    aborted_attempts: u64::from_be_bytes(body[8..16].try_into().unwrap()),
                });
            }
            _ => return Err(bad("unknown record tag")),
        }
    }
    match (saw_replica, client) {
        (false, Some(c)) => Ok(NodeResults::Client(c)),
        (true, None) => Ok(NodeResults::Replica(replica)),
        _ => Err(bad("mixed or empty results file")),
    }
}
