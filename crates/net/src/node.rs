//! Assembly of one node process: address book, key derivation, WAL file
//! handling, the role-specific actor, and the results file the supervisor
//! harvests.
//!
//! The point of this module is that it contains **no protocol code**. It
//! instantiates the exact `BasilReplica` / `BasilClient` state machines the
//! simulator runs — same constructors, same configuration type — and wires
//! them to real sockets ([`crate::conn`]), real time ([`crate::runtime`]),
//! and a real WAL file. Key material is derived from the deployment seed
//! exactly as the simulator harness derives it, so signatures verify across
//! processes as they do across simulated actors. The results file is a
//! sequence of `basil_crypto::frame` frames read back through
//! `basil_common::codec`, like the WAL and the wire.

use crate::conn::{ConnManager, ConnOptions};
use crate::runtime::{Clock, NodeRuntime};
use basil_common::codec::{Reader, Sink};
use basil_common::{ClientId, Duration, Key, NodeId, ReplicaId, ShardId, SimTime, TxId, Value};
use basil_core::byzantine::FaultProfile;
use basil_core::{BasilClient, BasilConfig, BasilReplica, ReplicaBehavior};
use basil_crypto::{frame, KeyRegistry};
use basil_simnet::Actor;
use basil_store::mvtso::Decision;
use basil_store::Transaction;
use basil_workloads::{client_seed, YcsbGenerator};
use std::collections::HashMap;
use std::io::{ErrorKind, Write as IoWrite};
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::path::{Path, PathBuf};

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

/// Derives the deployment's key registry. The seed alone fixes every key —
/// it is what all processes, and the simulator harness
/// (`BasilProtocol::prepare_build`), must agree on. The node list, the same
/// enumeration the harness uses (replicas `0..n`, then clients
/// `0..num_clients`), only precomputes those nodes' prepared keys; a node
/// missing from it still verifies, at the cost of a key derivation per use.
pub fn derive_registry(seed: u64, num_clients: u32) -> KeyRegistry {
    let n = deployment_config().system.shard.n();
    let replicas = (0..n).map(|i| NodeId::Replica(ReplicaId::new(SHARD, i)));
    let clients = (0..num_clients).map(|i| NodeId::Client(ClientId(u64::from(i))));
    KeyRegistry::from_seed_with_nodes(seed, replicas.chain(clients))
}

/// What a node process writes on clean exit, harvested by the supervisor.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeResults {
    /// A replica's view of the history.
    Replica(ReplicaResults),
    /// A client's counters.
    Client(ClientResults),
}

/// A replica's collected history and counters.
#[derive(Clone, Debug, Default, PartialEq)]
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
#[derive(Clone, Debug, Default, PartialEq)]
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
    let clock = Clock::new(cfg.epoch_unix_nanos);
    let deadline = SimTime(cfg.duration_ms.saturating_mul(1_000_000));

    // The actor is built, and with it the WAL read, before the listener is
    // bound: a replica that cannot read its log has no business accepting
    // traffic.
    let actor: Box<dyn Actor<basil_core::BasilMsg>> = match cfg.role {
        Role::Replica { index } => {
            let rid = ReplicaId::new(SHARD, index);
            let genesis: Vec<(Key, Value)> = Vec::new();
            let wal_image = match &cfg.wal_path {
                Some(path) => read_wal(path)?,
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
                std::fs::write(path, replica.take_wal_bytes()).map_err(|e| wal_error(path, e))?;
            }
            Box::new(replica)
        }
        Role::Client { id } => {
            let generator = Box::new(YcsbGenerator::rw_uniform(
                client_seed(cfg.seed, id),
                cfg.keys,
                cfg.reads,
                cfg.writes,
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

    let book = address_book(cfg.base_port, cfg.num_clients);
    let listen = book[&self_id];
    let (conn, inbound) = ConnManager::start(listen, book, ConnOptions::default(), cfg.seed)?;
    let mut runtime = NodeRuntime::new(self_id, actor, clock, conn.clone(), inbound);
    if let Some(path) = cfg.wal_path.clone() {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| wal_error(&path, e))?;
        runtime.set_post_event(Box::new(move |actor| {
            // write(2) into the page cache survives SIGKILL (only power
            // loss defeats it), which is the crash model the supervisor
            // exercises — no fsync per event needed. An empty drain writes
            // nothing.
            file.write_all(&take_replica_wal(actor))
                .and_then(|()| file.flush())
                .map_err(|e| wal_error(&path, e))
        }));
    }

    let outcome = runtime.try_run_until(deadline);
    conn.shutdown();

    let results = harvest(cfg.role, outcome?);
    write_results(&cfg.results_path, &results)
}

/// An IO error on the WAL file, naming the file.
fn wal_error(path: &Path, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("WAL {}: {e}", path.display()))
}

/// Reads the WAL image a previous run of this replica left behind. Only a
/// file that does not exist means a fresh start; any other failure is
/// returned, because starting empty over a log that exists would make the
/// replica forget votes it has cast.
fn read_wal(path: &Path) -> std::io::Result<Vec<u8>> {
    match std::fs::read(path) {
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(Vec::new()),
        other => other.map_err(|e| wal_error(path, e)),
    }
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
                    .map(|(txid, d)| (txid, d == Decision::Commit))
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
// Results file codec: one frame per record, `[record tag][fields]`
// ---------------------------------------------------------------------------

const REC_COMMITTED: u8 = b'C';
const REC_DECISION: u8 = b'D';
const REC_REPLICA_STATS: u8 = b'S';
const REC_CLIENT_STATS: u8 = b'L';

/// Writes `results` to `path` (atomically: temp file + rename, so the
/// supervisor never reads a half-written record set).
pub fn write_results(path: &PathBuf, results: &NodeResults) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, encode_results(results))?;
    std::fs::rename(&tmp, path)
}

/// Reads a results file written by [`write_results`]. Anything else — a
/// damaged, truncated or extended file — is `InvalidData`.
pub fn read_results(path: &PathBuf) -> std::io::Result<NodeResults> {
    decode_results(&std::fs::read(path)?)
}

/// A replica's file is its committed transactions, its decisions, then one
/// stats record; a client's is one stats record.
fn encode_results(results: &NodeResults) -> Vec<u8> {
    let mut out = Vec::new();
    match results {
        NodeResults::Replica(r) => {
            for tx in &r.committed {
                frame::seal(&mut out, |out| {
                    out.put_u8(REC_COMMITTED);
                    out.put_bytes(tx.encoded());
                });
            }
            for (txid, commit) in &r.decisions {
                frame::seal(&mut out, |out| {
                    out.put_u8(REC_DECISION);
                    out.put_txid(txid);
                    out.put_bool(*commit);
                });
            }
            frame::seal(&mut out, |out| {
                out.put_u8(REC_REPLICA_STATS);
                out.put_u64(r.wal_appends);
                out.put_u64(r.catch_up_applied);
                out.put_u64(r.catch_up_shed);
            });
        }
        NodeResults::Client(c) => frame::seal(&mut out, |out| {
            out.put_u8(REC_CLIENT_STATS);
            out.put_u64(c.committed);
            out.put_u64(c.aborted_attempts);
        }),
    }
    out
}

fn decode_results(mut bytes: &[u8]) -> std::io::Result<NodeResults> {
    let bad = |what: &str| std::io::Error::new(ErrorKind::InvalidData, what.to_string());
    let mut replica = ReplicaResults::default();
    // The stats record is the last one, so a file cut at a record boundary
    // is incomplete, not a shorter history.
    loop {
        let (record, frame_len) = frame::split(bytes, usize::MAX)
            .map_err(|_| bad("corrupt record"))?
            .ok_or_else(|| bad("file ends before its stats record"))?;
        bytes = &bytes[frame_len..];
        let mut r = Reader::new(record);
        let results = match r.u8()? {
            REC_COMMITTED => {
                replica.committed.push(Transaction::read(&mut r)?);
                None
            }
            REC_DECISION => {
                replica.decisions.push((r.txid()?, r.bool()?));
                None
            }
            REC_REPLICA_STATS => {
                replica.wal_appends = r.u64()?;
                replica.catch_up_applied = r.u64()?;
                replica.catch_up_shed = r.u64()?;
                Some(NodeResults::Replica(std::mem::take(&mut replica)))
            }
            REC_CLIENT_STATS if replica == ReplicaResults::default() => {
                Some(NodeResults::Client(ClientResults {
                    committed: r.u64()?,
                    aborted_attempts: r.u64()?,
                }))
            }
            _ => return Err(bad("unexpected record tag")),
        };
        r.finish()?;
        match results {
            Some(results) if bytes.is_empty() => return Ok(results),
            Some(_) => return Err(bad("records after the stats record")),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::Timestamp;
    use basil_store::TransactionBuilder;

    fn replica_results() -> NodeResults {
        let committed: Vec<Transaction> = (1..=3u64)
            .map(|i| {
                let mut b = TransactionBuilder::new(Timestamp::from_nanos(100 * i, ClientId(i)));
                b.record_read(
                    Key::new(format!("r{i}")),
                    Timestamp::from_nanos(i, ClientId(9)),
                );
                b.record_write(Key::new(format!("w{i}")), Value::from_u64(i));
                b.build()
            })
            .collect();
        let mut decisions: Vec<(TxId, bool)> = committed.iter().map(|tx| (tx.id(), true)).collect();
        decisions.push((TxId::from_bytes([7; 32]), false));
        NodeResults::Replica(ReplicaResults {
            committed,
            decisions,
            wal_appends: 11,
            catch_up_applied: 2,
            catch_up_shed: 1,
        })
    }

    fn client_results() -> NodeResults {
        NodeResults::Client(ClientResults {
            committed: 40,
            aborted_attempts: 3,
        })
    }

    fn is_invalid_data(result: std::io::Result<NodeResults>) -> bool {
        matches!(result, Err(e) if e.kind() == ErrorKind::InvalidData)
    }

    #[test]
    fn results_round_trip_through_the_file() {
        let path = std::env::temp_dir().join(format!("basil-results-{}", std::process::id()));
        for results in [replica_results(), client_results()] {
            assert_eq!(decode_results(&encode_results(&results)).unwrap(), results);
            write_results(&path, &results).unwrap();
            assert_eq!(read_results(&path).unwrap(), results);
        }
        std::fs::remove_file(&path).unwrap();
        let empty_replica = NodeResults::Replica(ReplicaResults::default());
        assert_eq!(
            decode_results(&encode_results(&empty_replica)).unwrap(),
            empty_replica
        );
    }

    /// A damaged file is `InvalidData`: never a panic, never a different
    /// history read back as if it were the one written.
    #[test]
    fn damaged_results_are_invalid_data() {
        for results in [replica_results(), client_results()] {
            let image = encode_results(&results);
            for at in 0..image.len() {
                let mut flipped = image.clone();
                flipped[at] ^= 0x41;
                assert!(is_invalid_data(decode_results(&flipped)), "flip at {at}");
                assert!(is_invalid_data(decode_results(&image[..at])), "cut at {at}");
            }
            let mut extended = image.clone();
            extended.extend_from_slice(&encode_results(&client_results()));
            assert!(is_invalid_data(decode_results(&extended)), "extra record");
        }
    }

    /// A decision byte other than 0 or 1 is rejected even under a valid
    /// check, and a client's stats cannot follow a replica's records.
    #[test]
    fn results_records_are_strict() {
        let mut lenient = Vec::new();
        frame::seal(&mut lenient, |out| {
            out.put_u8(REC_DECISION);
            out.put_txid(&TxId::from_bytes([1; 32]));
            out.put_u8(2);
        });
        assert!(is_invalid_data(decode_results(&lenient)));

        let mut mixed = Vec::new();
        frame::seal(&mut mixed, |out| {
            out.put_u8(REC_DECISION);
            out.put_txid(&TxId::from_bytes([1; 32]));
            out.put_bool(true);
        });
        mixed.extend_from_slice(&encode_results(&client_results()));
        assert!(is_invalid_data(decode_results(&mixed)));
    }

    /// Processes agree on keys because they agree on the seed: the registry
    /// the simulator harness builds is this seed plus a precompute list.
    #[test]
    fn derived_registry_is_the_seed_registry_with_every_node_precomputed() {
        let (seed, clients) = (42, 3);
        let derived = derive_registry(seed, clients);
        let n = deployment_config().system.shard.n();
        assert_eq!(derived.precomputed_nodes(), (n + clients) as usize);

        let plain = KeyRegistry::from_seed(seed);
        for node in [
            NodeId::Replica(ReplicaId::new(SHARD, n - 1)),
            NodeId::Client(ClientId(u64::from(clients) - 1)),
        ] {
            let sig = derived.keypair(node).sign(b"vote");
            assert!(plain.verify(b"vote", &sig), "{node:?}: derived -> plain");
            let sig = plain.keypair(node).sign(b"vote");
            assert!(derived.verify(b"vote", &sig), "{node:?}: plain -> derived");
            let other = KeyRegistry::from_seed(seed + 1).keypair(node).sign(b"vote");
            assert!(
                !derived.verify(b"vote", &other),
                "{node:?}: the seed matters"
            );
        }
    }
}
