//! The unified-harness contract: the same scripted workload driven through
//! the Basil protocol adapter and a baseline protocol adapter, both riding
//! the one generic `ProtocolCluster` engine, must produce non-zero commits
//! and serializable histories from the shared machinery.

use basil::baseline_harness::{BaselineCluster, BaselineClusterConfig};
use basil::baselines::messages::ShardRequest;
use basil::baselines::{BaselineClient, BaselineConfig, BaselineMsg, SystemKind};
use basil::harness::{BasilCluster, ClusterConfig};
use basil::{
    BasilClient, BasilConfig, ClientId, Duration, Key, KeyRegistry, NodeId, Op, ReplicaId,
    ScriptedGenerator, ShardId, SimTime, Timestamp, Transaction, TxId, TxProfile, Value,
};
use basil_core::byzantine::FaultProfile;
use basil_core::certs::{DecisionCert, DecisionProof, ShardVotes};
use basil_core::messages::{
    BasilMsg, CommittedRead, ReadReply, ReadReplyBody, SignedSt1Reply, St1ReplyBody,
};
use basil_simnet::actor::Output;
use basil_simnet::{Actor, Context};
use basil_store::{Decision, TransactionBuilder, Vote};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// The shared scripted workload: every client runs the same short mix of
/// blind writes, reads, and read-modify-writes over a small keyspace.
fn scripted_profiles(client: u64) -> Vec<TxProfile> {
    (0..6)
        .map(|i| {
            let k = (client + i) % 4;
            TxProfile::new(
                "mix",
                vec![
                    Op::Read(Key::new(format!("k{k}"))),
                    Op::RmwAdd {
                        key: Key::new(format!("c{k}")),
                        delta: 1,
                    },
                    Op::Write(Key::new(format!("w{client}")), Value::from_u64(i)),
                ],
            )
        })
        .collect()
}

fn initial_data() -> Vec<(Key, Value)> {
    (0..4)
        .flat_map(|k| {
            [
                (Key::new(format!("k{k}")), Value::from_u64(10)),
                (Key::new(format!("c{k}")), Value::from_u64(0)),
            ]
        })
        .collect()
}

/// Both adapters, one engine: identical scripted workloads through Basil and
/// TAPIR-style clusters; both histories serializable, both with commits, and
/// the shared audit/measurement machinery works for each.
#[test]
fn same_workload_through_both_adapters_is_serializable() {
    // Basil adapter.
    let basil_config = ClusterConfig::basil_default(3)
        .with_initial_data(initial_data())
        .with_seed(17);
    let mut basil_cluster = BasilCluster::build(basil_config, |client| {
        Box::new(ScriptedGenerator::new(scripted_profiles(client.0)))
    });
    basil_cluster.run_for(Duration::from_secs(2));
    let basil_committed = basil_cluster.total_committed();
    assert!(
        basil_committed > 0,
        "Basil adapter must commit transactions from the shared engine"
    );
    basil_cluster
        .audit()
        .expect("Basil history must be serializable");

    // Baseline adapter on the same engine, same workload.
    let baseline_config = BaselineClusterConfig::new(BaselineConfig::new(SystemKind::Tapir), 3)
        .with_initial_data(initial_data())
        .with_seed(17);
    let mut baseline_cluster = BaselineCluster::build(baseline_config, |client| {
        Box::new(ScriptedGenerator::new(scripted_profiles(client.0)))
    });
    baseline_cluster.run_for(Duration::from_secs(2));
    let baseline_committed = baseline_cluster.total_committed();
    assert!(
        baseline_committed > 0,
        "baseline adapter must commit transactions from the shared engine"
    );
    baseline_cluster
        .audit()
        .expect("baseline history must be serializable");

    // Closed loop: what a client offers is what it starts. Every scripted
    // transaction was started once (aborts are retried, not re-offered) and
    // all of them finished, through either adapter.
    let scripted = 3 * scripted_profiles(0).len() as u64;
    for (name, snap) in [
        ("Basil", basil_cluster.snapshot()),
        ("TAPIR", baseline_cluster.snapshot()),
    ] {
        assert_eq!(snap.offered, scripted, "{name}: offered == started");
        assert_eq!(snap.committed, scripted, "{name}: all finished");
    }

    // The shared engine exposes the same inspection surface for both: the
    // committed counters key `c0..c3` must reflect applied increments.
    for cluster_value in [
        basil_cluster.latest_value(&Key::new("c0")),
        baseline_cluster.latest_value(&Key::new("c0")),
    ] {
        assert!(cluster_value.is_some(), "counter key must exist on both");
    }
}

/// The generic engine's measurement window works identically for both
/// adapters (same `RunReport` type from the same code path).
#[test]
fn shared_measurement_window_reports_for_both_adapters() {
    let basil_config = ClusterConfig::basil_default(2).with_seed(23);
    let mut basil_cluster = BasilCluster::build(basil_config, |client| {
        Box::new(basil::workloads::ycsb::YcsbGenerator::rw_uniform(
            client.0, 10_000, 2, 2,
        ))
    });
    let basil_report =
        basil_cluster.run_measured(Duration::from_millis(100), Duration::from_millis(300));
    assert!(basil_report.committed > 0);
    assert!(basil_report.throughput_tps > 0.0);

    let baseline_config =
        BaselineClusterConfig::new(BaselineConfig::new(SystemKind::Tapir), 2).with_seed(23);
    let mut baseline_cluster = BaselineCluster::build(baseline_config, |client| {
        Box::new(basil::workloads::ycsb::YcsbGenerator::rw_uniform(
            client.0, 10_000, 2, 2,
        ))
    });
    let baseline_report =
        baseline_cluster.run_measured(Duration::from_millis(100), Duration::from_millis(300));
    assert!(baseline_report.committed > 0);
    assert!(baseline_report.throughput_tps > 0.0);
    // A baseline report carries its offered load like a Basil one: in a
    // closed loop, starts and commits inside a window differ by at most the
    // transactions in flight at its two ends.
    let window_s = Duration::from_millis(300).as_secs_f64();
    for report in [&basil_report, &baseline_report] {
        let offered = (report.offered_tps * window_s).round() as u64;
        assert!(
            offered > 0 && offered.abs_diff(report.committed) <= 2,
            "offered {offered} vs committed {}",
            report.committed
        );
    }
}

// ----------------------------------------------------------------------
// One session under both clients
// ----------------------------------------------------------------------

/// What every read of the cross-protocol script returns: the key's version
/// and value, the same whichever protocol asks.
fn read_answer(key: &Key) -> (Timestamp, Value) {
    let n = key.as_bytes().iter().map(|b| u64::from(*b)).sum::<u64>();
    (
        Timestamp::from_nanos(100 + n, ClientId(9)),
        Value::from_u64(n),
    )
}

/// Replica `index` of shard 0's commit vote for `txid`, unsigned.
fn unsigned_commit_vote(txid: TxId, index: u32) -> SignedSt1Reply {
    SignedSt1Reply {
        body: St1ReplyBody {
            txid,
            replica: ReplicaId::new(ShardId(0), index),
            vote: Decision::Commit,
        },
        proof: None,
    }
}

/// Profiles reaching every arm of the execution cursor: remote reads, blind
/// writes, read-your-writes, read-modify-write over a fetched and over a
/// buffered value, saturation at zero.
fn cursor_profiles() -> Vec<TxProfile> {
    let k = |s: &str| Key::new(s);
    let rmw = |s: &str, delta| Op::RmwAdd { key: k(s), delta };
    vec![
        TxProfile::new(
            "mixed",
            vec![
                Op::Read(k("a")),
                Op::Write(k("b"), Value::from_u64(5)),
                rmw("b", 3),
                rmw("c", -7),
                Op::Read(k("b")),
            ],
        ),
        TxProfile::new("write-only", vec![Op::Write(k("d"), Value::from_u64(1))]),
        TxProfile::new(
            "saturating",
            vec![rmw("e", -1_000_000), rmw("e", 2), Op::Read(k("a"))],
        ),
    ]
}

/// Runs `client` by hand: `react` looks at each message it sends and says
/// what the cluster would answer. Returns when the client falls silent.
fn drive<M: Clone, C: Actor<M>>(
    client: &mut C,
    mut react: impl FnMut(&M, &mut VecDeque<(NodeId, M)>),
) {
    let me = NodeId::Client(ClientId(1));
    let mut inbox: VecDeque<(NodeId, M)> = VecDeque::new();
    let mut ctx = Context::new(me, SimTime::from_millis(1), SimTime::from_millis(1));
    client.on_start(&mut ctx);
    loop {
        for output in ctx.outputs() {
            if let Output::Send { msg, .. } = output {
                react(msg, &mut inbox);
            }
        }
        let Some((from, msg)) = inbox.pop_front() else {
            return;
        };
        ctx = Context::new(me, SimTime::from_millis(2), SimTime::from_millis(2));
        client.on_message(&mut ctx, from, msg);
    }
}

fn replica(index: u32) -> NodeId {
    NodeId::Replica(ReplicaId::new(ShardId(0), index))
}

/// The same scripted profiles and the same read answers through a Basil
/// client (signatures off) and a TAPIR-style client produce transactions with
/// identical read and write sets: execution is the session's, not the
/// protocol's.
#[test]
fn basil_and_tapir_clients_execute_a_script_identically() {
    let mut basil_txs: Vec<Arc<Transaction>> = Vec::new();
    let mut answered = HashSet::new();
    let mut basil = BasilClient::new(
        ClientId(1),
        BasilConfig::test_single_shard().without_proofs(),
        KeyRegistry::from_seed(1),
        Box::new(ScriptedGenerator::new(cursor_profiles())),
        FaultProfile::honest(),
        7,
    );
    drive(&mut basil, |msg: &BasilMsg, inbox| match msg {
        // The read goes to a quorum under one request id: answer it once,
        // with as many (unsigned, identical) replies as the client waits for.
        // The version comes with the transaction that wrote it and a
        // certificate of six unsigned commit votes for that transaction.
        BasilMsg::Read(req) if answered.insert(req.req_id) => {
            let (version, value) = read_answer(&req.key);
            let mut writer = TransactionBuilder::new(version);
            writer.record_write(req.key.clone(), value.clone());
            let writer = writer.build_shared();
            let txid = writer.id();
            let votes = (0..6).map(|i| unsigned_commit_vote(txid, i)).collect();
            let body = ReadReplyBody {
                req_id: req.req_id,
                key: req.key.clone(),
                committed: Some(CommittedRead {
                    version,
                    value,
                    txid,
                    cert: Some(Arc::new(DecisionCert {
                        txid,
                        proof: DecisionProof::FastCommit(vec![ShardVotes {
                            txid,
                            shard: ShardId(0),
                            decision: Decision::Commit,
                            votes,
                        }]),
                    })),
                    tx: Some(writer),
                }),
                prepared: None,
            };
            for i in 0..2 {
                let reply = ReadReply {
                    body: body.clone(),
                    proof: None,
                };
                inbox.push_back((replica(i), BasilMsg::ReadReply(reply)));
            }
        }
        BasilMsg::St1(st1) if basil_txs.iter().all(|tx| tx.id() != st1.tx.id()) => {
            basil_txs.push(Arc::clone(&st1.tx));
            for i in 0..6 {
                let vote = unsigned_commit_vote(st1.tx.id(), i);
                inbox.push_back((replica(i), BasilMsg::St1Reply(vote)));
            }
        }
        _ => {}
    });

    let mut tapir_txs: Vec<Arc<Transaction>> = Vec::new();
    let mut tapir = BaselineClient::new(
        ClientId(1),
        BaselineConfig::new(SystemKind::Tapir),
        Box::new(ScriptedGenerator::new(cursor_profiles())),
        7,
    );
    drive(&mut tapir, |msg: &BaselineMsg, inbox| match msg {
        BaselineMsg::Read { req_id, key } => {
            let (version, value) = read_answer(key);
            let reply = BaselineMsg::ReadReply {
                req_id: *req_id,
                key: key.clone(),
                version,
                value,
            };
            inbox.push_back((replica(0), reply));
        }
        BaselineMsg::Submit {
            request: ShardRequest::Prepare { tx },
        } if tapir_txs.iter().all(|seen| seen.id() != tx.id()) => {
            tapir_txs.push(Arc::clone(tx));
            for i in 0..3 {
                let vote = BaselineMsg::PrepareResult {
                    txid: tx.id(),
                    vote: Vote::Commit,
                };
                inbox.push_back((replica(i), vote));
            }
        }
        _ => {}
    });

    assert_eq!(basil.stats().committed, 3);
    assert_eq!(tapir.stats().committed, 3);
    assert_eq!(basil.stats().reads_issued, tapir.stats().reads_issued);
    assert_eq!(basil_txs.len(), 3);
    assert_eq!(tapir_txs.len(), 3);
    for (b, t) in basil_txs.iter().zip(&tapir_txs) {
        assert_eq!(b.read_set(), t.read_set());
        assert_eq!(b.write_set(), t.write_set());
        assert!(b.deps().is_empty() && t.deps().is_empty());
    }
    // Spot-check the arithmetic once, so "identical" is not "identically
    // wrong": b = 5 + 3 over the buffer, c = 99 - 7 over the fetched value,
    // e = 0 + 2 after saturating at zero.
    let written = |tx: &Transaction, key: &str| tx.written_value(&Key::new(key)).cloned();
    assert_eq!(written(&basil_txs[0], "b"), Some(Value::from_u64(8)));
    assert_eq!(written(&basil_txs[0], "c"), Some(Value::from_u64(92)));
    assert_eq!(written(&basil_txs[2], "e"), Some(Value::from_u64(2)));
    assert_eq!(
        basil_txs[0].read_set().len(),
        2,
        "a and c; b came from the buffer"
    );
}
