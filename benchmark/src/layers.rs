//! Per-layer metrics, measured from outside each layer: by timing its public
//! functions on inputs the workload itself produced, by the counters it
//! already exposes, and by `/proc`. A layer is a crate or module of the
//! repository and the metric carries its name.

use crate::metrics::Values;
use crate::probe::{Agg, Captured, ClientLog, Kind, Span, TraceCtl, CAPTURED_REPLICA, KINDS};
use crate::report::{EndToEnd, WorkloadRun};
use crate::stats;
use basil::workloads::YcsbGenerator;
use basil_common::{
    ClientId, Duration as SimDuration, Key, NodeId, Op, SimTime, Timestamp, TxGenerator, TxId,
};
use basil_core::{BasilMsg, BasilReplica, ReplicaBehavior};
use basil_crypto::hmac::hmac_sha256;
use basil_crypto::{BatchProof, KeyRegistry, MerkleFrontier, Sha256, SignatureCache};
use basil_net::conn::{ConnManager, ConnOptions};
use basil_net::node;
use basil_net::wire::{encode_msg, FrameReader};
use basil_simnet::actor::Output;
use basil_simnet::sim::NodeProps;
use basil_simnet::{Actor, Context, NetworkConfig, Simulation};
use basil_store::mvtso::{CheckOutcome, Vote};
use basil_store::wal::{Wal, WalRecord};
use basil_store::{MvtsoStore, Transaction, TransactionBuilder};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mean nanoseconds per call of `f`: batches are sized to a few
/// milliseconds, and the median batch is reported so one preemption does not
/// move the number.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 7;
    let mut n = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        if t.elapsed() >= Duration::from_millis(2) || n >= 1 << 22 {
            break;
        }
        n *= 4;
    }
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    stats::median(&per_call)
}

// ---------------------------------------------------------------------------
// crypto
// ---------------------------------------------------------------------------

fn crypto_probes(out: &mut Values) {
    let block = [0x5au8; 64];
    out.insert(
        "crypto.sha256_ns_64B",
        ns_per_call(|| {
            black_box(Sha256::digest(black_box(&block)));
        }),
    );
    let big = vec![0xa5u8; 64 * 1024];
    let ns = ns_per_call(|| {
        black_box(Sha256::digest(black_box(&big)));
    });
    out.insert("crypto.sha256_mb_s", big.len() as f64 / ns * 1e3);
    let key = [7u8; 32];
    out.insert(
        "crypto.hmac_ns",
        ns_per_call(|| {
            black_box(hmac_sha256(black_box(&key), black_box(&block)));
        }),
    );

    let registry = node::derive_registry(1, 2);
    let signer = NodeId::Replica(basil_common::ReplicaId::new(node::SHARD, 1));
    let keypair = registry.keypair(signer);
    let root = Sha256::digest(b"batch root");
    out.insert(
        "crypto.sign_ns",
        ns_per_call(|| {
            black_box(keypair.sign(black_box(root.as_bytes())));
        }),
    );

    // A reply-sized payload, two distinct proofs: a one-entry cache
    // alternating between them misses every time.
    let payload = [0x33u8; 96];
    let other = [0x34u8; 96];
    let proof_a = BatchProof::sign_single(&keypair, &payload);
    let proof_b = BatchProof::sign_single(&keypair, &other);
    let mut tiny = SignatureCache::with_capacity(1);
    let mut flip = false;
    out.insert(
        "crypto.verify_uncached_ns",
        ns_per_call(|| {
            flip = !flip;
            let ok = if flip {
                proof_a.verify(&payload, &registry, &mut tiny)
            } else {
                proof_b.verify(&other, &registry, &mut tiny)
            };
            assert!(black_box(ok).valid && ok.signature_checked);
        }),
    );
    let mut cache = SignatureCache::new();
    assert!(proof_a.verify(&payload, &registry, &mut cache).valid);
    out.insert(
        "crypto.verify_cached_ns",
        ns_per_call(|| {
            let ok = proof_a.verify(black_box(&payload), &registry, &mut cache);
            assert!(ok.valid && !ok.signature_checked);
        }),
    );

    // Sealing a batch of 16 replies as `SigEngine::sign_batch` does: fold
    // the leaves into the frontier, sign the root, cut one proof per reply.
    const BATCH: usize = 16;
    let mut frontier = MerkleFrontier::new();
    let per_batch = ns_per_call(|| {
        frontier.reset();
        for _ in 0..BATCH {
            frontier.append(black_box(&payload));
        }
        let sealed = frontier.seal();
        let root = sealed.root();
        black_box(keypair.sign(root.as_bytes()));
        for i in 0..BATCH {
            black_box(sealed.prove(i));
        }
    });
    out.insert("crypto.batch_seal_ns_per_reply", per_batch / BATCH as f64);
}

// ---------------------------------------------------------------------------
// store + wal
// ---------------------------------------------------------------------------

struct StoreProbe {
    prepare_commit_ns: f64,
    read_ns: f64,
    fast_check_fraction: f64,
    store: MvtsoStore,
    committed: Vec<Arc<Transaction>>,
    last_ts_ns: u64,
}

/// Drives an `MvtsoStore` with a generator's own transaction stream the way
/// a replica would see it: execution-phase reads, prepare, and the decision
/// a few transactions later, so prepared versions overlap (which is what
/// sends the contended workload down the slow path).
fn store_probe(mut generator: YcsbGenerator, transactions: usize) -> StoreProbe {
    const IN_FLIGHT: usize = 8;
    let delta = SimDuration::from_millis(50);
    let mut store = MvtsoStore::new();
    let mut in_flight: VecDeque<(Arc<Transaction>, Option<Vote>)> = VecDeque::new();
    let mut woken: HashMap<TxId, Vote> = HashMap::new();
    let mut committed = Vec::new();
    let (mut decide_ns, mut read_ns, mut reads) = (0u64, 0u64, 0u64);
    let mut ts_ns = 1_000_000u64;
    // Clients stamp transactions with their own clocks, so prepares reach a
    // replica out of timestamp order: jitter each stamp by up to the span of
    // the transactions in flight.
    let mut jitter = basil_common::SmallPrng::new(0x5eed);

    let decide = |store: &mut MvtsoStore,
                  woken: &mut HashMap<TxId, Vote>,
                  committed: &mut Vec<Arc<Transaction>>,
                  tx: Arc<Transaction>,
                  vote: Option<Vote>| {
        let vote = vote.or_else(|| woken.remove(&tx.id()));
        let votes = if vote.is_some_and(|v| v.is_commit()) {
            committed.push(Arc::clone(&tx));
            store.commit(&tx)
        } else {
            store.abort(tx.id())
        };
        woken.extend(votes);
    };

    for i in 0..transactions {
        let profile = generator.next_tx().expect("YCSB generators never run dry");
        ts_ns += 1_000;
        let stamp = ts_ns + jitter.next_below(2 * IN_FLIGHT as u64 * 1_000);
        let ts = Timestamp::from_nanos(stamp, ClientId(i as u64 % 96));
        let mut builder = TransactionBuilder::new(ts);
        for op in profile.ops {
            let mut read = |builder: &mut TransactionBuilder, key: &Key| {
                let t = Instant::now();
                let result = store.read(key, ts);
                read_ns += t.elapsed().as_nanos() as u64;
                reads += 1;
                let committed_version = result
                    .committed
                    .as_ref()
                    .map_or(Timestamp::ZERO, |c| c.version);
                match result.prepared {
                    Some(p) if p.version > committed_version => {
                        builder.record_dependent_read(key.clone(), p.version, p.txid);
                    }
                    _ => {
                        builder.record_read(key.clone(), committed_version);
                    }
                }
            };
            match op {
                Op::Read(key) => read(&mut builder, &key),
                Op::Write(key, value) => {
                    builder.record_write(key, value);
                }
                Op::RmwAdd { key, delta } => {
                    read(&mut builder, &key);
                    builder.record_write(key, basil_common::Value::from_u64(delta as u64));
                }
            }
        }
        let tx = builder.build_shared();
        let t = Instant::now();
        let vote = match store.prepare(&tx, SimTime::from_nanos(stamp), delta) {
            CheckOutcome::Decided(v) => Some(v),
            CheckOutcome::Pending { .. } => None,
        };
        in_flight.push_back((tx, vote));
        if in_flight.len() > IN_FLIGHT {
            let (tx, vote) = in_flight.pop_front().expect("non-empty");
            decide(&mut store, &mut woken, &mut committed, tx, vote);
        }
        decide_ns += t.elapsed().as_nanos() as u64;
    }
    while let Some((tx, vote)) = in_flight.pop_front() {
        decide(&mut store, &mut woken, &mut committed, tx, vote);
    }
    StoreProbe {
        prepare_commit_ns: decide_ns as f64 / transactions.max(1) as f64,
        read_ns: read_ns as f64 / reads.max(1) as f64,
        fast_check_fraction: store.stats().fast_path_hit_rate(),
        store,
        committed,
        last_ts_ns: ts_ns,
    }
}

fn store_and_wal_probes(seed: u64, out: &mut Values) {
    const TRANSACTIONS: usize = 20_000;
    let keys = crate::sim::YCSB_KEYS;
    let rwu = store_probe(YcsbGenerator::rw_uniform(seed, keys, 2, 2), TRANSACTIONS);
    let mut rwz = store_probe(YcsbGenerator::rw_zipf(seed, keys, 2, 2, 0.9), TRANSACTIONS);
    out.insert("store.prepare_commit_ns_rwu", rwu.prepare_commit_ns);
    out.insert("store.prepare_commit_ns_rwz", rwz.prepare_commit_ns);
    out.insert("store.read_ns", (rwu.read_ns + rwz.read_ns) / 2.0);
    out.insert("store.fast_check_fraction", rwz.fast_check_fraction);
    // One sweep over the contended store, trimming its older half.
    let watermark = Timestamp::from_nanos(rwz.last_ts_ns / 2, ClientId(0));
    let t = Instant::now();
    rwz.store.gc_before(watermark);
    out.insert("store.gc_sweep_ns", t.elapsed().as_nanos() as f64);

    // WAL: the records a replica appends per transaction, on real
    // transactions from the stream above.
    let txs = &rwu.committed[..rwu.committed.len().min(512)];
    let mut wal = Wal::new(SimDuration::ZERO);
    let mut next = 0usize;
    out.insert(
        "wal.append_ns",
        ns_per_call(|| {
            let tx = Arc::clone(&txs[next % txs.len()]);
            next += 1;
            wal.append(&WalRecord::Prepare { commit: true, tx });
            if wal.len_bytes() > 8 << 20 {
                black_box(wal.take_bytes());
            }
        }),
    );
    let mut log = Wal::new(SimDuration::ZERO);
    for i in 0..5_000 {
        let tx = Arc::clone(&txs[i % txs.len()]);
        log.append(&WalRecord::Prepare {
            commit: true,
            tx: Arc::clone(&tx),
        });
        log.append(&WalRecord::Applied {
            txid: tx.id(),
            commit: true,
            tx: Some(tx),
        });
    }
    let recover_ms: Vec<f64> = (0..3)
        .map(|_| {
            let image = log.bytes().to_vec();
            let t = Instant::now();
            let (_, records) = Wal::recover(image, SimDuration::ZERO);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(records.len(), 10_000);
            ms
        })
        .collect();
    out.insert("wal.recover_ms_per_10k", stats::median(&recover_ms));
}

// ---------------------------------------------------------------------------
// wire: over the messages captured at the client seam
// ---------------------------------------------------------------------------

struct WireProbe {
    encode_ns: f64,
    decode_ns: f64,
    mean_bytes_out: f64,
    mean_bytes_in: f64,
}

fn wire_probe(captured: &[&Captured]) -> WireProbe {
    if captured.is_empty() {
        return WireProbe {
            encode_ns: 0.0,
            decode_ns: 0.0,
            mean_bytes_out: 0.0,
            mean_bytes_in: 0.0,
        };
    }
    let sender = |c: &Captured| {
        if c.outbound {
            c.client
        } else {
            CAPTURED_REPLICA
        }
    };
    // Warm the code paths (and each transaction's memoized encoding, which
    // the real sender has warm too: it signed those bytes).
    for c in captured.iter().take(1_000) {
        black_box(encode_msg(sender(c), &c.msg).expect("captured messages are wire messages"));
    }
    let t = Instant::now();
    let frames: Vec<Vec<u8>> = captured
        .iter()
        .map(|c| encode_msg(sender(c), &c.msg).expect("captured messages are wire messages"))
        .collect();
    let encode_ns = t.elapsed().as_nanos() as f64 / frames.len() as f64;

    let mut reader = FrameReader::new();
    let t = Instant::now();
    for frame in &frames {
        reader.extend(frame);
        black_box(
            reader
                .next_msg()
                .expect("own frames decode")
                .expect("whole frame"),
        );
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / frames.len() as f64;

    let mean_len = |outbound: bool| {
        let lens: Vec<usize> = captured
            .iter()
            .zip(&frames)
            .filter(|(c, _)| c.outbound == outbound)
            .map(|(_, f)| f.len())
            .collect();
        lens.iter().sum::<usize>() as f64 / lens.len().max(1) as f64
    };
    WireProbe {
        encode_ns,
        decode_ns,
        mean_bytes_out: mean_len(true),
        mean_bytes_in: mean_len(false),
    }
}

// ---------------------------------------------------------------------------
// net: two bare connection managers, no protocol
// ---------------------------------------------------------------------------

fn net_probes(out: &mut Values) -> Result<(), String> {
    const ROUND_TRIPS: usize = 2_000;
    const FLOOD: u64 = 40_000;
    const IN_FLIGHT: u64 = 256;
    let base = crate::tcp::free_port_block(0xec40, 2)?;
    let (a_id, b_id) = (NodeId::Client(ClientId(0)), NodeId::Client(ClientId(1)));
    let book: HashMap<_, _> = node::address_book(base, 2)
        .into_iter()
        .filter(|(id, _)| *id == a_id || *id == b_id)
        .collect();
    let start = |id: NodeId| {
        ConnManager::start(book[&id], book.clone(), ConnOptions::default(), 7)
            .map_err(|e| format!("net probe: bind {}: {e}", book[&id]))
    };
    let (a, a_in) = start(a_id)?;
    let (b, b_in) = start(b_id)?;
    let msg = BasilMsg::RtsRelease {
        key: Key::new("probe"),
        ts: Timestamp::from_nanos(1, ClientId(0)),
    };
    let ping = encode_msg(a_id, &msg).expect("wire message");
    let pong = encode_msg(b_id, &msg).expect("wire message");

    // B echoes until told to count instead.
    let counting = Arc::new(AtomicBool::new(false));
    let received = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let echo = {
        let (b, counting, received, done) = (
            Arc::clone(&b),
            Arc::clone(&counting),
            Arc::clone(&received),
            Arc::clone(&done),
        );
        std::thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                if b_in.recv_timeout(Duration::from_millis(20)).is_ok() {
                    if counting.load(Ordering::SeqCst) {
                        received.fetch_add(1, Ordering::SeqCst);
                    } else {
                        b.send_frame(a_id, pong.clone());
                    }
                }
            }
        })
    };

    let mut result = Ok(());
    let mut rtts_us = Vec::with_capacity(ROUND_TRIPS);
    for i in 0..ROUND_TRIPS + 200 {
        let t = Instant::now();
        a.send_frame(b_id, ping.clone());
        if a_in.recv_timeout(Duration::from_secs(2)).is_err() {
            result = Err("net probe: echo timed out".to_string());
            break;
        }
        if i >= 200 {
            rtts_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    if result.is_ok() {
        counting.store(true, Ordering::SeqCst);
        let t = Instant::now();
        let mut sent = 0u64;
        while received.load(Ordering::SeqCst) < FLOOD {
            if sent < FLOOD && sent - received.load(Ordering::SeqCst) < IN_FLIGHT {
                a.send_frame(b_id, ping.clone());
                sent += 1;
            } else {
                std::thread::yield_now();
            }
            if t.elapsed() > Duration::from_secs(20) {
                result = Err("net probe: flood stalled".to_string());
                break;
            }
        }
        out.insert(
            "net.flood_frames_per_s",
            FLOOD as f64 / t.elapsed().as_secs_f64(),
        );
        rtts_us.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
        out.insert(
            "net.echo_rtt_p50_us",
            stats::percentile_sorted(&rtts_us, 0.5),
        );
    }
    done.store(true, Ordering::SeqCst);
    a.shutdown();
    b.shutdown();
    echo.join().map_err(|_| "net probe: echo thread panicked")?;
    result
}

// ---------------------------------------------------------------------------
// simnet: the scheduler alone
// ---------------------------------------------------------------------------

struct PingPong {
    peer: NodeId,
    serves: bool,
    left: u64,
}

impl Actor<u64> for PingPong {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        if self.serves {
            ctx.send(self.peer, 0);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<u64>, from: NodeId, msg: u64) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(from, msg + 1);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn simnet_probe(out: &mut Values) {
    const PAIRS: u64 = 16;
    const BOUNCES: u64 = 10_000;
    let mut sim: Simulation<u64> = Simulation::new(3, NetworkConfig::lan());
    for p in 0..PAIRS {
        let (a, b) = (
            NodeId::Client(ClientId(2 * p)),
            NodeId::Client(ClientId(2 * p + 1)),
        );
        for (id, peer, serves) in [(a, b, true), (b, a, false)] {
            sim.add_node(
                id,
                NodeProps::client(),
                Box::new(PingPong {
                    peer,
                    serves,
                    left: BOUNCES,
                }),
            );
        }
    }
    let t = Instant::now();
    sim.run_for(SimDuration::from_secs(60));
    let elapsed = t.elapsed().as_nanos() as f64;
    let events = sim.metrics().events_processed.max(1);
    out.insert("simnet.sched_ns_per_event", elapsed / events as f64);
}

// ---------------------------------------------------------------------------
// core: replica 0 replayed from the captured client traffic
// ---------------------------------------------------------------------------

/// Replica handler kinds of the replay.
const R_READ: usize = 0;
const R_ST1: usize = 1;
const R_ST2: usize = 2;
const R_WRITEBACK: usize = 3;
const R_OTHER: usize = 4;

struct Replay {
    handlers: [Agg; 5],
    commits: u64,
}

impl Replay {
    fn total_ns(&self) -> u64 {
        self.handlers.iter().map(|a| a.ns).sum()
    }
}

/// Feeds the captured client → replica-0 messages, in time order, into a
/// fresh `BasilReplica<MvtsoStore>`, honouring the timers it arms (reply
/// batches are sealed and signed from a timer) and looping self-sends back.
/// Everything else it sends is dropped.
fn replay_replica(run: &WorkloadRun, inbound: &[&Captured]) -> Replay {
    let id = NodeId::Replica(basil_common::ReplicaId::new(node::SHARD, 0));
    let registry: KeyRegistry = node::derive_registry(run.seed, run.deployment_clients);
    let mut replica: BasilReplica = BasilReplica::new(
        basil_common::ReplicaId::new(node::SHARD, 0),
        run.replay_config.clone(),
        registry,
        ReplicaBehavior::Correct,
        Vec::new(),
    );
    let mut replay = Replay {
        handlers: [Agg::default(); 5],
        commits: 0,
    };
    let mut timers: Vec<(u64, u64, BasilMsg)> = Vec::new();
    let mut seq = 0u64;

    // Runs one handler at `now`, files its outputs, returns its duration.
    let mut handle = |replica: &mut BasilReplica,
                      timers: &mut Vec<(u64, u64, BasilMsg)>,
                      now: u64,
                      from: Option<NodeId>,
                      msg: BasilMsg|
     -> u64 {
        let mut pending = VecDeque::from([(from, msg)]);
        let mut spent = 0u64;
        while let Some((from, msg)) = pending.pop_front() {
            let mut ctx = Context::new(id, SimTime::from_nanos(now), SimTime::from_nanos(now));
            let t = Instant::now();
            match from {
                Some(from) => replica.on_message(&mut ctx, from, msg),
                None => replica.on_timer(&mut ctx, msg),
            }
            spent += t.elapsed().as_nanos() as u64;
            for output in ctx.finish().0 {
                match output {
                    Output::Timer { delay, msg } => {
                        seq += 1;
                        timers.push((now + delay.as_nanos(), seq, msg));
                    }
                    Output::Send { to, msg } if to == id => pending.push_back((Some(id), msg)),
                    Output::Send { .. } => {}
                }
            }
        }
        spent
    };

    let mut ctx = Context::new(id, SimTime::ZERO, SimTime::ZERO);
    replica.on_start(&mut ctx);
    for captured in inbound {
        // Timers due before this message fire first, earliest first.
        loop {
            let due = timers
                .iter()
                .enumerate()
                .filter(|(_, t)| t.0 <= captured.at_ns)
                .min_by_key(|(_, t)| (t.0, t.1))
                .map(|(i, _)| i);
            let Some(i) = due else { break };
            let (at, _, msg) = timers.swap_remove(i);
            let ns = handle(&mut replica, &mut timers, at, None, msg);
            replay.handlers[R_OTHER].count += 1;
            replay.handlers[R_OTHER].ns += ns;
        }
        let kind = match &captured.msg {
            BasilMsg::Read(_) => R_READ,
            BasilMsg::St1(_) => R_ST1,
            BasilMsg::St2(_) => R_ST2,
            BasilMsg::Writeback(wb) => {
                replay.commits += u64::from(wb.cert.decision().is_commit());
                R_WRITEBACK
            }
            _ => R_OTHER,
        };
        let ns = handle(
            &mut replica,
            &mut timers,
            captured.at_ns,
            Some(captured.client),
            captured.msg.clone(),
        );
        replay.handlers[kind].count += 1;
        replay.handlers[kind].ns += ns;
        // The file hook of a real node drains the WAL buffer after every
        // handler; keep the replay's memory flat the same way.
        black_box(replica.take_wal_bytes());
    }
    replay
}

// ---------------------------------------------------------------------------
// assembly
// ---------------------------------------------------------------------------

/// One row of the budget table.
pub struct BudgetRow {
    /// Layer.
    pub layer: &'static str,
    /// Operations per commit.
    pub per_commit: f64,
    /// Cost of one operation, microseconds.
    pub cost_us: f64,
}

impl BudgetRow {
    fn us_per_commit(&self) -> f64 {
        self.per_commit * self.cost_us
    }
}

/// The traced view of a run.
pub struct Traced {
    /// Every per-layer metric by name.
    pub values: Values,
    /// The budget rows behind `budget.unattributed_fraction`.
    pub budget: Vec<BudgetRow>,
    /// CPU per commit in the traced slices, the budget's total.
    pub budget_total_us: f64,
}

fn sum_handlers(logs: &[ClientLog]) -> [Agg; KINDS] {
    let mut total = [Agg::default(); KINDS];
    for log in logs {
        for (t, a) in total.iter_mut().zip(&log.handlers) {
            t.count += a.count;
            t.ns += a.ns;
        }
    }
    total
}

/// Computes every per-layer metric of a traced run.
pub fn per_layer(run: &WorkloadRun, e2e: &EndToEnd) -> Result<Traced, String> {
    let mut v: Values = crate::metrics::PER_LAYER
        .iter()
        .map(|d| (d.name, 0.0))
        .collect();
    crypto_probes(&mut v);
    store_and_wal_probes(run.seed, &mut v);
    simnet_probe(&mut v);
    net_probes(&mut v)?;
    for (name, value) in &run.layer {
        if let Some(slot) = v.get_mut(name) {
            *slot = *value;
        }
    }

    // The workload's own generator.
    let mut generator: Box<dyn TxGenerator> = if run.workload.starts_with("tcp-") {
        crate::tcp::generator_for(&run.workload, run.seed, 0)
    } else {
        crate::sim::generator_for(&run.workload, run.seed, 0)
    };
    v.insert(
        "workloads.gen_ns_per_tx",
        ns_per_call(|| {
            black_box(generator.next_tx());
        }),
    );

    // Client side, in situ.
    let traced_commits: u64 = run.logs.iter().map(|l| l.traced_commits).sum();
    let per_commit = |x: f64| x / traced_commits.max(1) as f64;
    let handlers = sum_handlers(&run.logs);
    let client_ns: u64 = handlers.iter().map(|a| a.ns).sum();
    let client_calls: u64 = handlers.iter().map(|a| a.count).sum();
    v.insert(
        "core.client_cpu_us_per_commit",
        per_commit(client_ns as f64 / 1e3),
    );
    for (name, kind) in [
        ("core.client_on_read_reply_us", Kind::ReadReply),
        ("core.client_on_st1_reply_us", Kind::St1Reply),
        ("core.client_on_st2_reply_us", Kind::St2Reply),
        ("core.client_on_writeback_us", Kind::Writeback),
    ] {
        v.insert(name, handlers[kind as usize].mean_us());
    }
    for (i, name) in [
        "core.phase_execute_ms",
        "core.phase_prepare_ms",
        "core.phase_st2_ms",
        "core.phase_writeback_ms",
    ]
    .into_iter()
    .enumerate()
    {
        let samples: Vec<f64> = run.logs.iter().flat_map(|l| l.phases[i].clone()).collect();
        v.insert(name, stats::median(&samples));
    }
    let msgs_in: u64 = run.logs.iter().map(|l| l.msgs_in).sum();
    let msgs_out: u64 = run.logs.iter().map(|l| l.msgs_out).sum();

    // Captured traffic, in time order.
    let mut captured: Vec<&Captured> = run.logs.iter().flat_map(|l| &l.captured).collect();
    captured.sort_by_key(|c| c.at_ns);
    let wire = wire_probe(&captured);
    v.insert("wire.encode_ns_per_msg", wire.encode_ns);
    v.insert("wire.decode_ns_per_msg", wire.decode_ns);
    v.insert(
        "wire.msgs_per_commit",
        per_commit((msgs_in + msgs_out) as f64),
    );
    v.insert(
        "wire.bytes_per_commit",
        per_commit(msgs_in as f64 * wire.mean_bytes_in + msgs_out as f64 * wire.mean_bytes_out),
    );

    // Replica 0, replayed.
    let inbound: Vec<&Captured> = captured.iter().copied().filter(|c| c.outbound).collect();
    let replay = replay_replica(run, &inbound);
    let replica_us_per_commit = replay.total_ns() as f64 / 1e3 / replay.commits.max(1) as f64;
    v.insert("core.replica_cpu_us_per_commit", replica_us_per_commit);
    for (name, kind) in [
        ("core.replica_on_read_us", R_READ),
        ("core.replica_on_st1_us", R_ST1),
        ("core.replica_on_st2_us", R_ST2),
        ("core.replica_on_writeback_us", R_WRITEBACK),
    ] {
        v.insert(name, replay.handlers[kind].mean_us());
    }

    // proc: where the CPU went.
    let total_cpu: u64 = run.slice_cpu.iter().map(|s| s.total_ns()).sum();
    let share = |ns: u64| ns as f64 / total_cpu.max(1) as f64;
    let tcp = run.workload.starts_with("tcp-");
    if tcp {
        v.insert(
            "proc.replica_cpu_share",
            share(run.slice_cpu.iter().map(|s| s.replicas_ns).sum()),
        );
        v.insert(
            "proc.client_cpu_share",
            share(run.slice_cpu.iter().map(|s| s.bench_ns).sum()),
        );
    }
    let sys_fraction = share(run.slice_cpu.iter().map(|s| s.sys_ns).sum());
    v.insert("proc.sys_cpu_fraction", sys_fraction);
    v.insert(
        "proc.ctx_switches_per_commit",
        run.layer.get("proc.ctx_switches").copied().unwrap_or(0.0) / e2e.commits.max(1) as f64,
    );

    // Guards.
    let mut late_ms: Vec<f64> = run
        .logs
        .iter()
        .flat_map(|l| &l.late_ns)
        .filter(|(at, _)| *at >= run.window_start_ns && *at < run.window_end_ns())
        .map(|(_, late)| *late as f64 / 1e6)
        .collect();
    late_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v.insert(
        "loadgen.late_p99_ms",
        stats::percentile_sorted(&late_ms, 0.99),
    );
    let traced_us = run.cpu_us_per_commit(TraceCtl::traced_slice);
    let untraced_us = run.cpu_us_per_commit(|i| !TraceCtl::traced_slice(i));
    v.insert(
        "trace.overhead_fraction",
        if untraced_us > 0.0 {
            traced_us / untraced_us - 1.0
        } else {
            0.0
        },
    );
    for name in crate::metrics::DEMOTED {
        v.insert(name, e2e.values[name]);
    }

    // Budget: layer cost x count per commit against the measured total.
    let replicas = f64::from(run.replay_config.system.shard.n());
    let mut budget = vec![
        BudgetRow {
            layer: "core (client handlers, in situ)",
            per_commit: per_commit(client_calls as f64),
            cost_us: client_ns as f64 / 1e3 / client_calls.max(1) as f64,
        },
        BudgetRow {
            layer: "core+crypto+store+wal (replica handlers, replay x n)",
            per_commit: replicas,
            cost_us: replica_us_per_commit,
        },
    ];
    if tcp {
        // Every message is encoded once by its sender and decoded once by
        // its receiver, whichever side of the client seam they sit on.
        budget.push(BudgetRow {
            layer: "wire (encode + decode)",
            per_commit: per_commit((msgs_in + msgs_out) as f64),
            cost_us: (wire.encode_ns + wire.decode_ns) / 1e3,
        });
        budget.push(BudgetRow {
            layer: "kernel (sockets, WAL file, wake-ups: sys time)",
            per_commit: 1.0,
            cost_us: traced_us * sys_fraction,
        });
    } else {
        budget.push(BudgetRow {
            layer: "simnet (scheduler)",
            per_commit: v["simnet.events_per_commit"],
            cost_us: v["simnet.sched_ns_per_event"] / 1e3,
        });
    }
    let explained: f64 = budget.iter().map(BudgetRow::us_per_commit).sum();
    v.insert(
        "budget.unattributed_fraction",
        if traced_us > 0.0 {
            1.0 - explained / traced_us
        } else {
            0.0
        },
    );
    Ok(Traced {
        values: v,
        budget,
        budget_total_us: traced_us,
    })
}

/// Prints the per-workload budget table.
pub fn print_budget(workload: &str, traced: &Traced) {
    println!("\n== {workload}: CPU budget per commit (traced slices) ==");
    println!(
        "  {:<54} {:>10} {:>10} {:>10} {:>7}",
        "layer", "per commit", "cost us", "us/commit", "share"
    );
    for row in &traced.budget {
        println!(
            "  {:<54} {:>10.2} {:>10.3} {:>10.1} {:>6.1}%",
            row.layer,
            row.per_commit,
            row.cost_us,
            row.us_per_commit(),
            100.0 * row.us_per_commit() / traced.budget_total_us.max(1e-9)
        );
    }
    let explained: f64 = traced.budget.iter().map(BudgetRow::us_per_commit).sum();
    println!(
        "  {:<54} {:>10} {:>10} {:>10.1} {:>6.1}%",
        "residual (unattributed)",
        "",
        "",
        traced.budget_total_us - explained,
        100.0 * (1.0 - explained / traced.budget_total_us.max(1e-9))
    );
    println!(
        "  {:<54} {:>10} {:>10} {:>10.1}",
        "total (cpu_us_per_commit, traced slices)", "", "", traced.budget_total_us
    );
}

/// Writes the spans of a traced run, one JSON object per line.
pub fn write_trace(run: &WorkloadRun) -> std::io::Result<std::path::PathBuf> {
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.jsonl", run.workload));
    let mut spans: Vec<&Span> = run.logs.iter().flat_map(|l| &l.spans).collect();
    spans.sort_by_key(|s| (s.start_ns, s.client, s.id));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            file,
            "{{\"name\":\"{}\",\"client\":{},\"id\":{},\"parent\":{},\"tx\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.client, s.id, parent, s.tx, s.start_ns, s.end_ns
        )?;
    }
    file.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_probe_sends_contended_traffic_down_the_slow_path() {
        let rwu = store_probe(YcsbGenerator::rw_uniform(1, 1_000_000, 2, 2), 2_000);
        let rwz = store_probe(YcsbGenerator::rw_zipf(1, 1_000_000, 2, 2, 0.9), 2_000);
        assert!(rwu.prepare_commit_ns > 0.0 && rwu.read_ns > 0.0);
        assert!(!rwu.committed.is_empty());
        assert!(
            rwz.fast_check_fraction <= rwu.fast_check_fraction,
            "zipf {} vs uniform {}",
            rwz.fast_check_fraction,
            rwu.fast_check_fraction
        );
    }

    #[test]
    fn wire_probe_round_trips_captured_messages() {
        let msg = BasilMsg::RtsRelease {
            key: Key::new("k"),
            ts: Timestamp::from_nanos(5, ClientId(1)),
        };
        let captured: Vec<Captured> = (0..10)
            .map(|i| Captured {
                at_ns: i,
                outbound: i % 2 == 0,
                client: NodeId::Client(ClientId(1)),
                msg: msg.clone(),
            })
            .collect();
        let refs: Vec<&Captured> = captured.iter().collect();
        let w = wire_probe(&refs);
        assert!(w.encode_ns > 0.0 && w.decode_ns > 0.0);
        assert!(w.mean_bytes_out > 8.0);
        assert_eq!(w.mean_bytes_out, w.mean_bytes_in);
        assert_eq!(wire_probe(&[]).encode_ns, 0.0);
    }

    #[test]
    fn scheduler_probe_reports_a_cost() {
        let mut v = Values::new();
        simnet_probe(&mut v);
        assert!(v["simnet.sched_ns_per_event"] > 0.0);
    }
}
