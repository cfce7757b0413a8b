//! The Basil client.
//!
//! Clients drive their own transactions (Figure 1): they execute reads
//! against read quorums while buffering writes locally, run the two-stage
//! prepare phase (ST1 vote aggregation, and ST2 decision logging when some
//! shard took the slow path), notify the application as soon as the decision
//! is durable, and asynchronously write back the decision certificate. When
//! a transaction stalls on a dependency left behind by another (possibly
//! Byzantine) client, the client runs the per-transaction fallback of
//! Section 5 to finish that dependency itself.
//!
//! The client is a closed-loop driver: it asks its [`TxGenerator`] for the
//! next transaction as soon as the previous one finishes, and retries aborted
//! transactions with exponential backoff (the paper's evaluation
//! methodology). Byzantine client strategies (§6.4) are implemented here as
//! deviations at well-defined points of the normal flow.

use crate::byzantine::{ClientStrategy, FaultProfile};
use crate::certs::{
    validate_decision_cert, AbortCert, CommitCert, DecisionCert, ShardVotes, VoteCert,
};
use crate::config::BasilConfig;
use crate::crypto_engine::SigEngine;
use crate::messages::{
    BasilMsg, ClientTimer, InvokeFb, ProtoDecision, ProtoVote, ReadReply, ReadRequest,
    SignedSt1Reply, SignedSt2Reply, St1, St2, Writeback,
};
use crate::quorum::{
    combine_outcomes, PrepareOutcome, ShardOutcome, ShardTally, St2Outcome, St2Tally,
};
use basil_common::prng::SmallPrng;
use basil_common::FastHashMap;
use basil_common::{
    ClientId, Duration, Key, LatencyHistogram, NodeId, Op, ReplicaId, ShardId, SimTime, Timestamp,
    TxGenerator, TxId, TxProfile, Value,
};
use basil_simnet::{Actor, Context};
use basil_store::{Transaction, TransactionBuilder};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Statistics collected by one client, aggregated by the harness.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// Transactions that committed (correct transactions only).
    pub committed: u64,
    /// Attempts that ended in an abort and were retried.
    pub aborted_attempts: u64,
    /// Transactions issued under a Byzantine strategy.
    pub faulty_issued: u64,
    /// Transactions decided on the single-round-trip fast path.
    pub fast_path_decisions: u64,
    /// Transactions that needed the ST2 logging stage.
    pub slow_path_decisions: u64,
    /// Dependency recoveries started.
    pub fallback_invocations: u64,
    /// Fallback leader elections requested (divergent case).
    pub fallback_elections: u64,
    /// Successful equivocations performed (Byzantine clients only).
    pub equivocations: u64,
    /// Streaming histogram of commit latencies (first attempt start to
    /// durable decision) in nanoseconds. Updated in O(1) per commit; the
    /// harness merges and diffs these instead of cloning sample vectors.
    pub latency: LatencyHistogram,
    /// Committed transactions per workload label.
    pub per_label: HashMap<&'static str, u64>,
    /// Remote read operations issued.
    pub reads_issued: u64,
    /// Reads that adopted a prepared (uncommitted) version, acquiring a
    /// dependency.
    pub dependent_reads: u64,
    /// Writeback-forwarded certificates accepted straight from the
    /// validated-cert cache (no re-verification; ~19 µs of signature
    /// checking saved per hit with a cold signature cache).
    pub cert_cache_hits: u64,
    /// Writeback-forwarded certificates that had to be verified because the
    /// cache had no matching entry.
    pub cert_cache_misses: u64,
    /// Transactions the workload offered. Under closed-loop driving this
    /// equals the number of transactions started; under open-loop (Poisson)
    /// driving it counts every arrival, including shed ones.
    pub offered: u64,
    /// Open-loop arrivals dropped because the admission queue was already at
    /// `BasilConfig::admission_bound` (load shedding past saturation).
    pub shed: u64,
}

impl ClientStats {
    /// Mean commit latency in milliseconds (exact: the histogram carries
    /// the exact sum of samples).
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency.mean_ms()
    }

    /// Commit rate: committed / (committed + aborted attempts).
    pub fn commit_rate(&self) -> f64 {
        let total = self.committed + self.aborted_attempts;
        if total == 0 {
            return 1.0;
        }
        self.committed as f64 / total as f64
    }
}

/// A read in flight during the execution phase.
#[derive(Debug)]
struct PendingRead {
    req_id: u64,
    key: Key,
    /// Delta to apply if this read is part of a read-modify-write op.
    rmw_delta: Option<i64>,
    /// Replies gathered so far, deduplicated by replica, in arrival order
    /// (a small `Vec` — the read quorum waits for `f + 1` ≈ 2 replies, so
    /// a hash map per read was pure allocation overhead).
    replies: Vec<(ReplicaId, ReadReply)>,
    wait_for: u32,
}

/// Execution-phase state.
#[derive(Debug)]
struct Executing {
    builder: TransactionBuilder,
    ops: Vec<Op>,
    op_index: usize,
    pending_read: Option<PendingRead>,
}

/// Prepare-phase (ST1) state.
#[derive(Debug)]
struct Preparing {
    tx: Arc<Transaction>,
    txid: TxId,
    involved: Vec<ShardId>,
    tallies: FastHashMap<ShardId, ShardTally>,
    outcomes: FastHashMap<ShardId, ShardOutcome>,
}

/// Decision-logging (ST2) state.
#[derive(Debug)]
struct Logging {
    tx: Arc<Transaction>,
    txid: TxId,
    decision: ProtoDecision,
    shard_votes: Vec<ShardVotes>,
    slog: ShardId,
    involved: Vec<ShardId>,
    tally: St2Tally,
}

/// Phase of the client's own current transaction.
#[derive(Debug)]
enum Phase {
    Executing(Executing),
    Preparing(Preparing),
    Logging(Logging),
    /// Waiting out the retry backoff after an abort.
    WaitingRetry,
}

/// The client's own in-flight transaction.
#[derive(Debug)]
struct InFlight {
    profile: TxProfile,
    first_started: SimTime,
    attempt: u32,
    faulty: bool,
    phase: Phase,
}

/// Recovery state for a stalled dependency the client is trying to finish.
#[derive(Debug)]
struct Recovery {
    tx: Arc<Transaction>,
    involved: Vec<ShardId>,
    slog: ShardId,
    tallies: FastHashMap<ShardId, ShardTally>,
    outcomes: FastHashMap<ShardId, ShardOutcome>,
    st2_tally: St2Tally,
    /// Whether we have already escalated to a leader election.
    invoked_election: bool,
    resolved: bool,
}

/// A bounded FIFO cache of decision certificates this client has already
/// verified, keyed by transaction id.
///
/// Certificates reach a client twice in the common recovery flows: once
/// attached to a committed read (verified in `conclude_read`) and again when
/// a `Writeback` forwards the decision (previously re-verified from scratch,
/// ~19 µs cold per certificate). A hit requires the *same shared allocation*
/// (`Arc::ptr_eq`), which cannot be spoofed: a Byzantine node replaying the
/// transaction id with different certificate bytes arrives as a different
/// allocation and takes the full verification path. Bounded via the shared
/// `basil_common::BoundedFifoMap` (the same primitive behind
/// `basil_crypto::SignatureCache`).
#[derive(Debug)]
struct ValidatedCertCache {
    certs: basil_common::BoundedFifoMap<TxId, Arc<DecisionCert>>,
}

impl ValidatedCertCache {
    const DEFAULT_CAPACITY: usize = 4096;

    fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    fn with_capacity(capacity: usize) -> Self {
        ValidatedCertCache {
            certs: basil_common::BoundedFifoMap::with_capacity(capacity),
        }
    }

    /// Records a certificate that passed full verification.
    fn insert(&mut self, txid: TxId, cert: Arc<DecisionCert>) {
        self.certs.insert(txid, cert);
    }

    /// Whether `cert` is the exact (same-allocation) certificate previously
    /// verified for `txid`.
    fn contains(&self, txid: &TxId, cert: &Arc<DecisionCert>) -> bool {
        self.certs
            .get(txid)
            .map(|known| Arc::ptr_eq(known, cert))
            .unwrap_or(false)
    }
}

/// Which per-transaction retry timer a backoff attempt counter belongs to.
/// Counted separately so, e.g., prepare retries do not inflate the first
/// ST2 retry of the same transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum RetryKind {
    Prepare,
    St2,
    Fallback,
}

/// The Basil client actor.
pub struct BasilClient {
    id: ClientId,
    cfg: BasilConfig,
    engine: SigEngine,
    generator: Box<dyn TxGenerator>,
    fault: FaultProfile,
    prng: SmallPrng,
    next_req_id: u64,
    last_ts: u64,
    current: Option<InFlight>,
    recoveries: FastHashMap<TxId, Recovery>,
    /// Dependency transactions learned from prepared reads, shared with the
    /// read replies that delivered them, kept so the client can finish them
    /// if they stall.
    dep_txs: FastHashMap<TxId, Arc<Transaction>>,
    /// Certificates already verified by this client (read path), consulted
    /// before re-verifying a `Writeback`-forwarded certificate.
    validated_certs: ValidatedCertCache,
    backoff: Duration,
    /// Dedicated PRNG for retry-timer jitter, seeded independently of
    /// `prng` so that timers backing off on lossy schedules never perturb
    /// the fault-free random stream (replica sampling, abort backoff) that
    /// golden tests pin byte-for-byte.
    retry_prng: SmallPrng,
    /// Consecutive re-arms per (timer kind, transaction), driving the
    /// exponential backoff; cleared when the retried condition resolves.
    retry_attempts: FastHashMap<(RetryKind, TxId), u32>,
    stats: ClientStats,
    stopped: bool,
    /// Whether the generator paces arrivals (open loop). Decided once at
    /// startup from the first `next_arrival_delay` answer.
    open_loop: bool,
    /// Arrival timestamps of admitted-but-not-yet-started transactions
    /// (open loop only), bounded by `cfg.admission_bound`. Latency is
    /// measured from the arrival, so queueing delay shows up in the knee.
    arrivals: std::collections::VecDeque<SimTime>,
}

impl BasilClient {
    /// Creates a client driven by `generator`.
    pub fn new(
        id: ClientId,
        cfg: BasilConfig,
        registry: basil_crypto::KeyRegistry,
        generator: Box<dyn TxGenerator>,
        fault: FaultProfile,
        seed: u64,
    ) -> Self {
        let engine = SigEngine::new(NodeId::Client(id), registry, &cfg);
        let backoff = cfg.retry_backoff;
        BasilClient {
            id,
            cfg,
            engine,
            generator,
            fault,
            prng: SmallPrng::new(seed ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            next_req_id: 0,
            last_ts: 0,
            current: None,
            recoveries: FastHashMap::default(),
            dep_txs: FastHashMap::default(),
            validated_certs: ValidatedCertCache::new(),
            backoff,
            retry_prng: SmallPrng::new(seed ^ id.0.wrapping_mul(0xD1B5_4A32_D192_ED03)),
            retry_attempts: FastHashMap::default(),
            stats: ClientStats::default(),
            stopped: false,
            open_loop: false,
            arrivals: std::collections::VecDeque::new(),
        }
    }

    /// The client's identity.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Whether the client has exhausted its generator.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn replicas_of(&self, shard: ShardId) -> Vec<NodeId> {
        (0..self.cfg.system.shard.n())
            .map(|i| NodeId::Replica(ReplicaId::new(shard, i)))
            .collect()
    }

    fn all_replicas_of(&self, shards: &[ShardId]) -> Vec<NodeId> {
        shards.iter().flat_map(|s| self.replicas_of(*s)).collect()
    }

    fn fresh_timestamp(&mut self, ctx: &Context<BasilMsg>) -> Timestamp {
        let mut t = ctx.local_clock().as_nanos();
        if t <= self.last_ts {
            t = self.last_ts + 1;
        }
        self.last_ts = t;
        Timestamp::from_nanos(t, self.id)
    }

    fn logging_shard(txid: TxId, involved: &[ShardId]) -> ShardId {
        involved[(txid.as_u64() % involved.len() as u64) as usize]
    }

    fn verify_replica_reply<P: crate::crypto_engine::SignedPayload + ?Sized>(
        &mut self,
        ctx: &mut Context<BasilMsg>,
        bytes: &P,
        proof: Option<&basil_crypto::BatchProof>,
        claimed: ReplicaId,
    ) -> bool {
        if !self.engine.enabled() {
            return true;
        }
        let signer_ok = proof
            .map(|p| p.signer() == NodeId::Replica(claimed))
            .unwrap_or(false);
        let (ok, cost) = self.engine.verify(bytes, proof);
        ctx.charge(cost);
        ok && signer_ok
    }

    fn send_signed(&mut self, ctx: &mut Context<BasilMsg>, to: NodeId, msg: BasilMsg) {
        ctx.charge(self.engine.message_cost());
        ctx.send(to, msg);
    }

    // ------------------------------------------------------------------
    // Transaction driving (closed- and open-loop)
    // ------------------------------------------------------------------

    /// Starts the next transaction after the previous one finished. Closed
    /// loop: pull straight from the generator (latency clock starts now).
    /// Open loop: pull the oldest queued arrival, or go idle until the next
    /// arrival timer fires.
    fn start_next_transaction(&mut self, ctx: &mut Context<BasilMsg>) {
        if self.open_loop {
            match self.arrivals.pop_front() {
                Some(arrived) => self.start_transaction(ctx, arrived),
                None => self.current = None,
            }
        } else {
            let now = ctx.now();
            self.start_transaction(ctx, now);
        }
    }

    /// Pulls the next profile from the generator and begins executing it.
    /// `arrived` anchors the latency measurement: for closed-loop clients it
    /// is the current time, for open-loop clients the (possibly earlier)
    /// Poisson arrival instant, so queueing delay counts toward latency.
    fn start_transaction(&mut self, ctx: &mut Context<BasilMsg>, arrived: SimTime) {
        if self.stopped {
            return;
        }
        let Some(profile) = self.generator.next_tx() else {
            self.stopped = true;
            self.current = None;
            return;
        };
        if !self.open_loop {
            self.stats.offered += 1;
        }
        let faulty = profile.faulty || self.fault.sample_faulty(&mut self.prng);
        if faulty {
            self.stats.faulty_issued += 1;
        }
        self.current = Some(InFlight {
            profile,
            first_started: arrived,
            attempt: 0,
            faulty,
            phase: Phase::WaitingRetry, // replaced immediately by begin_attempt
        });
        self.backoff = self.cfg.retry_backoff;
        self.begin_attempt(ctx);
    }

    /// An open-loop arrival timer fired: admit the transaction (start it if
    /// the client is idle, queue it if there is room) or shed it.
    fn handle_open_loop_arrival(&mut self, ctx: &mut Context<BasilMsg>) {
        if self.stopped {
            return;
        }
        // Keep the arrival process ticking independently of completions —
        // that independence is what makes the load open-loop.
        if let Some(delay) = self.generator.next_arrival_delay() {
            ctx.schedule_self(delay, BasilMsg::ClientTimer(ClientTimer::OpenLoopArrival));
        }
        self.stats.offered += 1;
        let now = ctx.now();
        if self.current.is_none() {
            self.start_transaction(ctx, now);
        } else if self.arrivals.len() < self.cfg.admission_bound {
            self.arrivals.push_back(now);
        } else {
            self.stats.shed += 1;
        }
    }

    fn begin_attempt(&mut self, ctx: &mut Context<BasilMsg>) {
        let ts = self.fresh_timestamp(ctx);
        let Some(current) = self.current.as_mut() else {
            return;
        };
        current.attempt += 1;
        let ops = current.profile.ops.clone();
        current.phase = Phase::Executing(Executing {
            builder: TransactionBuilder::new(ts),
            ops,
            op_index: 0,
            pending_read: None,
        });
        self.advance_execution(ctx);
    }

    // ------------------------------------------------------------------
    // Execution phase
    // ------------------------------------------------------------------

    fn advance_execution(&mut self, ctx: &mut Context<BasilMsg>) {
        loop {
            let Some(current) = self.current.as_mut() else {
                return;
            };
            let Phase::Executing(exec) = &mut current.phase else {
                return;
            };
            if exec.pending_read.is_some() {
                return; // waiting on a read
            }
            if exec.op_index >= exec.ops.len() {
                self.send_st1(ctx);
                return;
            }
            let op = exec.ops[exec.op_index].clone();
            match op {
                Op::Write(key, value) => {
                    exec.builder.record_write(key, value);
                    exec.op_index += 1;
                }
                Op::Read(key) | Op::RmwAdd { key, .. } => {
                    let rmw_delta = match exec.ops[exec.op_index] {
                        Op::RmwAdd { delta, .. } => Some(delta),
                        _ => None,
                    };
                    // Read-your-writes: a buffered write satisfies the read
                    // locally.
                    if let Some(buffered) = exec.builder.buffered_value(&key).cloned() {
                        if let Some(delta) = rmw_delta {
                            let new = apply_delta(&buffered, delta);
                            exec.builder.record_write(key, new);
                        }
                        exec.op_index += 1;
                        continue;
                    }
                    self.issue_read(ctx, key, rmw_delta);
                    return;
                }
            }
        }
    }

    fn issue_read(&mut self, ctx: &mut Context<BasilMsg>, key: Key, rmw_delta: Option<i64>) {
        self.next_req_id += 1;
        let req_id = self.next_req_id;
        let shard = self.cfg.system.shard_for_key(&key);
        let fanout = self.cfg.system.read_quorum.fanout(&self.cfg.system.shard);
        let wait_for = self.cfg.system.read_quorum.wait_for(&self.cfg.system.shard);
        let n = self.cfg.system.shard.n();
        let start = self.prng.next_below(n as u64) as u32;

        let ts = {
            let Some(current) = self.current.as_mut() else {
                return;
            };
            let Phase::Executing(exec) = &mut current.phase else {
                return;
            };
            exec.pending_read = Some(PendingRead {
                req_id,
                key: key.clone(),
                rmw_delta,
                replies: Vec::new(),
                wait_for,
            });
            exec.builder.timestamp()
        };

        self.stats.reads_issued += 1;
        let req = ReadRequest {
            req_id,
            key,
            ts,
            auth: None,
        };
        let (auth, cost) = self.engine.sign_request(&req);
        ctx.charge(cost);
        let req = ReadRequest { auth, ..req };
        for i in 0..fanout {
            let replica = NodeId::Replica(ReplicaId::new(shard, (start + i) % n));
            self.send_signed(ctx, replica, BasilMsg::Read(req.clone()));
        }
        ctx.schedule_self(
            self.cfg.read_timeout,
            BasilMsg::ClientTimer(ClientTimer::ReadTimeout { req_id }),
        );
    }

    fn handle_read_reply(&mut self, ctx: &mut Context<BasilMsg>, reply: ReadReply) {
        let claimed = reply.body.committed.as_ref().map(|_| ()).map(|_| ());
        let _ = claimed;
        // Identify the replying replica from the signature (or trust the
        // sender when signatures are off — the simulator delivers `from`
        // faithfully, but we only have the proof here).
        let Some(current) = self.current.as_mut() else {
            return;
        };
        let Phase::Executing(exec) = &mut current.phase else {
            return;
        };
        let Some(pending) = exec.pending_read.as_mut() else {
            return;
        };
        if pending.req_id != reply.body.req_id {
            return;
        }
        let replica = match reply.proof.as_ref().map(|p| p.signer()) {
            Some(NodeId::Replica(r)) => r,
            // Signatures disabled: fall back to a synthetic index based on
            // how many replies we have (each replica answers once).
            _ => ReplicaId::new(
                self.cfg.system.shard_for_key(&pending.key),
                pending.replies.len() as u32,
            ),
        };
        // Verify the reply signature before accepting it.
        if self.engine.enabled() {
            let (ok, cost) = self.engine.verify(&reply.body, reply.proof.as_ref());
            ctx.charge(cost);
            if !ok {
                return;
            }
        }
        let Some(current) = self.current.as_mut() else {
            return;
        };
        let Phase::Executing(exec) = &mut current.phase else {
            return;
        };
        let Some(pending) = exec.pending_read.as_mut() else {
            return;
        };
        match pending.replies.iter_mut().find(|(r, _)| *r == replica) {
            Some((_, existing)) => *existing = reply,
            None => pending.replies.push((replica, reply)),
        }
        if (pending.replies.len() as u32) < pending.wait_for {
            return;
        }
        self.conclude_read(ctx);
    }

    fn conclude_read(&mut self, ctx: &mut Context<BasilMsg>) {
        // Collect what we need, then release the borrow before verification
        // of certificates (which needs &mut self.engine).
        let (key, rmw_delta, replies) = {
            let Some(current) = self.current.as_mut() else {
                return;
            };
            let Phase::Executing(exec) = &mut current.phase else {
                return;
            };
            let Some(pending) = exec.pending_read.take() else {
                return;
            };
            (pending.key, pending.rmw_delta, pending.replies)
        };

        // Committed candidate: the highest committed version backed by a
        // valid certificate (or the genesis version).
        let mut best_committed: Option<(Timestamp, Value)> = None;
        for (_, reply) in &replies {
            let Some(c) = &reply.body.committed else {
                continue;
            };
            let acceptable = if c.version == Timestamp::ZERO {
                true
            } else if let Some(cert) = &c.cert {
                if self.engine.enabled() {
                    let v = validate_decision_cert(cert, &self.cfg.system.shard, &mut self.engine);
                    ctx.charge(v.cost);
                    let ok = v.valid && cert.txid() == c.txid && cert.decision().is_commit();
                    if ok {
                        // Remember the verified certificate: a Writeback
                        // forwarding the same allocation later skips the
                        // re-verification (see ValidatedCertCache).
                        self.validated_certs.insert(c.txid, Arc::clone(cert));
                    }
                    ok
                } else {
                    true
                }
            } else {
                false
            };
            if !acceptable {
                continue;
            }
            if best_committed
                .as_ref()
                .map(|(v, _)| c.version > *v)
                .unwrap_or(true)
            {
                best_committed = Some((c.version, c.value.clone()));
            }
        }

        // Prepared candidate: a version vouched for by at least f+1 replicas.
        let mut prepared_counts: Vec<(TxId, u32, Arc<Transaction>)> = Vec::new();
        for (_, reply) in &replies {
            if let Some(p) = &reply.body.prepared {
                let txid = p.tx.id();
                match prepared_counts.iter_mut().find(|(t, ..)| *t == txid) {
                    Some((_, count, _)) => *count += 1,
                    None => prepared_counts.push((txid, 1, Arc::clone(&p.tx))),
                }
            }
        }
        let vouch = self.cfg.system.shard.prepared_vouch_quorum();
        let mut best_prepared: Option<(Timestamp, Value, TxId, Arc<Transaction>)> = None;
        for (txid, count, tx) in prepared_counts {
            if count < vouch {
                continue;
            }
            let Some(value) = tx.written_value(&key).cloned() else {
                continue;
            };
            if best_prepared
                .as_ref()
                .map(|(v, ..)| tx.timestamp() > *v)
                .unwrap_or(true)
            {
                best_prepared = Some((tx.timestamp(), value, txid, tx));
            }
        }

        // Choose the highest valid version overall.
        let use_prepared = match (&best_committed, &best_prepared) {
            (Some((cv, _)), Some((pv, ..))) => pv > cv,
            (None, Some(_)) => true,
            _ => false,
        };

        let (version, value) = if use_prepared {
            let (version, value, dep_txid, dep_tx) = best_prepared.expect("checked above");
            self.dep_txs.insert(dep_txid, dep_tx);
            self.stats.dependent_reads += 1;
            let Some(current) = self.current.as_mut() else {
                return;
            };
            let Phase::Executing(exec) = &mut current.phase else {
                return;
            };
            exec.builder
                .record_dependent_read(key.clone(), version, dep_txid);
            (version, value)
        } else {
            let (version, value) = best_committed.unwrap_or((Timestamp::ZERO, Value::empty()));
            let Some(current) = self.current.as_mut() else {
                return;
            };
            let Phase::Executing(exec) = &mut current.phase else {
                return;
            };
            exec.builder.record_read(key.clone(), version);
            (version, value)
        };
        let _ = version;

        // Apply a read-modify-write delta if requested.
        if let Some(delta) = rmw_delta {
            let new = apply_delta(&value, delta);
            let Some(current) = self.current.as_mut() else {
                return;
            };
            let Phase::Executing(exec) = &mut current.phase else {
                return;
            };
            exec.builder.record_write(key, new);
        }

        if let Some(current) = self.current.as_mut() {
            if let Phase::Executing(exec) = &mut current.phase {
                exec.op_index += 1;
            }
        }
        self.advance_execution(ctx);
    }

    fn handle_read_timeout(&mut self, ctx: &mut Context<BasilMsg>, req_id: u64) {
        let resend = {
            let Some(current) = self.current.as_ref() else {
                return;
            };
            let Phase::Executing(exec) = &current.phase else {
                return;
            };
            match &exec.pending_read {
                Some(p) if p.req_id == req_id => Some((p.key.clone(), p.replies.len() as u32)),
                _ => None,
            }
        };
        let Some((key, have)) = resend else {
            return;
        };
        // If we already have enough replies, conclude; otherwise widen the
        // read to every replica of the shard and keep waiting.
        let wait_for = self.cfg.system.read_quorum.wait_for(&self.cfg.system.shard);
        if have >= wait_for {
            self.conclude_read(ctx);
            return;
        }
        let ts = {
            let Some(current) = self.current.as_ref() else {
                return;
            };
            let Phase::Executing(exec) = &current.phase else {
                return;
            };
            exec.builder.timestamp()
        };
        let shard = self.cfg.system.shard_for_key(&key);
        let req = ReadRequest {
            req_id,
            key,
            ts,
            auth: None,
        };
        let (auth, cost) = self.engine.sign_request(&req);
        ctx.charge(cost);
        let req = ReadRequest { auth, ..req };
        for replica in self.replicas_of(shard) {
            self.send_signed(ctx, replica, BasilMsg::Read(req.clone()));
        }
        ctx.schedule_self(
            self.cfg.read_timeout,
            BasilMsg::ClientTimer(ClientTimer::ReadTimeout { req_id }),
        );
    }

    // ------------------------------------------------------------------
    // Prepare phase
    // ------------------------------------------------------------------

    fn send_st1(&mut self, ctx: &mut Context<BasilMsg>) {
        let (tx, faulty, strategy) = {
            let Some(current) = self.current.as_mut() else {
                return;
            };
            let Phase::Executing(exec) = &mut current.phase else {
                return;
            };
            let builder =
                std::mem::replace(&mut exec.builder, TransactionBuilder::new(Timestamp::ZERO));
            (
                builder.build_shared(),
                current.faulty,
                self.cfg.client_strategy,
            )
        };

        // Transactions that touch nothing commit trivially.
        if tx.is_empty() {
            self.record_commit(ctx, None);
            self.finish_and_continue(ctx);
            return;
        }

        // Prime the encoding memo before the id: this transaction is about
        // to be signed, and `id()` alone deliberately serializes transiently
        // without caching (see `Transaction::id`).
        tx.encoded();
        let txid = tx.id();
        let involved = tx.involved_shards(&self.cfg.system);
        let st1 = St1 {
            tx: Arc::clone(&tx),
            auth: None,
            recovery: false,
        };
        let (auth, cost) = self.engine.sign_request(&st1);
        ctx.charge(cost);
        let st1 = St1 { auth, ..st1 };
        for replica in self.all_replicas_of(&involved) {
            self.send_signed(ctx, replica, BasilMsg::St1(st1.clone()));
        }

        // stall-early Byzantine clients never look at the votes.
        if faulty && strategy == ClientStrategy::StallEarly {
            self.current = None;
            self.start_next_transaction(ctx);
            return;
        }

        let tallies = involved
            .iter()
            .map(|s| (*s, ShardTally::new(txid, *s, self.cfg.system.shard)))
            .collect();
        if let Some(current) = self.current.as_mut() {
            current.phase = Phase::Preparing(Preparing {
                tx,
                txid,
                involved,
                tallies,
                outcomes: FastHashMap::default(),
            });
        }
        ctx.schedule_self(
            self.cfg.prepare_timeout,
            BasilMsg::ClientTimer(ClientTimer::PrepareTimeout { txid }),
        );
    }

    fn handle_st1_reply(&mut self, ctx: &mut Context<BasilMsg>, vote: SignedSt1Reply) {
        if !self.verify_replica_reply(ctx, &vote.body, vote.proof.as_ref(), vote.body.replica) {
            return;
        }
        let txid = vote.body.txid;
        // Dependency recovery votes.
        if self.recoveries.contains_key(&txid) {
            if let Some(rec) = self.recoveries.get_mut(&txid) {
                if let Some(tally) = rec.tallies.get_mut(&vote.body.replica.shard) {
                    tally.add(vote);
                }
            }
            self.advance_recovery(ctx, txid, false);
            return;
        }
        // Own transaction votes.
        let matches = matches!(
            self.current.as_ref().map(|c| &c.phase),
            Some(Phase::Preparing(p)) if p.txid == txid
        );
        if !matches {
            return;
        }
        if let Some(current) = self.current.as_mut() {
            if let Phase::Preparing(prep) = &mut current.phase {
                if let Some(tally) = prep.tallies.get_mut(&vote.body.replica.shard) {
                    tally.add(vote);
                }
            }
        }
        self.try_classify(ctx, false);
    }

    /// Attempts to classify every shard and combine the outcomes into a 2PC
    /// decision. `complete` marks that no further replies are expected
    /// (prepare timer fired).
    fn try_classify(&mut self, ctx: &mut Context<BasilMsg>, complete: bool) {
        let outcome = {
            let Some(current) = self.current.as_mut() else {
                return;
            };
            let Phase::Preparing(prep) = &mut current.phase else {
                return;
            };
            let n = self.cfg.system.shard.n();
            for (shard, tally) in prep.tallies.iter() {
                if prep.outcomes.contains_key(shard) {
                    continue;
                }
                let shard_complete = complete || tally.total() >= n;
                if let Some(o) = tally.classify(shard_complete) {
                    prep.outcomes.insert(*shard, o);
                }
            }
            combine_outcomes(&prep.outcomes, &prep.involved)
        };
        let Some(outcome) = outcome else {
            return;
        };

        // Byzantine equivocation happens at the moment the votes are in.
        let (faulty, strategy) = match self.current.as_ref() {
            Some(c) => (c.faulty, self.cfg.client_strategy),
            None => return,
        };
        if faulty && strategy.equivocates() && self.try_equivocate(ctx, strategy) {
            return;
        }

        self.conclude_prepare(ctx, outcome);
    }

    /// Attempts the ST2 equivocation attack; returns true if performed.
    fn try_equivocate(&mut self, ctx: &mut Context<BasilMsg>, strategy: ClientStrategy) -> bool {
        let (txid, involved, commit_votes, abort_votes, can_real) = {
            let Some(current) = self.current.as_ref() else {
                return false;
            };
            let Phase::Preparing(prep) = &current.phase else {
                return false;
            };
            // Use the first involved shard's tally as the equivocation
            // target (stable across runs; map-iteration order would pick a
            // different shard per process).
            let Some(tally) = prep.involved.first().and_then(|s| prep.tallies.get(s)) else {
                return false;
            };
            (
                prep.txid,
                prep.involved.clone(),
                tally.votes_matching(ProtoVote::Commit),
                tally.votes_matching(ProtoVote::Abort),
                tally.can_equivocate(),
            )
        };
        let forced = strategy == ClientStrategy::EquivForced;
        if !forced && !can_real {
            return false;
        }
        let slog = Self::logging_shard(txid, &involved);
        let shard = involved[0];
        let commit_tally = ShardVotes {
            txid,
            shard,
            decision: ProtoDecision::Commit,
            votes: commit_votes,
            conflict: None,
        };
        let abort_tally = ShardVotes {
            txid,
            shard,
            decision: ProtoDecision::Abort,
            votes: abort_votes,
            conflict: None,
        };
        let replicas = self.replicas_of(slog);
        let half = replicas.len() / 2;
        for (i, replica) in replicas.into_iter().enumerate() {
            let (decision, tally) = if i < half {
                (ProtoDecision::Commit, commit_tally.clone())
            } else {
                (ProtoDecision::Abort, abort_tally.clone())
            };
            let st2 = St2 {
                txid,
                decision,
                shard_votes: vec![tally],
                view: 0,
                auth: None,
            };
            let (auth, cost) = self.engine.sign_request(&st2);
            ctx.charge(cost);
            self.send_signed(ctx, replica, BasilMsg::St2(St2 { auth, ..st2 }));
        }
        self.stats.equivocations += 1;
        // Stall: abandon the transaction without writeback.
        self.current = None;
        self.start_next_transaction(ctx);
        true
    }

    fn conclude_prepare(&mut self, ctx: &mut Context<BasilMsg>, outcome: PrepareOutcome) {
        let (tx, txid, involved) = {
            let Some(current) = self.current.as_ref() else {
                return;
            };
            let Phase::Preparing(prep) = &current.phase else {
                return;
            };
            (prep.tx.clone(), prep.txid, prep.involved.clone())
        };

        if outcome.fast || !self.cfg.system.fast_path {
            // Even with the fast path disabled the evidence may be durable;
            // the NoFP ablation always logs, so only treat it as final when
            // the configuration allows the fast path.
        }

        if outcome.fast && self.cfg.system.fast_path {
            self.stats.fast_path_decisions += 1;
            let cert = Arc::new(build_fast_cert(txid, outcome.decision, outcome.shard_votes));
            self.complete_own_transaction(ctx, tx, txid, involved, outcome.decision, cert);
            return;
        }

        // Slow path: log the decision on S_log.
        self.stats.slow_path_decisions += 1;
        let slog = Self::logging_shard(txid, &involved);
        let st2 = St2 {
            txid,
            decision: outcome.decision,
            shard_votes: outcome.shard_votes.clone(),
            view: 0,
            auth: None,
        };
        let (auth, cost) = self.engine.sign_request(&st2);
        ctx.charge(cost);
        let st2 = St2 { auth, ..st2 };
        for replica in self.replicas_of(slog) {
            self.send_signed(ctx, replica, BasilMsg::St2(st2.clone()));
        }
        if let Some(current) = self.current.as_mut() {
            current.phase = Phase::Logging(Logging {
                tx,
                txid,
                decision: outcome.decision,
                shard_votes: outcome.shard_votes,
                slog,
                involved,
                tally: St2Tally::new(txid, slog, self.cfg.system.shard),
            });
        }
        ctx.schedule_self(
            self.cfg.st2_timeout,
            BasilMsg::ClientTimer(ClientTimer::St2Timeout { txid }),
        );
    }

    /// Delay before the next re-arm of a retry timer: the first re-arm keeps
    /// the base period (a single retry is the common lost-message case and
    /// needs no spreading — and fault-free schedules that brush a timeout
    /// stay byte-identical), later consecutive re-arms wait `base * 2^n`
    /// capped at `cfg.max_backoff`, plus up to half that again in jitter
    /// from the dedicated seeded retry PRNG. Doubling stops retry storms —
    /// every client of a stalled transaction re-firing at a fixed period in
    /// lockstep — and the jitter de-synchronizes the survivors, while the
    /// seeded PRNG keeps schedules bit-identical run to run.
    fn retry_delay(&mut self, kind: RetryKind, txid: TxId, base: Duration) -> Duration {
        let attempt = {
            let counter = self.retry_attempts.entry((kind, txid)).or_insert(0);
            let a = *counter;
            *counter = counter.saturating_add(1);
            a
        };
        if attempt == 0 {
            return base;
        }
        let floor = base.as_nanos().max(1);
        let capped = floor
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.cfg.max_backoff.as_nanos().max(floor));
        let jitter = self.retry_prng.next_below(capped / 2 + 1);
        Duration::from_nanos(capped.saturating_add(jitter))
    }

    /// Forgets a timer's retry history once the retried condition resolved.
    fn clear_retry(&mut self, kind: RetryKind, txid: TxId) {
        self.retry_attempts.remove(&(kind, txid));
    }

    fn handle_prepare_timeout(&mut self, ctx: &mut Context<BasilMsg>, txid: TxId) {
        let deps: Option<Vec<TxId>> = match self.current.as_ref().map(|c| &c.phase) {
            Some(Phase::Preparing(prep)) if prep.txid == txid => {
                Some(prep.tx.deps().iter().map(|d| d.txid).collect())
            }
            _ => None,
        };
        let Some(deps) = deps else {
            self.clear_retry(RetryKind::Prepare, txid);
            return;
        };
        // First, try to classify with what we have.
        self.try_classify(ctx, true);
        // If still preparing, the transaction is likely blocked on stalled
        // dependencies: try to finish them ourselves (Section 5).
        let still_preparing = matches!(
            self.current.as_ref().map(|c| &c.phase),
            Some(Phase::Preparing(p)) if p.txid == txid
        );
        if still_preparing {
            self.retransmit_st1(ctx, txid);
            for dep in deps {
                self.start_recovery(ctx, dep);
            }
            let delay = self.retry_delay(RetryKind::Prepare, txid, self.cfg.prepare_timeout);
            ctx.schedule_self(
                delay,
                BasilMsg::ClientTimer(ClientTimer::PrepareTimeout { txid }),
            );
        } else {
            self.clear_retry(RetryKind::Prepare, txid);
        }
    }

    /// Re-sends the ST1 to the replicas that have not voted yet: either the
    /// original request or their vote may have been lost in transit.
    /// Replicas answer re-deliveries idempotently with the stored vote, so
    /// this is safe to repeat on every prepare timeout; replicas that
    /// already voted are not contacted again, which keeps the message
    /// stream untouched whenever nothing was actually lost.
    fn retransmit_st1(&mut self, ctx: &mut Context<BasilMsg>, txid: TxId) {
        let (tx, targets) = {
            let Some(current) = self.current.as_ref() else {
                return;
            };
            let Phase::Preparing(prep) = &current.phase else {
                return;
            };
            if prep.txid != txid {
                return;
            }
            let mut targets: Vec<NodeId> = Vec::new();
            for shard in &prep.involved {
                if let Some(tally) = prep.tallies.get(shard) {
                    for i in tally.missing() {
                        targets.push(NodeId::Replica(ReplicaId::new(*shard, i)));
                    }
                }
            }
            (Arc::clone(&prep.tx), targets)
        };
        if targets.is_empty() {
            return;
        }
        let st1 = St1 {
            tx,
            auth: None,
            recovery: false,
        };
        let (auth, cost) = self.engine.sign_request(&st1);
        ctx.charge(cost);
        let st1 = St1 { auth, ..st1 };
        for replica in targets {
            self.send_signed(ctx, replica, BasilMsg::St1(st1.clone()));
        }
    }

    // ------------------------------------------------------------------
    // ST2 handling
    // ------------------------------------------------------------------

    fn handle_st2_reply(&mut self, ctx: &mut Context<BasilMsg>, reply: SignedSt2Reply) {
        if !self.verify_replica_reply(ctx, &reply.body, reply.proof.as_ref(), reply.body.replica) {
            return;
        }
        let txid = reply.body.txid;
        if self.recoveries.contains_key(&txid) {
            if let Some(rec) = self.recoveries.get_mut(&txid) {
                rec.st2_tally.add(reply);
            }
            self.advance_recovery(ctx, txid, false);
            return;
        }
        let matches = matches!(
            self.current.as_ref().map(|c| &c.phase),
            Some(Phase::Logging(l)) if l.txid == txid
        );
        if !matches {
            return;
        }
        let outcome = {
            let Some(current) = self.current.as_mut() else {
                return;
            };
            let Phase::Logging(log) = &mut current.phase else {
                return;
            };
            log.tally.add(reply);
            log.tally.classify()
        };
        match outcome {
            Some(St2Outcome::Certified(vote_cert)) => {
                let (tx, involved, decision) = {
                    let Some(current) = self.current.as_ref() else {
                        return;
                    };
                    let Phase::Logging(log) = &current.phase else {
                        return;
                    };
                    (log.tx.clone(), log.involved.clone(), log.decision)
                };
                // The certified decision is what the replicas logged; a
                // correct client logged its own decision so they agree.
                let cert = Arc::new(build_slow_cert(txid, vote_cert));
                self.complete_own_transaction(ctx, tx, txid, involved, decision, cert);
            }
            Some(St2Outcome::Divergent { .. }) | None => {}
        }
    }

    fn handle_st2_timeout(&mut self, ctx: &mut Context<BasilMsg>, txid: TxId) {
        let resend = {
            match self.current.as_ref().map(|c| &c.phase) {
                Some(Phase::Logging(l)) if l.txid == txid => Some((
                    l.decision,
                    l.shard_votes.clone(),
                    l.slog,
                    Arc::clone(&l.tx),
                    l.tally.missing(),
                )),
                _ => None,
            }
        };
        let Some((decision, shard_votes, slog, tx, missing)) = resend else {
            self.clear_retry(RetryKind::St2, txid);
            return;
        };
        // A logging replica that never acknowledged may have missed the ST1
        // itself — in which case it is buffering our ST2 until the
        // transaction body arrives — so the body is re-sent alongside the
        // decision. Replicas that already acknowledged are left alone.
        if !missing.is_empty() {
            let st1 = St1 {
                tx,
                auth: None,
                recovery: false,
            };
            let (auth, cost) = self.engine.sign_request(&st1);
            ctx.charge(cost);
            let st1 = St1 { auth, ..st1 };
            for i in missing {
                self.send_signed(
                    ctx,
                    NodeId::Replica(ReplicaId::new(slog, i)),
                    BasilMsg::St1(st1.clone()),
                );
            }
        }
        let st2 = St2 {
            txid,
            decision,
            shard_votes,
            view: 0,
            auth: None,
        };
        let (auth, cost) = self.engine.sign_request(&st2);
        ctx.charge(cost);
        let st2 = St2 { auth, ..st2 };
        for replica in self.replicas_of(slog) {
            self.send_signed(ctx, replica, BasilMsg::St2(st2.clone()));
        }
        let delay = self.retry_delay(RetryKind::St2, txid, self.cfg.st2_timeout);
        ctx.schedule_self(
            delay,
            BasilMsg::ClientTimer(ClientTimer::St2Timeout { txid }),
        );
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    fn record_commit(&mut self, ctx: &mut Context<BasilMsg>, label: Option<&'static str>) {
        self.stats.committed += 1;
        if let Some(current) = self.current.as_ref() {
            let latency = ctx.now() - current.first_started;
            self.stats.latency.record(latency.as_nanos());
            let label = label.unwrap_or(current.profile.label);
            *self.stats.per_label.entry(label).or_insert(0) += 1;
        }
    }

    fn finish_and_continue(&mut self, ctx: &mut Context<BasilMsg>) {
        self.current = None;
        self.start_next_transaction(ctx);
    }

    fn complete_own_transaction(
        &mut self,
        ctx: &mut Context<BasilMsg>,
        tx: Arc<Transaction>,
        txid: TxId,
        involved: Vec<ShardId>,
        decision: ProtoDecision,
        cert: Arc<DecisionCert>,
    ) {
        let (faulty, strategy, label) = match self.current.as_ref() {
            Some(c) => (c.faulty, self.cfg.client_strategy, c.profile.label),
            None => return,
        };
        let _ = txid;

        // The client's latency ends here: the decision is durable.
        let committed = decision.is_commit();
        if committed {
            self.record_commit(ctx, Some(label));
        } else {
            self.stats.aborted_attempts += 1;
        }

        // stall-late (and equiv-real when equivocation was impossible)
        // withholds the writeback.
        let withhold_writeback = faulty
            && matches!(
                strategy,
                ClientStrategy::StallLate | ClientStrategy::EquivReal | ClientStrategy::EquivForced
            );
        if !withhold_writeback {
            let wb = Writeback { cert, tx: Some(tx) };
            for replica in self.all_replicas_of(&involved) {
                self.send_signed(ctx, replica, BasilMsg::Writeback(wb.clone()));
            }
        }

        if committed || faulty {
            self.finish_and_continue(ctx);
        } else {
            // Honest aborted transactions are retried with exponential
            // backoff.
            let jitter_ns = self.prng.next_below(self.backoff.as_nanos().max(1));
            let delay = self.backoff + Duration::from_nanos(jitter_ns);
            self.backoff = Duration::from_nanos(
                (self.backoff.as_nanos() * 2).min(self.cfg.max_backoff.as_nanos()),
            );
            if let Some(current) = self.current.as_mut() {
                current.phase = Phase::WaitingRetry;
            }
            ctx.schedule_self(delay, BasilMsg::ClientTimer(ClientTimer::RetryBackoff));
        }
    }

    /// A writeback (decision certificate) arriving at the client: either the
    /// resolution of a recovery, or someone else finished our transaction.
    fn handle_incoming_cert(&mut self, ctx: &mut Context<BasilMsg>, wb: Writeback) {
        let txid = wb.cert.txid();
        if self.engine.enabled() {
            if self.validated_certs.contains(&txid, &wb.cert) {
                // Already verified on the read path: the cache hit is a map
                // lookup plus a pointer comparison, so nothing is charged.
                self.stats.cert_cache_hits += 1;
            } else {
                self.stats.cert_cache_misses += 1;
                let v = validate_decision_cert(&wb.cert, &self.cfg.system.shard, &mut self.engine);
                ctx.charge(v.cost);
                if !v.valid {
                    return;
                }
                self.validated_certs.insert(txid, Arc::clone(&wb.cert));
            }
        }
        // Recovery resolution: broadcast the certificate so every replica
        // learns the outcome, then mark the recovery finished.
        if let Some(rec) = self.recoveries.get_mut(&txid) {
            if !rec.resolved {
                rec.resolved = true;
                let involved = rec.involved.clone();
                let tx = rec.tx.clone();
                let wb_out = Writeback {
                    cert: Arc::clone(&wb.cert),
                    tx: Some(tx),
                };
                for replica in self.all_replicas_of(&involved) {
                    self.send_signed(ctx, replica, BasilMsg::Writeback(wb_out.clone()));
                }
            }
            return;
        }
        // Someone completed our own in-flight transaction (e.g. another
        // client recovering it): adopt the decision.
        let own = match self.current.as_ref().map(|c| &c.phase) {
            Some(Phase::Preparing(p)) if p.txid == txid => Some((p.tx.clone(), p.involved.clone())),
            Some(Phase::Logging(l)) if l.txid == txid => Some((l.tx.clone(), l.involved.clone())),
            _ => None,
        };
        if let Some((tx, involved)) = own {
            let decision = wb.cert.decision();
            self.complete_own_transaction(ctx, tx, txid, involved, decision, wb.cert);
        }
    }

    // ------------------------------------------------------------------
    // Dependency recovery (fallback, Section 5)
    // ------------------------------------------------------------------

    fn start_recovery(&mut self, ctx: &mut Context<BasilMsg>, dep: TxId) {
        if self
            .recoveries
            .get(&dep)
            .map(|r| !r.resolved)
            .unwrap_or(false)
        {
            return; // already recovering
        }
        let Some(tx) = self.dep_txs.get(&dep).cloned() else {
            return; // nothing known about this dependency
        };
        let involved = tx.involved_shards(&self.cfg.system);
        if involved.is_empty() {
            return;
        }
        let slog = Self::logging_shard(dep, &involved);
        self.stats.fallback_invocations += 1;
        let tallies = involved
            .iter()
            .map(|s| (*s, ShardTally::new(dep, *s, self.cfg.system.shard)))
            .collect();
        self.recoveries.insert(
            dep,
            Recovery {
                tx: tx.clone(),
                involved: involved.clone(),
                slog,
                tallies,
                outcomes: FastHashMap::default(),
                st2_tally: St2Tally::new(dep, slog, self.cfg.system.shard),
                invoked_election: false,
                resolved: false,
            },
        );
        // RP: a recovery prepare to every replica of every involved shard.
        let st1 = St1 {
            tx,
            auth: None,
            recovery: true,
        };
        let (auth, cost) = self.engine.sign_request(&st1);
        ctx.charge(cost);
        let st1 = St1 { auth, ..st1 };
        for replica in self.all_replicas_of(&involved) {
            self.send_signed(ctx, replica, BasilMsg::St1(st1.clone()));
        }
        ctx.schedule_self(
            self.cfg.fallback_timeout,
            BasilMsg::ClientTimer(ClientTimer::FallbackTimeout { txid: dep }),
        );
    }

    /// Drives a recovery forward based on the evidence gathered so far.
    fn advance_recovery(&mut self, ctx: &mut Context<BasilMsg>, txid: TxId, complete: bool) {
        let action = {
            let Some(rec) = self.recoveries.get_mut(&txid) else {
                return;
            };
            if rec.resolved {
                return;
            }
            // 1. A durable logging-shard quorum finishes the recovery.
            match rec.st2_tally.classify() {
                Some(St2Outcome::Certified(vote_cert)) => {
                    Some(RecoveryAction::Certified(vote_cert))
                }
                Some(St2Outcome::Divergent { replies }) if !rec.invoked_election => {
                    rec.invoked_election = true;
                    Some(RecoveryAction::Diverged(replies))
                }
                _ => {
                    // 2. Otherwise aggregate ST1 votes like a normal prepare.
                    let n = self.cfg.system.shard.n();
                    for (shard, tally) in rec.tallies.iter() {
                        if rec.outcomes.contains_key(shard) {
                            continue;
                        }
                        let shard_complete = complete || tally.total() >= n;
                        if let Some(o) = tally.classify(shard_complete) {
                            rec.outcomes.insert(*shard, o);
                        }
                    }
                    combine_outcomes(&rec.outcomes, &rec.involved).map(RecoveryAction::Voted)
                }
            }
        };
        let Some(action) = action else {
            return;
        };
        match action {
            RecoveryAction::Certified(vote_cert) => {
                let Some(rec) = self.recoveries.get_mut(&txid) else {
                    return;
                };
                rec.resolved = true;
                let decision = vote_cert.decision;
                let cert = Arc::new(match decision {
                    ProtoDecision::Commit => DecisionCert::Commit(CommitCert {
                        txid,
                        fast_votes: vec![],
                        slow: Some(vote_cert),
                    }),
                    ProtoDecision::Abort => DecisionCert::Abort(AbortCert {
                        txid,
                        fast_votes: None,
                        slow: Some(vote_cert),
                    }),
                });
                let tx = rec.tx.clone();
                let involved = rec.involved.clone();
                let wb = Writeback { cert, tx: Some(tx) };
                for replica in self.all_replicas_of(&involved) {
                    self.send_signed(ctx, replica, BasilMsg::Writeback(wb.clone()));
                }
            }
            RecoveryAction::Diverged(replies) => {
                // Divergent case: elect a fallback leader on the logging
                // shard.
                self.stats.fallback_elections += 1;
                let slog = match self.recoveries.get(&txid) {
                    Some(r) => r.slog,
                    None => return,
                };
                let ifb = InvokeFb {
                    txid,
                    views: replies,
                    auth: None,
                };
                let (auth, cost) = self.engine.sign_request(&ifb);
                ctx.charge(cost);
                let ifb = InvokeFb { auth, ..ifb };
                for replica in self.replicas_of(slog) {
                    self.send_signed(ctx, replica, BasilMsg::InvokeFb(ifb.clone()));
                }
                ctx.schedule_self(
                    self.cfg.fallback_timeout,
                    BasilMsg::ClientTimer(ClientTimer::FallbackTimeout { txid }),
                );
            }
            RecoveryAction::Voted(outcome) => {
                // We gathered enough ST1 votes to decide the stalled
                // transaction ourselves; finish it exactly as its original
                // client would have.
                let Some(rec) = self.recoveries.get_mut(&txid) else {
                    return;
                };
                let tx = rec.tx.clone();
                let involved = rec.involved.clone();
                let slog = rec.slog;
                if outcome.fast {
                    rec.resolved = true;
                    let cert =
                        Arc::new(build_fast_cert(txid, outcome.decision, outcome.shard_votes));
                    let wb = Writeback { cert, tx: Some(tx) };
                    for replica in self.all_replicas_of(&involved) {
                        self.send_signed(ctx, replica, BasilMsg::Writeback(wb.clone()));
                    }
                } else {
                    // Log the reconciled decision on S_log (view 0).
                    let st2 = St2 {
                        txid,
                        decision: outcome.decision,
                        shard_votes: outcome.shard_votes,
                        view: 0,
                        auth: None,
                    };
                    let (auth, cost) = self.engine.sign_request(&st2);
                    ctx.charge(cost);
                    let st2 = St2 { auth, ..st2 };
                    for replica in self.replicas_of(slog) {
                        self.send_signed(ctx, replica, BasilMsg::St2(st2.clone()));
                    }
                    ctx.schedule_self(
                        self.cfg.fallback_timeout,
                        BasilMsg::ClientTimer(ClientTimer::FallbackTimeout { txid }),
                    );
                }
            }
        }
    }

    fn handle_fallback_timeout(&mut self, ctx: &mut Context<BasilMsg>, txid: TxId) {
        let unresolved = self
            .recoveries
            .get(&txid)
            .map(|r| !r.resolved)
            .unwrap_or(false);
        if !unresolved {
            self.clear_retry(RetryKind::Fallback, txid);
            return;
        }
        self.advance_recovery(ctx, txid, true);
        let still_unresolved = self
            .recoveries
            .get(&txid)
            .map(|r| !r.resolved)
            .unwrap_or(false);
        if still_unresolved {
            // Re-send the recovery prepare in case messages were lost, and
            // keep the timer alive.
            if let Some(rec) = self.recoveries.get(&txid) {
                let tx = rec.tx.clone();
                let involved = rec.involved.clone();
                let st1 = St1 {
                    tx,
                    auth: None,
                    recovery: true,
                };
                let (auth, cost) = self.engine.sign_request(&st1);
                ctx.charge(cost);
                let st1 = St1 { auth, ..st1 };
                for replica in self.all_replicas_of(&involved) {
                    self.send_signed(ctx, replica, BasilMsg::St1(st1.clone()));
                }
            }
            let delay = self.retry_delay(RetryKind::Fallback, txid, self.cfg.fallback_timeout);
            ctx.schedule_self(
                delay,
                BasilMsg::ClientTimer(ClientTimer::FallbackTimeout { txid }),
            );
        } else {
            self.clear_retry(RetryKind::Fallback, txid);
        }
    }

    fn handle_retry_backoff(&mut self, ctx: &mut Context<BasilMsg>) {
        let waiting = matches!(
            self.current.as_ref().map(|c| &c.phase),
            Some(Phase::WaitingRetry)
        );
        if waiting {
            self.begin_attempt(ctx);
        }
    }
}

/// What a recovery step decided to do next.
enum RecoveryAction {
    Certified(VoteCert),
    Diverged(Vec<SignedSt2Reply>),
    Voted(PrepareOutcome),
}

fn apply_delta(value: &Value, delta: i64) -> Value {
    let current = value.as_u64().unwrap_or(0);
    let new = if delta >= 0 {
        current.saturating_add(delta as u64)
    } else {
        current.saturating_sub(delta.unsigned_abs())
    };
    Value::from_u64(new)
}

fn build_fast_cert(
    txid: TxId,
    decision: ProtoDecision,
    shard_votes: Vec<ShardVotes>,
) -> DecisionCert {
    match decision {
        ProtoDecision::Commit => DecisionCert::Commit(CommitCert {
            txid,
            fast_votes: shard_votes,
            slow: None,
        }),
        ProtoDecision::Abort => DecisionCert::Abort(AbortCert {
            txid,
            fast_votes: shard_votes.into_iter().next(),
            slow: None,
        }),
    }
}

fn build_slow_cert(txid: TxId, vote_cert: VoteCert) -> DecisionCert {
    match vote_cert.decision {
        ProtoDecision::Commit => DecisionCert::Commit(CommitCert {
            txid,
            fast_votes: vec![],
            slow: Some(vote_cert),
        }),
        ProtoDecision::Abort => DecisionCert::Abort(AbortCert {
            txid,
            fast_votes: None,
            slow: Some(vote_cert),
        }),
    }
}

impl Actor<BasilMsg> for BasilClient {
    fn on_start(&mut self, ctx: &mut Context<BasilMsg>) {
        match self.generator.next_arrival_delay() {
            Some(delay) => {
                self.open_loop = true;
                ctx.schedule_self(delay, BasilMsg::ClientTimer(ClientTimer::OpenLoopArrival));
            }
            None => self.start_next_transaction(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Context<BasilMsg>, _from: NodeId, msg: BasilMsg) {
        ctx.charge(self.engine.message_cost());
        self.engine.set_now(ctx.now());
        match msg {
            BasilMsg::ReadReply(reply) => self.handle_read_reply(ctx, reply),
            BasilMsg::St1Reply(vote) => self.handle_st1_reply(ctx, vote),
            BasilMsg::St2Reply(reply) => self.handle_st2_reply(ctx, reply),
            BasilMsg::Writeback(wb) => self.handle_incoming_cert(ctx, wb),
            BasilMsg::ClientTimer(timer) => match timer {
                ClientTimer::ReadTimeout { req_id } => self.handle_read_timeout(ctx, req_id),
                ClientTimer::PrepareTimeout { txid } => self.handle_prepare_timeout(ctx, txid),
                ClientTimer::St2Timeout { txid } => self.handle_st2_timeout(ctx, txid),
                ClientTimer::FallbackTimeout { txid } => self.handle_fallback_timeout(ctx, txid),
                ClientTimer::RetryBackoff => self.handle_retry_backoff(ctx),
                ClientTimer::OpenLoopArrival => self.handle_open_loop_arrival(ctx),
            },
            // Messages meant for replicas are ignored if misrouted.
            BasilMsg::Read(_)
            | BasilMsg::St1(_)
            | BasilMsg::St2(_)
            | BasilMsg::RtsRelease { .. }
            | BasilMsg::InvokeFb(_)
            | BasilMsg::ElectFb(_)
            | BasilMsg::DecFb(_)
            | BasilMsg::CatchUpRequest(_)
            | BasilMsg::CatchUpReply(_)
            | BasilMsg::ReplicaTimer(_) => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::ScriptedGenerator;

    fn cfg() -> BasilConfig {
        BasilConfig::test_single_shard()
    }

    fn registry() -> basil_crypto::KeyRegistry {
        basil_crypto::KeyRegistry::from_seed(5)
    }

    fn client_with(profiles: Vec<TxProfile>) -> BasilClient {
        BasilClient::new(
            ClientId(1),
            cfg(),
            registry(),
            Box::new(ScriptedGenerator::new(profiles)),
            FaultProfile::honest(),
            99,
        )
    }

    fn ctx_at(ms: u64) -> Context<BasilMsg> {
        Context::new(
            NodeId::Client(ClientId(1)),
            SimTime::from_millis(ms),
            SimTime::from_millis(ms),
        )
    }

    fn sent_messages(ctx: &Context<BasilMsg>) -> Vec<(NodeId, BasilMsg)> {
        ctx.outputs()
            .iter()
            .filter_map(|o| match o {
                basil_simnet::actor::Output::Send { to, msg } => Some((*to, msg.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn write_only_transaction_goes_straight_to_prepare() {
        let profile = TxProfile::new("w", vec![Op::Write(Key::new("x"), Value::from_u64(1))]);
        let mut client = client_with(vec![profile]);
        let mut ctx = ctx_at(1);
        client.on_start(&mut ctx);
        let msgs = sent_messages(&ctx);
        // No reads needed: ST1 goes to all 6 replicas of the single shard.
        let st1s: Vec<_> = msgs
            .iter()
            .filter(|(_, m)| matches!(m, BasilMsg::St1(_)))
            .collect();
        assert_eq!(st1s.len(), 6);
        assert!(matches!(
            client.current.as_ref().map(|c| &c.phase),
            Some(Phase::Preparing(_))
        ));
    }

    #[test]
    fn read_op_fans_out_to_read_quorum() {
        let profile = TxProfile::new("r", vec![Op::Read(Key::new("x"))]);
        let mut client = client_with(vec![profile]);
        let mut ctx = ctx_at(1);
        client.on_start(&mut ctx);
        let msgs = sent_messages(&ctx);
        let reads: Vec<_> = msgs
            .iter()
            .filter(|(_, m)| matches!(m, BasilMsg::Read(_)))
            .collect();
        // Default read quorum: send to 2f + 1 = 3 replicas.
        assert_eq!(reads.len(), 3);
        assert_eq!(client.stats().reads_issued, 1);
    }

    #[test]
    fn empty_transaction_commits_immediately() {
        let mut client = client_with(vec![TxProfile::new("empty", vec![])]);
        let mut ctx = ctx_at(1);
        client.on_start(&mut ctx);
        assert_eq!(client.stats().committed, 1);
        assert!(client.is_stopped());
    }

    #[test]
    fn generator_exhaustion_stops_the_client() {
        let mut client = client_with(vec![]);
        let mut ctx = ctx_at(1);
        client.on_start(&mut ctx);
        assert!(client.is_stopped());
        assert!(sent_messages(&ctx).is_empty());
    }

    #[test]
    fn timestamps_are_strictly_monotonic() {
        let mut client = client_with(vec![]);
        let ctx = ctx_at(5);
        let a = client.fresh_timestamp(&ctx);
        let b = client.fresh_timestamp(&ctx);
        let c = client.fresh_timestamp(&ctx);
        assert!(a < b && b < c);
        assert_eq!(a.client, ClientId(1));
    }

    #[test]
    fn rmw_applies_delta_to_buffered_value() {
        assert_eq!(apply_delta(&Value::from_u64(10), 5), Value::from_u64(15));
        assert_eq!(apply_delta(&Value::from_u64(10), -4), Value::from_u64(6));
        assert_eq!(apply_delta(&Value::from_u64(3), -10), Value::from_u64(0));
        assert_eq!(apply_delta(&Value::empty(), 7), Value::from_u64(7));
    }

    #[test]
    fn read_your_own_write_does_not_hit_the_network() {
        let profile = TxProfile::new(
            "rw",
            vec![
                Op::Write(Key::new("x"), Value::from_u64(3)),
                Op::RmwAdd {
                    key: Key::new("x"),
                    delta: 4,
                },
            ],
        );
        let mut client = client_with(vec![profile]);
        let mut ctx = ctx_at(1);
        client.on_start(&mut ctx);
        // No read requests: the RMW was satisfied from the write buffer, and
        // the transaction went straight to prepare with x = 7.
        assert_eq!(client.stats().reads_issued, 0);
        let st1 = sent_messages(&ctx)
            .into_iter()
            .find_map(|(_, m)| match m {
                BasilMsg::St1(st1) => Some(st1),
                _ => None,
            })
            .expect("prepare sent");
        assert_eq!(
            st1.tx.written_value(&Key::new("x")),
            Some(&Value::from_u64(7))
        );
    }

    #[test]
    fn logging_shard_is_deterministic_and_among_involved() {
        let involved = vec![ShardId(0), ShardId(1), ShardId(2)];
        let txid = TxId::from_bytes([7; 32]);
        let a = BasilClient::logging_shard(txid, &involved);
        let b = BasilClient::logging_shard(txid, &involved);
        assert_eq!(a, b);
        assert!(involved.contains(&a));
    }

    /// A fast-path commit certificate for `tx` signed by all six replicas of
    /// shard 0 under the test registry.
    fn valid_commit_cert(tx: &Transaction, votes_n: u32) -> Arc<DecisionCert> {
        let votes: Vec<SignedSt1Reply> = (0..votes_n)
            .map(|i| {
                let rid = ReplicaId::new(ShardId(0), i);
                let body = crate::messages::St1ReplyBody {
                    txid: tx.id(),
                    replica: rid,
                    vote: ProtoVote::Commit,
                };
                let mut engine = SigEngine::new(NodeId::Replica(rid), registry(), &cfg());
                let (proof, _) = engine.sign(&body);
                SignedSt1Reply {
                    body,
                    proof,
                    conflict: None,
                }
            })
            .collect();
        Arc::new(DecisionCert::Commit(CommitCert {
            txid: tx.id(),
            fast_votes: vec![ShardVotes {
                txid: tx.id(),
                shard: ShardId(0),
                decision: ProtoDecision::Commit,
                votes,
                conflict: None,
            }],
            slow: None,
        }))
    }

    #[test]
    fn writeback_cert_skips_reverification_only_for_the_cached_allocation() {
        let mut client = client_with(vec![]);
        let mut b = TransactionBuilder::new(Timestamp::from_nanos(1_000, ClientId(7)));
        b.record_write(Key::new("x"), Value::from_u64(1));
        let tx = b.build_shared();
        let cert = valid_commit_cert(&tx, 6);

        // First arrival: full verification (cache miss), then cached.
        let mut ctx = ctx_at(1);
        client.handle_incoming_cert(
            &mut ctx,
            Writeback {
                cert: Arc::clone(&cert),
                tx: Some(Arc::clone(&tx)),
            },
        );
        assert_eq!(client.stats().cert_cache_misses, 1);
        assert_eq!(client.stats().cert_cache_hits, 0);

        // Same shared allocation again: accepted from the cache, free.
        let mut ctx2 = ctx_at(2);
        client.handle_incoming_cert(
            &mut ctx2,
            Writeback {
                cert: Arc::clone(&cert),
                tx: Some(Arc::clone(&tx)),
            },
        );
        assert_eq!(client.stats().cert_cache_hits, 1);
        assert!(
            ctx2.outputs().is_empty(),
            "cache hit charges no verification cost"
        );

        // Equal content in a different allocation does not hit: ptr identity
        // is the spoof-proof condition.
        let clone_alloc = valid_commit_cert(&tx, 6);
        let mut ctx3 = ctx_at(3);
        client.handle_incoming_cert(
            &mut ctx3,
            Writeback {
                cert: clone_alloc,
                tx: Some(Arc::clone(&tx)),
            },
        );
        assert_eq!(client.stats().cert_cache_misses, 2);

        // A bogus certificate reusing a cached txid is still rejected: it is
        // a different allocation, so it takes (and fails) full verification.
        let bogus = valid_commit_cert(&tx, 2);
        let mut ctx4 = ctx_at(4);
        client.handle_incoming_cert(
            &mut ctx4,
            Writeback {
                cert: bogus,
                tx: Some(Arc::clone(&tx)),
            },
        );
        assert_eq!(client.stats().cert_cache_misses, 3);
        assert_eq!(client.stats().cert_cache_hits, 1, "no spoofed hit");
    }

    #[test]
    fn validated_cert_cache_evicts_fifo() {
        let mut cache = ValidatedCertCache::with_capacity(2);
        let mut b = TransactionBuilder::new(Timestamp::from_nanos(1, ClientId(1)));
        b.record_write(Key::new("x"), Value::from_u64(1));
        let cert = valid_commit_cert(&b.build(), 6);
        let ids: Vec<TxId> = (0u8..3).map(|i| TxId::from_bytes([i; 32])).collect();
        for id in &ids {
            cache.insert(*id, Arc::clone(&cert));
        }
        assert!(!cache.contains(&ids[0], &cert), "oldest entry evicted");
        assert!(cache.contains(&ids[1], &cert));
        assert!(cache.contains(&ids[2], &cert));
        // Re-inserting an existing key refreshes the value without growing.
        cache.insert(ids[1], Arc::clone(&cert));
        assert_eq!(cache.certs.len(), 2);
    }

    #[test]
    fn client_stats_latency_and_commit_rate() {
        let mut stats = ClientStats::default();
        assert_eq!(stats.mean_latency_ms(), 0.0);
        assert_eq!(stats.commit_rate(), 1.0);
        stats.latency.record(2_000_000);
        stats.latency.record(4_000_000);
        stats.committed = 2;
        stats.aborted_attempts = 2;
        assert!((stats.mean_latency_ms() - 3.0).abs() < 1e-9);
        assert!((stats.commit_rate() - 0.5).abs() < 1e-9);
    }
}
