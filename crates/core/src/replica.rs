//! The Basil replica.
//!
//! A replica serves versioned reads, runs the MVTSO concurrency-control check
//! for `ST1` prepares (deferring its vote while dependencies are undecided),
//! logs `ST2` decisions, applies writeback certificates, and takes part in
//! the per-transaction fallback protocol (view tracking, leader election, and
//! decision reconciliation). Votes are batched and signed through a Merkle
//! tree per Section 4.4; a read reply is MAC'd and sent at once, like a
//! client request, because only the client it answers ever checks it.
//! Durable state changes only by a WAL record, applied by one function live
//! and on amnesia replay ([`BasilReplica::recover`]).

use crate::byzantine::ReplicaBehavior;
use crate::certs::{
    count_distinct_signed, validate_decision_cert, votes_justify, DecisionCert, Strength,
};
use crate::config::BasilConfig;
use crate::crypto_engine::SigEngine;
use crate::messages::{
    BasilMsg, CatchUpReply, CommittedRead, DecFb, ElectFbBody, InvokeFb, PreparedRead, ReadReply,
    ReadReplyBody, ReadRequest, ReplicaTimer, SignedElectFb, SignedSt1Reply, SignedSt2Reply, St1,
    St1ReplyBody, St2, St2ReplyBody, View, Writeback,
};
use crate::views::{fallback_leader_index, logging_shard, next_view, reconcile};
use basil_common::config::DELTA;
use basil_common::{
    ClientId, Duration, FastHashMap, FastHashSet, Key, NodeId, ReplicaId, SimTime, Timestamp, TxId,
    Value,
};
use basil_simnet::{Actor, Context, MESSAGE_CPU};
use basil_store::{CheckOutcome, Decision, MvtsoStore, Transaction, Vote, Wal, WalRecord};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Maximum time a replica holds a partially filled vote batch before
/// flushing it.
const BATCH_TIMEOUT: Duration = Duration::from_micros(500);

/// Counters exposed for tests, experiments, and the harness.
#[derive(Clone, Debug, Default)]
pub struct ReplicaStats {
    /// Read requests served.
    pub reads_served: u64,
    /// ST1 prepares for which a vote was produced immediately.
    pub st1_voted: u64,
    /// ST1 prepares whose vote was deferred on dependencies.
    pub st1_deferred: u64,
    /// Commit certificates applied.
    pub commits_applied: u64,
    /// ST2 decisions logged.
    pub st2_logged: u64,
    /// Fallback invocations processed.
    pub fallback_invocations: u64,
    /// DecFB decisions adopted.
    pub fallback_decisions_adopted: u64,
    /// Replies withheld because of the replica's misbehaviour
    /// ([`ReplicaBehavior`]).
    pub byzantine_drops: u64,
    /// Batches signed.
    pub batches_signed: u64,
    /// Periodic store garbage-collection sweeps run.
    pub gc_sweeps: u64,
    /// Records appended to the write-ahead log.
    pub wal_appends: u64,
    /// Decision certificates applied from peer catch-up replies after an
    /// amnesia restart.
    pub catch_up_applied: u64,
    /// Messages buffered while catching up and replayed afterwards.
    pub catch_up_buffered: u64,
    /// Messages shed during catch-up because the recovery buffer was full
    /// (`BasilConfig::catch_up_buffer_bound`); senders retransmit via their
    /// normal timeout machinery, exactly as after a dropped packet.
    pub catch_up_shed: u64,
}

/// Per-transaction protocol state kept by a replica.
#[derive(Debug, Default)]
struct TxRecord {
    /// The transaction metadata (from ST1 or a writeback), shared with the
    /// message that delivered it and with the store's prepared/committed
    /// indexes.
    tx: Option<Arc<Transaction>>,
    /// The ST1 vote this replica cast, if any.
    own_vote: Option<Decision>,
    /// The logged 2PC decision and the view it was adopted in.
    logged: Option<(Decision, View)>,
    /// This replica's current fallback view for the transaction.
    current_view: View,
    /// The certificate of the applied decision (the decision itself is the
    /// store's), shared with the writeback that delivered it, with
    /// committed-version read replies, and with forwards to interested
    /// clients.
    cert: Option<Arc<DecisionCert>>,
    /// The clients to tell about this transaction, in registration order:
    /// the senders of a deferred ST1 (they get the vote once it is cast),
    /// of a recovery ST1, of an ST2 and of an InvokeFB. Each hears the
    /// released vote, a fallback decision, and the certificate when it is
    /// applied, unless it delivered that certificate itself. A `Vec` with
    /// membership checks (always a handful of clients) keeps the
    /// forwarding order deterministic — iterating a RandomState-seeded set
    /// here would reorder sends run to run and break the bit-identical
    /// determinism contract.
    interested: Vec<NodeId>,
    /// ST2 messages that arrived before the transaction body, at most one
    /// per sender (its first), applied when this replica casts its vote.
    buffered_st2: Vec<(NodeId, St2)>,
    /// The elections this replica collected as fallback leader, by view.
    elections: BTreeMap<View, Election>,
}

/// The ElectFB messages a fallback leader collected for one view.
#[derive(Debug, Default)]
struct Election {
    /// Correctly signed ElectFBs, by replica index.
    votes: FastHashMap<u32, SignedElectFb>,
    /// Whether the DecFB went out (it goes out once).
    done: bool,
}

/// A reply a handler sends through [`BasilReplica::send_reply`].
#[derive(Debug)]
enum Reply {
    Read(ReadReplyBody),
    St1(St1ReplyBody),
    St2(St2ReplyBody),
}

/// A vote waiting to be batched, signed, and sent.
#[derive(Debug)]
enum PendingVote {
    St1(St1ReplyBody),
    St2(St2ReplyBody),
}

/// A queued vote signs as its body (its destination is not signed), so the
/// batch is signed straight from `out_batch`.
impl crate::crypto_engine::SignedPayload for (NodeId, PendingVote) {
    fn write_signed(&self, out: &mut impl basil_common::codec::Sink) {
        match &self.1 {
            PendingVote::St1(b) => b.write_signed(out),
            PendingVote::St2(b) => b.write_signed(out),
        }
    }
}

/// Catch-up bookkeeping of a replica that lost its memory: which shard peers
/// still owe a `CatchUpReply`, and the protocol traffic held back until the
/// replica has caught up (or its catch-up deadline fired).
#[derive(Debug, Default)]
struct RecoveryState {
    /// Replica indices whose catch-up reply is still outstanding.
    pending_peers: FastHashSet<u32>,
    /// Non-catch-up traffic buffered for replay after catch-up, in arrival
    /// order.
    buffered: Vec<(NodeId, BasilMsg)>,
}

/// The Basil replica actor.
pub struct BasilReplica {
    id: ReplicaId,
    cfg: BasilConfig,
    engine: SigEngine,
    store: MvtsoStore,
    behavior: ReplicaBehavior,
    /// Per-transaction protocol records, boxed for the same reason as the
    /// store's key records: pointer-sized hash-table entries keep probes
    /// and rehashes cache-friendly.
    records: FastHashMap<TxId, Box<TxRecord>>,
    /// Votes awaiting batch signing.
    out_batch: Vec<(NodeId, PendingVote)>,
    batch_timer_armed: bool,
    /// Durable record of state transitions, replayed after amnesia restarts.
    wal: Wal,
    /// `Some` while the replica is catching up after an amnesia restart.
    recovering: Option<RecoveryState>,
    stats: ReplicaStats,
}

impl TxRecord {
    /// Registers a client as interested in the transaction's outcome,
    /// preserving first-registration order.
    fn register_interested(&mut self, client: NodeId) {
        if !self.interested.contains(&client) {
            self.interested.push(client);
        }
    }

    /// The ST2 reply of `replica` that reports the logged decision of
    /// transaction `txid`, if one is logged: the one answer to a recovery
    /// ST1, an ST2 and an adopted DecFB.
    fn st2_reply(&self, txid: TxId, replica: ReplicaId) -> Option<St2ReplyBody> {
        let (decision, view_decision) = self.logged?;
        Some(St2ReplyBody {
            txid,
            replica,
            decision,
            view_decision,
            view_current: self.current_view,
        })
    }
}

impl BasilReplica {
    /// Creates a replica for shard `id.shard` preloaded with `initial_data`.
    pub fn new(
        id: ReplicaId,
        cfg: BasilConfig,
        registry: basil_crypto::KeyRegistry,
        behavior: ReplicaBehavior,
        initial_data: impl IntoIterator<Item = (Key, Value)>,
    ) -> Self {
        let engine = SigEngine::new(NodeId::Replica(id), registry, &cfg);
        let store =
            MvtsoStore::with_initial_data(initial_data).for_shard(id.shard, cfg.system.num_shards);
        BasilReplica {
            id,
            cfg,
            engine,
            store,
            behavior,
            records: FastHashMap::default(),
            out_batch: Vec::new(),
            batch_timer_armed: false,
            wal: Wal::new(Duration::ZERO),
            recovering: None,
            stats: ReplicaStats::default(),
        }
    }

    /// Rebuilds a replica after an *amnesia* restart: all in-memory state is
    /// gone and only the WAL image (`wal_bytes`) survived the crash.
    ///
    /// Replay applies each record with `BasilReplica::apply`, the function
    /// that applied it live, in append order — the order the pre-crash
    /// replica mutated its store — so prepares re-run the MVTSO check against
    /// exactly the store state they originally saw, logged decisions are
    /// logged again, applied decisions re-commit or re-abort, and the highest
    /// GC watermark is re-imposed. A torn tail is truncated by
    /// [`Wal::recover`]. The replica then starts in *catch-up* mode:
    /// [`Actor::on_start`] asks every shard peer for the decision
    /// certificates it missed while down, and ordinary protocol traffic is
    /// buffered until every peer answered or the catch-up deadline fires.
    pub fn recover(
        id: ReplicaId,
        cfg: BasilConfig,
        registry: basil_crypto::KeyRegistry,
        behavior: ReplicaBehavior,
        initial_data: impl IntoIterator<Item = (Key, Value)>,
        wal_bytes: Vec<u8>,
    ) -> Self {
        let (wal, records) = Wal::recover(wal_bytes, Duration::ZERO);
        let mut replica = BasilReplica::new(id, cfg, registry, behavior, initial_data);
        replica.wal = wal;
        for record in records {
            // The one step that is replay's alone: re-run the
            // concurrency-control check of a commit vote, so its prepared
            // writes, RTS entries, and dependency tracking are reinstalled.
            // The permissive clock keeps the timestamp acceptance bound (a
            // wall-clock check, already passed before the crash) from
            // rejecting the replay.
            if let WalRecord::Prepare { commit: true, tx } = &record {
                let clock = SimTime::from_nanos(u64::MAX / 2);
                let _ = replica.store.prepare(tx, clock, DELTA);
            }
            // A vote this releases was cast live by a later Prepare record.
            replica.apply(record);
        }
        let peers: FastHashSet<u32> = (0..replica.cfg.system.shard.n())
            .filter(|&i| i != replica.id.index)
            .collect();
        if !peers.is_empty() {
            replica.recovering = Some(RecoveryState {
                pending_peers: peers,
                buffered: Vec::new(),
            });
        }
        replica
    }

    /// Appends `record` to the WAL and applies it: the one way a live
    /// handler changes durable state. Returns the deferred votes an applied
    /// decision released.
    fn log(&mut self, record: WalRecord) -> Vec<(TxId, Vote)> {
        self.wal.append(&record);
        self.stats.wal_appends += 1;
        self.apply(record)
    }

    /// Applies one WAL record to the transaction records and the store, live
    /// right after its append ([`BasilReplica::log`]) and on replay
    /// ([`BasilReplica::recover`]). No messages, no signatures: replay must
    /// be free of external effects. Returns the deferred votes an applied
    /// decision released.
    fn apply(&mut self, record: WalRecord) -> Vec<(TxId, Vote)> {
        match record {
            WalRecord::Prepare { commit, tx } => {
                let record = self.record(tx.id());
                record.own_vote = Some(if commit {
                    Decision::Commit
                } else {
                    Decision::Abort
                });
                record.tx.get_or_insert(tx);
            }
            WalRecord::Decision { txid, commit, view } => {
                let decision = if commit {
                    Decision::Commit
                } else {
                    Decision::Abort
                };
                let record = self.record(txid);
                record.logged = Some((decision, view));
                record.current_view = record.current_view.max(view);
            }
            WalRecord::View { txid, view } => {
                let record = self.record(txid);
                record.current_view = record.current_view.max(view);
            }
            WalRecord::Applied { txid, commit, tx } => {
                let record = self.records.entry(txid).or_default();
                record.tx = record.tx.take().or(tx);
                if !commit {
                    return self.store.abort(txid);
                }
                // A commit whose body is gone (it was only ever logged by
                // reference) stays undecided; peer catch-up re-ships it
                // with the certificate.
                if let Some(tx) = &record.tx {
                    return self.store.commit(tx);
                }
            }
            WalRecord::GcWatermark { watermark } => self.store.gc_before(watermark),
        }
        Vec::new()
    }

    /// Logs `decision` for `txid` in `view`, and returns the ST2 reply that
    /// now reports it. The one writer of a logged decision; each caller
    /// checks its own admission rule first: the first view-0 ST2 sticks
    /// (`apply_st2`), and a DecFB needs its election's majority and a view
    /// above the logged decision's (`handle_dec_fb`).
    fn log_decision(&mut self, txid: TxId, decision: Decision, view: View) -> Option<St2ReplyBody> {
        let commit = decision.is_commit();
        self.log(WalRecord::Decision { txid, commit, view });
        let replica = self.id;
        self.records.get(&txid)?.st2_reply(txid, replica)
    }

    /// Takes the simulated disk image out of the replica. The cluster
    /// harness calls this on the crashed actor and hands the bytes to
    /// [`BasilReplica::recover`] — the WAL is the only state that survives
    /// an amnesia restart.
    pub fn take_wal_bytes(&mut self) -> Vec<u8> {
        self.wal.take_bytes()
    }

    /// The replica's configured behaviour (the harness preserves it across
    /// amnesia restarts: a Byzantine replica does not become honest by
    /// crashing).
    pub fn behavior(&self) -> ReplicaBehavior {
        self.behavior
    }

    /// Whether the replica is still in its post-amnesia catch-up phase.
    pub fn is_recovering(&self) -> bool {
        self.recovering.is_some()
    }

    /// This replica's identity.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Counters collected so far.
    pub fn stats(&self) -> &ReplicaStats {
        &self.stats
    }

    /// Read access to the underlying store (used by the harness for the
    /// serializability audit and by examples to inspect final state).
    pub fn store(&self) -> &MvtsoStore {
        &self.store
    }

    /// Overrides the replica's behaviour (used by failure-injection tests).
    pub fn set_behavior(&mut self, behavior: ReplicaBehavior) {
        self.behavior = behavior;
    }

    fn record(&mut self, txid: TxId) -> &mut TxRecord {
        self.records.entry(txid).or_default()
    }

    /// The index of `from` if it is a replica of this shard.
    fn shard_peer(&self, from: NodeId) -> Option<u32> {
        match from {
            NodeId::Replica(r) if r.shard == self.id.shard => Some(r.index),
            _ => None,
        }
    }

    fn shard_replicas(&self) -> Vec<NodeId> {
        let shard = self.id.shard;
        (0..self.cfg.system.shard.n())
            .map(|i| NodeId::Replica(ReplicaId::new(shard, i)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Replies: read MACs and vote batching (Section 4.4)
    // ------------------------------------------------------------------

    /// Sends a reply: a read reply MAC'd at once, a vote in the next signed
    /// batch. This is the one place a misbehaving replica departs from the
    /// protocol: its store, log and records stay honest, and only what it
    /// sends differs.
    ///
    /// A vote is signed because it becomes evidence: ST1 and ST2 replies end
    /// up in certificates that every other replica and client verifies. A
    /// read reply never does. Only the client it answers checks it, and no
    /// ST1, certificate or catch-up reply carries it on, so it needs
    /// point-to-point authentication only, the MAC a client request carries
    /// ([`SigEngine::sign_request`]).
    fn send_reply(&mut self, ctx: &mut Context<BasilMsg>, to: NodeId, mut reply: Reply) {
        match (self.behavior, &mut reply) {
            (ReplicaBehavior::IgnoreReads, Reply::Read(_))
            | (ReplicaBehavior::WithholdVotes, Reply::St1(_)) => {
                self.stats.byzantine_drops += 1;
                return;
            }
            (ReplicaBehavior::AlwaysVoteAbort, Reply::St1(body)) => {
                body.vote = Decision::Abort;
            }
            _ => {}
        }
        let vote = match reply {
            Reply::Read(body) => {
                let proof = self.engine.sign_request(&body);
                ctx.send(to, BasilMsg::ReadReply(ReadReply { body, proof }));
                return;
            }
            Reply::St1(body) => PendingVote::St1(body),
            Reply::St2(body) => PendingVote::St2(body),
        };
        self.out_batch.push((to, vote));
        let batch_size = self.cfg.system.batch_size.max(1) as usize;
        if !self.engine.enabled() || batch_size == 1 || self.out_batch.len() >= batch_size {
            self.flush_batch(ctx);
        } else if !self.batch_timer_armed {
            self.batch_timer_armed = true;
            ctx.schedule_self(
                BATCH_TIMEOUT,
                BasilMsg::ReplicaTimer(ReplicaTimer::BatchFlush),
            );
        }
    }

    fn flush_batch(&mut self, ctx: &mut Context<BasilMsg>) {
        if self.out_batch.is_empty() {
            return;
        }
        // Lazy payloads: under simulated crypto only the lengths are read.
        // The batch is drained in place, so it keeps its capacity.
        let proofs = self.engine.sign_batch(&self.out_batch);
        self.stats.batches_signed += 1;
        for ((to, vote), proof) in self.out_batch.drain(..).zip(proofs) {
            let msg = match vote {
                PendingVote::St1(body) => BasilMsg::St1Reply(SignedSt1Reply { body, proof }),
                PendingVote::St2(body) => BasilMsg::St2Reply(SignedSt2Reply { body, proof }),
            };
            ctx.send(to, msg);
        }
    }

    // ------------------------------------------------------------------
    // Store garbage collection
    // ------------------------------------------------------------------

    /// Runs one periodic GC sweep and re-arms the timer.
    ///
    /// The watermark trails the local clock by `gc_horizon`: every committed
    /// version superseded below it, committed read record below it, and RTS
    /// entry below it is dropped (an in-place prefix drain per key in the
    /// flattened store — no allocation). Timestamps of honest transactions
    /// track client clocks, so with a horizon comfortably above [`DELTA`]
    /// plus [`basil_store::session::MAX_BACKOFF`] no fault-free timestamp
    /// lands below the watermark. Safety does not rest on that assumption: the
    /// store refuses to prepare any transaction timestamped at or below its
    /// highest GC watermark (the conflict evidence there is gone), so a
    /// Byzantine or badly skewed backdated transaction aborts — the standard
    /// MVTSO GC liveness trade, never a serializability hole.
    fn gc_sweep(&mut self, ctx: &mut Context<BasilMsg>) {
        // Reached only through `on_timer`, but a sweep still requires the
        // operator's opt-in (it trades liveness).
        if self.cfg.gc_interval.is_none() {
            return;
        }
        let horizon = self.cfg.gc_horizon.as_nanos();
        let now = ctx.local_clock().as_nanos();
        if now > horizon {
            // (time, ClientId(0)) sorts at-or-below every timestamp with the
            // same wall-clock component, making the cut-off exact.
            let watermark = Timestamp::from_nanos(now - horizon, ClientId(0));
            self.stats.gc_sweeps += 1;
            // Durable: a recovered replica must refuse the same collected
            // region its pre-crash self would have.
            self.log(WalRecord::GcWatermark { watermark });
        }
        if let Some(interval) = self.cfg.gc_interval {
            ctx.schedule_self(interval, BasilMsg::ReplicaTimer(ReplicaTimer::GcSweep));
        }
    }

    // ------------------------------------------------------------------
    // Execution phase: reads
    // ------------------------------------------------------------------

    fn handle_read(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId, req: ReadRequest) {
        if !self.engine.verify_request(&req, req.auth.as_ref()) {
            return;
        }
        // Timestamp acceptance window (Section 4.1): ignore reads too far in
        // the future.
        if req.ts.exceeds_bound(ctx.local_clock(), DELTA) {
            return;
        }
        let result = self.store.read(&req.key, req.ts);
        let committed = result.committed.map(|c| {
            let record = self.records.get(&c.txid);
            CommittedRead {
                version: c.version,
                value: c.value,
                cert: record.and_then(|r| r.cert.clone()),
                tx: record.and_then(|r| r.tx.clone()),
                txid: c.txid,
            }
        });
        let prepared = result.prepared.map(|p| PreparedRead { tx: p.tx });
        let body = ReadReplyBody {
            req_id: req.req_id,
            key: req.key,
            committed,
            prepared,
        };
        self.stats.reads_served += 1;
        self.send_reply(ctx, from, Reply::Read(body));
    }

    // ------------------------------------------------------------------
    // Prepare phase: ST1
    // ------------------------------------------------------------------

    fn handle_st1(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId, st1: St1) {
        if !self.engine.verify_request(&st1, st1.auth.as_ref()) {
            return;
        }
        let txid = st1.tx.id();
        // The record is resolved once and everything below works through it
        // (records, store, engine and stats are disjoint fields).
        let record = self.records.entry(txid).or_default();
        if st1.recovery {
            record.register_interested(from);
        }

        // A known certificate answers the request immediately (recovery fast
        // path: the client can jump straight to writeback).
        if let Some(cert) = &record.cert {
            let wb = Writeback {
                cert: Arc::clone(cert),
                tx: record.tx.clone(),
            };
            ctx.send(from, BasilMsg::Writeback(wb));
            return;
        }

        record.tx.get_or_insert_with(|| Arc::clone(&st1.tx));

        // If we logged an ST2 decision already, a recovering client is better
        // served by that state.
        if st1.recovery {
            if let Some(body) = record.st2_reply(txid, self.id) {
                self.send_reply(ctx, from, Reply::St2(body));
                return;
            }
        }

        // Re-deliveries are answered with the stored vote.
        if let Some(vote) = record.own_vote {
            let body = St1ReplyBody {
                txid,
                replica: self.id,
                vote,
            };
            self.send_reply(ctx, from, Reply::St1(body));
            return;
        }
        // A withheld vote is cast to every interested client once the
        // dependencies it waits on are decided.
        if self.store.is_pending(&txid) {
            record.register_interested(from);
            return;
        }

        // Run the MVTSO check (Algorithm 1). Its processing cost is charged
        // as one more message's worth of CPU.
        ctx.charge(MESSAGE_CPU);
        match self.store.prepare(&st1.tx, ctx.local_clock(), DELTA) {
            CheckOutcome::Decided(vote) => self.cast_vote(ctx, txid, vote, &[from]),
            CheckOutcome::Pending { .. } => {
                record.register_interested(from);
                self.stats.st1_deferred += 1;
            }
        }
    }

    /// Casts this replica's one ST1 vote for `txid`, at once or when the
    /// dependencies it waited on are decided: logs it (which records it),
    /// answers each client in `to`, and then applies the ST2s that arrived
    /// before the transaction body (they can now be validated against it).
    fn cast_vote(&mut self, ctx: &mut Context<BasilMsg>, txid: TxId, vote: Vote, to: &[NodeId]) {
        let vote = vote.decision();
        let record = self.record(txid);
        // `handle_st1` records the body before the check that yields a vote.
        let Some(tx) = record.tx.clone() else {
            return;
        };
        let buffered_st2 = std::mem::take(&mut record.buffered_st2);
        self.stats.st1_voted += 1;
        let commit = vote.is_commit();
        self.log(WalRecord::Prepare { commit, tx });
        for &client in to {
            let body = St1ReplyBody {
                txid,
                replica: self.id,
                vote,
            };
            self.send_reply(ctx, client, Reply::St1(body));
        }
        for (from, st2) in buffered_st2 {
            self.apply_st2(ctx, from, st2);
        }
    }

    /// Casts the deferred ST1 votes released by a dependency decision, to the
    /// interested clients.
    fn deliver_released_votes(&mut self, ctx: &mut Context<BasilMsg>, released: Vec<(TxId, Vote)>) {
        for (txid, vote) in released {
            let to = self.record(txid).interested.clone();
            self.cast_vote(ctx, txid, vote, &to);
        }
    }

    // ------------------------------------------------------------------
    // Prepare phase: ST2 (decision logging)
    // ------------------------------------------------------------------

    fn handle_st2(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId, st2: St2) {
        // A client proposes the decision of view 0; a higher view's decision
        // comes from its fallback leader (`handle_dec_fb`) or not at all.
        if st2.view != 0 || !self.engine.verify_request(&st2, st2.auth.as_ref()) {
            return;
        }
        let txid = st2.txid;
        // Without the transaction body we cannot check which shards must have
        // voted; buffer until the ST1 arrives (unless validation is relaxed).
        let tx_known = self.records.get(&txid).is_some_and(|r| r.tx.is_some());
        if !tx_known && !self.cfg.relax_st2_validation {
            // The first ST2 of a sender sticks, and an honest client's
            // re-send carries the same content: buffer one per sender.
            let buffered = &mut self.record(txid).buffered_st2;
            if buffered.iter().all(|(sender, _)| *sender != from) {
                buffered.push((from, st2));
            }
            return;
        }
        self.apply_st2(ctx, from, st2);
    }

    fn apply_st2(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId, st2: St2) {
        let txid = st2.txid;
        let involved = self
            .records
            .get(&txid)
            .and_then(|r| r.tx.as_ref())
            .map(|tx| tx.involved_shards(self.cfg.system.num_shards));
        // Only S_log logs decisions (see `validate_decision_cert`): an ST2 for
        // a transaction known to log elsewhere is not acknowledged here.
        if involved
            .as_deref()
            .is_some_and(|s| logging_shard(txid, s) != Some(self.id.shard))
        {
            return;
        }
        // The tallies must justify the decision on the shards the body
        // involves (`handle_st2` holds an ST2 back until the body is known);
        // relaxed validation checks nothing.
        if !self.cfg.relax_st2_validation
            && !involved.is_some_and(|involved| {
                votes_justify(
                    txid,
                    st2.decision,
                    Strength::Slow,
                    &st2.shard_votes,
                    &involved,
                    &self.cfg.system.shard,
                    &mut self.engine,
                )
            })
        {
            return;
        }
        let replica = self.id;
        let record = self.record(txid);
        record.register_interested(from);
        // The first ST2 sticks: a later one, equivocating or not, is
        // answered with the decision already logged.
        let reply = record.st2_reply(txid, replica).or_else(|| {
            self.stats.st2_logged += 1;
            self.log_decision(txid, st2.decision, st2.view)
        });
        if let Some(body) = reply {
            self.send_reply(ctx, from, Reply::St2(body));
        }
    }

    // ------------------------------------------------------------------
    // Writeback phase
    // ------------------------------------------------------------------

    /// Validates and applies a decision certificate delivered by `from` (a
    /// client's writeback, or an entry of a peer's catch-up reply).
    fn handle_writeback(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId, wb: Writeback) {
        let txid = wb.cert.txid;
        if self.store.decision(&txid).is_some() {
            return; // already applied
        }
        // The body is the certificate's transaction or nothing: the
        // certificate proves that `txid` was decided, not what some other
        // transaction wrote. Without a body the involved shards are unknown,
        // so nothing is checked (or metered) until a writeback carries it.
        let body = wb.tx.filter(|tx| tx.id() == txid);
        let known = self.records.get(&txid).and_then(|r| r.tx.clone());
        let Some(tx) = known.or(body) else {
            return;
        };
        let involved = tx.involved_shards(self.cfg.system.num_shards);
        if !validate_decision_cert(
            &wb.cert,
            &involved,
            &self.cfg.system.shard,
            &mut self.engine,
        ) {
            return;
        }

        let commit = wb.cert.decision().is_commit();
        // Commits re-ship the body in the log so amnesia replay can
        // re-install the writes without any peer's help.
        let logged_tx = commit.then(|| Arc::clone(&tx));
        let record = self.records.entry(txid).or_default();
        record.tx.get_or_insert(tx);
        record.cert = Some(Arc::clone(&wb.cert));
        let interested = std::mem::take(&mut record.interested);
        self.stats.commits_applied += u64::from(commit);
        let released = self.log(WalRecord::Applied {
            txid,
            commit,
            tx: logged_tx,
        });
        // Forward the outcome to clients waiting on this transaction (a
        // reference-count bump per recipient, not a certificate copy), but
        // not back to the one that delivered it.
        for client in interested.into_iter().filter(|&c| c != from) {
            ctx.send(
                client,
                BasilMsg::Writeback(Writeback {
                    cert: Arc::clone(&wb.cert),
                    tx: None,
                }),
            );
        }
        self.deliver_released_votes(ctx, released);
    }

    // ------------------------------------------------------------------
    // Crash recovery: peer catch-up
    // ------------------------------------------------------------------

    /// Serves a recovering peer with a writeback for every decision
    /// certificate this replica has applied, each with the transaction body
    /// when still held (commits need it to re-install writes). Certificates
    /// are self-validating, so no signature is needed on the reply; entries
    /// are sent in transaction-id order to keep the message plane
    /// deterministic. Only a replica of this shard, by its transport sender,
    /// is served.
    fn handle_catch_up_request(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId) {
        if self.shard_peer(from).is_none() {
            return; // a client's or another shard's request
        }
        let mut entries: Vec<_> = (self.records.values())
            .filter_map(|r| {
                let (cert, tx) = (Arc::clone(r.cert.as_ref()?), r.tx.clone());
                Some(Writeback { cert, tx })
            })
            .collect();
        entries.sort_by_key(|wb| wb.cert.txid);
        ctx.send(from, BasilMsg::CatchUpReply(CatchUpReply { entries }));
    }

    /// Applies a peer's catch-up reply while recovering. Every entry goes
    /// through [`BasilReplica::handle_writeback`], i.e. the certificate is
    /// validated exactly like a client writeback before it touches the store
    /// — a Byzantine peer can pad the reply with garbage but cannot poison
    /// recovery with an unverifiable decision. A reply counts for the shard
    /// peer that is its transport sender; once every peer has answered, the
    /// replica resumes normal service.
    fn handle_catch_up_reply(
        &mut self,
        ctx: &mut Context<BasilMsg>,
        from: NodeId,
        reply: CatchUpReply,
    ) {
        if self.recovering.is_none() {
            return; // late reply after the deadline already fired
        }
        let Some(peer) = self.shard_peer(from) else {
            return; // not a replica of this shard
        };
        let state = self.recovering.as_mut().expect("checked above");
        if !state.pending_peers.remove(&peer) {
            return; // duplicate reply, or this replica's own index
        }
        for wb in reply.entries {
            let txid = wb.cert.txid;
            let undecided = self.store.decision(&txid).is_none();
            self.handle_writeback(ctx, from, wb);
            if undecided && self.store.decision(&txid).is_some() {
                self.stats.catch_up_applied += 1;
            }
        }
        if self
            .recovering
            .as_ref()
            .is_some_and(|s| s.pending_peers.is_empty())
        {
            self.finish_catch_up(ctx);
        }
    }

    /// Ends the catch-up phase and replays the traffic that was buffered
    /// during it through the ordinary handlers, in arrival order.
    fn finish_catch_up(&mut self, ctx: &mut Context<BasilMsg>) {
        let Some(state) = self.recovering.take() else {
            return;
        };
        for (from, msg) in state.buffered {
            // Re-dispatching a held-back message costs as much as its receipt.
            ctx.charge(MESSAGE_CPU);
            self.dispatch(ctx, from, msg);
        }
    }

    /// Whether `msg` must wait until catch-up finishes. Catch-up traffic
    /// flows immediately (timers never come this way; they fire through
    /// `on_timer`); everything that could read or mutate not-yet-recovered
    /// protocol state is held back.
    fn buffered_during_recovery(msg: &BasilMsg) -> bool {
        matches!(
            msg,
            BasilMsg::Read(_)
                | BasilMsg::St1(_)
                | BasilMsg::St2(_)
                | BasilMsg::Writeback(_)
                | BasilMsg::InvokeFb(_)
                | BasilMsg::ElectFb(_)
                | BasilMsg::DecFb(_)
        )
    }

    // ------------------------------------------------------------------
    // Fallback protocol (Section 5)
    // ------------------------------------------------------------------

    fn handle_invoke_fb(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId, ifb: InvokeFb) {
        if !self.engine.verify_request(&ifb, ifb.auth.as_ref()) {
            return;
        }
        self.stats.fallback_invocations += 1;
        let txid = ifb.txid;

        // The current views reported by distinct, correctly signed replicas
        // of this shard.
        let mut reported: Vec<View> = Vec::new();
        count_distinct_signed(
            &ifb.views,
            self.id.shard,
            &mut self.engine,
            |v| (v.body.txid == txid).then_some((v.body.replica, &v.body, v.proof.as_ref())),
            |v| reported.push(v.body.view_current),
        );

        let shard_cfg = self.cfg.system.shard;
        let record = self.record(txid);
        record.register_interested(from);
        let current = record.current_view;
        let proposed = next_view(current, &reported, &shard_cfg);
        // Optimization from Appendix B.5: moving from view 0 to view 1 needs
        // no proof at all.
        let proposed = if current == 0 {
            proposed.max(1)
        } else {
            proposed
        };
        // A raised view is logged before the ElectFB that names it goes out.
        // If the proof does not justify a newer view we still (re)send our
        // election message for the current view so a retrying client can
        // make progress.
        if proposed > current {
            self.log(WalRecord::View {
                txid,
                view: proposed,
            });
        }
        let record = self.record(txid);
        let (view, decision) = (record.current_view, record.logged.map(|(d, _)| d));
        let leader_index = fallback_leader_index(view, txid, self.cfg.system.shard.n());
        let leader = NodeId::Replica(ReplicaId::new(self.id.shard, leader_index));
        let body = ElectFbBody {
            txid,
            replica: self.id,
            decision,
            view,
        };
        let proof = self.engine.sign(&body);
        ctx.send(leader, BasilMsg::ElectFb(SignedElectFb { body, proof }));
    }

    fn handle_elect_fb(&mut self, ctx: &mut Context<BasilMsg>, efb: SignedElectFb) {
        let txid = efb.body.txid;
        let view = efb.body.view;
        // Only the designated leader for this view collects elections.
        let leader_index = fallback_leader_index(view, txid, self.cfg.system.shard.n());
        if leader_index != self.id.index {
            return;
        }
        let election = self.records.get(&txid).and_then(|r| r.elections.get(&view));
        if election.is_some_and(|e| e.done) || efb.body.replica.shard != self.id.shard {
            return;
        }
        let (engine, signer) = (&mut self.engine, NodeId::Replica(efb.body.replica));
        if !engine.verify_from(&efb.body, efb.proof.as_ref(), signer) {
            return;
        }
        let record = self.records.entry(txid).or_default();
        let election = record.elections.entry(view).or_default();
        election.votes.insert(efb.body.replica.index, efb);
        if (election.votes.len() as u32) < self.cfg.system.shard.elect_quorum() {
            return;
        }
        // Elected: propose the decision the reported logged decisions
        // reconcile to, if any replica logged one.
        let votes: Vec<SignedElectFb> = election.votes.values().cloned().collect();
        let Some(decision) = reconcile(votes.iter().map(|v| v.body.decision)) else {
            return;
        };
        election.done = true;
        let dec = DecFb {
            txid,
            decision,
            view,
            elect_proof: votes,
            auth: None,
        };
        let dec = DecFb {
            auth: self.engine.sign(&dec),
            ..dec
        };
        for replica in self.shard_replicas() {
            ctx.send(replica, BasilMsg::DecFb(dec.clone()));
        }
    }

    fn handle_dec_fb(&mut self, ctx: &mut Context<BasilMsg>, dfb: DecFb) {
        let txid = dfb.txid;
        let view = dfb.view;
        // The view's leader must have signed the decision, and it must carry
        // the election: 4f+1 distinct, correctly signed ElectFB messages of
        // this shard for this view, whose logged decisions reconcile to it.
        let leader_index = fallback_leader_index(view, txid, self.cfg.system.shard.n());
        let leader = NodeId::Replica(ReplicaId::new(self.id.shard, leader_index));
        if !self.engine.verify_from(&dfb, dfb.auth.as_ref(), leader) {
            return;
        }
        let mut reported = Vec::new();
        let electors = count_distinct_signed(
            &dfb.elect_proof,
            self.id.shard,
            &mut self.engine,
            |e| {
                (e.body.txid == txid && e.body.view == view).then_some((
                    e.body.replica,
                    &e.body,
                    e.proof.as_ref(),
                ))
            },
            |e| reported.push(e.body.decision),
        );
        if electors < self.cfg.system.shard.elect_quorum()
            || reconcile(reported) != Some(dfb.decision)
        {
            return;
        }
        let record = self.record(txid);
        // A logged decision changes only in a higher view, so a view has one
        // decision at this replica: a leader's second DecFB of the same view
        // (or a replayed copy of the first) is refused.
        if view < record.current_view || record.logged.is_some_and(|(_, v)| v >= view) {
            return;
        }
        let interested = record.interested.clone();
        self.stats.fallback_decisions_adopted += 1;
        if let Some(body) = self.log_decision(txid, dfb.decision, view) {
            for client in interested {
                self.send_reply(ctx, client, Reply::St2(body.clone()));
            }
        }
    }
}

impl BasilReplica {
    /// The message dispatch proper, shared by live delivery and the replay
    /// of traffic buffered during catch-up.
    fn dispatch(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId, msg: BasilMsg) {
        match msg {
            BasilMsg::Read(req) => self.handle_read(ctx, from, req),
            BasilMsg::St1(st1) => self.handle_st1(ctx, from, st1),
            BasilMsg::St2(st2) => self.handle_st2(ctx, from, st2),
            BasilMsg::Writeback(wb) => self.handle_writeback(ctx, from, wb),
            BasilMsg::InvokeFb(ifb) => self.handle_invoke_fb(ctx, from, ifb),
            BasilMsg::ElectFb(efb) => self.handle_elect_fb(ctx, efb),
            BasilMsg::DecFb(dfb) => self.handle_dec_fb(ctx, dfb),
            BasilMsg::CatchUpRequest => self.handle_catch_up_request(ctx, from),
            BasilMsg::CatchUpReply(reply) => self.handle_catch_up_reply(ctx, from, reply),
            // Messages addressed to clients are ignored if misrouted. So is
            // an RtsRelease: it carries no authentication and no honest
            // client sends one, so honouring it would let any node erase an
            // honest reader's read timestamp. Timers fire through `on_timer`
            // only, so a timer sent as a message is ignored too.
            BasilMsg::RtsRelease { .. }
            | BasilMsg::ReadReply(_)
            | BasilMsg::St1Reply(_)
            | BasilMsg::St2Reply(_)
            | BasilMsg::ClientTimer(_)
            | BasilMsg::ReplicaTimer(_) => {}
        }
    }
}

impl Actor<BasilMsg> for BasilReplica {
    fn on_start(&mut self, ctx: &mut Context<BasilMsg>) {
        self.engine.start_incarnation(ctx.now());
        if let Some(interval) = self.cfg.gc_interval {
            ctx.schedule_self(interval, BasilMsg::ReplicaTimer(ReplicaTimer::GcSweep));
        }
        if self.recovering.is_some() {
            // Amnesia restart: ask every shard peer for the decisions missed
            // while down, and bound the wait — peers may themselves be
            // crashed, so recovery must not hinge on all of them answering.
            for peer in self.shard_replicas() {
                if peer == NodeId::Replica(self.id) {
                    continue;
                }
                ctx.send(peer, BasilMsg::CatchUpRequest);
            }
            ctx.schedule_self(
                self.cfg.catch_up_timeout,
                BasilMsg::ReplicaTimer(ReplicaTimer::CatchUpDeadline),
            );
        }
        ctx.charge(self.engine.take_charged());
    }

    fn on_message(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId, msg: BasilMsg) {
        match self.recovering.as_mut() {
            // The replay buffer is bounded like the client admission queue:
            // a recovering replica under heavy load sheds the overflow
            // instead of growing without limit. Shedding is safe — every
            // held-back message kind is retransmitted by its sender's
            // timeout machinery.
            Some(rec) if Self::buffered_during_recovery(&msg) => {
                if rec.buffered.len() >= self.cfg.catch_up_buffer_bound {
                    self.stats.catch_up_shed += 1;
                } else {
                    self.stats.catch_up_buffered += 1;
                    rec.buffered.push((from, msg));
                }
            }
            _ => self.dispatch(ctx, from, msg),
        }
        // Every signature made and checked while handling the message.
        ctx.charge(self.engine.take_charged());
    }

    fn on_timer(&mut self, ctx: &mut Context<BasilMsg>, msg: BasilMsg) {
        if let BasilMsg::ReplicaTimer(timer) = msg {
            match timer {
                ReplicaTimer::BatchFlush => {
                    self.batch_timer_armed = false;
                    self.flush_batch(ctx);
                }
                ReplicaTimer::GcSweep => self.gc_sweep(ctx),
                ReplicaTimer::CatchUpDeadline => self.finish_catch_up(ctx),
            }
        }
        ctx.charge(self.engine.take_charged());
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
    use crate::certs::{DecisionProof, ShardVotes, VoteCert};
    use crate::config::CryptoMode;
    use basil_common::{ClientId, ShardId, SimTime, Timestamp};
    use basil_crypto::KeyRegistry;
    use basil_store::TransactionBuilder;
    use std::collections::HashSet;

    fn cfg() -> BasilConfig {
        let mut c = BasilConfig::test_single_shard();
        c.crypto_mode = CryptoMode::Real;
        c
    }

    fn registry() -> KeyRegistry {
        KeyRegistry::from_seed(77)
    }

    fn replica(index: u32) -> BasilReplica {
        BasilReplica::new(
            ReplicaId::new(ShardId(0), index),
            cfg(),
            registry(),
            ReplicaBehavior::Correct,
            [
                (Key::new("x"), Value::from_u64(0)),
                (Key::new("y"), Value::from_u64(0)),
            ],
        )
    }

    fn client_node() -> NodeId {
        NodeId::Client(ClientId(9))
    }

    fn client_engine() -> SigEngine {
        SigEngine::new(client_node(), registry(), &cfg())
    }

    fn ctx_at(node: NodeId, ms: u64) -> Context<BasilMsg> {
        Context::new(node, SimTime::from_millis(ms), SimTime::from_millis(ms))
    }

    fn write_tx(t: u64, key: &str, val: u64) -> Arc<Transaction> {
        let mut b = TransactionBuilder::new(Timestamp::from_nanos(t, ClientId(9)));
        b.record_write(Key::new(key), Value::from_u64(val));
        b.build_shared()
    }

    fn signed_st1(tx: &Arc<Transaction>, recovery: bool) -> St1 {
        let mut engine = client_engine();
        let st1 = St1 {
            tx: Arc::clone(tx),
            auth: None,
            recovery,
        };
        let proof = engine.sign_request(&st1);
        St1 { auth: proof, ..st1 }
    }

    fn signed_read(req_id: u64, key: &str, ts_nanos: u64) -> ReadRequest {
        let mut engine = client_engine();
        let req = ReadRequest {
            req_id,
            key: Key::new(key),
            ts: Timestamp::from_nanos(ts_nanos, ClientId(9)),
            auth: None,
        };
        let proof = engine.sign_request(&req);
        ReadRequest { auth: proof, ..req }
    }

    /// Extracts all messages sent to a given node from a context.
    fn sent_to(ctx: &Context<BasilMsg>, to: NodeId) -> Vec<BasilMsg> {
        ctx.outputs()
            .iter()
            .filter_map(|o| match o {
                basil_simnet::actor::Output::Send { to: t, msg } if *t == to => Some(msg.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn read_is_answered_with_initial_version() {
        let mut r = replica(0);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_read(&mut ctx, client_node(), signed_read(1, "x", 1_000_000));
        let msgs = sent_to(&ctx, client_node());
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            BasilMsg::ReadReply(reply) => {
                assert_eq!(reply.body.req_id, 1);
                let committed = reply.body.committed.as_ref().expect("initial version");
                assert_eq!(committed.value, Value::from_u64(0));
                assert!(reply.body.prepared.is_none());
                assert!(reply.proof.is_some());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(r.stats().reads_served, 1);
    }

    /// A read reply leaves in the callback that served the read, under a
    /// MAC its client checks as it checks a request: no read enters a
    /// signed batch or arms the flush timer, however large the batch. A
    /// replica that ignores reads still sends none.
    #[test]
    fn a_read_reply_is_macd_and_sent_at_once() {
        let mut r = BasilReplica::new(
            ReplicaId::new(ShardId(0), 0),
            cfg().with_batch_size(4),
            registry(),
            ReplicaBehavior::Correct,
            [(Key::new("x"), Value::from_u64(0))],
        );
        let mut client = client_engine();
        for req_id in 1..=3 {
            let mut ctx = ctx_at(NodeId::Replica(r.id()), req_id);
            r.handle_read(&mut ctx, client_node(), signed_read(req_id, "x", 1_000_000));
            let timers = ctx
                .outputs()
                .iter()
                .filter(|o| matches!(o, basil_simnet::actor::Output::Timer { .. }));
            assert_eq!(timers.count(), 0, "no flush timer");
            match &sent_to(&ctx, client_node())[..] {
                [BasilMsg::ReadReply(reply)] => {
                    assert_eq!(reply.body.req_id, req_id);
                    let proof = reply.proof.as_ref();
                    assert_eq!(proof.map(|mac| mac.signer), Some(NodeId::Replica(r.id())));
                    assert!(client.verify_request(&reply.body, proof));
                }
                other => panic!("expected one read reply, got {other:?}"),
            }
        }
        assert_eq!(r.stats().reads_served, 3);
        assert_eq!(r.stats().batches_signed, 0);

        r.set_behavior(ReplicaBehavior::IgnoreReads);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 4);
        r.handle_read(&mut ctx, client_node(), signed_read(4, "x", 1_000_000));
        assert!(sent_to(&ctx, client_node()).is_empty());
        assert_eq!(r.stats().byzantine_drops, 1);
    }

    #[test]
    fn read_with_future_timestamp_is_ignored() {
        let mut r = replica(0);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        // DELTA is 50 ms; ask for a read 10 seconds ahead.
        r.handle_read(&mut ctx, client_node(), signed_read(1, "x", 10_000_000_000));
        assert!(sent_to(&ctx, client_node()).is_empty());
    }

    /// The MAC field of a client request.
    fn mac_of(msg: &mut BasilMsg) -> &mut Option<basil_crypto::Signature> {
        match msg {
            BasilMsg::Read(m) => &mut m.auth,
            BasilMsg::St1(m) => &mut m.auth,
            BasilMsg::St2(m) => &mut m.auth,
            BasilMsg::InvokeFb(m) => &mut m.auth,
            other => panic!("not a client request: {other:?}"),
        }
    }

    /// Every request kind refuses a forged MAC, under real crypto: one made
    /// over another body of the same kind, and a genuine one relabelled to
    /// another client. Neither forgery is answered or logged; the genuine
    /// request then is answered.
    #[test]
    fn every_request_kind_refuses_a_forged_mac() {
        let tx = write_tx(1_000_000, "x", 7);
        let other = write_tx(1_000_000, "y", 8);
        let st2 =
            |tx: &Transaction| signed_st2(tx, Decision::Commit, shard_votes_commit_tally(tx, 4));
        let invoke_fb = |tx: &Transaction| {
            let ifb = InvokeFb {
                txid: tx.id(),
                views: vec![],
                auth: None,
            };
            InvokeFb {
                auth: client_engine().sign_request(&ifb),
                ..ifb
            }
        };
        // (kind, the genuine request, the same kind over another body)
        let rows = [
            (
                "READ",
                BasilMsg::Read(signed_read(1, "x", 1_000_000)),
                BasilMsg::Read(signed_read(1, "y", 1_000_000)),
            ),
            (
                "ST1",
                BasilMsg::St1(signed_st1(&tx, false)),
                BasilMsg::St1(signed_st1(&other, false)),
            ),
            ("ST2", BasilMsg::St2(st2(&tx)), BasilMsg::St2(st2(&other))),
            (
                "InvokeFB",
                BasilMsg::InvokeFb(invoke_fb(&tx)),
                BasilMsg::InvokeFb(invoke_fb(&other)),
            ),
        ];
        for (kind, mut genuine, mut other) in rows {
            let mut r = replica(0);
            let me = NodeId::Replica(r.id());
            // A prepared transaction, so a genuine ST2 is logged.
            r.handle_st1(&mut ctx_at(me, 1), client_node(), signed_st1(&tx, false));
            let mut moved = genuine.clone();
            *mac_of(&mut moved) = *mac_of(&mut other);
            let mut relabelled = genuine.clone();
            if let Some(mac) = mac_of(&mut relabelled) {
                mac.signer = NodeId::Client(ClientId(10));
            }
            for (forgery, msg) in [("moved", moved), ("relabelled", relabelled)] {
                let wal = r.stats().wal_appends;
                let mut ctx = ctx_at(me, 2);
                r.on_message(&mut ctx, client_node(), msg);
                assert!(ctx.outputs().is_empty(), "{kind}, {forgery}: no reply");
                assert_eq!(r.stats().wal_appends, wal, "{kind}, {forgery}: no log");
            }
            assert!(mac_of(&mut genuine).is_some(), "{kind}");
            let mut ctx = ctx_at(me, 3);
            r.on_message(&mut ctx, client_node(), genuine);
            assert!(
                !ctx.outputs().is_empty(),
                "{kind}: the genuine one is answered"
            );
        }
    }

    #[test]
    fn st1_produces_commit_vote_and_st1_is_idempotent() {
        let mut r = replica(0);
        let tx = write_tx(1_000_000, "x", 7);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));
        let msgs = sent_to(&ctx, client_node());
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            BasilMsg::St1Reply(reply) => {
                assert_eq!(reply.body.txid, tx.id());
                assert_eq!(reply.body.vote, Decision::Commit);
                assert_eq!(reply.body.replica, r.id());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Re-delivery returns the stored vote without re-running the check.
        let mut ctx2 = ctx_at(NodeId::Replica(r.id()), 2);
        r.handle_st1(&mut ctx2, client_node(), signed_st1(&tx, false));
        assert_eq!(sent_to(&ctx2, client_node()).len(), 1);
        assert_eq!(r.stats().st1_voted, 1);
    }

    #[test]
    fn conflicting_st1_votes_abort() {
        let mut r = replica(0);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        // A committed reader at ts 3ms read version 0 of x.
        let mut b = TransactionBuilder::new(Timestamp::from_nanos(3_000_000, ClientId(1)));
        b.record_read(Key::new("x"), Timestamp::ZERO);
        b.record_write(Key::new("y"), Value::from_u64(1));
        let reader = b.build_shared();
        r.handle_st1(&mut ctx, client_node(), signed_st1(&reader, false));

        // A writer of x at ts 2ms would invalidate that read: abort vote.
        let writer = write_tx(2_000_000, "x", 9);
        let mut ctx2 = ctx_at(NodeId::Replica(r.id()), 2);
        r.handle_st1(&mut ctx2, client_node(), signed_st1(&writer, false));
        match &sent_to(&ctx2, client_node())[0] {
            BasilMsg::St1Reply(reply) => assert_eq!(reply.body.vote, Decision::Abort),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rts_release_cannot_erase_a_readers_timestamp() {
        let mut r = replica(0);
        let me = NodeId::Replica(r.id());
        // Client 9 reads x at ts 100, leaving a read timestamp on x.
        let read = BasilMsg::Read(signed_read(1, "x", 100));
        r.on_message(&mut ctx_at(me, 1), client_node(), read);
        // Another client asks the replica to drop that read timestamp.
        let release = BasilMsg::RtsRelease {
            key: Key::new("x"),
            ts: Timestamp::from_nanos(100, ClientId(9)),
        };
        r.on_message(&mut ctx_at(me, 1), NodeId::Client(ClientId(2)), release);
        // A write of x below the read must still abort.
        let writer = write_tx(50, "x", 9);
        let mut ctx = ctx_at(me, 2);
        r.on_message(
            &mut ctx,
            client_node(),
            BasilMsg::St1(signed_st1(&writer, false)),
        );
        match &sent_to(&ctx, client_node())[0] {
            BasilMsg::St1Reply(reply) => assert_eq!(reply.body.vote, Decision::Abort),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A withholding replica sends no vote, for a recovery ST1 either, but
    /// prepares the transaction as an honest replica would.
    #[test]
    fn withholding_replica_does_not_vote() {
        let mut r = replica(0);
        r.set_behavior(ReplicaBehavior::WithholdVotes);
        let tx = write_tx(1_000_000, "x", 7);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));
        assert!(sent_to(&ctx, client_node()).is_empty());
        let recoverer = NodeId::Client(ClientId(22));
        let mut ctx2 = ctx_at(NodeId::Replica(r.id()), 2);
        r.handle_st1(&mut ctx2, recoverer, signed_st1(&tx, true));
        assert!(sent_to(&ctx2, recoverer).is_empty());
        assert_eq!(r.stats().byzantine_drops, 2);
        assert!(r.store().is_prepared(&tx.id()));
    }

    /// The vote in an ST1 reply `msgs` holds for `txid`.
    fn vote_in(msgs: &[BasilMsg], txid: TxId) -> Option<Decision> {
        msgs.iter().find_map(|m| match m {
            BasilMsg::St1Reply(reply) if reply.body.txid == txid => Some(reply.body.vote),
            _ => None,
        })
    }

    /// An abort-voting replica answers `Abort` to a first ST1, to a
    /// re-delivered one and for a deferred vote released later.
    #[test]
    fn always_abort_replica_votes_abort() {
        let mut r = replica(0);
        r.set_behavior(ReplicaBehavior::AlwaysVoteAbort);
        let me = NodeId::Replica(r.id());
        let tx = write_tx(1_000_000, "x", 7);
        for ms in [1, 2] {
            let mut ctx = ctx_at(me, ms);
            r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));
            let sent = sent_to(&ctx, client_node());
            assert_eq!(vote_in(&sent, tx.id()), Some(Decision::Abort), "{ms} ms");
        }

        let (dependent, dependent_client) = (dependent_tx(&tx), NodeId::Client(ClientId(3)));
        let mut ctx = ctx_at(me, 3);
        r.handle_st1(&mut ctx, dependent_client, signed_st1(&dependent, false));
        assert!(sent_to(&ctx, dependent_client).is_empty(), "vote deferred");
        let mut ctx = ctx_at(me, 4);
        r.handle_writeback(
            &mut ctx,
            client_node(),
            Writeback {
                cert: fast_commit_cert(&tx),
                tx: Some(Arc::clone(&tx)),
            },
        );
        let sent = sent_to(&ctx, dependent_client);
        assert_eq!(vote_in(&sent, dependent.id()), Some(Decision::Abort));
    }

    /// A transaction at 2 ms of client 3 that read `dep`'s prepared write of
    /// x and writes y.
    fn dependent_tx(dep: &Transaction) -> Arc<Transaction> {
        let mut b = TransactionBuilder::new(Timestamp::from_nanos(2_000_000, ClientId(3)));
        b.record_dependent_read(Key::new("x"), dep.timestamp(), dep.id());
        b.record_write(Key::new("y"), Value::from_u64(6));
        b.build_shared()
    }

    /// Builds a valid fast-path commit certificate for `tx` signed by all six
    /// replicas of shard 0.
    fn fast_commit_cert(tx: &Transaction) -> Arc<DecisionCert> {
        Arc::new(DecisionCert {
            txid: tx.id(),
            proof: DecisionProof::FastCommit(vec![commit_tally_of(tx, ShardId(0), 6)]),
        })
    }

    #[test]
    fn valid_writeback_commits_and_serves_new_version() {
        let mut r = replica(0);
        let tx = write_tx(1_000_000, "x", 42);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));

        let cert = fast_commit_cert(&tx);
        let mut ctx2 = ctx_at(NodeId::Replica(r.id()), 2);
        r.handle_writeback(
            &mut ctx2,
            client_node(),
            Writeback {
                cert,
                tx: Some(tx.clone()),
            },
        );
        assert_eq!(r.stats().commits_applied, 1);
        assert_eq!(
            r.store().latest_committed(&Key::new("x")).expect("x").1,
            Value::from_u64(42)
        );

        // A later read returns the committed version together with its
        // certificate.
        let mut ctx3 = ctx_at(NodeId::Replica(r.id()), 3);
        r.handle_read(&mut ctx3, client_node(), signed_read(2, "x", 5_000_000));
        match &sent_to(&ctx3, client_node())[0] {
            BasilMsg::ReadReply(reply) => {
                let committed = reply.body.committed.as_ref().expect("committed");
                assert_eq!(committed.value, Value::from_u64(42));
                assert!(
                    committed.cert.is_some(),
                    "cert attached for committed reads"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gc_sweep_trims_superseded_versions_and_rearms() {
        let mut gc_cfg = cfg();
        gc_cfg = gc_cfg.with_gc(
            basil_common::Duration::from_millis(5),
            basil_common::Duration::from_millis(1),
        );
        let mut r = BasilReplica::new(
            ReplicaId::new(ShardId(0), 0),
            gc_cfg,
            registry(),
            ReplicaBehavior::Correct,
            [(Key::new("x"), Value::from_u64(0))],
        );

        // Commit two versions of x (1 ms and 2 ms).
        for (t, val) in [(1_000_000u64, 1u64), (2_000_000, 2)] {
            let tx = write_tx(t, "x", val);
            let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
            r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));
            let cert = fast_commit_cert(&tx);
            let mut ctx2 = ctx_at(NodeId::Replica(r.id()), 2);
            r.handle_writeback(&mut ctx2, client_node(), Writeback { cert, tx: Some(tx) });
        }
        let mid = Timestamp::from_nanos(1_500_000, ClientId(0));
        assert!(
            r.store()
                .read_without_rts(&Key::new("x"), mid)
                .committed
                .is_some(),
            "pre-GC: the 1 ms version is visible to a 1.5 ms reader"
        );

        // Sweep at local clock 10 ms with a 1 ms horizon: watermark 9 ms,
        // so only the newest version (2 ms) is retained.
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 10);
        r.on_timer(&mut ctx, BasilMsg::ReplicaTimer(ReplicaTimer::GcSweep));
        assert_eq!(r.stats().gc_sweeps, 1);
        assert!(
            r.store()
                .read_without_rts(&Key::new("x"), mid)
                .committed
                .is_none(),
            "post-GC: superseded versions below the watermark are gone"
        );
        let late = Timestamp::from_nanos(20_000_000, ClientId(0));
        assert_eq!(
            r.store()
                .read_without_rts(&Key::new("x"), late)
                .committed
                .expect("newest retained")
                .value,
            Value::from_u64(2)
        );
    }

    #[test]
    fn forged_gc_sweep_is_ignored_when_gc_is_disabled() {
        let mut r = replica(0); // default config: gc_interval = None
        let tx = write_tx(1_000_000, "x", 1);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));
        let cert = fast_commit_cert(&tx);
        let mut ctx2 = ctx_at(NodeId::Replica(r.id()), 2);
        r.handle_writeback(&mut ctx2, client_node(), Writeback { cert, tx: Some(tx) });

        // A GcSweep delivered from another node must be a no-op, and even a
        // fired one is refused while GC is not opted in.
        let mut ctx3 = ctx_at(NodeId::Replica(r.id()), 1_000);
        r.on_message(
            &mut ctx3,
            client_node(),
            BasilMsg::ReplicaTimer(ReplicaTimer::GcSweep),
        );
        let mut ctx4 = ctx_at(NodeId::Replica(r.id()), 1_000);
        r.on_timer(&mut ctx4, BasilMsg::ReplicaTimer(ReplicaTimer::GcSweep));
        assert_eq!(r.stats().gc_sweeps, 0, "sweep refused: GC not opted in");
        let genesis_reader = Timestamp::from_nanos(500, ClientId(0));
        assert!(
            r.store()
                .read_without_rts(&Key::new("x"), genesis_reader)
                .committed
                .is_some(),
            "genesis version still present"
        );
    }

    #[test]
    fn forged_batch_flush_is_ignored() {
        let mut r = BasilReplica::new(
            ReplicaId::new(ShardId(0), 0),
            cfg().with_batch_size(4),
            registry(),
            ReplicaBehavior::Correct,
            [(Key::new("x"), Value::from_u64(0))],
        );
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        let tx = write_tx(1_000_000, "x", 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));
        assert!(sent_to(&ctx, client_node()).is_empty(), "reply queued");

        // A BatchFlush from another node must not force the flush (that
        // would defeat batch-signing amortization).
        let mut forged = ctx_at(NodeId::Replica(r.id()), 2);
        r.on_message(
            &mut forged,
            client_node(),
            BasilMsg::ReplicaTimer(ReplicaTimer::BatchFlush),
        );
        assert!(sent_to(&forged, client_node()).is_empty());

        // The replica's own timer still flushes.
        let mut own = ctx_at(NodeId::Replica(r.id()), 3);
        r.on_timer(&mut own, BasilMsg::ReplicaTimer(ReplicaTimer::BatchFlush));
        assert_eq!(sent_to(&own, client_node()).len(), 1);
    }

    #[test]
    fn forged_gc_sweep_is_ignored_even_when_gc_is_enabled() {
        let gc_cfg = cfg().with_gc(
            basil_common::Duration::from_millis(5),
            basil_common::Duration::from_millis(1),
        );
        let mut r = BasilReplica::new(
            ReplicaId::new(ShardId(0), 0),
            gc_cfg,
            registry(),
            ReplicaBehavior::Correct,
            [(Key::new("x"), Value::from_u64(0))],
        );
        // A GcSweep claiming to be a timer but arriving from another node
        // must neither sweep nor re-arm a new timer chain.
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 100);
        r.on_message(
            &mut ctx,
            client_node(),
            BasilMsg::ReplicaTimer(ReplicaTimer::GcSweep),
        );
        assert_eq!(r.stats().gc_sweeps, 0, "foreign GcSweep ignored");
        assert!(
            ctx.outputs().is_empty(),
            "no sweep ran and no timer chain was re-armed"
        );
    }

    #[test]
    fn invalid_writeback_is_rejected() {
        let mut r = replica(0);
        let tx = write_tx(1_000_000, "x", 42);
        // Certificate with too few votes (only 3 of 6).
        let votes: Vec<SignedSt1Reply> = (0..3)
            .map(|i| {
                let rid = ReplicaId::new(ShardId(0), i);
                let body = St1ReplyBody {
                    txid: tx.id(),
                    replica: rid,
                    vote: Decision::Commit,
                };
                let mut engine = SigEngine::new(NodeId::Replica(rid), registry(), &cfg());
                let proof = engine.sign(&body);
                SignedSt1Reply { body, proof }
            })
            .collect();
        let cert = Arc::new(DecisionCert {
            txid: tx.id(),
            proof: DecisionProof::FastCommit(vec![ShardVotes {
                txid: tx.id(),
                shard: ShardId(0),
                decision: Decision::Commit,
                votes,
            }]),
        });
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_writeback(
            &mut ctx,
            client_node(),
            Writeback {
                cert,
                tx: Some(tx.clone()),
            },
        );
        assert_eq!(r.stats().commits_applied, 0);
        assert!(r.store().latest_committed(&Key::new("x")).expect("x").1 == Value::from_u64(0));
    }

    /// T's valid certificate paired with the body of another transaction
    /// T' that writes y, for a replica that never saw T.
    fn cert_with_a_foreign_body() -> (Arc<Transaction>, Writeback) {
        let t = write_tx(1_000_000, "x", 42);
        let other = write_tx(2_000_000, "y", 9);
        let wb = Writeback {
            cert: fast_commit_cert(&t),
            tx: Some(Arc::clone(&other)),
        };
        (other, wb)
    }

    /// Whether nothing of `other` reached `r`'s store.
    fn untouched_by(r: &BasilReplica, other: &Transaction) -> bool {
        r.store().decision(&other.id()).is_none()
            && r.store().latest_committed(&Key::new("y")).expect("y").1 == Value::from_u64(0)
    }

    /// A certificate proves that its own transaction was decided: a body
    /// with another id that rides along with it is not committed.
    #[test]
    fn writeback_body_of_another_transaction_is_not_committed() {
        let mut r = replica(0);
        let (other, wb) = cert_with_a_foreign_body();
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_writeback(&mut ctx, client_node(), wb);
        assert!(untouched_by(&r, &other));
        assert_eq!(r.stats().commits_applied, 0);
    }

    /// Catch-up entries go through the writeback path, so a Byzantine peer
    /// cannot pair a real certificate with a body of its choosing either.
    #[test]
    fn catch_up_entry_with_another_transactions_body_is_not_committed() {
        let id = ReplicaId::new(ShardId(0), 0);
        let genesis = [
            (Key::new("x"), Value::from_u64(0)),
            (Key::new("y"), Value::from_u64(0)),
        ];
        let mut r = BasilReplica::recover(
            id,
            cfg(),
            registry(),
            ReplicaBehavior::Correct,
            genesis,
            Vec::new(),
        );
        assert!(r.is_recovering());
        let (other, wb) = cert_with_a_foreign_body();
        let entries = vec![wb];
        let peer = NodeId::Replica(ReplicaId::new(ShardId(0), 1));
        let mut ctx = ctx_at(NodeId::Replica(id), 1);
        r.on_message(
            &mut ctx,
            peer,
            BasilMsg::CatchUpReply(CatchUpReply { entries }),
        );
        assert!(untouched_by(&r, &other));
        assert_eq!(r.stats().catch_up_applied, 0);
    }

    #[test]
    fn recovery_st1_after_commit_returns_certificate() {
        let mut r = replica(0);
        let tx = write_tx(1_000_000, "x", 42);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));
        let cert = fast_commit_cert(&tx);
        let mut ctx2 = ctx_at(NodeId::Replica(r.id()), 2);
        r.handle_writeback(
            &mut ctx2,
            client_node(),
            Writeback {
                cert,
                tx: Some(tx.clone()),
            },
        );
        // Another client recovers the transaction: it gets the certificate
        // straight away.
        let other_client = NodeId::Client(ClientId(22));
        let mut ctx3 = ctx_at(NodeId::Replica(r.id()), 3);
        r.handle_st1(&mut ctx3, other_client, signed_st1(&tx, true));
        match &sent_to(&ctx3, other_client)[0] {
            BasilMsg::Writeback(wb) => {
                assert_eq!(wb.cert.txid, tx.id());
                assert!(wb.cert.decision().is_commit());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deferred_vote_released_by_dependency_commit() {
        let mut r = replica(0);
        // T1 writes x (prepared only).
        let t1 = write_tx(1_000_000, "x", 5);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(&t1, false));

        // T2 reads T1's prepared write and declares the dependency.
        let t2 = dependent_tx(&t1);
        let dependent_client = NodeId::Client(ClientId(3));
        let mut ctx2 = ctx_at(NodeId::Replica(r.id()), 2);
        r.handle_st1(&mut ctx2, dependent_client, signed_st1(&t2, false));
        assert!(sent_to(&ctx2, dependent_client).is_empty(), "vote deferred");
        assert_eq!(r.stats().st1_deferred, 1);

        // Committing T1 releases T2's vote.
        let mut ctx3 = ctx_at(NodeId::Replica(r.id()), 3);
        r.handle_writeback(
            &mut ctx3,
            client_node(),
            Writeback {
                cert: fast_commit_cert(&t1),
                tx: Some(t1.clone()),
            },
        );
        let releases = sent_to(&ctx3, dependent_client);
        assert_eq!(releases.len(), 1);
        match &releases[0] {
            BasilMsg::St1Reply(reply) => {
                assert_eq!(reply.body.txid, t2.id());
                assert_eq!(reply.body.vote, Decision::Commit);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A replica waits only on dependencies its own shard can decide. T
    /// read T''s prepared write of a shard-0 key and writes a shard-1 key;
    /// T''s ST1 and writeback go to shard 0 only, so a shard-1 replica never
    /// hears of T' and votes on T at once, while a shard-0 replica still
    /// defers until T' is decided.
    #[test]
    fn a_dependency_on_another_shards_key_is_not_waited_on() {
        let mut c = cfg();
        c.system.num_shards = 2;
        let (x, y) = (key_on(&c, 0), key_on(&c, 1));
        let mut b = TransactionBuilder::new(Timestamp::from_nanos(1_000_000, ClientId(9)));
        b.record_write(x.clone(), Value::from_u64(5));
        let dep = b.build_shared();
        let mut b = TransactionBuilder::new(Timestamp::from_nanos(2_000_000, ClientId(3)));
        b.record_dependent_read(x, dep.timestamp(), dep.id());
        b.record_write(y, Value::from_u64(6));
        let tx = b.build_shared();
        assert_eq!(*tx.involved_shards(2), [ShardId(0), ShardId(1)]);
        let dependent_client = NodeId::Client(ClientId(3));

        let id = ReplicaId::new(ShardId(1), 0);
        let mut shard1 = BasilReplica::new(id, c.clone(), registry(), ReplicaBehavior::Correct, []);
        let mut ctx = ctx_at(NodeId::Replica(id), 2);
        shard1.handle_st1(&mut ctx, dependent_client, signed_st1(&tx, false));
        let sent = sent_to(&ctx, dependent_client);
        assert_eq!(vote_in(&sent, tx.id()), Some(Decision::Commit));
        assert_eq!(shard1.stats().st1_deferred, 0);

        let mut shard0 = replica_knowing(&c, ShardId(0), &dep);
        let mut ctx = ctx_at(NodeId::Replica(shard0.id()), 2);
        shard0.handle_st1(&mut ctx, dependent_client, signed_st1(&tx, false));
        assert!(sent_to(&ctx, dependent_client).is_empty(), "vote deferred");
        assert_eq!(shard0.stats().st1_deferred, 1);
    }

    /// A certificate goes to every client that asked about the transaction,
    /// but not back to the client that wrote it back.
    #[test]
    fn writeback_is_not_forwarded_back_to_its_sender() {
        let mut r = replica(0);
        let tx = write_tx(1_000_000, "x", 42);
        let recoverer = NodeId::Client(ClientId(22));
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));
        let tally = vec![commit_tally_of(&tx, ShardId(0), 4)];
        let st2 = signed_st2(&tx, Decision::Commit, tally);
        r.handle_st2(&mut ctx, client_node(), st2);
        r.handle_st1(&mut ctx, recoverer, signed_st1(&tx, true));

        let mut wb_ctx = ctx_at(NodeId::Replica(r.id()), 2);
        let wb = Writeback {
            cert: fast_commit_cert(&tx),
            tx: None,
        };
        r.handle_writeback(&mut wb_ctx, client_node(), wb);
        assert!(r.store().decision(&tx.id()).is_some(), "applied");
        assert!(
            sent_to(&wb_ctx, client_node()).is_empty(),
            "the writer got its own certificate back"
        );
        match sent_to(&wb_ctx, recoverer).as_slice() {
            [BasilMsg::Writeback(wb)] => assert_eq!(wb.cert.txid, tx.id()),
            other => panic!("the recoverer heard {other:?}"),
        }
    }

    /// The sender of a deferred ST1 stays interested after its vote is
    /// released, so it learns the outcome when another client (here one
    /// that recovered the transaction) writes the certificate back.
    #[test]
    fn deferred_st1_sender_hears_anothers_writeback() {
        let mut r = replica(0);
        let t1 = write_tx(1_000_000, "x", 5);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(&t1, false));
        let t2 = dependent_tx(&t1);
        let dependent_client = NodeId::Client(ClientId(3));
        r.handle_st1(&mut ctx, dependent_client, signed_st1(&t2, false));
        assert_eq!(r.stats().st1_deferred, 1);
        let t1_wb = Writeback {
            cert: fast_commit_cert(&t1),
            tx: None,
        };
        r.handle_writeback(&mut ctx, client_node(), t1_wb);
        assert_eq!(r.stats().st1_voted, 2, "T2's vote was released");

        let recoverer = NodeId::Client(ClientId(22));
        let mut wb_ctx = ctx_at(NodeId::Replica(r.id()), 2);
        let t2_wb = Writeback {
            cert: fast_commit_cert(&t2),
            tx: None,
        };
        r.handle_writeback(&mut wb_ctx, recoverer, t2_wb);
        match sent_to(&wb_ctx, dependent_client).as_slice() {
            [BasilMsg::Writeback(wb)] => assert_eq!(wb.cert.txid, t2.id()),
            other => panic!("the deferred ST1's sender heard {other:?}"),
        }
    }

    fn shard_votes_commit_tally(tx: &Transaction, count: u32) -> Vec<ShardVotes> {
        vec![commit_tally_of(tx, ShardId(0), count)]
    }

    /// Commit votes for `tx` signed by replicas `0..count` of `shard`.
    fn commit_tally_of(tx: &Transaction, shard: ShardId, count: u32) -> ShardVotes {
        tally_of(tx, shard, count, Decision::Commit)
    }

    /// `decision` votes for `tx` signed by replicas `0..count` of `shard`.
    fn tally_of(tx: &Transaction, shard: ShardId, count: u32, decision: Decision) -> ShardVotes {
        let votes: Vec<SignedSt1Reply> = (0..count)
            .map(|i| {
                let rid = ReplicaId::new(shard, i);
                let body = St1ReplyBody {
                    txid: tx.id(),
                    replica: rid,
                    vote: decision,
                };
                let mut engine = SigEngine::new(NodeId::Replica(rid), registry(), &cfg());
                let proof = engine.sign(&body);
                SignedSt1Reply { body, proof }
            })
            .collect();
        ShardVotes {
            txid: tx.id(),
            shard,
            decision,
            votes,
        }
    }

    fn signed_st2(tx: &Transaction, decision: Decision, tally: Vec<ShardVotes>) -> St2 {
        let mut engine = client_engine();
        let st2 = St2 {
            txid: tx.id(),
            decision,
            shard_votes: tally,
            view: 0,
            auth: None,
        };
        let proof = engine.sign_request(&st2);
        St2 { auth: proof, ..st2 }
    }

    #[test]
    fn st2_logs_justified_decision_and_replies() {
        let mut r = replica(0);
        let tx = write_tx(1_000_000, "x", 5);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));

        let st2 = signed_st2(&tx, Decision::Commit, shard_votes_commit_tally(&tx, 4));
        let mut ctx2 = ctx_at(NodeId::Replica(r.id()), 2);
        r.handle_st2(&mut ctx2, client_node(), st2);
        match &sent_to(&ctx2, client_node())[0] {
            BasilMsg::St2Reply(reply) => {
                assert_eq!(reply.body.decision, Decision::Commit);
                assert_eq!(reply.body.view_decision, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.stats().st2_logged, 1);
    }

    /// The vote a replica cast in `ctx`, as the client it answered got it.
    fn vote_cast_in(ctx: &Context<BasilMsg>) -> SignedSt1Reply {
        match &sent_to(ctx, client_node())[..] {
            [BasilMsg::St1Reply(vote)] => vote.clone(),
            other => panic!("expected one vote, got {other:?}"),
        }
    }

    /// The CPU one callback charges, under each crypto mode: a signed read,
    /// an ST1 voted at once, an ST2 with a valid commit tally and a
    /// writeback with a valid commit certificate. The simulator reads only
    /// a callback's total (this charge plus its own `MESSAGE_CPU` per
    /// message handled or sent), so these pin every simulated output against
    /// a charge that moves, is dropped or is counted twice. The ST2's tally
    /// and the certificate hold the vote this replica cast, as a client's
    /// do, so that vote costs a cached check. The writeback comes from the
    /// client that logged the ST2, so it forwards nothing.
    #[test]
    fn callback_charges_are_pinned() {
        for (mode, pinned) in [
            (CryptoMode::Real, [4_000, 65_000, 453_000, 266_000]),
            (CryptoMode::Simulated, [4_000, 65_000, 453_000, 266_000]),
        ] {
            let mut c = cfg();
            c.crypto_mode = mode;
            assert_eq!(c.system.batch_size, 1);
            let genesis = [(Key::new("x"), Value::from_u64(0))];
            let mut r = BasilReplica::new(
                ReplicaId::new(ShardId(0), 0),
                c,
                registry(),
                ReplicaBehavior::Correct,
                genesis,
            );
            let me = NodeId::Replica(r.id());
            let mut deliver = |msg| {
                let mut ctx = ctx_at(me, 1);
                r.on_message(&mut ctx, client_node(), msg);
                ctx
            };
            let tx = write_tx(2_000_000, "y", 7);
            let read = deliver(BasilMsg::Read(signed_read(1, "x", 1_000_000)));
            let st1 = deliver(BasilMsg::St1(signed_st1(&tx, false)));
            let own_vote = vote_cast_in(&st1);
            let mut tally = commit_tally_of(&tx, ShardId(0), 4);
            tally.votes[0] = own_vote.clone();
            let st2 = signed_st2(&tx, Decision::Commit, vec![tally]);
            let mut all = commit_tally_of(&tx, ShardId(0), 6);
            all.votes[0] = own_vote;
            let wb = Writeback {
                cert: Arc::new(DecisionCert {
                    txid: tx.id(),
                    proof: DecisionProof::FastCommit(vec![all]),
                }),
                tx: Some(Arc::clone(&tx)),
            };
            let charges = [
                read,
                st1,
                deliver(BasilMsg::St2(st2)),
                deliver(BasilMsg::Writeback(wb)),
            ]
            .map(|ctx| ctx.charged().as_nanos());
            assert_eq!(charges, pinned, "{mode:?}");
        }
    }

    /// A replica never verifies its own signature again: the same ST2 costs
    /// replica 0, whose vote its evidence holds, one signature verification
    /// less than replica 4, whose vote it does not hold, in both crypto
    /// modes.
    #[test]
    fn own_vote_in_evidence_costs_a_cached_check() {
        for mode in [CryptoMode::Real, CryptoMode::Simulated] {
            let mut c = cfg();
            c.crypto_mode = mode;
            let tx = write_tx(1_000_000, "x", 5);
            let mut replicas: Vec<BasilReplica> = (0..6)
                .map(|i| {
                    let id = ReplicaId::new(ShardId(0), i);
                    BasilReplica::new(id, c.clone(), registry(), ReplicaBehavior::Correct, [])
                })
                .collect();
            let votes: Vec<SignedSt1Reply> = (replicas.iter_mut())
                .map(|r| {
                    let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
                    r.on_message(
                        &mut ctx,
                        client_node(),
                        BasilMsg::St1(signed_st1(&tx, false)),
                    );
                    vote_cast_in(&ctx)
                })
                .collect();
            let tally = ShardVotes {
                txid: tx.id(),
                shard: ShardId(0),
                decision: Decision::Commit,
                votes: votes[..4].to_vec(),
            };
            let st2 = signed_st2(&tx, Decision::Commit, vec![tally]);
            let st2_charge = |r: &mut BasilReplica| {
                let mut ctx = ctx_at(NodeId::Replica(r.id()), 2);
                r.on_message(&mut ctx, client_node(), BasilMsg::St2(st2.clone()));
                assert_eq!(r.stats().st2_logged, 1, "{mode:?}");
                ctx.charged()
            };
            let holder = st2_charge(&mut replicas[0]);
            let other = st2_charge(&mut replicas[4]);
            assert_eq!(
                other - holder,
                basil_crypto::CostModel::ed25519_default().verify,
                "{mode:?}"
            );
        }
    }

    /// The first key `k0`, `k1`, ... that `c` places on `shard`.
    fn key_on(c: &BasilConfig, shard: u32) -> Key {
        (0..)
            .map(|i| Key::new(format!("k{i}")))
            .find(|k| c.system.shard_for_key(k) == ShardId(shard))
            .expect("some key hashes to each shard")
    }

    /// A deployment of `shards` shards and a transaction that writes one key
    /// on shard 0 and one on shard 1.
    fn cross_shard_tx(shards: u32) -> (BasilConfig, Arc<Transaction>) {
        let mut c = cfg();
        c.system.num_shards = shards;
        let mut b = TransactionBuilder::new(Timestamp::from_nanos(1_000_000, ClientId(9)));
        b.record_write(key_on(&c, 0), Value::from_u64(1));
        b.record_write(key_on(&c, 1), Value::from_u64(2));
        let tx = b.build_shared();
        assert_eq!(*tx.involved_shards(shards), [ShardId(0), ShardId(1)]);
        (c, tx)
    }

    /// A correct replica of `shard` under `c` that has seen `tx`'s ST1.
    fn replica_knowing(c: &BasilConfig, shard: ShardId, tx: &Arc<Transaction>) -> BasilReplica {
        let id = ReplicaId::new(shard, 0);
        let mut r = BasilReplica::new(id, c.clone(), registry(), ReplicaBehavior::Correct, []);
        let mut ctx = ctx_at(NodeId::Replica(id), 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(tx, false));
        r
    }

    /// Whether `r` applies a writeback of `proof` for `tx` (sent without
    /// the body: the replica knows the transaction from its ST1).
    fn applies(r: &mut BasilReplica, tx: &Transaction, proof: DecisionProof) -> bool {
        let cert = Arc::new(DecisionCert {
            txid: tx.id(),
            proof,
        });
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 2);
        r.handle_writeback(&mut ctx, client_node(), Writeback { cert, tx: None });
        r.store().decision(&tx.id()).is_some()
    }

    /// S_log is not a client-side convention: a replica of an involved
    /// shard that is not the transaction's logging shard does not log,
    /// acknowledge or persist an ST2, however well justified.
    #[test]
    fn st2_is_logged_only_on_the_logging_shard() {
        let (two_shards, tx) = cross_shard_tx(2);
        let involved = tx.involved_shards(two_shards.system.num_shards);
        let slog = logging_shard(tx.id(), &involved).expect("two shards");

        // A commit quorum from each shard: the justification is complete.
        let tallies = involved
            .iter()
            .map(|shard| commit_tally_of(&tx, *shard, 4))
            .collect();
        let st2 = signed_st2(&tx, Decision::Commit, tallies);

        for &shard in involved.iter() {
            let mut r = replica_knowing(&two_shards, shard, &tx);
            let wal_before = r.stats().wal_appends;
            let mut ctx = ctx_at(NodeId::Replica(r.id()), 2);
            r.handle_st2(&mut ctx, client_node(), st2.clone());
            let logs = u64::from(shard == slog);
            assert_eq!(r.stats().st2_logged, logs, "shard {shard:?}");
            assert_eq!(r.stats().wal_appends - wal_before, logs);
            assert_eq!(sent_to(&ctx, client_node()).len() as u64, logs);
        }
    }

    /// The S_log rule holds for aborts as for commits: `n - f` logged
    /// aborts gathered on the involved shard that is not S_log prove nothing
    /// about what S_log holds, so a replica that knows the transaction does
    /// not apply them.
    #[test]
    fn slow_abort_cert_from_a_shard_that_is_not_s_log_is_not_applied() {
        let (c, tx) = cross_shard_tx(2);
        let involved = tx.involved_shards(c.system.num_shards);
        let slog = logging_shard(tx.id(), &involved).expect("two shards");
        let other = involved[usize::from(slog == ShardId(0))];
        let logged_aborts = |shard: ShardId| {
            let replies = (0..5)
                .map(|i| {
                    let replica = ReplicaId::new(shard, i);
                    let body = St2ReplyBody {
                        txid: tx.id(),
                        replica,
                        decision: Decision::Abort,
                        view_decision: 0,
                        view_current: 0,
                    };
                    let mut engine = SigEngine::new(NodeId::Replica(replica), registry(), &c);
                    let proof = engine.sign(&body);
                    SignedSt2Reply { body, proof }
                })
                .collect();
            DecisionProof::Slow(VoteCert {
                txid: tx.id(),
                shard,
                decision: Decision::Abort,
                view: 0,
                replies,
            })
        };
        for &shard in involved.iter() {
            let mut r = replica_knowing(&c, shard, &tx);
            assert!(!applies(&mut r, &tx, logged_aborts(other)), "{shard:?}");
            assert!(applies(&mut r, &tx, logged_aborts(slog)), "{shard:?}");
        }
    }

    /// A fast abort must come from a shard the transaction involves: `3f + 1`
    /// abort votes of a third shard say nothing about this transaction.
    #[test]
    fn fast_abort_cert_from_an_uninvolved_shard_is_not_applied() {
        let (c, tx) = cross_shard_tx(3);
        let abort_votes =
            |shard| DecisionProof::FastAbort(tally_of(&tx, shard, 4, Decision::Abort));
        let mut r = replica_knowing(&c, ShardId(0), &tx);
        assert!(!applies(&mut r, &tx, abort_votes(ShardId(2))));
        assert!(applies(&mut r, &tx, abort_votes(ShardId(1))));
    }

    /// An ST2 that arrives before its transaction's ST1 waits for the body.
    /// When that ST1's vote is deferred, the ST2 is logged as the vote is
    /// released, not stranded until its sender retransmits.
    #[test]
    fn st2_buffered_before_a_deferred_st1_is_logged_when_the_vote_is_released() {
        let mut r = replica(0);
        let me = NodeId::Replica(r.id());
        let t1 = write_tx(1_000_000, "x", 5);
        r.handle_st1(&mut ctx_at(me, 1), client_node(), signed_st1(&t1, false));
        let t2 = dependent_tx(&t1);
        let st2 = signed_st2(&t2, Decision::Commit, shard_votes_commit_tally(&t2, 4));
        let mut ctx = ctx_at(me, 2);
        r.handle_st2(&mut ctx, client_node(), st2);
        assert!(sent_to(&ctx, client_node()).is_empty(), "ST2 buffered");

        let dependent_client = NodeId::Client(ClientId(3));
        r.handle_st1(&mut ctx, dependent_client, signed_st1(&t2, false));
        assert_eq!(r.stats().st1_deferred, 1);
        assert_eq!(r.stats().st2_logged, 0);

        let mut ctx = ctx_at(me, 3);
        r.handle_writeback(
            &mut ctx,
            client_node(),
            Writeback {
                cert: fast_commit_cert(&t1),
                tx: Some(Arc::clone(&t1)),
            },
        );
        assert_eq!(r.stats().st2_logged, 1);
        let acks: Vec<St2ReplyBody> = sent_to(&ctx, client_node())
            .into_iter()
            .filter_map(|m| match m {
                BasilMsg::St2Reply(reply) => Some(reply.body),
                _ => None,
            })
            .collect();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].txid, t2.id());
        assert_eq!(acks[0].decision, Decision::Commit);
    }

    /// A replica buffers at most one early ST2 per sender and transaction,
    /// the first: 1,000 copies of one valid ST2 that arrive before the ST1
    /// are validated and answered once, when the body arrives.
    #[test]
    fn a_flood_of_one_early_st2_is_buffered_and_answered_once() {
        let tx = write_tx(1_000_000, "x", 5);
        let st2 = signed_st2(&tx, Decision::Commit, shard_votes_commit_tally(&tx, 4));
        // The ST1 callback after `copies` early ST2s: the acknowledgements
        // it sends and the CPU it charges.
        let st1_after = |copies: usize| {
            let mut r = replica(0);
            let me = NodeId::Replica(r.id());
            for _ in 0..copies {
                let st2 = BasilMsg::St2(st2.clone());
                r.on_message(&mut ctx_at(me, 1), client_node(), st2);
            }
            let (mut ctx, st1) = (ctx_at(me, 2), BasilMsg::St1(signed_st1(&tx, false)));
            r.on_message(&mut ctx, client_node(), st1);
            let acks = sent_to(&ctx, client_node())
                .iter()
                .filter(|m| matches!(m, BasilMsg::St2Reply(_)))
                .count();
            (acks, ctx.charged())
        };
        let (acks, charged) = st1_after(1_000);
        assert_eq!(acks, 1);
        assert_eq!(charged, st1_after(1).1, "the tally is validated once");
    }

    #[test]
    fn st2_with_insufficient_justification_is_ignored() {
        let mut r = replica(0);
        let tx = write_tx(1_000_000, "x", 5);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));

        // Only 2 commit votes: not a commit quorum.
        let st2 = signed_st2(&tx, Decision::Commit, shard_votes_commit_tally(&tx, 2));
        let mut ctx2 = ctx_at(NodeId::Replica(r.id()), 2);
        r.handle_st2(&mut ctx2, client_node(), st2);
        assert!(sent_to(&ctx2, client_node()).is_empty());
        assert_eq!(r.stats().st2_logged, 0);
    }

    #[test]
    fn logged_decision_is_sticky_under_equivocation() {
        let mut r = replica(0);
        let tx = write_tx(1_000_000, "x", 5);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));

        let commit = signed_st2(&tx, Decision::Commit, shard_votes_commit_tally(&tx, 4));
        let mut ctx2 = ctx_at(NodeId::Replica(r.id()), 2);
        r.handle_st2(&mut ctx2, client_node(), commit);

        // A conflicting abort ST2 (equivocation) does not change the log;
        // the replica answers with the decision it already logged.
        let abort_votes: Vec<SignedSt1Reply> = (0..2)
            .map(|i| {
                let rid = ReplicaId::new(ShardId(0), i);
                let body = St1ReplyBody {
                    txid: tx.id(),
                    replica: rid,
                    vote: Decision::Abort,
                };
                let mut engine = SigEngine::new(NodeId::Replica(rid), registry(), &cfg());
                let proof = engine.sign(&body);
                SignedSt1Reply { body, proof }
            })
            .collect();
        let abort_tally = vec![ShardVotes {
            txid: tx.id(),
            shard: ShardId(0),
            decision: Decision::Abort,
            votes: abort_votes,
        }];
        let abort = signed_st2(&tx, Decision::Abort, abort_tally);
        let mut ctx3 = ctx_at(NodeId::Replica(r.id()), 3);
        r.handle_st2(&mut ctx3, client_node(), abort);
        match &sent_to(&ctx3, client_node())[0] {
            BasilMsg::St2Reply(reply) => assert_eq!(reply.body.decision, Decision::Commit),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.stats().st2_logged, 1);
    }

    #[test]
    fn batching_delays_replies_until_full() {
        let mut cfg2 = cfg();
        cfg2.system.batch_size = 3;
        let mut r = BasilReplica::new(
            ReplicaId::new(ShardId(0), 0),
            cfg2,
            registry(),
            ReplicaBehavior::Correct,
            [(Key::new("x"), Value::from_u64(0))],
        );
        let st1 = |t: u64| signed_st1(&write_tx(1_000_000 + t, "x", t), false);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_st1(&mut ctx, client_node(), st1(1));
        assert!(
            sent_to(&ctx, client_node()).is_empty(),
            "batch not full yet"
        );
        // The batch flush timer was armed.
        assert!(ctx
            .outputs()
            .iter()
            .any(|o| matches!(o, basil_simnet::actor::Output::Timer { .. })));

        let mut ctx2 = ctx_at(NodeId::Replica(r.id()), 2);
        r.handle_st1(&mut ctx2, client_node(), st1(2));
        assert!(sent_to(&ctx2, client_node()).is_empty());
        let mut ctx3 = ctx_at(NodeId::Replica(r.id()), 3);
        r.handle_st1(&mut ctx3, client_node(), st1(3));
        let replies = sent_to(&ctx3, client_node());
        assert_eq!(replies.len(), 3, "full batch flushed at once");
        assert_eq!(r.stats().batches_signed, 1);

        // All replies in the batch share the same root signature.
        let roots: HashSet<_> = replies
            .iter()
            .map(|m| match m {
                BasilMsg::St1Reply(vote) => vote.proof.as_ref().expect("signed").root,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(roots.len(), 1);
    }

    #[test]
    fn batch_flush_timer_flushes_partial_batch() {
        let mut cfg2 = cfg();
        cfg2.system.batch_size = 8;
        let mut r = BasilReplica::new(
            ReplicaId::new(ShardId(0), 0),
            cfg2,
            registry(),
            ReplicaBehavior::Correct,
            [(Key::new("x"), Value::from_u64(0))],
        );
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        let tx = write_tx(1_000_000, "x", 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));
        assert!(sent_to(&ctx, client_node()).is_empty());
        let mut timer_ctx = ctx_at(NodeId::Replica(r.id()), 2);
        r.on_timer(
            &mut timer_ctx,
            BasilMsg::ReplicaTimer(ReplicaTimer::BatchFlush),
        );
        assert_eq!(sent_to(&timer_ctx, client_node()).len(), 1);
    }

    /// A `BatchFlush` that falls due while the replica is warm-crashed fires
    /// at the restart, so the replica does not keep believing a flush is
    /// armed: a single ST1 after the restart is answered within
    /// [`BATCH_TIMEOUT`], not once a full batch has piled up.
    #[test]
    fn batch_flush_pending_across_a_warm_crash_still_fires() {
        use basil_simnet::sim::NodeProps;
        use basil_simnet::{NetworkConfig, Simulation};

        struct Reader {
            replies: Vec<(TxId, SimTime)>,
        }
        impl Actor<BasilMsg> for Reader {
            fn on_message(&mut self, ctx: &mut Context<BasilMsg>, _from: NodeId, msg: BasilMsg) {
                if let BasilMsg::St1Reply(vote) = msg {
                    self.replies.push((vote.body.txid, ctx.now()));
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut batched = cfg();
        batched.system.batch_size = 8;
        let timeout = BATCH_TIMEOUT;
        let replica = BasilReplica::new(
            ReplicaId::new(ShardId(0), 0),
            batched,
            registry(),
            ReplicaBehavior::Correct,
            [(Key::new("x"), Value::from_u64(0))],
        );
        let rid = NodeId::Replica(replica.id());
        let mut sim = Simulation::new(1, NetworkConfig::instant());
        sim.add_node(rid, NodeProps::replica(), Box::new(replica));
        sim.add_node(
            client_node(),
            NodeProps::client(),
            Box::new(Reader { replies: vec![] }),
        );
        // The first ST1 arms the flush timer; the replica crashes before
        // it is due and stays down past it.
        let tx1 = write_tx(SimTime::from_millis(1).as_nanos(), "x", 1);
        let tx2 = write_tx(SimTime::from_millis(4).as_nanos(), "x", 2);
        let st1 = |tx: &Arc<Transaction>| BasilMsg::St1(signed_st1(tx, false));
        let first = SimTime::from_millis(1);
        sim.inject(rid, client_node(), st1(&tx1), first);
        sim.run_until(first + Duration::from_micros(100));
        sim.crash(rid);
        sim.run_until(SimTime::from_millis(3));
        sim.restart(rid);

        let second = SimTime::from_millis(4);
        sim.inject(rid, client_node(), st1(&tx2), second);
        sim.run_until(second + timeout * 4);
        let reader: &Reader = sim.actor(client_node()).expect("reader");
        let answered = reader
            .replies
            .iter()
            .find(|(txid, _)| *txid == tx2.id())
            .map(|(_, at)| *at - second)
            .expect("the ST1 after the restart is answered");
        // The flush delay plus the two handlers' CPU.
        assert!(
            answered < timeout + Duration::from_micros(100),
            "answered after {answered:?}"
        );
        assert!(reader.replies.iter().any(|(txid, _)| *txid == tx1.id()));
    }

    /// Six hand-driven replicas whose logs split on one transaction run
    /// InvokeFB -> ElectFB -> DecFB; returns them with the DecFB of view 1
    /// that the fallback leader sent.
    fn split_log_and_its_fallback_decision() -> (Vec<BasilReplica>, DecFb) {
        let tx = write_tx(1_000_000, "x", 5);
        let txid = tx.id();
        let n = 6u32;
        let mut replicas: Vec<BasilReplica> = (0..n).map(replica).collect();
        let client = client_node();

        // Every replica prepares the transaction and logs an ST2 decision;
        // replicas 0-2 log Commit, replicas 3-5 log Abort (the result of an
        // equivocating client). Use the relax hook to skip tally checks for
        // the abort half (simulating the forced-equivocation experiment).
        for (i, r) in replicas.iter_mut().enumerate() {
            let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
            r.handle_st1(&mut ctx, client, signed_st1(&tx, false));
            r.cfg.relax_st2_validation = true;
            let decision = if i < 3 {
                Decision::Commit
            } else {
                Decision::Abort
            };
            let st2 = signed_st2(&tx, decision, shard_votes_commit_tally(&tx, 4));
            let mut ctx2 = ctx_at(NodeId::Replica(r.id()), 2);
            r.handle_st2(&mut ctx2, client, st2);
        }

        // The recovering client invokes the fallback with the replicas'
        // signed current views (all view 0, so no proof is needed to move to
        // view 1).
        let ifb = {
            let mut engine = client_engine();
            let ifb = InvokeFb {
                txid,
                views: vec![],
                auth: None,
            };
            let proof = engine.sign_request(&ifb);
            InvokeFb { auth: proof, ..ifb }
        };

        // Deliver InvokeFB to all replicas and collect their ElectFB
        // messages.
        let mut elect_msgs: Vec<(NodeId, SignedElectFb)> = Vec::new();
        for r in replicas.iter_mut() {
            let mut ctx = ctx_at(NodeId::Replica(r.id()), 3);
            r.handle_invoke_fb(&mut ctx, client, ifb.clone());
            for out in ctx.outputs() {
                if let basil_simnet::actor::Output::Send {
                    to,
                    msg: BasilMsg::ElectFb(e),
                } = out
                {
                    elect_msgs.push((*to, e.clone()));
                }
            }
        }
        assert_eq!(elect_msgs.len(), 6, "every replica nominates a leader");
        let leader_index = fallback_leader_index(1, txid, n);
        assert!(elect_msgs
            .iter()
            .all(|(to, _)| *to == NodeId::Replica(ReplicaId::new(ShardId(0), leader_index))));

        // Deliver the ElectFB messages to the leader, replica 0's first; the
        // first five complete the election (three logged Commit, two
        // Abort), and the leader emits a DecFB with their majority.
        let mut dec_msgs: Vec<DecFb> = Vec::new();
        {
            let leader = &mut replicas[leader_index as usize];
            for (_, e) in &elect_msgs {
                let mut ctx = ctx_at(NodeId::Replica(leader.id()), 4);
                leader.handle_elect_fb(&mut ctx, e.clone());
                for out in ctx.outputs() {
                    if let basil_simnet::actor::Output::Send {
                        msg: BasilMsg::DecFb(d),
                        ..
                    } = out
                    {
                        dec_msgs.push(d.clone());
                    }
                }
            }
        }
        assert!(
            !dec_msgs.is_empty(),
            "leader proposes a reconciled decision"
        );
        let dec = dec_msgs[0].clone();
        assert_eq!(dec.view, 1);
        (replicas, dec)
    }

    #[test]
    fn fallback_election_and_decision_adoption() {
        let (mut replicas, dec) = split_log_and_its_fallback_decision();
        let client = client_node();

        // Replicas adopt the decision and answer interested clients with
        // matching ST2R messages.
        let mut st2r_decisions = Vec::new();
        for r in replicas.iter_mut() {
            let mut ctx = ctx_at(NodeId::Replica(r.id()), 5);
            r.handle_dec_fb(&mut ctx, dec.clone());
            for msg in sent_to(&ctx, client) {
                if let BasilMsg::St2Reply(s) = msg {
                    st2r_decisions.push((s.body.decision, s.body.view_decision));
                }
            }
        }
        assert!(st2r_decisions.len() >= 5);
        assert!(st2r_decisions
            .iter()
            .all(|(d, v)| *d == dec.decision && *v == 1));
    }

    /// A replica adopts and logs a fallback decision once: a second copy of
    /// the same DecFB appends nothing to the WAL and answers no one.
    #[test]
    fn a_replayed_dec_fb_is_logged_once() {
        let (mut replicas, dec) = split_log_and_its_fallback_decision();
        let r = &mut replicas[0];
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 5);
        r.handle_dec_fb(&mut ctx, dec.clone());
        let (wal, adopted) = (r.stats().wal_appends, r.stats().fallback_decisions_adopted);
        assert_eq!(adopted, 1);

        let mut ctx = ctx_at(NodeId::Replica(r.id()), 6);
        r.handle_dec_fb(&mut ctx, dec);
        assert_eq!(r.stats().wal_appends, wal);
        assert_eq!(r.stats().fallback_decisions_adopted, adopted);
        assert!(sent_to(&ctx, client_node()).is_empty());
    }

    /// What `r` answers a recovery ST1 for `tx` at `ms` with when it has a
    /// logged decision: the decision, its view and the current view.
    fn logged_answer(
        r: &mut BasilReplica,
        tx: &Arc<Transaction>,
        ms: u64,
    ) -> Option<(Decision, View, View)> {
        let mut ctx = ctx_at(NodeId::Replica(r.id()), ms);
        r.handle_st1(&mut ctx, client_node(), signed_st1(tx, true));
        sent_to(&ctx, client_node())
            .into_iter()
            .find_map(|m| match m {
                BasilMsg::St2Reply(reply) => Some((
                    reply.body.decision,
                    reply.body.view_decision,
                    reply.body.view_current,
                )),
                _ => None,
            })
    }

    /// The fallback view an InvokeFB raised survives an amnesia restart: a
    /// recovered replica still reports the view it sent an ElectFB for, the
    /// view below which it adopts no DecFB.
    #[test]
    fn a_raised_fallback_view_survives_amnesia() {
        let (mut replicas, _) = split_log_and_its_fallback_decision();
        let tx = write_tx(1_000_000, "x", 5);
        let r = &mut replicas[0];
        let before = logged_answer(r, &tx, 5);
        assert_eq!(before, Some((Decision::Commit, 0, 1)));

        let id = r.id();
        let mut recovered = BasilReplica::recover(
            id,
            cfg(),
            registry(),
            ReplicaBehavior::Correct,
            [(Key::new("x"), Value::from_u64(0))],
            r.take_wal_bytes(),
        );
        let mut ctx = ctx_at(NodeId::Replica(id), 6);
        let deadline = BasilMsg::ReplicaTimer(ReplicaTimer::CatchUpDeadline);
        recovered.on_timer(&mut ctx, deadline);
        assert!(!recovered.is_recovering());
        assert_eq!(logged_answer(&mut recovered, &tx, 7), before);
    }

    /// A replica restarted with amnesia signs under roots its previous
    /// incarnation never used. Under simulated crypto a fresh engine
    /// numbers its placeholder roots from 1 again, so without the
    /// incarnation's start time in them its first roots would equal roots
    /// its peers cached before the crash, and their checks would be charged
    /// as cache hits that real crypto never gets.
    #[test]
    fn a_recovered_replica_signs_under_roots_of_its_own() {
        let mut c = cfg();
        c.crypto_mode = CryptoMode::Simulated;
        let id = ReplicaId::new(ShardId(0), 0);
        let data = [(Key::new("x"), Value::from_u64(0))];
        // Starts `r` at `ms` and returns the roots of its votes on `txs`.
        let roots = |r: &mut BasilReplica, ms: u64, txs: &[Arc<Transaction>]| {
            let mut ctx = ctx_at(NodeId::Replica(id), ms);
            r.on_start(&mut ctx);
            let deadline = BasilMsg::ReplicaTimer(ReplicaTimer::CatchUpDeadline);
            r.on_timer(&mut ctx, deadline);
            for tx in txs {
                r.handle_st1(&mut ctx, client_node(), signed_st1(tx, false));
            }
            let roots: Vec<_> = sent_to(&ctx, client_node())
                .into_iter()
                .filter_map(|m| match m {
                    BasilMsg::St1Reply(reply) => reply.proof.map(|p| p.root),
                    _ => None,
                })
                .collect();
            assert_eq!(roots.len(), txs.len());
            roots
        };
        let behavior = ReplicaBehavior::Correct;
        let mut r = BasilReplica::new(id, c.clone(), registry(), behavior, data.clone());
        let txs: Vec<_> = (1..=3).map(|i| write_tx(i * 1_000_000, "x", i)).collect();
        let before = roots(&mut r, 0, &txs);

        let wal = r.take_wal_bytes();
        let mut recovered = BasilReplica::recover(id, c, registry(), behavior, data, wal);
        let later: Vec<_> = (4..=6).map(|i| write_tx(i * 1_000_000, "x", i)).collect();
        let after = roots(&mut recovered, 50, &later);
        assert!(after.iter().all(|root| !before.contains(root)));
    }

    /// The ElectFB `replica` sends for `txid` in `view`, reporting `logged`.
    fn signed_elect_fb(
        txid: TxId,
        replica: ReplicaId,
        logged: Option<Decision>,
        view: View,
    ) -> SignedElectFb {
        let body = ElectFbBody {
            txid,
            replica,
            decision: logged,
            view,
        };
        let proof = SigEngine::new(NodeId::Replica(replica), registry(), &cfg()).sign(&body);
        SignedElectFb { body, proof }
    }

    /// A leader counts only ElectFBs of its own shard, as every replica
    /// that checks its DecFB does: four of its shard and one signed by a
    /// replica of another shard are no election yet, and the fifth of its
    /// own shard completes it.
    #[test]
    fn a_leader_counts_only_its_own_shards_elect_fbs() {
        let txid = write_tx(1_000_000, "x", 5).id();
        let mut leader = replica(fallback_leader_index(1, txid, 6));
        let commit = Some(Decision::Commit);
        let mut elect = |shard, index| {
            let mut ctx = ctx_at(NodeId::Replica(leader.id()), 1);
            let efb = signed_elect_fb(txid, ReplicaId::new(ShardId(shard), index), commit, 1);
            leader.handle_elect_fb(&mut ctx, efb);
            sent_to(&ctx, NodeId::Replica(ReplicaId::new(ShardId(0), 0))).len()
        };
        for index in 0..4 {
            assert_eq!(elect(0, index), 0);
        }
        assert_eq!(elect(1, 4), 0, "another shard's ElectFB counted");
        assert_eq!(elect(0, 4), 1, "the DecFB goes out");
    }

    /// `dec` with another decision and election, signed by its view's
    /// leader, as a deceitful leader can send it.
    fn re_signed(dec: &DecFb, decision: Decision, elect_proof: Vec<SignedElectFb>) -> DecFb {
        let leader = fallback_leader_index(dec.view, dec.txid, 6);
        let leader = NodeId::Replica(ReplicaId::new(ShardId(0), leader));
        let dec = DecFb {
            decision,
            elect_proof,
            auth: None,
            ..dec.clone()
        };
        let auth = SigEngine::new(leader, registry(), &cfg()).sign(&dec);
        DecFb { auth, ..dec }
    }

    /// Delivers `dec` to `r` and says whether `r` adopted it: a WAL append
    /// and an ST2R to the client, or neither.
    fn adopts(r: &mut BasilReplica, dec: DecFb) -> bool {
        let wal = r.stats().wal_appends;
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 6);
        r.handle_dec_fb(&mut ctx, dec);
        let answered = !sent_to(&ctx, client_node()).is_empty();
        let logged = r.stats().wal_appends != wal;
        assert_eq!(answered, logged, "a DecFB is logged iff it is answered");
        logged
    }

    /// A leader's DecFB must carry the decision its election reconciles
    /// to: over the five valid ElectFBs of the split log, three of which
    /// logged Commit, the leader's signed Abort is refused and its signed
    /// Commit adopted.
    #[test]
    fn a_dec_fb_for_the_minority_decision_is_refused() {
        let (_, dec) = split_log_and_its_fallback_decision();
        assert_eq!(dec.elect_proof.len(), 5);
        assert_eq!(dec.decision, Decision::Commit);
        let mut r = replica(0);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        let st1 = signed_st1(&write_tx(1_000_000, "x", 5), true);
        r.handle_st1(&mut ctx, client_node(), st1);

        let minority = re_signed(&dec, Decision::Abort, dec.elect_proof.clone());
        assert!(!adopts(&mut r, minority));
        assert_eq!(r.stats().fallback_decisions_adopted, 0);
        assert!(adopts(&mut r, dec));
    }

    /// One decision per view: after adopting its leader's DecFB of view 1, a
    /// replica refuses the same leader's second DecFB of view 1 with the
    /// other decision. The leader holds all six ElectFBs (three Commit,
    /// three Abort), so it can pick five whose majority is Abort, and a
    /// replica that sees that DecFB first adopts it.
    #[test]
    fn a_leaders_second_dec_fb_of_a_view_is_refused() {
        let (mut replicas, dec) = split_log_and_its_fallback_decision();
        let mut five = dec.elect_proof.clone();
        let commit = five
            .iter()
            .position(|e| e.body.decision == Some(Decision::Commit));
        five.remove(commit.expect("three electors logged Commit"));
        let missing = (0..6).find(|&i| five.iter().all(|e| e.body.replica.index != i));
        let missing = ReplicaId::new(ShardId(0), missing.expect("one of six"));
        let abort = Some(Decision::Abort);
        five.push(signed_elect_fb(dec.txid, missing, abort, dec.view));
        let other = re_signed(&dec, Decision::Abort, five);

        assert!(adopts(&mut replicas[0], dec.clone()));
        assert!(!adopts(&mut replicas[0], other.clone()));
        assert!(!adopts(&mut replicas[0], dec));
        assert_eq!(replicas[0].stats().fallback_decisions_adopted, 1);
        assert!(adopts(&mut replicas[1], other));
    }

    /// A client's ST2 proposes the decision of view 0: one that names a
    /// higher view is neither logged nor answered, however well justified.
    #[test]
    fn an_st2_of_a_higher_view_is_not_logged() {
        let mut r = replica(0);
        let tx = write_tx(1_000_000, "x", 5);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));
        let wal = r.stats().wal_appends;

        let st2 = St2 {
            view: 7,
            auth: None,
            ..signed_st2(&tx, Decision::Commit, shard_votes_commit_tally(&tx, 4))
        };
        let st2 = St2 {
            auth: client_engine().sign_request(&st2),
            ..st2
        };
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 2);
        r.handle_st2(&mut ctx, client_node(), st2);
        assert_eq!(r.stats().st2_logged, 0);
        assert_eq!(r.stats().wal_appends, wal);
        assert!(sent_to(&ctx, client_node()).is_empty());
    }

    /// The recovery replay buffer honors `catch_up_buffer_bound`: the first
    /// `bound` held-back messages queue, the overflow is shed (counted, not
    /// stored), and ending catch-up replays exactly the bounded prefix.
    #[test]
    fn catch_up_buffer_bound_sheds_overflow() {
        let id = ReplicaId::new(ShardId(0), 0);
        let mut r = BasilReplica::recover(
            id,
            cfg().with_catch_up_buffer_bound(2),
            registry(),
            ReplicaBehavior::Correct,
            [(Key::new("x"), Value::from_u64(0))],
            Vec::new(),
        );
        assert!(r.is_recovering(), "peers exist, so catch-up is armed");

        // Five held-back messages arrive while catch-up is in flight.
        for i in 0..5u64 {
            let tx = write_tx(1_000_000 * (i + 1), "x", i);
            let mut ctx = ctx_at(NodeId::Replica(id), 1);
            r.on_message(
                &mut ctx,
                client_node(),
                BasilMsg::St1(signed_st1(&tx, false)),
            );
            assert!(
                sent_to(&ctx, client_node()).is_empty(),
                "nothing is served mid-recovery"
            );
        }
        assert_eq!(r.stats().catch_up_buffered, 2, "bound respected");
        assert_eq!(r.stats().catch_up_shed, 3, "overflow shed, not stored");

        // The deadline ends catch-up; only the buffered prefix replays.
        let mut ctx = ctx_at(NodeId::Replica(id), 2);
        r.on_timer(
            &mut ctx,
            BasilMsg::ReplicaTimer(ReplicaTimer::CatchUpDeadline),
        );
        assert!(!r.is_recovering());
        let replies = sent_to(&ctx, client_node())
            .into_iter()
            .filter(|m| matches!(m, BasilMsg::St1Reply(_)))
            .count();
        assert_eq!(replies, 2, "exactly the two buffered ST1s were replayed");
    }

    /// A catch-up reply lists exactly the certificates this replica applied,
    /// each with its transaction body, in transaction-id order.
    #[test]
    fn catch_up_reply_lists_the_applied_certificates_in_txid_order() {
        let mut r = replica(0);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 1);
        let mut applied = Vec::new();
        for i in 1..=10u64 {
            let tx = write_tx(i * 1_000_000, "x", i);
            r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));
            // Every third transaction stays prepared, without a certificate.
            if i % 3 != 1 {
                applied.push(tx.id());
                let cert = fast_commit_cert(&tx);
                r.handle_writeback(&mut ctx, client_node(), Writeback { cert, tx: Some(tx) });
            }
        }
        assert_eq!(r.stats().commits_applied, applied.len() as u64);
        applied.sort();

        let peer = ReplicaId::new(ShardId(0), 1);
        let mut ctx = ctx_at(NodeId::Replica(r.id()), 2);
        r.on_message(&mut ctx, NodeId::Replica(peer), BasilMsg::CatchUpRequest);
        let sent = sent_to(&ctx, NodeId::Replica(peer));
        let [BasilMsg::CatchUpReply(reply)] = &sent[..] else {
            panic!("expected one catch-up reply, got {sent:?}");
        };
        let listed: Vec<TxId> = reply.entries.iter().map(|wb| wb.cert.txid).collect();
        assert_eq!(listed, applied);
        for wb in &reply.entries {
            assert_eq!(wb.tx.as_ref().map(|tx| tx.id()), Some(wb.cert.txid));
        }
    }

    /// Catch-up serves and counts only a replica of this shard, as named by
    /// the transport sender: a client's or another shard's request gets no
    /// reply, and a reply from a non-peer does not count towards ending
    /// catch-up.
    #[test]
    fn catch_up_serves_and_counts_only_shard_peers() {
        let peer = |shard, index| NodeId::Replica(ReplicaId::new(ShardId(shard), index));
        let mut r = replica(0);
        let me = NodeId::Replica(r.id());
        for from in [client_node(), peer(1, 1), peer(0, 1)] {
            let mut ctx = ctx_at(me, 1);
            r.on_message(&mut ctx, from, BasilMsg::CatchUpRequest);
            let answered = !sent_to(&ctx, from).is_empty();
            assert_eq!(answered, from == peer(0, 1), "{from:?}");
        }

        let mut r = BasilReplica::recover(
            r.id(),
            cfg(),
            registry(),
            ReplicaBehavior::Correct,
            [],
            Vec::new(),
        );
        let reply = || BasilMsg::CatchUpReply(CatchUpReply { entries: vec![] });
        let strangers = (1..6).map(|index| peer(1, index));
        for from in strangers.chain([client_node(), me]) {
            r.on_message(&mut ctx_at(me, 1), from, reply());
        }
        for index in 1..6 {
            assert!(r.is_recovering(), "caught up before peer {index} answered");
            r.on_message(&mut ctx_at(me, 1), peer(0, index), reply());
        }
        assert!(!r.is_recovering());
    }

    /// Property: across seeded random workloads, a replica that crashes
    /// with amnesia at an arbitrary point and rebuilds from its WAL ends
    /// the run with exactly the prepare/commit decisions — and the same
    /// committed versions — as an identical replica that never crashed, and
    /// answers a recovery ST1 with the same logged ST2 decision, decision
    /// view and current view.
    #[test]
    fn amnesia_replay_matches_the_never_crashed_oracle() {
        let keys = ["x", "y", "a", "b"];
        for seed in 0..12u64 {
            // Tiny deterministic LCG so the workload and the crash point
            // derive from the seed alone.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = move |bound: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % bound
            };

            let initial: Vec<(Key, Value)> = keys
                .iter()
                .map(|k| (Key::new(k), Value::from_u64(0)))
                .collect();
            let id = ReplicaId::new(ShardId(0), 0);
            let mut oracle = BasilReplica::new(
                id,
                cfg(),
                registry(),
                ReplicaBehavior::Correct,
                initial.clone(),
            );
            let mut subject = BasilReplica::new(
                id,
                cfg(),
                registry(),
                ReplicaBehavior::Correct,
                initial.clone(),
            );

            let total = 24u64;
            let crash_at = 4 + next(total - 8);
            let mut txs = Vec::new();
            for i in 0..total {
                let ts = 1_000_000 * (i + 1) + next(500_000);
                let key = keys[next(keys.len() as u64) as usize];
                let tx = write_tx(ts, key, next(1_000));
                // Seven in ten transactions are written back; of the rest,
                // two in three get a justified ST2, logging Commit or Abort.
                let deliver_writeback = next(10) < 7;
                let st2 = match (deliver_writeback, next(3)) {
                    (true, _) | (false, 2) => None,
                    (false, 0) => Some(signed_st2(
                        &tx,
                        Decision::Commit,
                        shard_votes_commit_tally(&tx, 4),
                    )),
                    (false, _) => Some(signed_st2(
                        &tx,
                        Decision::Abort,
                        vec![tally_of(&tx, ShardId(0), 2, Decision::Abort)],
                    )),
                };
                for r in [&mut oracle, &mut subject] {
                    let mut ctx = ctx_at(NodeId::Replica(id), i + 1);
                    r.handle_st1(&mut ctx, client_node(), signed_st1(&tx, false));
                    if let Some(st2) = &st2 {
                        r.handle_st2(&mut ctx, client_node(), st2.clone());
                    }
                    if deliver_writeback {
                        let cert = fast_commit_cert(&tx);
                        r.handle_writeback(
                            &mut ctx,
                            client_node(),
                            Writeback {
                                cert,
                                tx: Some(Arc::clone(&tx)),
                            },
                        );
                    }
                }
                txs.push((tx, deliver_writeback, st2.is_some()));

                if i + 1 == crash_at {
                    // Amnesia: only the WAL image survives. Rebuild and end
                    // the catch-up phase (no peers answer in this unit
                    // harness — the deadline fires instead).
                    let wal = subject.take_wal_bytes();
                    subject = BasilReplica::recover(
                        id,
                        cfg(),
                        registry(),
                        ReplicaBehavior::Correct,
                        initial.clone(),
                        wal,
                    );
                    assert!(subject.is_recovering(), "seed {seed}: catch-up armed");
                    let mut ctx = ctx_at(NodeId::Replica(id), i + 1);
                    subject.on_timer(
                        &mut ctx,
                        BasilMsg::ReplicaTimer(ReplicaTimer::CatchUpDeadline),
                    );
                    assert!(!subject.is_recovering(), "seed {seed}: catch-up over");
                }
            }

            // A written-back transaction is answered with its certificate
            // instead of the logged decision, and the WAL does not keep
            // certificates (ROADMAP item 3), so it is left out.
            let logged_answer = |r: &mut BasilReplica, tx| logged_answer(r, tx, total + 1);
            for (tx, written_back, st2_sent) in &txs {
                if *written_back {
                    continue;
                }
                let logged = logged_answer(&mut oracle, tx);
                assert_eq!(logged.is_some(), *st2_sent, "seed {seed}: {:?}", tx.id());
                assert_eq!(
                    logged_answer(&mut subject, tx),
                    logged,
                    "seed {seed}: logged decision for {:?} diverged after replay",
                    tx.id()
                );
            }
            for (tx, ..) in &txs {
                assert_eq!(
                    oracle.store().decision(&tx.id()),
                    subject.store().decision(&tx.id()),
                    "seed {seed}: decision for {:?} diverged after replay",
                    tx.id()
                );
            }
            for k in keys {
                assert_eq!(
                    oracle.store().latest_committed(&Key::new(k)),
                    subject.store().latest_committed(&Key::new(k)),
                    "seed {seed}: committed state for {k} diverged after replay"
                );
            }
        }
    }
}
