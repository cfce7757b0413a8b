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
use crate::certs::{validate_decision_cert, DecisionCert, DecisionProof, ShardVotes, Strength};
use crate::config::BasilConfig;
use crate::crypto_engine::SigEngine;
use crate::messages::{
    BasilMsg, ClientTimer, InvokeFb, ReadReply, ReadRequest, SignedSt1Reply, SignedSt2Reply, St1,
    St2, Writeback,
};
use crate::quorum::{combine_outcomes, ReadTally, ShardOutcome, ShardTally, St2Outcome, St2Tally};
use crate::views::logging_shard;
use basil_common::prng::SmallPrng;
use basil_common::FastHashMap;
use basil_common::{
    ClientId, Duration, Key, NodeId, ReplicaId, ShardId, SimTime, SystemConfig, TxGenerator, TxId,
};
use basil_simnet::{Actor, Context};
use basil_store::session::{Session, SessionStats, Step as SessionStep, MAX_BACKOFF};
use basil_store::{Decision, Transaction, TransactionBuilder};
use std::any::Any;
use std::borrow::Cow;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// How long a read waits for its quorum before it is re-sent to more
/// replicas.
const READ_TIMEOUT: Duration = Duration::from_millis(5);
/// How long the prepare phase waits before the client considers the
/// transaction's dependencies stalled and invokes the fallback.
const PREPARE_TIMEOUT: Duration = Duration::from_millis(10);
/// How long stage ST2 waits before the message is re-sent.
const ST2_TIMEOUT: Duration = Duration::from_millis(10);
/// Base timeout of the per-transaction fallback.
const FALLBACK_TIMEOUT: Duration = Duration::from_millis(20);

/// Statistics collected by one client, aggregated by the harness: the
/// session's protocol-independent counters (`committed`, `aborted_attempts`,
/// `latency`, `per_label`, `reads_issued`, `offered` — reached through
/// `Deref`, so they read as fields of this struct) plus Basil's own.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    session: SessionStats,
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
    /// Reads that adopted a prepared (uncommitted) version, acquiring a
    /// dependency.
    pub dependent_reads: u64,
    /// Open-loop arrivals dropped because the admission queue was already at
    /// `BasilConfig::admission_bound` (load shedding past saturation).
    pub shed: u64,
}

impl Deref for ClientStats {
    type Target = SessionStats;

    fn deref(&self) -> &SessionStats {
        &self.session
    }
}

impl DerefMut for ClientStats {
    fn deref_mut(&mut self) -> &mut SessionStats {
        &mut self.session
    }
}

/// What the evidence gathered so far lets a [`Commit`] do next.
#[derive(Debug)]
enum Step {
    /// Nothing yet.
    Wait,
    /// The votes combined to a slow-path decision, now held in
    /// [`Commit::proposal`]: log it on S_log.
    Log,
    /// S_log holds no quorum for any one decision and cannot reach one:
    /// elect a fallback leader with these signed views.
    Elect(Vec<SignedSt2Reply>),
    /// The transaction is decided and this certificate proves it.
    Decided(DecisionCert),
}

/// The prepare phase of one transaction — ST1 vote aggregation, ST2 decision
/// logging when some shard took the slow path, the fallback election when the
/// log diverged — up to the certificate that decides it.
///
/// The client holds one for its own in-flight transaction and one for every
/// stalled dependency it is finishing (Section 5: a recovery is the same
/// prepare, run again by whoever is interested), and drives both through the
/// same handlers. `recovery` selects only the `St1.recovery` flag, the timer
/// that guards the commit ([`Commit::timer`]) and whom a timeout re-asks
/// ([`Commit::retransmit_targets`]).
#[derive(Debug)]
struct Commit {
    tx: Arc<Transaction>,
    txid: TxId,
    involved: Cow<'static, [ShardId]>,
    slog: ShardId,
    recovery: bool,
    /// Whether unanimous votes decide without logging (`false`: NoFP).
    fast_path: bool,
    /// Each involved shard's ST1R votes, in `involved` order.
    tallies: Vec<ShardTally>,
    /// Each involved shard's classification once its votes allow one, in
    /// `involved` order.
    outcomes: Vec<Option<ShardOutcome>>,
    /// The decision proposed to S_log in view 0 with the tallies justifying
    /// it, once it was sent. Sent once; only the timeout re-sends it.
    proposal: Option<(Decision, Vec<ShardVotes>)>,
    st2_tally: St2Tally,
    /// Whether this client already asked S_log to elect a fallback leader.
    invoked_election: bool,
    /// Consecutive re-arms of the timer guarding the current stage, which
    /// drive its backoff; they count from 0 again when a stage's timer is
    /// first armed.
    retries: u32,
}

impl Commit {
    /// `None` for a transaction that touches nothing (it involves no shard).
    fn new(tx: Arc<Transaction>, recovery: bool, system: &SystemConfig) -> Option<Self> {
        // Prime the encoding memo before the id: this transaction is about
        // to be signed, and `id()` alone deliberately serializes transiently
        // without caching (see `Transaction::id`).
        tx.encoded();
        let txid = tx.id();
        let involved = tx.involved_shards(system.num_shards);
        let slog = logging_shard(txid, &involved)?;
        Some(Commit {
            tallies: involved
                .iter()
                .map(|s| ShardTally::new(txid, *s, system.shard))
                .collect(),
            outcomes: vec![None; involved.len()],
            proposal: None,
            st2_tally: St2Tally::new(txid, slog, system.shard),
            invoked_election: false,
            retries: 0,
            fast_path: system.fast_path,
            tx,
            txid,
            involved,
            slog,
            recovery,
        })
    }

    /// Looks at what S_log acknowledged first and at the ST1R votes second.
    /// `complete` marks that no further votes are expected (the timer fired).
    fn step(&mut self, complete: bool) -> Step {
        match self.st2_tally.classify() {
            Some(St2Outcome::Certified(vote_cert)) => {
                return self.decided(DecisionProof::Slow(vote_cert));
            }
            Some(St2Outcome::Divergent { replies }) if !self.invoked_election => {
                self.invoked_election = true;
                return Step::Elect(replies);
            }
            _ => {}
        }
        if self.proposal.is_some() {
            return Step::Wait;
        }
        for (tally, outcome) in self.tallies.iter().zip(&mut self.outcomes) {
            if outcome.is_none() {
                *outcome = tally.classify(complete);
            }
        }
        match combine_outcomes(&self.outcomes) {
            None => Step::Wait,
            Some(mut o) if o.strength == Strength::Fast && self.fast_path => {
                self.decided(match o.decision {
                    Decision::Commit => DecisionProof::FastCommit(o.shard_votes),
                    // A fast abort is decided by one shard's votes alone.
                    Decision::Abort => DecisionProof::FastAbort(o.shard_votes.swap_remove(0)),
                })
            }
            Some(o) => {
                self.proposal = Some((o.decision, o.shard_votes));
                Step::Log
            }
        }
    }

    /// The step that ends the commit: `proof` decides the transaction.
    fn decided(&self, proof: DecisionProof) -> Step {
        Step::Decided(DecisionCert {
            txid: self.txid,
            proof,
        })
    }

    /// The timer that guards the stage the commit is in: the client's own
    /// transaction has one per stage, a recovery one for its whole life.
    fn timer(&self) -> ClientTimer {
        let txid = self.txid;
        match (self.recovery, &self.proposal) {
            (true, _) => ClientTimer::FallbackTimeout { txid },
            (false, None) => ClientTimer::PrepareTimeout { txid },
            (false, Some(_)) => ClientTimer::St2Timeout { txid },
        }
    }

    /// Whom a timeout re-sends the transaction to. Its own client re-asks
    /// only the replicas still owing the current stage's reply (a vote, or
    /// S_log's acknowledgement — a replica that never acknowledged may have
    /// missed the ST1 itself and be buffering the ST2), so the message stream
    /// is untouched whenever nothing was lost. A recoverer re-asks everyone:
    /// the transaction may have been decided meanwhile by its owner or by
    /// another recoverer, and the answer to a recovery prepare — the
    /// certificate, or the logged decision — is how it finds out.
    fn retransmit_targets(&self, n: u32) -> Vec<NodeId> {
        let involved = self.involved.iter();
        match (self.recovery, &self.proposal) {
            (true, _) => involved.flat_map(|s| replicas(*s, 0..n)).collect(),
            (false, None) => involved
                .zip(&self.tallies)
                .flat_map(|(s, tally)| replicas(*s, tally.missing()))
                .collect(),
            (false, Some(_)) => replicas(self.slog, self.st2_tally.missing()),
        }
    }
}

/// The replicas of `shard` with the given indices, in their order.
fn replicas(shard: ShardId, indices: impl IntoIterator<Item = u32>) -> Vec<NodeId> {
    let node = |i| NodeId::Replica(ReplicaId::new(shard, i));
    indices.into_iter().map(node).collect()
}

/// The base period of a commit timer (see [`Commit::timer`]).
fn period(timer: &ClientTimer) -> Duration {
    match timer {
        ClientTimer::PrepareTimeout { .. } => PREPARE_TIMEOUT,
        ClientTimer::St2Timeout { .. } => ST2_TIMEOUT,
        ClientTimer::FallbackTimeout { .. } => FALLBACK_TIMEOUT,
        other => unreachable!("{other:?} guards no commit"),
    }
}

/// The Basil client actor.
pub struct BasilClient {
    cfg: BasilConfig,
    engine: SigEngine,
    /// The own transaction up to the point it is ready to commit, and its
    /// retries and accounting.
    session: Session,
    fault: FaultProfile,
    prng: SmallPrng,
    /// Whether the session's transaction is issued under the Byzantine
    /// strategy.
    faulty: bool,
    /// Replies to the session's read in flight.
    read: ReadTally,
    /// Every commit this client is driving: the session's transaction's,
    /// once it is ready, and one per stalled dependency it is finishing,
    /// each dropped when it resolves.
    commits: FastHashMap<TxId, Commit>,
    /// Which of `commits` is the session's transaction.
    own: Option<TxId>,
    /// Dependency transactions learned from prepared reads of the current
    /// attempt, shared with the read replies that delivered them, kept so
    /// the client can finish them if they stall.
    dep_txs: FastHashMap<TxId, Arc<Transaction>>,
    /// Dedicated PRNG for retry-timer jitter, seeded independently of
    /// `prng` so that timers backing off on lossy schedules never perturb
    /// the fault-free random stream (replica sampling, abort backoff) that
    /// golden tests pin byte-for-byte.
    retry_prng: SmallPrng,
    stats: ClientStats,
    /// Arrival timestamps of admitted-but-not-yet-started transactions
    /// (open loop only), bounded by `cfg.admission_bound`. Latency is
    /// measured from the arrival, so queueing delay shows up in it.
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
        BasilClient {
            session: Session::new(id, generator),
            cfg,
            engine,
            fault,
            prng: SmallPrng::new(seed ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            faulty: false,
            read: ReadTally::default(),
            commits: FastHashMap::default(),
            own: None,
            dep_txs: FastHashMap::default(),
            retry_prng: SmallPrng::new(seed ^ id.0.wrapping_mul(0xD1B5_4A32_D192_ED03)),
            stats: ClientStats::default(),
            arrivals: std::collections::VecDeque::new(),
        }
    }

    /// The client's identity.
    pub fn id(&self) -> ClientId {
        self.session.id()
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Whether the client has exhausted its generator.
    pub fn is_stopped(&self) -> bool {
        self.session.is_stopped()
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn replicas_of(&self, shard: ShardId) -> Vec<NodeId> {
        replicas(shard, 0..self.cfg.system.shard.n())
    }

    fn all_replicas_of(&self, shards: &[ShardId]) -> Vec<NodeId> {
        shards.iter().flat_map(|s| self.replicas_of(*s)).collect()
    }

    /// Signs the session's pending read and sends it to `targets`, guarded
    /// by the read timer.
    fn send_read(&mut self, ctx: &mut Context<BasilMsg>, targets: Vec<NodeId>) {
        let Some((req_id, key, ts)) = self.session.pending_read() else {
            return;
        };
        let mut req = ReadRequest {
            req_id,
            key: key.clone(),
            ts,
            auth: None,
        };
        req.auth = self.engine.sign_request(&req);
        for replica in targets {
            ctx.send(replica, BasilMsg::Read(req.clone()));
        }
        ctx.schedule_self(
            READ_TIMEOUT,
            BasilMsg::ClientTimer(ClientTimer::ReadTimeout { req_id }),
        );
    }

    // ------------------------------------------------------------------
    // Transaction driving (closed- and open-loop)
    // ------------------------------------------------------------------

    /// Starts the next transaction after the previous one finished. Closed
    /// loop: pull straight from the generator (latency clock starts now).
    /// Open loop: pull the oldest queued arrival, or go idle until the next
    /// arrival timer fires.
    fn start_next_transaction(&mut self, ctx: &mut Context<BasilMsg>) {
        if !self.session.is_paced() {
            let now = ctx.now();
            self.start_transaction(ctx, now);
        } else if let Some(arrived) = self.arrivals.pop_front() {
            self.start_transaction(ctx, arrived);
        }
    }

    /// Starts the session's next transaction and begins executing it.
    /// `arrived` anchors the latency measurement: for closed-loop clients it
    /// is the current time, for open-loop clients the (possibly earlier)
    /// Poisson arrival instant, so queueing delay counts toward latency.
    fn start_transaction(&mut self, ctx: &mut Context<BasilMsg>, arrived: SimTime) {
        let clock = ctx.local_clock();
        if !self.session.start(arrived, clock, &mut self.stats) {
            return;
        }
        self.faulty = self.fault.sample_faulty(&mut self.prng);
        if self.faulty {
            self.stats.faulty_issued += 1;
        }
        self.begin_attempt(ctx);
    }

    /// An open-loop arrival timer fired: admit the transaction (start it if
    /// the client is idle, queue it if there is room) or shed it.
    fn handle_open_loop_arrival(&mut self, ctx: &mut Context<BasilMsg>) {
        if self.session.is_stopped() {
            return;
        }
        // Keep the arrival process ticking independently of completions —
        // that independence is what makes the load open-loop.
        if let Some(delay) = self.session.next_arrival_delay() {
            ctx.schedule_self(delay, BasilMsg::ClientTimer(ClientTimer::OpenLoopArrival));
        }
        self.stats.offered += 1;
        let now = ctx.now();
        if self.session.is_idle() {
            self.start_transaction(ctx, now);
        } else if self.arrivals.len() < self.cfg.admission_bound {
            self.arrivals.push_back(now);
        } else {
            self.stats.shed += 1;
        }
    }

    /// The session began an attempt (a new transaction, or the retry of an
    /// aborted one): execute it.
    fn begin_attempt(&mut self, ctx: &mut Context<BasilMsg>) {
        // Only this attempt's dependencies are ever looked up.
        self.dep_txs.clear();
        self.execute(ctx);
    }

    // ------------------------------------------------------------------
    // Execution phase
    // ------------------------------------------------------------------

    /// Runs the session up to its next remote read or to the commit.
    fn execute(&mut self, ctx: &mut Context<BasilMsg>) {
        match self.session.advance_execution(&mut self.stats) {
            None => {}
            Some(SessionStep::Read { key, .. }) => self.issue_read(ctx, &key),
            Some(SessionStep::Ready(builder)) => self.begin_commit(ctx, builder),
        }
    }

    /// Sends the read of `key` to the read quorum's fanout, replicas of the
    /// key's shard in index order from a random one.
    fn issue_read(&mut self, ctx: &mut Context<BasilMsg>, key: &Key) {
        let shard = self.cfg.system.shard_for_key(key);
        let fanout = self.cfg.system.read_quorum.fanout(&self.cfg.system.shard);
        let n = self.cfg.system.shard.n();
        let start = self.prng.next_below(n as u64) as u32;
        self.read = ReadTally::default();
        self.send_read(ctx, replicas(shard, (0..fanout).map(|i| (start + i) % n)));
    }

    fn handle_read_reply(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId, reply: ReadReply) {
        let pending = self.session.pending_read();
        let Some((_, key, _)) = pending.filter(|(id, ..)| *id == reply.body.req_id) else {
            return;
        };
        // A read reply names no sender: whoever MAC'd it is who vouches for
        // the version (with signatures off, whoever sent it), and only a
        // replica of the key's shard may — a client's key, or another
        // shard's, verifies just as well. Only this client checks the reply,
        // so it carries a MAC like a request, not a transferable signature.
        let voucher = if self.engine.enabled() {
            reply.proof.map(|mac| mac.signer)
        } else {
            Some(from)
        };
        let Some(NodeId::Replica(replica)) = voucher else {
            return;
        };
        let shard = self.cfg.system.shard_for_key(key);
        if replica.shard != shard || replica.index >= self.cfg.system.shard.n() {
            return;
        }
        if !self
            .engine
            .verify_request(&reply.body, reply.proof.as_ref())
        {
            return;
        }
        self.read.add(replica, reply);
        self.take_read(ctx);
    }

    /// Takes the version the read's replies settle on and resumes execution;
    /// false while they settle none ([`ReadTally::classify`]).
    fn take_read(&mut self, ctx: &mut Context<BasilMsg>) -> bool {
        let Some((req_id, key, _)) = self.session.pending_read() else {
            return true;
        };
        let read = self.read.classify(key, &self.cfg.system, &mut self.engine);
        let Some((version, value, dependency)) = read else {
            return false;
        };
        let dependency = dependency.map(|(txid, tx)| {
            self.dep_txs.insert(txid, tx);
            self.stats.dependent_reads += 1;
            txid
        });
        self.session
            .read_returned(req_id, version, value, dependency);
        self.execute(ctx);
        true
    }

    fn handle_read_timeout(&mut self, ctx: &mut Context<BasilMsg>, req_id: u64) {
        let pending = self.session.pending_read();
        let Some((_, key, _)) = pending.filter(|(id, ..)| *id == req_id) else {
            return;
        };
        let shard = self.cfg.system.shard_for_key(key);
        // If the replies in hand settle the read, take it; otherwise widen
        // the read to every replica of the shard and keep waiting.
        if !self.take_read(ctx) {
            let targets = self.replicas_of(shard);
            self.send_read(ctx, targets);
        }
    }

    // ------------------------------------------------------------------
    // Prepare phase: the commit driver
    // ------------------------------------------------------------------

    /// Signs an ST1 for `tx` and sends it to `targets` (nothing is signed
    /// for nobody).
    fn send_st1(
        &mut self,
        ctx: &mut Context<BasilMsg>,
        tx: &Arc<Transaction>,
        recovery: bool,
        targets: Vec<NodeId>,
    ) {
        if targets.is_empty() {
            return;
        }
        let mut st1 = St1 {
            tx: Arc::clone(tx),
            auth: None,
            recovery,
        };
        st1.auth = self.engine.sign_request(&st1);
        for replica in targets {
            ctx.send(replica, BasilMsg::St1(st1.clone()));
        }
    }

    /// Signs the proposal of `txid`'s commit and sends it to all of S_log.
    fn send_st2(&mut self, ctx: &mut Context<BasilMsg>, txid: TxId) {
        let Some(commit) = self.commits.get(&txid) else {
            return;
        };
        let Some((decision, shard_votes)) = commit.proposal.clone() else {
            return;
        };
        let slog = commit.slog;
        let mut st2 = St2 {
            txid,
            decision,
            shard_votes,
            view: 0,
            auth: None,
        };
        st2.auth = self.engine.sign_request(&st2);
        for replica in self.replicas_of(slog) {
            ctx.send(replica, BasilMsg::St2(st2.clone()));
        }
    }

    /// Sends the decision certificate to every replica of every involved
    /// shard.
    fn send_writeback(
        &mut self,
        ctx: &mut Context<BasilMsg>,
        cert: Arc<DecisionCert>,
        tx: Arc<Transaction>,
        involved: &[ShardId],
    ) {
        let wb = Writeback { cert, tx: Some(tx) };
        for replica in self.all_replicas_of(involved) {
            ctx.send(replica, BasilMsg::Writeback(wb.clone()));
        }
    }

    /// Arms the timer guarding the stage `txid`'s commit is in. A stage's
    /// first timer waits the base period and starts the commit's count of
    /// re-arms over. A re-arm's delay grows with that count: the first
    /// keeps the base period (a single retry is the common lost-message case
    /// and needs no spreading — and fault-free schedules that brush a
    /// timeout stay byte-identical), later ones wait `base * 2^n` capped at
    /// [`MAX_BACKOFF`], plus up to half that again in jitter from the
    /// dedicated seeded retry PRNG. Doubling stops retry storms — every
    /// client of a stalled transaction re-firing at a fixed period in
    /// lockstep — and the jitter de-synchronizes the survivors, while the
    /// seeded PRNG keeps schedules bit-identical run to run.
    fn arm_timer(&mut self, ctx: &mut Context<BasilMsg>, txid: TxId, rearm: bool) {
        let Some(commit) = self.commits.get_mut(&txid) else {
            return;
        };
        let timer = commit.timer();
        let base = period(&timer);
        let attempt = if rearm { commit.retries } else { 0 };
        commit.retries = if rearm { attempt.saturating_add(1) } else { 0 };
        let delay = if attempt == 0 {
            base
        } else {
            let floor = base.as_nanos().max(1);
            let capped = floor
                .saturating_mul(1u64 << attempt.min(16))
                .min(MAX_BACKOFF.as_nanos().max(floor));
            let jitter = self.retry_prng.next_below(capped / 2 + 1);
            Duration::from_nanos(capped.saturating_add(jitter))
        };
        ctx.schedule_self(delay, BasilMsg::ClientTimer(timer));
    }

    /// Execution finished: freeze the own transaction and start its commit.
    fn begin_commit(&mut self, ctx: &mut Context<BasilMsg>, builder: TransactionBuilder) {
        // Transactions that touch nothing commit trivially.
        let Some(commit) = Commit::new(builder.build_shared(), false, &self.cfg.system) else {
            self.session.committed(ctx.now(), &mut self.stats);
            self.finish_and_continue(ctx);
            return;
        };
        let everyone = self.all_replicas_of(&commit.involved);
        self.send_st1(ctx, &commit.tx, false, everyone);

        // stall-early Byzantine clients never look at the votes.
        if self.faulty && self.cfg.client_strategy == ClientStrategy::StallEarly {
            self.finish_and_continue(ctx);
            return;
        }
        let txid = commit.txid;
        self.commits.insert(txid, commit);
        self.own = Some(txid);
        self.arm_timer(ctx, txid, false);
    }

    /// Starts finishing the stalled dependency `dep` (Section 5): the same
    /// prepare its own client ran, flagged as a recovery.
    fn start_recovery(&mut self, ctx: &mut Context<BasilMsg>, dep: TxId) {
        if self.commits.contains_key(&dep) {
            return; // already recovering
        }
        let Some(tx) = self.dep_txs.get(&dep).cloned() else {
            return; // nothing known about this dependency
        };
        let Some(commit) = Commit::new(tx, true, &self.cfg.system) else {
            return;
        };
        self.stats.fallback_invocations += 1;
        let everyone = self.all_replicas_of(&commit.involved);
        self.send_st1(ctx, &commit.tx, true, everyone);
        self.commits.insert(dep, commit);
        self.arm_timer(ctx, dep, false);
    }

    fn handle_st1_reply(&mut self, ctx: &mut Context<BasilMsg>, vote: SignedSt1Reply) {
        let (engine, signer) = (&mut self.engine, NodeId::Replica(vote.body.replica));
        if !engine.verify_from(&vote.body, vote.proof.as_ref(), signer) {
            return;
        }
        let txid = vote.body.txid;
        let Some(commit) = self.commits.get_mut(&txid) else {
            return;
        };
        let shard = vote.body.replica.shard;
        if let Some(i) = commit.involved.iter().position(|s| *s == shard) {
            commit.tallies[i].add(vote);
        }
        self.advance(ctx, txid, false);
    }

    fn handle_st2_reply(&mut self, ctx: &mut Context<BasilMsg>, reply: SignedSt2Reply) {
        let (engine, signer) = (&mut self.engine, NodeId::Replica(reply.body.replica));
        if !engine.verify_from(&reply.body, reply.proof.as_ref(), signer) {
            return;
        }
        let txid = reply.body.txid;
        let Some(commit) = self.commits.get_mut(&txid) else {
            return;
        };
        commit.st2_tally.add(reply);
        self.advance(ctx, txid, false);
    }

    /// Takes the next step of `txid`'s commit on the evidence in hand.
    fn advance(&mut self, ctx: &mut Context<BasilMsg>, txid: TxId, complete: bool) {
        let Some(commit) = self.commits.get_mut(&txid) else {
            return;
        };
        let (own, slog) = (!commit.recovery, commit.slog);
        let step = commit.step(complete);
        // Whether the votes just combined to a decision (S_log certifying
        // one, possibly somebody else's proposal, is not that).
        let voted = match &step {
            Step::Log => true,
            Step::Decided(cert) => !matches!(cert.proof, DecisionProof::Slow(_)),
            _ => false,
        };
        // Byzantine equivocation happens at the moment the votes are in.
        if own && voted && self.try_equivocate(ctx, txid) {
            return;
        }
        match step {
            Step::Wait => {}
            Step::Log => {
                self.send_st2(ctx, txid);
                if own {
                    // The own transaction's logging stage has its own timer;
                    // a recovery's one timer runs on.
                    self.stats.slow_path_decisions += 1;
                    self.arm_timer(ctx, txid, false);
                }
            }
            Step::Elect(views) => {
                self.stats.fallback_elections += 1;
                let mut ifb = InvokeFb {
                    txid,
                    views,
                    auth: None,
                };
                ifb.auth = self.engine.sign_request(&ifb);
                for replica in self.replicas_of(slog) {
                    ctx.send(replica, BasilMsg::InvokeFb(ifb.clone()));
                }
            }
            Step::Decided(cert) => {
                if own && voted {
                    self.stats.fast_path_decisions += 1;
                }
                self.finish_commit(ctx, txid, Arc::new(cert));
            }
        }
    }

    /// Attempts the ST2 equivocation attack on the own transaction `txid`;
    /// returns true if performed.
    fn try_equivocate(&mut self, ctx: &mut Context<BasilMsg>, txid: TxId) -> bool {
        let strategy = self.cfg.client_strategy;
        let Some(commit) = self.commits.get(&txid) else {
            return false;
        };
        if !(self.faulty && strategy.equivocates()) {
            return false;
        }
        // The first involved shard's tally is the equivocation target.
        let tally = &commit.tallies[0];
        if strategy != ClientStrategy::EquivForced && !tally.can_equivocate() {
            return false;
        }
        let slog = commit.slog;
        let commit_tally = tally.shard_votes(Decision::Commit);
        let abort_tally = tally.shard_votes(Decision::Abort);
        let replicas = self.replicas_of(slog);
        let half = replicas.len() / 2;
        for (i, replica) in replicas.into_iter().enumerate() {
            let (decision, tally) = if i < half {
                (Decision::Commit, commit_tally.clone())
            } else {
                (Decision::Abort, abort_tally.clone())
            };
            let mut st2 = St2 {
                txid,
                decision,
                shard_votes: vec![tally],
                view: 0,
                auth: None,
            };
            st2.auth = self.engine.sign_request(&st2);
            ctx.send(replica, BasilMsg::St2(st2));
        }
        self.stats.equivocations += 1;
        // Stall: abandon the transaction without writeback.
        self.finish_and_continue(ctx);
        true
    }

    /// A commit timer fired. It acts only if the commit it names is still
    /// in the stage it guards; any other firing is a stale timer.
    fn handle_commit_timeout(&mut self, ctx: &mut Context<BasilMsg>, timer: ClientTimer) {
        let (ClientTimer::PrepareTimeout { txid }
        | ClientTimer::St2Timeout { txid }
        | ClientTimer::FallbackTimeout { txid }) = timer
        else {
            return;
        };
        let guarded = |c: &&Commit| c.timer() == timer;
        let commit = self.commits.get(&txid).filter(guarded);
        let Some(proposed) = commit.map(|c| c.proposal.is_some()) else {
            return;
        };
        // First, try to decide with what we have.
        self.advance(ctx, txid, true);
        let n = self.cfg.system.shard.n();
        let Some(commit) = self.commits.get(&txid).filter(guarded) else {
            return;
        };
        // Still undecided: a request or its reply may have been lost.
        // Replicas answer re-deliveries idempotently, so re-sending is safe
        // on every timeout (a proposal first made just now is not re-sent).
        let (tx, recovery) = (Arc::clone(&commit.tx), commit.recovery);
        let targets = commit.retransmit_targets(n);
        self.send_st1(ctx, &tx, recovery, targets);
        if proposed {
            self.send_st2(ctx, txid);
        }
        if matches!(timer, ClientTimer::PrepareTimeout { .. }) {
            // The own transaction's missing votes are likely deferred on
            // stalled dependencies: finish those ourselves (Section 5).
            for dep in tx.deps() {
                self.start_recovery(ctx, dep.txid);
            }
        }
        self.arm_timer(ctx, txid, true);
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    /// Drops whatever is left of the session's transaction (nothing, after
    /// a commit) and starts the next one.
    fn finish_and_continue(&mut self, ctx: &mut Context<BasilMsg>) {
        if let Some(txid) = self.own.take() {
            self.commits.remove(&txid);
        }
        self.session.abandon();
        self.start_next_transaction(ctx);
    }

    /// `cert` decides `txid`. If this client is driving its commit, a
    /// recovery ends by telling every replica; the own transaction ends for
    /// the application too, with the decision the certificate carries —
    /// which, when a recovering client logged first, need not be the one
    /// this client proposed.
    fn finish_commit(&mut self, ctx: &mut Context<BasilMsg>, txid: TxId, cert: Arc<DecisionCert>) {
        let Some(commit) = self.commits.remove(&txid) else {
            return;
        };
        if commit.recovery {
            self.send_writeback(ctx, cert, commit.tx, &commit.involved);
            return;
        }
        self.own = None;
        // The client's latency ends here: the decision is durable.
        let backoff = if cert.decision().is_commit() {
            self.session.committed(ctx.now(), &mut self.stats);
            None
        } else {
            Some(self.session.aborted(&mut self.stats))
        };

        // stall-late (and equiv-real when equivocation was impossible)
        // withholds the writeback.
        let withhold_writeback = self.faulty
            && matches!(
                self.cfg.client_strategy,
                ClientStrategy::StallLate | ClientStrategy::EquivReal | ClientStrategy::EquivForced
            );
        if !withhold_writeback {
            self.send_writeback(ctx, cert, commit.tx, &commit.involved);
        }

        match backoff.filter(|_| !self.faulty) {
            None => self.finish_and_continue(ctx),
            // Honest aborted transactions are retried with exponential
            // backoff, jittered by up to as much again.
            Some(backoff) => {
                let jitter_ns = self.prng.next_below(backoff.as_nanos().max(1));
                let delay = backoff + Duration::from_nanos(jitter_ns);
                ctx.schedule_self(delay, BasilMsg::ClientTimer(ClientTimer::RetryBackoff));
            }
        }
    }

    /// A writeback (decision certificate) arriving at the client: a replica
    /// answering a recovery prepare with the outcome, or someone else having
    /// finished our own transaction. It is verified, on the shards that
    /// transaction involves, only if this client is driving it; any other is
    /// dropped unchecked, so no node can make the client validate a
    /// certificate it has no use for.
    fn handle_incoming_cert(&mut self, ctx: &mut Context<BasilMsg>, wb: Writeback) {
        let txid = wb.cert.txid;
        let Some(commit) = self.commits.get(&txid) else {
            return;
        };
        let shard = &self.cfg.system.shard;
        if !validate_decision_cert(&wb.cert, &commit.involved, shard, &mut self.engine) {
            return;
        }
        self.finish_commit(ctx, txid, wb.cert);
    }
}

impl Actor<BasilMsg> for BasilClient {
    fn on_start(&mut self, ctx: &mut Context<BasilMsg>) {
        match self.session.next_arrival_delay() {
            Some(delay) => {
                ctx.schedule_self(delay, BasilMsg::ClientTimer(ClientTimer::OpenLoopArrival));
            }
            None => self.start_next_transaction(ctx),
        }
        ctx.charge(self.engine.take_charged());
    }

    fn on_message(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId, msg: BasilMsg) {
        match msg {
            BasilMsg::ReadReply(reply) => self.handle_read_reply(ctx, from, reply),
            BasilMsg::St1Reply(vote) => self.handle_st1_reply(ctx, vote),
            BasilMsg::St2Reply(reply) => self.handle_st2_reply(ctx, reply),
            BasilMsg::Writeback(wb) => self.handle_incoming_cert(ctx, wb),
            // Messages meant for replicas are ignored if misrouted. So are
            // timers, which fire through `on_timer` only: a timer another
            // node sends (a replica's `PrepareTimeout` would re-send the ST1
            // to every replica) is not obeyed.
            BasilMsg::Read(_)
            | BasilMsg::St1(_)
            | BasilMsg::St2(_)
            | BasilMsg::RtsRelease { .. }
            | BasilMsg::InvokeFb(_)
            | BasilMsg::ElectFb(_)
            | BasilMsg::DecFb(_)
            | BasilMsg::CatchUpRequest
            | BasilMsg::CatchUpReply(_)
            | BasilMsg::ClientTimer(_)
            | BasilMsg::ReplicaTimer(_) => {}
        }
        // Every signature made and checked while handling the message.
        ctx.charge(self.engine.take_charged());
    }

    fn on_timer(&mut self, ctx: &mut Context<BasilMsg>, msg: BasilMsg) {
        if let BasilMsg::ClientTimer(timer) = msg {
            match timer {
                ClientTimer::ReadTimeout { req_id } => self.handle_read_timeout(ctx, req_id),
                ClientTimer::PrepareTimeout { .. }
                | ClientTimer::St2Timeout { .. }
                | ClientTimer::FallbackTimeout { .. } => self.handle_commit_timeout(ctx, timer),
                ClientTimer::RetryBackoff => {
                    if self.session.retry(ctx.local_clock()) {
                        self.begin_attempt(ctx);
                    }
                }
                ClientTimer::OpenLoopArrival => self.handle_open_loop_arrival(ctx),
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
    use crate::config::CryptoMode;
    use crate::messages::CommittedRead;
    use basil_common::{Op, ScriptedGenerator, Timestamp, TxProfile, Value};
    use basil_store::session::apply_delta;

    fn cfg() -> BasilConfig {
        BasilConfig::test_single_shard()
    }

    fn registry() -> basil_crypto::KeyRegistry {
        basil_crypto::KeyRegistry::from_seed(5)
    }

    /// The commit of the client's own transaction, once it is ready.
    fn own_commit(client: &BasilClient) -> Option<&Commit> {
        client.own.and_then(|txid| client.commits.get(&txid))
    }

    fn client_with(profiles: Vec<TxProfile>) -> BasilClient {
        client_under(cfg(), profiles)
    }

    fn client_under(cfg: BasilConfig, profiles: Vec<TxProfile>) -> BasilClient {
        BasilClient::new(
            ClientId(1),
            cfg,
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
            own_commit(&client),
            Some(c) if matches!(c.timer(), ClientTimer::PrepareTimeout { .. })
        ));
    }

    #[test]
    fn a_timer_sent_by_another_node_is_ignored() {
        let profile = TxProfile::new("w", vec![Op::Write(Key::new("x"), Value::from_u64(1))]);
        let mut client = client_with(vec![profile]);
        let mut ctx = ctx_at(1);
        client.on_start(&mut ctx);
        let txid = sent_messages(&ctx)
            .iter()
            .find_map(|(_, m)| match m {
                BasilMsg::St1(st1) => Some(st1.tx.id()),
                _ => None,
            })
            .expect("the ST1 went out");
        let timeout = BasilMsg::ClientTimer(ClientTimer::PrepareTimeout { txid });

        // A replica cannot make the client re-send its ST1.
        let replica = NodeId::Replica(ReplicaId::new(ShardId(0), 0));
        let mut forged = ctx_at(2);
        client.on_message(&mut forged, replica, timeout.clone());
        assert!(sent_messages(&forged).is_empty(), "forged timer obeyed");

        // The client's own timer still re-sends it to all six replicas.
        let mut own = ctx_at(3);
        client.on_timer(&mut own, timeout);
        let resent = sent_messages(&own)
            .into_iter()
            .filter(|(_, m)| matches!(m, BasilMsg::St1(_)))
            .count();
        assert_eq!(resent, 6);
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
        let a = client.session.fresh_timestamp(ctx.local_clock());
        let b = client.session.fresh_timestamp(ctx.local_clock());
        let c = client.session.fresh_timestamp(ctx.local_clock());
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

    /// A fast-path commit certificate for `tx` signed by all six replicas of
    /// shard 0 under the test registry.
    fn valid_commit_cert(tx: &Transaction, votes_n: u32) -> Arc<DecisionCert> {
        Arc::new(DecisionCert {
            txid: tx.id(),
            proof: DecisionProof::FastCommit(vec![commit_votes_of(tx, ShardId(0), votes_n)]),
        })
    }

    /// Commit votes for `tx` signed by replicas `0..votes_n` of `shard`.
    fn commit_votes_of(tx: &Transaction, shard: ShardId, votes_n: u32) -> ShardVotes {
        let votes: Vec<SignedSt1Reply> = (0..votes_n)
            .map(|i| {
                let rid = ReplicaId::new(shard, i);
                let body = crate::messages::St1ReplyBody {
                    txid: tx.id(),
                    replica: rid,
                    vote: Decision::Commit,
                };
                let mut engine = SigEngine::new(NodeId::Replica(rid), registry(), &cfg());
                let proof = engine.sign(&body);
                SignedSt1Reply { body, proof }
            })
            .collect();
        ShardVotes {
            txid: tx.id(),
            shard,
            decision: Decision::Commit,
            votes,
        }
    }

    /// A `Writeback` is verified only for a transaction the client is
    /// driving: a valid certificate for any other transaction is dropped
    /// before a signature is checked, and an invalid one for the client's
    /// own transaction does not finish it.
    #[test]
    fn only_a_certificate_for_a_transaction_being_finished_is_verified() {
        let (mut client, _) = owner(cfg());
        let own_tx = Arc::clone(&own_commit(&client).expect("committing").tx);
        client.engine.take_charged();
        let stats_before = format!("{:?}", client.stats());
        let writeback = |cert| BasilMsg::Writeback(Writeback { cert, tx: None });

        let elsewhere = valid_commit_cert(&write_tx(600), 6);
        let mut ctx = ctx_at(2);
        client.handle_incoming_cert(
            &mut ctx,
            Writeback {
                cert: elsewhere,
                tx: None,
            },
        );
        assert_eq!(client.engine.take_charged(), Duration::ZERO);
        assert!(ctx.outputs().is_empty());
        assert_eq!(format!("{:?}", client.stats()), stats_before);

        // Two votes cannot prove a fast commit on a shard of six.
        assert!(deliver(&mut client, writeback(valid_commit_cert(&own_tx, 2))).is_empty());
        assert!(client.own.is_some(), "a bogus certificate finishes nothing");
        assert_eq!(client.stats().committed, 0);

        deliver(&mut client, writeback(valid_commit_cert(&own_tx, 6)));
        assert!(client.own.is_none());
        assert_eq!(client.stats().committed, 1);
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

    // ------------------------------------------------------------------
    // The commit driver
    // ------------------------------------------------------------------

    use crate::messages::{PreparedRead, ReadReplyBody, St1ReplyBody, St2ReplyBody};

    /// Signatures off: the driver's decisions do not depend on them, and
    /// hand-built replies need no keys.
    fn unsigned_cfg() -> BasilConfig {
        cfg().without_proofs()
    }

    fn write_profile() -> TxProfile {
        TxProfile::new("w", vec![Op::Write(Key::new("x"), Value::from_u64(1))])
    }

    fn write_tx(nanos: u64) -> Arc<Transaction> {
        let mut b = TransactionBuilder::new(Timestamp::from_nanos(nanos, ClientId(7)));
        b.record_write(Key::new("x"), Value::from_u64(1));
        b.build_shared()
    }

    fn commit_of(tx: &Arc<Transaction>, recovery: bool, cfg: &BasilConfig) -> Commit {
        Commit::new(Arc::clone(tx), recovery, &cfg.system).expect("writes a key")
    }

    fn vote(txid: TxId, i: u32, vote: Decision) -> SignedSt1Reply {
        SignedSt1Reply {
            body: St1ReplyBody {
                txid,
                replica: ReplicaId::new(ShardId(0), i),
                vote,
            },
            proof: None,
        }
    }

    fn ack(txid: TxId, i: u32, decision: Decision, view: u64) -> SignedSt2Reply {
        SignedSt2Reply {
            body: St2ReplyBody {
                txid,
                replica: ReplicaId::new(ShardId(0), i),
                decision,
                view_decision: view,
                view_current: view,
            },
            proof: None,
        }
    }

    fn add_votes(commit: &mut Commit, votes: impl IntoIterator<Item = SignedSt1Reply>) {
        for v in votes {
            commit.tallies[0].add(v);
        }
    }

    /// `commits` commit votes from replicas `0..commits`, abort votes from the
    /// next `aborts`.
    fn votes(txid: TxId, commits: u32, aborts: u32) -> Vec<SignedSt1Reply> {
        (0..commits)
            .map(|i| vote(txid, i, Decision::Commit))
            .chain((commits..commits + aborts).map(|i| vote(txid, i, Decision::Abort)))
            .collect()
    }

    fn count(msgs: &[(NodeId, BasilMsg)], pick: impl Fn(&BasilMsg) -> bool) -> usize {
        msgs.iter().filter(|(_, m)| pick(m)).count()
    }

    /// Starts a client on one write-only transaction; returns it with the
    /// id of that transaction.
    fn owner(cfg: BasilConfig) -> (BasilClient, TxId) {
        let mut client = client_under(cfg, vec![write_profile()]);
        client.on_start(&mut ctx_at(1));
        let txid = client.own.expect("committing");
        (client, txid)
    }

    /// Starts a client on recovering `tx` as a stalled dependency.
    fn recoverer(cfg: BasilConfig, tx: &Arc<Transaction>) -> BasilClient {
        let mut client = client_under(cfg, vec![]);
        client.dep_txs.insert(tx.id(), Arc::clone(tx));
        client.start_recovery(&mut ctx_at(1), tx.id());
        assert_eq!(client.stats().fallback_invocations, 1);
        client
    }

    fn deliver(client: &mut BasilClient, msg: BasilMsg) -> Vec<(NodeId, BasilMsg)> {
        let mut ctx = ctx_at(2);
        client.on_message(
            &mut ctx,
            NodeId::Replica(ReplicaId::new(ShardId(0), 0)),
            msg,
        );
        sent_messages(&ctx)
    }

    fn deliver_all(
        client: &mut BasilClient,
        msgs: impl IntoIterator<Item = BasilMsg>,
    ) -> Vec<(NodeId, BasilMsg)> {
        msgs.into_iter().flat_map(|m| deliver(client, m)).collect()
    }

    #[test]
    fn commit_step_unanimous_votes_decide_fast() {
        let tx = write_tx(1_000);
        let mut commit = commit_of(&tx, false, &cfg());
        add_votes(&mut commit, votes(tx.id(), 5, 0));
        assert!(matches!(commit.step(false), Step::Wait));
        add_votes(&mut commit, [vote(tx.id(), 5, Decision::Commit)]);
        match commit.step(false) {
            Step::Decided(DecisionCert {
                proof: DecisionProof::FastCommit(votes),
                ..
            }) => assert_eq!(votes[0].votes.len(), 6),
            other => panic!("expected a fast commit, got {other:?}"),
        }
    }

    #[test]
    fn commit_step_slow_commit_waits_for_complete_and_is_proposed_once() {
        let tx = write_tx(1_000);
        let mut commit = commit_of(&tx, true, &cfg());
        add_votes(&mut commit, votes(tx.id(), 4, 0));
        assert!(
            matches!(commit.step(false), Step::Wait),
            "a unanimous fast path might still materialize"
        );
        assert!(matches!(commit.step(true), Step::Log));
        let (decision, tallies) = commit.proposal.clone().expect("proposed");
        assert_eq!(decision, Decision::Commit);
        assert_eq!(tallies[0].votes.len(), 4);
        // Further evidence short of a quorum on S_log changes nothing: the
        // proposal is out, and only the timeout re-sends it.
        add_votes(&mut commit, [vote(tx.id(), 4, Decision::Commit)]);
        commit.st2_tally.add(ack(tx.id(), 0, Decision::Commit, 0));
        assert!(matches!(commit.step(false), Step::Wait));
        assert!(matches!(commit.step(true), Step::Wait));
        // n - f matching acknowledgements decide.
        for i in 1..5 {
            commit.st2_tally.add(ack(tx.id(), i, Decision::Commit, 0));
        }
        match commit.step(false) {
            Step::Decided(DecisionCert {
                proof: DecisionProof::Slow(acks),
                ..
            }) => {
                assert_eq!(acks.decision, Decision::Commit);
                assert_eq!(acks.replies.len(), 5);
            }
            other => panic!("expected a slow commit, got {other:?}"),
        }
    }

    /// One abort vote decides nothing: an abort needs `f + 1` votes to log
    /// and `3f + 1` to be fast.
    #[test]
    fn commit_step_one_abort_vote_does_not_decide() {
        let tx = write_tx(1_000);
        let mut commit = commit_of(&tx, false, &cfg());
        add_votes(&mut commit, votes(tx.id(), 1, 1));
        assert!(matches!(commit.step(false), Step::Wait));
    }

    #[test]
    fn commit_step_split_log_elects_once() {
        let tx = write_tx(1_000);
        // The owner's commit: a split log is the owner's problem too.
        let mut commit = commit_of(&tx, false, &cfg());
        add_votes(&mut commit, votes(tx.id(), 4, 2));
        assert!(matches!(commit.step(false), Step::Log), "all six voted");
        for i in 0..6 {
            let decision = if i < 3 {
                Decision::Commit
            } else {
                Decision::Abort
            };
            commit.st2_tally.add(ack(tx.id(), i, decision, 0));
        }
        match commit.step(false) {
            Step::Elect(views) => assert_eq!(views.len(), 6),
            other => panic!("expected an election, got {other:?}"),
        }
        assert!(matches!(commit.step(false), Step::Wait));
        assert!(matches!(commit.step(true), Step::Wait));
        // The election's outcome arrives as ST2R of view 1 and decides.
        for i in 0..5 {
            commit.st2_tally.add(ack(tx.id(), i, Decision::Abort, 1));
        }
        match commit.step(false) {
            Step::Decided(cert) => assert_eq!(cert.decision(), Decision::Abort),
            other => panic!("expected a decision, got {other:?}"),
        }
    }

    #[test]
    fn commit_step_without_the_fast_path_always_logs() {
        let tx = write_tx(1_000);
        let nofp = cfg().without_fast_path();
        for recovery in [false, true] {
            let mut commit = commit_of(&tx, recovery, &nofp);
            add_votes(&mut commit, votes(tx.id(), 6, 0));
            assert!(
                matches!(commit.step(false), Step::Log),
                "recovery = {recovery}"
            );
        }
    }

    /// The client timers a callback armed, with their delays.
    fn armed(ctx: &Context<BasilMsg>) -> Vec<(Duration, ClientTimer)> {
        ctx.outputs()
            .iter()
            .filter_map(|o| match o {
                basil_simnet::actor::Output::Timer {
                    delay,
                    msg: BasilMsg::ClientTimer(timer),
                } => Some((*delay, timer.clone())),
                _ => None,
            })
            .collect()
    }

    /// Fires `timer` at `ms` and returns the one timer it re-armed.
    fn fire(client: &mut BasilClient, ms: u64, timer: &ClientTimer) -> (Duration, ClientTimer) {
        let mut ctx = ctx_at(ms);
        client.on_timer(&mut ctx, BasilMsg::ClientTimer(timer.clone()));
        match armed(&ctx).as_slice() {
            [one] => one.clone(),
            other => panic!("expected one timer, got {other:?}"),
        }
    }

    /// A commit timer is armed for its stage's base period. Its first re-arm
    /// waits that period again; each further one waits `base * 2^n`, capped
    /// at `MAX_BACKOFF`, plus up to half of that in jitter. When the own
    /// commit proposes, its ST2 timer starts over at its own base.
    #[test]
    fn commit_timers_back_off_and_each_stage_starts_at_its_base() {
        let mut client = client_under(unsigned_cfg(), vec![write_profile()]);
        let mut ctx = ctx_at(1);
        client.on_start(&mut ctx);
        let txid = sent_messages(&ctx)
            .iter()
            .find_map(|(_, m)| match m {
                BasilMsg::St1(st1) => Some(st1.tx.id()),
                _ => None,
            })
            .expect("the ST1 went out");
        let prepare = ClientTimer::PrepareTimeout { txid };
        assert_eq!(armed(&ctx), [(PREPARE_TIMEOUT, prepare.clone())]);

        let backed_off = |n: u32, base: Duration| {
            let capped =
                Duration::from_nanos((base.as_nanos() << n.min(16)).min(MAX_BACKOFF.as_nanos()));
            let jitter = if n == 0 { Duration::ZERO } else { capped / 2 };
            (capped, capped + jitter)
        };
        let mut now = 11;
        for n in 0..6 {
            let (delay, timer) = fire(&mut client, now, &prepare);
            assert_eq!(timer, prepare);
            let (low, high) = backed_off(n, PREPARE_TIMEOUT);
            assert!(low <= delay && delay <= high, "re-arm {n}: {delay:?}");
            now += delay.as_millis() + 1;
        }

        // Every replica votes, two of them abort: the commit proposes.
        let mut ctx = ctx_at(now);
        for v in votes(txid, 4, 2) {
            client.handle_st1_reply(&mut ctx, v);
        }
        let st2 = ClientTimer::St2Timeout { txid };
        assert_eq!(armed(&ctx), [(ST2_TIMEOUT, st2.clone())]);
        let mut ctx = ctx_at(now + 1);
        client.on_timer(&mut ctx, BasilMsg::ClientTimer(prepare));
        assert!(ctx.outputs().is_empty(), "the prepare stage is over");

        for n in 0..3 {
            now += 20;
            let (delay, timer) = fire(&mut client, now, &st2);
            assert_eq!(timer, st2);
            let (low, high) = backed_off(n, ST2_TIMEOUT);
            assert!(low <= delay && delay <= high, "ST2 re-arm {n}: {delay:?}");
        }
    }

    /// Drift 1a: replicas' logged decision is sticky, so when a recovering
    /// client logged Abort first (two abort votes justify it) the owner's
    /// Commit proposal is acknowledged with Abort. The certificate decides —
    /// not what the owner proposed.
    #[test]
    fn commit_owner_reports_the_certified_decision_not_its_proposal() {
        let (mut client, txid) = owner(unsigned_cfg());
        let sent = deliver_all(
            &mut client,
            votes(txid, 4, 2).into_iter().map(BasilMsg::St1Reply),
        );
        assert_eq!(
            count(
                &sent,
                |m| matches!(m, BasilMsg::St2(s) if s.decision.is_commit())
            ),
            6
        );
        assert_eq!(client.stats().slow_path_decisions, 1);

        let mut ctx = ctx_at(3);
        for i in 0..5 {
            client.handle_st2_reply(&mut ctx, ack(txid, i, Decision::Abort, 0));
        }
        assert_eq!(client.stats().committed, 0, "the transaction aborted");
        assert_eq!(client.stats().aborted_attempts, 1);
        let sent = sent_messages(&ctx);
        assert_eq!(
            count(
                &sent,
                |m| matches!(m, BasilMsg::Writeback(wb) if !wb.cert.decision().is_commit())
            ),
            6
        );
        assert!(
            client.own.is_none() && client.session.retry(SimTime::from_millis(9)),
            "an aborted attempt is retried"
        );
    }

    /// Drift 1b: a recovery sends its proposal once; replies that do not
    /// decide re-send nothing and arm nothing; the timeout re-sends.
    #[test]
    fn commit_recovery_proposes_once_and_the_timeout_resends() {
        let tx = write_tx(1_000);
        let mut client = recoverer(unsigned_cfg(), &tx);
        let sent = deliver_all(
            &mut client,
            votes(tx.id(), 4, 2).into_iter().map(BasilMsg::St1Reply),
        );
        assert_eq!(count(&sent, |m| matches!(m, BasilMsg::St2(_))), 6);

        let mut ctx = ctx_at(3);
        client.handle_st2_reply(&mut ctx, ack(tx.id(), 0, Decision::Commit, 0));
        client.handle_st1_reply(&mut ctx, vote(tx.id(), 0, Decision::Commit));
        assert!(ctx.outputs().is_empty(), "got {:?}", ctx.outputs());

        let mut ctx = ctx_at(30);
        client.handle_commit_timeout(&mut ctx, ClientTimer::FallbackTimeout { txid: tx.id() });
        let sent = sent_messages(&ctx);
        assert_eq!(count(&sent, |m| matches!(m, BasilMsg::St2(_))), 6);
        assert_eq!(
            count(&sent, |m| matches!(m, BasilMsg::St1(s) if s.recovery)),
            6,
            "a recoverer re-asks every replica, the ones that voted included"
        );
        let timers = ctx.outputs().len() - sent.len();
        assert_eq!(timers, 1, "one timer chain per recovery");
    }

    /// Drift 1c: the owner of a transaction whose log split invokes the
    /// fallback like any other interested client, once.
    #[test]
    fn commit_owner_invokes_the_fallback_on_a_split_log() {
        let (mut client, txid) = owner(unsigned_cfg());
        deliver_all(
            &mut client,
            votes(txid, 4, 2).into_iter().map(BasilMsg::St1Reply),
        );
        // Three commits and two aborts: whatever the sixth replica says, no
        // decision reaches n - f = 5.
        let acks = (0..5).map(|i| {
            let decision = if i < 3 {
                Decision::Commit
            } else {
                Decision::Abort
            };
            BasilMsg::St2Reply(ack(txid, i, decision, 0))
        });
        let sent = deliver_all(&mut client, acks);
        assert_eq!(
            count(
                &sent,
                |m| matches!(m, BasilMsg::InvokeFb(f) if f.views.len() == 5)
            ),
            6
        );
        assert_eq!(client.stats().fallback_elections, 1);
        let sent = deliver(
            &mut client,
            BasilMsg::St2Reply(ack(txid, 5, Decision::Abort, 0)),
        );
        assert!(sent.is_empty());
    }

    /// A recovering client may log a decision while the owner is still
    /// gathering votes: S_log's certificate ends the owner's commit too, and
    /// is not mistaken for a fast-path decision.
    #[test]
    fn commit_owner_accepts_a_decision_logged_while_it_was_voting() {
        let (mut client, txid) = owner(unsigned_cfg());
        let acks = (0..5).map(|i| BasilMsg::St2Reply(ack(txid, i, Decision::Commit, 0)));
        let sent = deliver_all(&mut client, acks);
        assert_eq!(count(&sent, |m| matches!(m, BasilMsg::Writeback(_))), 6);
        assert_eq!(client.stats().committed, 1);
        assert_eq!(client.stats().fast_path_decisions, 0);
        assert_eq!(client.stats().slow_path_decisions, 0);
    }

    /// The same replies draw the same messages from a transaction's owner
    /// and from a client recovering it, apart from the `St1.recovery` flag:
    /// prepare, slow-path proposal, writeback.
    #[test]
    fn commit_owner_and_recoverer_emit_the_same_messages() {
        let (mut own, txid) = owner(unsigned_cfg());
        let tx = Arc::clone(&own_commit(&own).expect("committing").tx);
        let mut ctx = ctx_at(1);
        let mut rec = client_under(unsigned_cfg(), vec![]);
        rec.dep_txs.insert(txid, Arc::clone(&tx));
        rec.start_recovery(&mut ctx, txid);
        let started = sent_messages(&ctx);
        assert_eq!(
            count(&started, |m| matches!(m, BasilMsg::St1(s) if s.recovery)),
            6
        );

        let replies: Vec<BasilMsg> = votes(txid, 4, 2)
            .into_iter()
            .map(BasilMsg::St1Reply)
            .chain((0..5).map(|i| BasilMsg::St2Reply(ack(txid, i, Decision::Commit, 0))))
            .collect();
        let from_owner = deliver_all(&mut own, replies.clone());
        let from_recoverer = deliver_all(&mut rec, replies);
        assert_eq!(count(&from_owner, |m| matches!(m, BasilMsg::St2(_))), 6);
        assert_eq!(
            count(&from_owner, |m| matches!(m, BasilMsg::Writeback(_))),
            6
        );
        assert_eq!(format!("{from_owner:?}"), format!("{from_recoverer:?}"));
        assert_eq!(own.stats().committed, 1);
        assert!(rec.commits.is_empty(), "a resolved recovery is dropped");
    }

    // ------------------------------------------------------------------
    // Read replies, bounded state
    // ------------------------------------------------------------------

    /// The body of a reply to read `req_id` of `key` that shows only `tx`'s
    /// prepared write.
    fn prepared_read(req_id: u64, key: &str, tx: &Arc<Transaction>) -> ReadReplyBody {
        let prepared = Some(PreparedRead { tx: Arc::clone(tx) });
        ReadReplyBody {
            req_id,
            key: Key::new(key),
            committed: None,
            prepared,
        }
    }

    /// A read reply vouches for a version only if a replica of the key's
    /// shard signed it: anyone with a key can produce a valid signature.
    #[test]
    fn read_reply_counts_only_replicas_of_the_keys_shard() {
        let profile = TxProfile::new("r", vec![Op::Read(Key::new("x"))]);
        let mut client = client_with(vec![profile]);
        client.on_start(&mut ctx_at(1));
        let forged_tx = write_tx(500);
        let reply_from = |signer: NodeId| {
            let body = prepared_read(1, "x", &forged_tx);
            let proof = SigEngine::new(signer, registry(), &cfg()).sign_request(&body);
            ReadReply { body, proof }
        };
        // f + 1 = 2 vouchers would make the prepared version readable.
        let impostors = [
            NodeId::Client(ClientId(8)),
            NodeId::Client(ClientId(9)),
            NodeId::Replica(ReplicaId::new(ShardId(1), 0)),
            NodeId::Replica(ReplicaId::new(ShardId(1), 1)),
            NodeId::Replica(ReplicaId::new(ShardId(0), 6)),
            NodeId::Replica(ReplicaId::new(ShardId(0), 7)),
        ];
        for signer in impostors {
            client.handle_read_reply(&mut ctx_at(2), signer, reply_from(signer));
        }
        assert!(
            client.session.pending_read().is_some(),
            "the read is still waiting"
        );
        assert_eq!(client.read.total(), 0);
        assert_eq!(client.stats().dependent_reads, 0);

        // Two replicas of shard 0 do vouch for it.
        for i in 0..2 {
            let replica = NodeId::Replica(ReplicaId::new(ShardId(0), i));
            client.handle_read_reply(&mut ctx_at(3), replica, reply_from(replica));
        }
        assert_eq!(client.stats().dependent_reads, 1);
    }

    /// A read reply carries a MAC, checked at a MAC's cost: a MAC made under
    /// another replica's key than the one it names, or over another body, is
    /// refused and costs what the genuine reply costs, a MAC check and no
    /// signature verification.
    #[test]
    fn a_read_reply_mac_binds_its_replica_and_its_body() {
        let profile = TxProfile::new("r", vec![Op::Read(Key::new("x"))]);
        let mut client = client_with(vec![profile]);
        client.on_start(&mut ctx_at(1));
        let replica = |i| NodeId::Replica(ReplicaId::new(ShardId(0), i));
        let mac = |i, body: &ReadReplyBody| {
            let mut engine = SigEngine::new(replica(i), registry(), &cfg());
            engine.sign_request(body).expect("signatures on")
        };
        let body = prepared_read(1, "x", &write_tx(500));
        let mut relabelled = mac(1, &body);
        relabelled.signer = replica(0);
        let moved = mac(0, &prepared_read(1, "x", &write_tx(600)));
        let mut deliver = |proof| {
            let mut ctx = ctx_at(2);
            let reply = ReadReply {
                body: body.clone(),
                proof: Some(proof),
            };
            client.on_message(&mut ctx, replica(0), BasilMsg::ReadReply(reply));
            ctx.charged()
        };
        let mac_check = basil_crypto::CostModel::ed25519_default().mac;
        assert_eq!(deliver(relabelled), mac_check, "another replica's key");
        assert_eq!(deliver(moved), mac_check, "another body");
        assert_eq!(deliver(mac(0, &body)), mac_check, "the genuine reply");
        assert_eq!(client.read.total(), 1, "only the genuine reply counts");
    }

    /// The CPU a client charges to start (sign and send the first read) and
    /// to take the reply that concludes a read (check its MAC, validate every
    /// reply's certificate, sign and send the prepare), under each crypto
    /// mode. The simulator reads only a callback's total (this charge plus
    /// its own `MESSAGE_CPU` per message handled or sent), so these pin every
    /// simulated output against a charge that moves, is dropped or is
    /// counted twice.
    #[test]
    fn callback_charges_are_pinned() {
        for (mode, pinned) in [
            (CryptoMode::Real, [2_000, 2_000, 796_000]),
            (CryptoMode::Simulated, [2_000, 2_000, 796_000]),
        ] {
            let mut c = cfg();
            c.crypto_mode = mode;
            let profile = TxProfile::new(
                "rw",
                vec![
                    Op::Read(Key::new("x")),
                    Op::Write(Key::new("y"), Value::from_u64(2)),
                ],
            );
            let mut client = client_under(c, vec![profile]);
            let mut ctx = ctx_at(1);
            client.on_start(&mut ctx);
            let writer = write_tx(500);
            let cert = valid_commit_cert(&writer, 6);
            let mut charges = [ctx.charged().as_nanos(), 0, 0];
            for i in 0..2 {
                let body = ReadReplyBody {
                    req_id: 1,
                    key: Key::new("x"),
                    committed: Some(CommittedRead {
                        version: writer.timestamp(),
                        value: Value::from_u64(1),
                        txid: writer.id(),
                        cert: Some(Arc::clone(&cert)),
                        tx: Some(Arc::clone(&writer)),
                    }),
                    prepared: None,
                };
                let replica = NodeId::Replica(ReplicaId::new(ShardId(0), i));
                let proof = SigEngine::new(replica, registry(), &cfg()).sign_request(&body);
                let mut ctx = ctx_at(2);
                client.on_message(
                    &mut ctx,
                    replica,
                    BasilMsg::ReadReply(ReadReply { body, proof }),
                );
                charges[1 + i as usize] = ctx.charged().as_nanos();
            }
            assert_eq!(client.stats().reads_issued, 1);
            assert!(
                client.own.is_some(),
                "the read concluded and the prepare went out"
            );
            assert_eq!(charges, pinned, "{mode:?}");
        }
    }

    /// A committed read whose certificate decides another transaction is
    /// refused before any of its signatures is checked: concluding a read on
    /// such replies costs what concluding it on uncertified replies does.
    #[test]
    fn a_certificate_for_another_transaction_costs_no_verification() {
        let writer = write_tx(500);
        let conclude_with = |cert: Option<Arc<DecisionCert>>| {
            let profile = TxProfile::new("r", vec![Op::Read(Key::new("x"))]);
            let mut client = client_with(vec![profile]);
            client.on_start(&mut ctx_at(1));
            let mut charged = 0;
            for i in 0..2 {
                let body = ReadReplyBody {
                    req_id: 1,
                    key: Key::new("x"),
                    committed: Some(CommittedRead {
                        version: writer.timestamp(),
                        value: Value::from_u64(1),
                        txid: writer.id(),
                        cert: cert.clone(),
                        tx: Some(Arc::clone(&writer)),
                    }),
                    prepared: None,
                };
                let replica = NodeId::Replica(ReplicaId::new(ShardId(0), i));
                let proof = SigEngine::new(replica, registry(), &cfg()).sign_request(&body);
                let mut ctx = ctx_at(2);
                let reply = BasilMsg::ReadReply(ReadReply { body, proof });
                client.on_message(&mut ctx, replica, reply);
                charged = ctx.charged().as_nanos();
            }
            assert!(
                client.session.pending_read().is_none(),
                "the read concluded"
            );
            charged
        };
        let elsewhere = valid_commit_cert(&write_tx(600), 6);
        assert_eq!(conclude_with(Some(elsewhere)), conclude_with(None));
    }

    /// A real commit certificate proves that its transaction committed, not
    /// what it wrote: a Byzantine replica that pairs one with a value the
    /// transaction never wrote, or with a body that is not the certified
    /// transaction, is refused, and the honest reply decides the read.
    #[test]
    fn a_committed_read_is_bound_to_its_writer() {
        let x = Key::new("x");
        let writer = write_tx(500);
        let cert = valid_commit_cert(&writer, 6);
        let mut impostor = TransactionBuilder::new(writer.timestamp());
        impostor.record_write(x.clone(), Value::from_u64(666));
        let impostor = impostor.build_shared();
        for (value, tx) in [
            (666, Some(Arc::clone(&writer))),
            (666, Some(impostor.clone())),
            (1, Some(write_tx(600))),
            (1, None),
        ] {
            let profile = TxProfile::new(
                "rmw",
                vec![Op::RmwAdd {
                    key: x.clone(),
                    delta: 1,
                }],
            );
            let mut client = client_with(vec![profile]);
            client.on_start(&mut ctx_at(1));
            let mut reply_from = |i: u32, value: u64, tx: Option<Arc<Transaction>>| {
                let body = ReadReplyBody {
                    req_id: 1,
                    key: x.clone(),
                    committed: Some(CommittedRead {
                        version: writer.timestamp(),
                        value: Value::from_u64(value),
                        txid: writer.id(),
                        cert: Some(Arc::clone(&cert)),
                        tx,
                    }),
                    prepared: None,
                };
                let replica = NodeId::Replica(ReplicaId::new(ShardId(0), i));
                let proof = SigEngine::new(replica, registry(), &cfg()).sign_request(&body);
                let mut ctx = ctx_at(2);
                let reply = BasilMsg::ReadReply(ReadReply { body, proof });
                client.on_message(&mut ctx, replica, reply);
                sent_messages(&ctx)
            };
            // The Byzantine replica answers first, then an honest one.
            assert!(reply_from(0, value, tx.clone()).is_empty());
            let sent = reply_from(1, 1, Some(Arc::clone(&writer)));
            let st1 = sent
                .iter()
                .find_map(|(_, m)| match m {
                    BasilMsg::St1(st1) => Some(st1),
                    _ => None,
                })
                .expect("the second reply concluded the read");
            assert_eq!(
                st1.tx.written_value(&x),
                Some(&Value::from_u64(2)),
                "read {value} from {:?}",
                tx.map(|tx| tx.id())
            );
        }
    }

    /// A two-shard deployment, and a key on each of its shards.
    fn two_shards() -> (BasilConfig, Key, Key) {
        let mut c = cfg();
        c.system.num_shards = 2;
        let key_on = |shard| {
            (0..)
                .map(|i| Key::new(format!("k{i}")))
                .find(|k| c.system.shard_for_key(k) == ShardId(shard))
                .expect("some key hashes to each shard")
        };
        let (k0, k1) = (key_on(0), key_on(1));
        (c, k0, k1)
    }

    /// Shard 0's unanimous commit votes do not commit a transaction that
    /// also involves shard 1. An S_log replica sees such votes in every
    /// slow-path ST2, also when shard 1 voted to abort.
    #[test]
    fn one_shards_votes_do_not_commit_a_two_shard_transaction() {
        let (c, k0, k1) = two_shards();
        let profile = TxProfile::new(
            "w2",
            vec![
                Op::Write(k0, Value::from_u64(1)),
                Op::Write(k1, Value::from_u64(2)),
            ],
        );
        let mut client = client_under(c, vec![profile]);
        client.on_start(&mut ctx_at(1));
        let tx = Arc::clone(&own_commit(&client).expect("committing").tx);
        assert_eq!(*tx.involved_shards(2), [ShardId(0), ShardId(1)]);
        let cert = valid_commit_cert(&tx, 6);
        deliver(
            &mut client,
            BasilMsg::Writeback(Writeback { cert, tx: None }),
        );
        assert_eq!(client.stats().committed, 0);
        assert!(client.own.is_some(), "still committing");
    }

    /// A committed version is read only when its certificate commits the
    /// writer on every shard the writer involves: shard 0's votes alone do
    /// not make a two-shard writer's value readable.
    #[test]
    fn a_committed_read_needs_every_shard_of_its_writer() {
        let (c, k0, k1) = two_shards();
        let mut writer = TransactionBuilder::new(Timestamp::from_nanos(500, ClientId(7)));
        writer.record_write(k0.clone(), Value::from_u64(1));
        writer.record_write(k1, Value::from_u64(2));
        let writer = writer.build_shared();
        let on = |shard| commit_votes_of(&writer, ShardId(shard), 6);
        // The read returns genesis (0) or the writer's 1; the RMW adds 1.
        for (votes, written) in [(vec![on(0)], 1), (vec![on(0), on(1)], 2)] {
            let cert = Arc::new(DecisionCert {
                txid: writer.id(),
                proof: DecisionProof::FastCommit(votes),
            });
            let profile = TxProfile::new(
                "rmw",
                vec![Op::RmwAdd {
                    key: k0.clone(),
                    delta: 1,
                }],
            );
            let mut client = client_under(c.clone(), vec![profile]);
            client.on_start(&mut ctx_at(1));
            let mut sent = Vec::new();
            for i in 0..2 {
                let body = ReadReplyBody {
                    req_id: 1,
                    key: k0.clone(),
                    committed: Some(CommittedRead {
                        version: writer.timestamp(),
                        value: Value::from_u64(1),
                        txid: writer.id(),
                        cert: Some(Arc::clone(&cert)),
                        tx: Some(Arc::clone(&writer)),
                    }),
                    prepared: None,
                };
                let replica = NodeId::Replica(ReplicaId::new(ShardId(0), i));
                let proof = SigEngine::new(replica, registry(), &cfg()).sign_request(&body);
                let mut ctx = ctx_at(2);
                let reply = BasilMsg::ReadReply(ReadReply { body, proof });
                client.on_message(&mut ctx, replica, reply);
                sent = sent_messages(&ctx);
            }
            let st1 = sent
                .iter()
                .find_map(|(_, m)| match m {
                    BasilMsg::St1(st1) => Some(st1),
                    _ => None,
                })
                .expect("the second reply concluded the read");
            assert_eq!(
                st1.tx.written_value(&k0),
                Some(&Value::from_u64(written)),
                "{} shard(s) certified",
                written
            );
        }
    }

    /// With signatures off a read reply is its transport sender's: a replica
    /// that answers again after a `ReadTimeout` widened the read is still
    /// one voucher, and a client or another shard's replica is none.
    #[test]
    fn unsigned_read_reply_counts_each_replica_once() {
        let profile = TxProfile::new("r", vec![Op::Read(Key::new("x"))]);
        let mut client = client_under(unsigned_cfg(), vec![profile]);
        client.on_start(&mut ctx_at(1));
        let prepared_tx = write_tx(500);
        let reply = || {
            let body = prepared_read(1, "x", &prepared_tx);
            BasilMsg::ReadReply(ReadReply { body, proof: None })
        };
        let replica = |shard, index| NodeId::Replica(ReplicaId::new(ShardId(shard), index));

        client.on_message(&mut ctx_at(2), replica(0, 0), reply());
        client.handle_read_timeout(&mut ctx_at(6), 1);
        client.on_message(&mut ctx_at(7), replica(0, 0), reply());
        client.on_message(&mut ctx_at(7), NodeId::Client(ClientId(8)), reply());
        client.on_message(&mut ctx_at(7), replica(1, 1), reply());
        assert!(
            client.session.pending_read().is_some(),
            "one replica of the shard answered: the read is still waiting"
        );
        assert_eq!(client.stats().dependent_reads, 0);

        // A second replica of the shard makes f + 1 vouchers.
        client.on_message(&mut ctx_at(8), replica(0, 1), reply());
        assert_eq!(client.stats().dependent_reads, 1);
    }

    /// A genesis version carries no certificate, so one replica's claim
    /// decides nothing: a forged genesis value that arrives first keeps the
    /// read waiting until f + 1 replies agree on one.
    #[test]
    fn a_genesis_read_needs_f_plus_one_vouchers() {
        let x = Key::new("x");
        let profile = TxProfile::new(
            "rmw",
            vec![Op::RmwAdd {
                key: x.clone(),
                delta: 1,
            }],
        );
        let mut client = client_with(vec![profile]);
        client.on_start(&mut ctx_at(1));
        let mut reply_from = |i: u32, value: u64| {
            let body = ReadReplyBody {
                req_id: 1,
                key: x.clone(),
                committed: Some(CommittedRead {
                    version: Timestamp::ZERO,
                    value: Value::from_u64(value),
                    txid: TxId::default(),
                    cert: None,
                    tx: None,
                }),
                prepared: None,
            };
            let replica = NodeId::Replica(ReplicaId::new(ShardId(0), i));
            let proof = SigEngine::new(replica, registry(), &cfg()).sign_request(&body);
            let mut ctx = ctx_at(2);
            client.on_message(
                &mut ctx,
                replica,
                BasilMsg::ReadReply(ReadReply { body, proof }),
            );
            sent_messages(&ctx)
        };

        // A Byzantine replica answers first, then an honest one.
        assert!(reply_from(0, 666).is_empty());
        assert!(
            reply_from(1, 10).is_empty(),
            "two genesis claims disagree: the read waits"
        );
        let sent = reply_from(2, 10);
        let st1 = sent
            .iter()
            .find_map(|(_, m)| match m {
                BasilMsg::St1(st1) => Some(st1),
                _ => None,
            })
            .expect("the third reply concluded the read");
        assert_eq!(st1.tx.written_value(&x), Some(&Value::from_u64(11)));
    }

    /// A thousand transactions, each depending on a stalled write that the
    /// client recovers: neither the recoveries nor the remembered dependency
    /// bodies accumulate.
    #[test]
    fn recoveries_and_dependencies_do_not_accumulate() {
        const N: u64 = 1_000;
        let profile = TxProfile::new(
            "dependent",
            vec![
                Op::Read(Key::new("hot")),
                Op::Write(Key::new("out"), Value::from_u64(5)),
            ],
        );
        let mut client = client_under(unsigned_cfg(), vec![profile; N as usize]);
        client.on_start(&mut ctx_at(1));
        for i in 0..N {
            // Two replicas vouch for a prepared write of `hot` by a
            // transaction that then stalls.
            let mut b = TransactionBuilder::new(Timestamp::from_nanos(i + 1, ClientId(7)));
            b.record_write(Key::new("hot"), Value::from_u64(i));
            let dep = b.build_shared();
            let mut ctx = ctx_at(2);
            for r in 0..2 {
                let body = prepared_read(i + 1, "hot", &dep);
                let from = NodeId::Replica(ReplicaId::new(ShardId(0), r));
                client.handle_read_reply(&mut ctx, from, ReadReply { body, proof: None });
            }
            let txid = sent_messages(&ctx)
                .iter()
                .find_map(|(_, m)| match m {
                    BasilMsg::St1(st1) => Some(st1.tx.id()),
                    _ => None,
                })
                .expect("the read concluded and the prepare went out");
            // No votes arrive (they wait on the dependency): the prepare
            // timeout starts the recovery, and a certificate resolves it.
            let timeout = ClientTimer::PrepareTimeout { txid };
            client.handle_commit_timeout(&mut ctx_at(20), timeout);
            assert!(client.commits.contains_key(&dep.id()));
            let cert = Arc::new(DecisionCert {
                txid: dep.id(),
                proof: DecisionProof::FastCommit(vec![ShardVotes {
                    txid: dep.id(),
                    shard: ShardId(0),
                    decision: Decision::Commit,
                    votes: votes(dep.id(), 6, 0),
                }]),
            });
            deliver(
                &mut client,
                BasilMsg::Writeback(Writeback { cert, tx: None }),
            );
            // The released votes commit the dependent transaction.
            deliver_all(
                &mut client,
                votes(txid, 6, 0).into_iter().map(BasilMsg::St1Reply),
            );
            assert_eq!(client.stats().committed, i + 1);
        }
        assert!(client.is_stopped());
        assert_eq!(client.stats().fallback_invocations, N);
        assert_eq!(client.stats().dependent_reads, N);
        assert!(client.commits.is_empty());
        assert!(client.dep_txs.len() <= 1, "got {}", client.dep_txs.len());
    }
}
