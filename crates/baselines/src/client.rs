//! The baseline transaction-layer client.
//!
//! The client is the 2PC coordinator of the layered architecture the paper
//! describes for TxHotstuff and TxBFT-SMaRt (and, with direct execution, for
//! TAPIR): it executes reads, then submits a `Prepare` request to every
//! involved shard, waits for each shard's OCC vote, submits the
//! `Commit`/`Abort` decision, and (for the ordered systems) waits for the
//! decision to be ordered and acknowledged before reporting completion.
//! Like the Basil client it is a closed-loop driver with exponential backoff
//! on aborts.

use crate::messages::{BaselineClientTimer, BaselineMsg, ShardRequest};
use crate::occ::OccVote;
use crate::profile::{BaselineConfig, COST};
use basil_common::{
    ClientId, Duration, Key, NodeId, ReplicaId, ShardId, Timestamp, TxGenerator, TxId, Value,
};
use basil_simnet::{Actor, Context};
use basil_store::session::{Session, SessionStats, Step};
use basil_store::{Transaction, TransactionBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// How long the client waits for replies before re-sending a read, a
/// prepare or a decide.
const REQUEST_TIMEOUT: Duration = Duration::from_millis(15);

#[derive(Debug)]
struct Preparing {
    tx: Arc<Transaction>,
    txid: TxId,
    involved: Cow<'static, [ShardId]>,
    /// Per shard: votes by replica index.
    votes: HashMap<ShardId, HashMap<u32, OccVote>>,
    decided: HashMap<ShardId, bool>,
}

#[derive(Debug)]
struct Deciding {
    txid: TxId,
    involved: Cow<'static, [ShardId]>,
    commit: bool,
    acks: HashMap<ShardId, HashSet<u32>>,
}

/// Where the 2PC of the session's transaction stands.
#[derive(Debug)]
enum Phase {
    Preparing(Preparing),
    Deciding(Deciding),
}

/// A baseline system client: the read quorums and the 2PC of the baseline
/// systems under the shared transaction [`Session`].
pub struct BaselineClient {
    cfg: BaselineConfig,
    session: Session,
    rng: SmallRng,
    /// Replies to the session's read in flight, one per replica.
    read_replies: Vec<(ReplicaId, Timestamp, Value)>,
    phase: Option<Phase>,
    stats: SessionStats,
}

impl BaselineClient {
    /// Creates a client driven by `generator`.
    pub fn new(
        id: ClientId,
        cfg: BaselineConfig,
        generator: Box<dyn TxGenerator>,
        seed: u64,
    ) -> Self {
        BaselineClient {
            session: Session::new(id, generator),
            cfg,
            rng: SmallRng::seed_from_u64(seed ^ id.0.rotate_left(17)),
            read_replies: Vec::new(),
            phase: None,
            stats: SessionStats::default(),
        }
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    fn replicas_of(&self, shard: ShardId) -> Vec<NodeId> {
        (0..self.cfg.n())
            .map(|i| NodeId::Replica(ReplicaId::new(shard, i)))
            .collect()
    }

    /// Where `Prepare`/`Decide` requests go: the leader (replica 0) for
    /// ordered systems, every replica for TAPIR.
    fn submit_targets(&self, shard: ShardId) -> Vec<NodeId> {
        if self.cfg.kind.is_ordered() {
            vec![NodeId::Replica(ReplicaId::new(shard, 0))]
        } else {
            self.replicas_of(shard)
        }
    }

    /// Sends `request` to its targets in every involved shard. The first
    /// submission is signed; a retransmission re-sends the signed request.
    fn submit(
        &self,
        ctx: &mut Context<BaselineMsg>,
        involved: &[ShardId],
        request: ShardRequest,
        first: bool,
    ) {
        for shard in involved {
            for target in self.submit_targets(*shard) {
                if first && self.cfg.kind.uses_signatures() {
                    ctx.charge(COST.sign);
                }
                ctx.charge(COST.message_cost());
                let request = request.clone();
                ctx.send(target, BaselineMsg::Submit { request });
            }
        }
    }

    // ------------------------------------------------------------------
    // Closed loop and execution
    // ------------------------------------------------------------------

    fn start_next_transaction(&mut self, ctx: &mut Context<BaselineMsg>) {
        let (now, clock) = (ctx.now(), ctx.local_clock());
        if self.session.start(now, clock, &mut self.stats) {
            self.execute(ctx);
        }
    }

    /// Runs the session up to its next remote read or to the 2PC.
    fn execute(&mut self, ctx: &mut Context<BaselineMsg>) {
        match self.session.advance_execution(&mut self.stats) {
            None => {}
            Some(Step::Read { req_id, key }) => self.issue_read(ctx, req_id, key),
            Some(Step::Ready(builder)) => self.send_prepares(ctx, builder),
        }
    }

    fn issue_read(&mut self, ctx: &mut Context<BaselineMsg>, req_id: u64, key: Key) {
        let shard = self.cfg.shard_for_key(&key);
        // TAPIR reads from one (random) replica; the BFT baselines need f+1
        // matching replies, so they contact f+1 replicas.
        let targets: Vec<NodeId> = if self.cfg.kind.uses_signatures() {
            self.replicas_of(shard)
                .into_iter()
                .take(self.cfg.reply_quorum() as usize)
                .collect()
        } else {
            let all = self.replicas_of(shard);
            let pick = self.rng.gen_range(0..all.len());
            vec![all[pick]]
        };
        self.read_replies.clear();
        self.send_read(ctx, req_id, key, targets);
    }

    /// Sends read `req_id` to `targets`, guarded by the read timer.
    fn send_read(
        &mut self,
        ctx: &mut Context<BaselineMsg>,
        req_id: u64,
        key: Key,
        targets: Vec<NodeId>,
    ) {
        for target in targets {
            ctx.charge(COST.message_cost());
            ctx.send(
                target,
                BaselineMsg::Read {
                    req_id,
                    key: key.clone(),
                },
            );
        }
        ctx.schedule_self(
            REQUEST_TIMEOUT,
            BaselineMsg::ClientTimer(BaselineClientTimer::ReadTimeout { req_id }),
        );
    }

    fn handle_read_reply(
        &mut self,
        ctx: &mut Context<BaselineMsg>,
        from: NodeId,
        req_id: u64,
        version: Timestamp,
        value: Value,
    ) {
        if self.cfg.kind.uses_signatures() {
            ctx.charge(COST.verify);
        }
        let Some(replica) = from.as_replica() else {
            return;
        };
        if !matches!(self.session.pending_read(), Some((id, ..)) if id == req_id) {
            return;
        }
        // Each replica counts once toward the quorum: a replica asked twice
        // (the read timeout widens to the whole shard, the replicas already
        // asked included) answers twice, and its later reply replaces the
        // earlier one.
        match self.read_replies.iter_mut().find(|(r, ..)| *r == replica) {
            Some(existing) => *existing = (replica, version, value),
            None => self.read_replies.push((replica, version, value)),
        }
        if (self.read_replies.len() as u32) < self.cfg.reply_quorum() {
            return;
        }
        // Use the freshest version among the replies.
        let (_, version, value) = self
            .read_replies
            .drain(..)
            .max_by_key(|(_, v, _)| *v)
            .expect("a quorum of at least one reply");
        self.session.read_returned(req_id, version, value, None);
        self.execute(ctx);
    }

    // ------------------------------------------------------------------
    // 2PC
    // ------------------------------------------------------------------

    fn send_prepares(&mut self, ctx: &mut Context<BaselineMsg>, builder: TransactionBuilder) {
        let tx = builder.build_shared();
        if tx.is_empty() {
            self.finish(ctx, true);
            return;
        }
        let txid = tx.id();
        let involved = tx.involved_shards(self.cfg.num_shards);
        let request = ShardRequest::Prepare {
            tx: Arc::clone(&tx),
        };
        self.submit(ctx, &involved, request, true);
        self.phase = Some(Phase::Preparing(Preparing {
            tx,
            txid,
            involved,
            votes: HashMap::new(),
            decided: HashMap::new(),
        }));
        ctx.schedule_self(
            REQUEST_TIMEOUT,
            BaselineMsg::ClientTimer(BaselineClientTimer::PrepareTimeout { txid }),
        );
    }

    fn handle_prepare_result(
        &mut self,
        ctx: &mut Context<BaselineMsg>,
        from: NodeId,
        txid: TxId,
        vote: OccVote,
    ) {
        if self.cfg.kind.uses_signatures() {
            ctx.charge(COST.verify);
        }
        // For the ordered systems all correct replicas execute the prepare
        // identically, so `f + 1` matching votes decide a shard. TAPIR
        // replicas execute independently (inconsistent replication), so a
        // shard only commits when *all* its replicas agree — a single abort
        // vote aborts the shard. This mirrors TAPIR's fast quorum while
        // keeping every replica's store consistent.
        let (commit_quorum, abort_quorum) = if self.cfg.kind.is_ordered() {
            (self.cfg.reply_quorum(), self.cfg.reply_quorum())
        } else {
            (self.cfg.n(), 1)
        };
        let Some(Phase::Preparing(prep)) = &mut self.phase else {
            return;
        };
        if prep.txid != txid {
            return;
        }
        let Some(replica) = from.as_replica() else {
            return;
        };
        prep.votes
            .entry(replica.shard)
            .or_default()
            .insert(replica.index, vote);
        // A shard is decided once enough matching votes are in.
        for (shard, votes) in prep.votes.iter() {
            if prep.decided.contains_key(shard) {
                continue;
            }
            let commits = votes.values().filter(|v| v.is_commit()).count() as u32;
            let aborts = votes.len() as u32 - commits;
            if commits >= commit_quorum {
                prep.decided.insert(*shard, true);
            } else if aborts >= abort_quorum {
                prep.decided.insert(*shard, false);
            }
        }
        if prep.involved.iter().all(|s| prep.decided.contains_key(s)) {
            let commit = prep.involved.iter().all(|s| prep.decided[s]);
            let involved = std::mem::take(&mut prep.involved);
            self.send_decides(ctx, txid, involved, commit);
        }
    }

    fn send_decides(
        &mut self,
        ctx: &mut Context<BaselineMsg>,
        txid: TxId,
        involved: Cow<'static, [ShardId]>,
        commit: bool,
    ) {
        self.submit(ctx, &involved, ShardRequest::Decide { txid, commit }, true);
        if self.cfg.kind.is_ordered() {
            // The ordered systems must wait for the decision to be ordered
            // and acknowledged.
            self.phase = Some(Phase::Deciding(Deciding {
                txid,
                involved,
                commit,
                acks: HashMap::new(),
            }));
            ctx.schedule_self(
                REQUEST_TIMEOUT,
                BaselineMsg::ClientTimer(BaselineClientTimer::DecideTimeout { txid }),
            );
        } else {
            // TAPIR: the decision is final as soon as the client determines
            // it; the commit message is asynchronous.
            self.finish(ctx, commit);
        }
    }

    fn handle_decide_ack(&mut self, ctx: &mut Context<BaselineMsg>, from: NodeId, txid: TxId) {
        let quorum = self.cfg.reply_quorum();
        let Some(Phase::Deciding(dec)) = &mut self.phase else {
            return;
        };
        if dec.txid != txid {
            return;
        }
        let Some(replica) = from.as_replica() else {
            return;
        };
        dec.acks
            .entry(replica.shard)
            .or_default()
            .insert(replica.index);
        let acked = |s| dec.acks.get(s).is_some_and(|a| a.len() as u32 >= quorum);
        if dec.involved.iter().all(acked) {
            let commit = dec.commit;
            self.finish(ctx, commit);
        }
    }

    /// The 2PC of the session's transaction ended.
    fn finish(&mut self, ctx: &mut Context<BaselineMsg>, committed: bool) {
        self.phase = None;
        if committed {
            self.session.committed(ctx.now(), &mut self.stats);
            self.start_next_transaction(ctx);
        } else {
            let backoff = self.session.aborted(&mut self.stats);
            let jitter = self.rng.gen_range(0..backoff.as_nanos().max(1));
            ctx.schedule_self(
                backoff + Duration::from_nanos(jitter),
                BaselineMsg::ClientTimer(BaselineClientTimer::RetryBackoff),
            );
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn handle_timer(&mut self, ctx: &mut Context<BaselineMsg>, timer: BaselineClientTimer) {
        match timer {
            BaselineClientTimer::ReadTimeout { req_id } => {
                let pending = self.session.pending_read();
                if let Some((_, key, _)) = pending.filter(|(id, ..)| *id == req_id) {
                    // Widen to every replica of the shard and keep waiting.
                    let key = key.clone();
                    let targets = self.replicas_of(self.cfg.shard_for_key(&key));
                    self.send_read(ctx, req_id, key, targets);
                }
            }
            // A request or its answer may have been lost: replicas handle
            // re-deliveries idempotently, so re-submit and keep waiting.
            BaselineClientTimer::PrepareTimeout { txid } => match &self.phase {
                Some(Phase::Preparing(p)) if p.txid == txid => {
                    let request = ShardRequest::Prepare {
                        tx: Arc::clone(&p.tx),
                    };
                    self.submit(ctx, &p.involved, request, false);
                    ctx.schedule_self(REQUEST_TIMEOUT, BaselineMsg::ClientTimer(timer));
                }
                _ => {}
            },
            BaselineClientTimer::DecideTimeout { txid } => match &self.phase {
                Some(Phase::Deciding(d)) if d.txid == txid => {
                    let request = ShardRequest::Decide {
                        txid,
                        commit: d.commit,
                    };
                    self.submit(ctx, &d.involved, request, false);
                    ctx.schedule_self(REQUEST_TIMEOUT, BaselineMsg::ClientTimer(timer));
                }
                _ => {}
            },
            BaselineClientTimer::RetryBackoff => {
                if self.session.retry(ctx.local_clock()) {
                    self.execute(ctx);
                }
            }
        }
    }
}

impl Actor<BaselineMsg> for BaselineClient {
    fn on_start(&mut self, ctx: &mut Context<BaselineMsg>) {
        // The baselines are measured closed-loop only. Driving a paced
        // generator as fast as replies return would measure something other
        // than the offered rate, silently.
        assert!(
            self.session.next_arrival_delay().is_none(),
            "the baseline clients are closed-loop; a paced (open-loop) \
             generator is not supported"
        );
        self.start_next_transaction(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<BaselineMsg>, from: NodeId, msg: BaselineMsg) {
        ctx.charge(COST.message_cost());
        match msg {
            BaselineMsg::ReadReply {
                req_id,
                version,
                value,
                ..
            } => self.handle_read_reply(ctx, from, req_id, version, value),
            BaselineMsg::PrepareResult { txid, vote } => {
                self.handle_prepare_result(ctx, from, txid, vote)
            }
            BaselineMsg::DecideAck { txid } => self.handle_decide_ack(ctx, from, txid),
            // Replica-directed traffic is ignored. So are timers, which fire
            // through `on_timer` only: a timer another node sends would make
            // the client retry early.
            BaselineMsg::Read { .. }
            | BaselineMsg::Submit { .. }
            | BaselineMsg::OrderPhase { .. }
            | BaselineMsg::OrderVote { .. }
            | BaselineMsg::OrderCommit { .. }
            | BaselineMsg::BatchTimer
            | BaselineMsg::ClientTimer(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<BaselineMsg>, msg: BaselineMsg) {
        ctx.charge(COST.message_cost());
        if let BaselineMsg::ClientTimer(timer) = msg {
            self.handle_timer(ctx, timer);
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
    use crate::profile::SystemKind;
    use basil_common::{Op, ScriptedGenerator, SimTime, TxProfile};

    fn ctx() -> Context<BaselineMsg> {
        Context::new(
            NodeId::Client(ClientId(1)),
            SimTime::from_millis(1),
            SimTime::from_millis(1),
        )
    }

    fn sent(ctx: &Context<BaselineMsg>) -> Vec<(NodeId, BaselineMsg)> {
        ctx.outputs()
            .iter()
            .filter_map(|o| match o {
                basil_simnet::actor::Output::Send { to, msg } => Some((*to, msg.clone())),
                _ => None,
            })
            .collect()
    }

    fn client(kind: SystemKind, profiles: Vec<TxProfile>) -> BaselineClient {
        BaselineClient::new(
            ClientId(1),
            BaselineConfig::new(kind),
            Box::new(ScriptedGenerator::new(profiles)),
            9,
        )
    }

    #[test]
    fn tapir_write_only_tx_prepares_on_all_replicas() {
        let profile = TxProfile::new("w", vec![Op::Write(Key::new("x"), Value::from_u64(1))]);
        let mut c = client(SystemKind::Tapir, vec![profile]);
        let mut cx = ctx();
        c.on_start(&mut cx);
        let prepares = sent(&cx)
            .iter()
            .filter(|(_, m)| {
                matches!(
                    m,
                    BaselineMsg::Submit {
                        request: ShardRequest::Prepare { .. }
                    }
                )
            })
            .count();
        assert_eq!(prepares, 3, "TAPIR sends prepares to all 2f+1 replicas");
    }

    #[test]
    fn ordered_system_submits_to_the_leader_only() {
        let profile = TxProfile::new("w", vec![Op::Write(Key::new("x"), Value::from_u64(1))]);
        let mut c = client(SystemKind::TxHotstuff, vec![profile]);
        let mut cx = ctx();
        c.on_start(&mut cx);
        let submits: Vec<_> = sent(&cx)
            .into_iter()
            .filter(|(_, m)| matches!(m, BaselineMsg::Submit { .. }))
            .collect();
        assert_eq!(submits.len(), 1);
        assert_eq!(
            submits[0].0,
            NodeId::Replica(ReplicaId::new(ShardId(0), 0)),
            "prepare goes to the shard leader"
        );
    }

    #[test]
    fn tapir_read_goes_to_a_single_replica() {
        let profile = TxProfile::new("r", vec![Op::Read(Key::new("x"))]);
        let mut c = client(SystemKind::Tapir, vec![profile]);
        let mut cx = ctx();
        c.on_start(&mut cx);
        let reads = sent(&cx)
            .iter()
            .filter(|(_, m)| matches!(m, BaselineMsg::Read { .. }))
            .count();
        assert_eq!(reads, 1);
    }

    #[test]
    fn bft_read_contacts_f_plus_one_replicas() {
        let profile = TxProfile::new("r", vec![Op::Read(Key::new("x"))]);
        let mut c = client(SystemKind::TxBftSmart, vec![profile]);
        let mut cx = ctx();
        c.on_start(&mut cx);
        let reads = sent(&cx)
            .iter()
            .filter(|(_, m)| matches!(m, BaselineMsg::Read { .. }))
            .count();
        assert_eq!(reads, 2);
    }

    /// Delivers a reply to read `req_id` of key `x` from replica `index`;
    /// returns whether the read concluded (the 2PC prepare went out).
    fn read_reply_concludes(c: &mut BaselineClient, req_id: u64, index: u32) -> bool {
        let mut cx = ctx();
        c.on_message(
            &mut cx,
            NodeId::Replica(ReplicaId::new(ShardId(0), index)),
            BaselineMsg::ReadReply {
                req_id,
                key: Key::new("x"),
                version: Timestamp::ZERO,
                value: Value::from_u64(1),
            },
        );
        sent(&cx)
            .iter()
            .any(|(_, m)| matches!(m, BaselineMsg::Submit { .. }))
    }

    /// The read timeout re-asks every replica, the `f + 1` already asked
    /// included, so a slow replica answers twice: it still vouches once.
    #[test]
    fn bft_read_quorum_counts_each_replica_once() {
        for kind in [SystemKind::TxHotstuff, SystemKind::TxBftSmart] {
            let profile = TxProfile::new("r", vec![Op::Read(Key::new("x"))]);
            let mut c = client(kind, vec![profile]);
            c.on_start(&mut ctx());
            let mut cx = ctx();
            c.on_timer(
                &mut cx,
                BaselineMsg::ClientTimer(BaselineClientTimer::ReadTimeout { req_id: 1 }),
            );
            let reasked = sent(&cx)
                .iter()
                .filter(|(_, m)| matches!(m, BaselineMsg::Read { req_id: 1, .. }))
                .count();
            assert_eq!(reasked, 4, "{kind:?}: the whole shard is re-asked");
            assert!(!read_reply_concludes(&mut c, 1, 0), "{kind:?}");
            assert!(
                !read_reply_concludes(&mut c, 1, 0),
                "{kind:?}: replica 0 alone completed an f + 1 quorum"
            );
            assert!(read_reply_concludes(&mut c, 1, 1), "{kind:?}");
            assert_eq!(c.stats().reads_issued, 1);
        }
    }

    /// A `ReadTimeout` that a replica sends is not the client's own timer:
    /// it re-asks nobody.
    #[test]
    fn a_timer_sent_by_another_node_is_ignored() {
        let profile = TxProfile::new("r", vec![Op::Read(Key::new("x"))]);
        let mut c = client(SystemKind::TxHotstuff, vec![profile]);
        c.on_start(&mut ctx());
        let mut forged = ctx();
        let replica = NodeId::Replica(ReplicaId::new(ShardId(0), 0));
        let timeout = BaselineClientTimer::ReadTimeout { req_id: 1 };
        c.on_message(&mut forged, replica, BaselineMsg::ClientTimer(timeout));
        assert!(sent(&forged).is_empty(), "forged timer obeyed");
    }

    #[test]
    fn tapir_read_concludes_on_the_first_reply() {
        let profile = TxProfile::new("r", vec![Op::Read(Key::new("x"))]);
        let mut c = client(SystemKind::Tapir, vec![profile]);
        c.on_start(&mut ctx());
        assert!(read_reply_concludes(&mut c, 1, 2));
    }

    #[test]
    #[should_panic(expected = "closed-loop")]
    fn paced_generator_is_rejected_at_start() {
        struct Paced;
        impl TxGenerator for Paced {
            fn next_tx(&mut self) -> Option<TxProfile> {
                None
            }
            fn next_arrival_delay(&mut self) -> Option<Duration> {
                Some(Duration::from_millis(1))
            }
        }
        let mut c = BaselineClient::new(
            ClientId(1),
            BaselineConfig::new(SystemKind::Tapir),
            Box::new(Paced),
            9,
        );
        c.on_start(&mut ctx());
    }

    #[test]
    fn tapir_commits_after_unanimous_prepare_votes() {
        let profile = TxProfile::new("w", vec![Op::Write(Key::new("x"), Value::from_u64(1))]);
        let mut c = client(SystemKind::Tapir, vec![profile]);
        let mut cx = ctx();
        c.on_start(&mut cx);
        // Find the txid from the outgoing prepare.
        let txid = sent(&cx)
            .iter()
            .find_map(|(_, m)| match m {
                BaselineMsg::Submit {
                    request: ShardRequest::Prepare { tx },
                } => Some(tx.id()),
                _ => None,
            })
            .expect("prepare sent");
        // TAPIR's fast quorum: all 2f + 1 replicas must vote commit.
        let mut last_ctx = ctx();
        for i in 0..3 {
            last_ctx = ctx();
            c.on_message(
                &mut last_ctx,
                NodeId::Replica(ReplicaId::new(ShardId(0), i)),
                BaselineMsg::PrepareResult {
                    txid,
                    vote: OccVote::Commit,
                },
            );
            if i < 2 {
                assert_eq!(c.stats().committed, 0, "not committed before unanimity");
            }
        }
        assert_eq!(c.stats().committed, 1);
        // The decision was broadcast asynchronously.
        let decides = sent(&last_ctx)
            .iter()
            .filter(|(_, m)| {
                matches!(
                    m,
                    BaselineMsg::Submit {
                        request: ShardRequest::Decide { commit: true, .. }
                    }
                )
            })
            .count();
        assert_eq!(decides, 3);
    }

    #[test]
    fn ordered_system_waits_for_decide_acks() {
        let profile = TxProfile::new("w", vec![Op::Write(Key::new("x"), Value::from_u64(1))]);
        let mut c = client(SystemKind::TxBftSmart, vec![profile]);
        let mut cx = ctx();
        c.on_start(&mut cx);
        let txid = sent(&cx)
            .iter()
            .find_map(|(_, m)| match m {
                BaselineMsg::Submit {
                    request: ShardRequest::Prepare { tx },
                } => Some(tx.id()),
                _ => None,
            })
            .expect("prepare sent");
        // Two matching commit votes (f+1) decide the shard and trigger the
        // decide round.
        for i in 0..2 {
            let mut cxv = ctx();
            c.on_message(
                &mut cxv,
                NodeId::Replica(ReplicaId::new(ShardId(0), i)),
                BaselineMsg::PrepareResult {
                    txid,
                    vote: OccVote::Commit,
                },
            );
        }
        assert_eq!(
            c.stats().committed,
            0,
            "not committed until decide is acked"
        );
        for i in 0..2 {
            let mut cxa = ctx();
            c.on_message(
                &mut cxa,
                NodeId::Replica(ReplicaId::new(ShardId(0), i)),
                BaselineMsg::DecideAck { txid },
            );
        }
        assert_eq!(c.stats().committed, 1);
    }

    #[test]
    fn aborted_prepare_schedules_a_retry() {
        let profile = TxProfile::new("w", vec![Op::Write(Key::new("x"), Value::from_u64(1))]);
        let mut c = client(SystemKind::Tapir, vec![profile]);
        let mut cx = ctx();
        c.on_start(&mut cx);
        let txid = sent(&cx)
            .iter()
            .find_map(|(_, m)| match m {
                BaselineMsg::Submit {
                    request: ShardRequest::Prepare { tx },
                } => Some(tx.id()),
                _ => None,
            })
            .expect("prepare");
        let mut cx2 = ctx();
        c.on_message(
            &mut cx2,
            NodeId::Replica(ReplicaId::new(ShardId(0), 0)),
            BaselineMsg::PrepareResult {
                txid,
                vote: OccVote::Abort(basil_common::error::AbortReason::Conflict),
            },
        );
        assert_eq!(c.stats().aborted_attempts, 1);
        assert_eq!(c.stats().committed, 0);
        // A retry backoff timer was armed.
        assert!(cx2
            .outputs()
            .iter()
            .any(|o| matches!(o, basil_simnet::actor::Output::Timer { .. })));
    }
}
