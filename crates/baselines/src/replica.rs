//! Baseline shard replicas.
//!
//! For the BFT baselines every shard runs a leader-based ordering engine:
//! clients submit requests to the shard leader, the leader batches them and
//! drives `ordering_phases` voting rounds with the other replicas, and once a
//! batch is ordered every replica executes it, in sequence order, against its
//! OCC store and replies to the issuing clients. For TAPIR, replicas execute
//! prepares directly on receipt (inconsistent replication), which is what
//! gives TAPIR its single-round-trip common case.

use crate::messages::{BaselineMsg, ShardRequest};
use crate::occ::OccStore;
use crate::profile::{BaselineConfig, COST};
use basil_common::{Duration, Key, NodeId, ReplicaId, Value};
use basil_simnet::{Actor, Context, MESSAGE_CPU};
use std::any::Any;
use std::collections::{HashMap, HashSet};

/// Maximum time the leader waits before ordering a partial batch.
const BATCH_TIMEOUT: Duration = Duration::from_micros(500);

/// Counters exposed for tests and experiments.
#[derive(Clone, Debug, Default)]
pub struct BaselineReplicaStats {
    /// Requests executed (prepares + decides).
    pub requests_executed: u64,
    /// Reads served.
    pub reads_served: u64,
}

/// In-flight consensus instance state kept by the leader.
#[derive(Debug)]
struct Instance {
    phase: u32,
    votes: HashSet<u32>,
}

/// A baseline shard replica (leader or follower).
pub struct BaselineReplica {
    id: ReplicaId,
    cfg: BaselineConfig,
    occ: OccStore,
    // Leader state.
    pending: Vec<(NodeId, ShardRequest)>,
    batch_timer_armed: bool,
    next_seq: u64,
    instances: HashMap<u64, Instance>,
    // Shared ordering state.
    batches: HashMap<u64, Vec<(NodeId, ShardRequest)>>,
    ready: HashSet<u64>,
    next_exec: u64,
    stats: BaselineReplicaStats,
}

impl BaselineReplica {
    /// Creates a replica preloaded with `initial_data`.
    pub fn new(
        id: ReplicaId,
        cfg: BaselineConfig,
        initial_data: impl IntoIterator<Item = (Key, Value)>,
    ) -> Self {
        BaselineReplica {
            id,
            cfg,
            occ: OccStore::with_initial_data(initial_data),
            pending: Vec::new(),
            batch_timer_armed: false,
            next_seq: 0,
            instances: HashMap::new(),
            batches: HashMap::new(),
            ready: HashSet::new(),
            next_exec: 1,
            stats: BaselineReplicaStats::default(),
        }
    }

    /// This replica's identity.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Counters collected so far.
    pub fn stats(&self) -> &BaselineReplicaStats {
        &self.stats
    }

    /// Read access to the OCC store (tests, examples).
    pub fn store(&self) -> &OccStore {
        &self.occ
    }

    fn is_leader(&self) -> bool {
        self.id.index == 0
    }

    fn leader(&self) -> NodeId {
        NodeId::Replica(ReplicaId::new(self.id.shard, 0))
    }

    fn followers(&self) -> Vec<NodeId> {
        (1..self.cfg.n())
            .map(|i| NodeId::Replica(ReplicaId::new(self.id.shard, i)))
            .collect()
    }

    fn sign_cost(&self) -> Duration {
        if self.cfg.kind.uses_signatures() {
            COST.sign
        } else {
            Duration::ZERO
        }
    }

    fn verify_cost(&self) -> Duration {
        if self.cfg.kind.uses_signatures() {
            COST.verify
        } else {
            Duration::ZERO
        }
    }

    // ------------------------------------------------------------------
    // Request intake
    // ------------------------------------------------------------------

    fn handle_submit(
        &mut self,
        ctx: &mut Context<BaselineMsg>,
        from: NodeId,
        request: ShardRequest,
    ) {
        ctx.charge(self.verify_cost());
        if !self.cfg.kind.is_ordered() {
            // TAPIR: execute immediately.
            self.execute(ctx, from, request);
            return;
        }
        if !self.is_leader() {
            // Forward stray submissions to the leader.
            ctx.send(self.leader(), BaselineMsg::Submit { request });
            return;
        }
        self.pending.push((from, request));
        if self.pending.len() >= self.cfg.batch_size as usize {
            self.start_instance(ctx);
        } else if !self.batch_timer_armed {
            self.batch_timer_armed = true;
            ctx.schedule_self(BATCH_TIMEOUT, BaselineMsg::BatchTimer);
        }
    }

    fn start_instance(&mut self, ctx: &mut Context<BaselineMsg>) {
        if self.pending.is_empty() {
            return;
        }
        self.next_seq += 1;
        let seq = self.next_seq;
        let batch: Vec<(NodeId, ShardRequest)> = std::mem::take(&mut self.pending);
        self.batches.insert(seq, batch.clone());
        self.instances.insert(
            seq,
            Instance {
                phase: 0,
                votes: HashSet::new(),
            },
        );
        // Phase 0 proposal carries the batch; the leader signs it.
        ctx.charge(self.sign_cost());
        for follower in self.followers() {
            ctx.send(
                follower,
                BaselineMsg::OrderPhase {
                    seq,
                    phase: 0,
                    batch: Some(batch.clone()),
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Ordering protocol
    // ------------------------------------------------------------------

    fn handle_order_phase(
        &mut self,
        ctx: &mut Context<BaselineMsg>,
        seq: u64,
        phase: u32,
        batch: Option<Vec<(NodeId, ShardRequest)>>,
    ) {
        // Follower: verify the proposal, store the batch, vote.
        ctx.charge(self.verify_cost());
        if let Some(batch) = batch {
            self.batches.entry(seq).or_insert(batch);
            // An OrderCommit may have arrived before the batch payload
            // (message reordering); execution can proceed now.
            self.try_execute(ctx);
        }
        ctx.charge(self.sign_cost());
        ctx.send(self.leader(), BaselineMsg::OrderVote { seq, phase });
    }

    fn handle_order_vote(
        &mut self,
        ctx: &mut Context<BaselineMsg>,
        from: NodeId,
        seq: u64,
        phase: u32,
    ) {
        if !self.is_leader() {
            return;
        }
        ctx.charge(self.verify_cost());
        let quorum = self.cfg.ordering_quorum();
        let phases = self.cfg.kind.ordering_phases();
        let Some(instance) = self.instances.get_mut(&seq) else {
            return;
        };
        if instance.phase != phase {
            return; // stale vote
        }
        if let Some(replica) = from.as_replica() {
            instance.votes.insert(replica.index);
        }
        // The leader's own vote counts implicitly.
        if (instance.votes.len() as u32 + 1) < quorum {
            return;
        }
        instance.votes.clear();
        instance.phase += 1;
        if instance.phase < phases {
            let next_phase = instance.phase;
            ctx.charge(self.sign_cost());
            for follower in self.followers() {
                ctx.send(
                    follower,
                    BaselineMsg::OrderPhase {
                        seq,
                        phase: next_phase,
                        batch: None,
                    },
                );
            }
        } else {
            // Ordered: tell everyone (including ourselves) to execute.
            self.instances.remove(&seq);
            ctx.charge(self.sign_cost());
            for follower in self.followers() {
                ctx.send(follower, BaselineMsg::OrderCommit { seq });
            }
            self.handle_order_commit(ctx, seq);
        }
    }

    fn handle_order_commit(&mut self, ctx: &mut Context<BaselineMsg>, seq: u64) {
        self.ready.insert(seq);
        self.try_execute(ctx);
    }

    /// Executes every consecutive ordered batch whose payload is available,
    /// in sequence order.
    fn try_execute(&mut self, ctx: &mut Context<BaselineMsg>) {
        while self.ready.contains(&self.next_exec) && self.batches.contains_key(&self.next_exec) {
            let seq = self.next_exec;
            self.ready.remove(&seq);
            self.next_exec += 1;
            let batch = self.batches.remove(&seq).expect("checked above");
            // Reply signatures for the whole batch are amortized through the
            // Merkle batching scheme the paper also grants the baselines.
            if self.cfg.kind.uses_signatures() {
                ctx.charge(COST.batch_sign_cost(batch.len().max(1), 64));
            }
            for (client, request) in batch {
                self.execute(ctx, client, request);
            }
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    fn execute(&mut self, ctx: &mut Context<BaselineMsg>, client: NodeId, request: ShardRequest) {
        self.stats.requests_executed += 1;
        match request {
            ShardRequest::Prepare { tx } => {
                let vote = self.occ.prepare(&tx);
                if !self.cfg.kind.is_ordered() {
                    // TAPIR signs nothing but pays a second serialization.
                    ctx.charge(MESSAGE_CPU);
                }
                ctx.send(
                    client,
                    BaselineMsg::PrepareResult {
                        txid: tx.id(),
                        vote,
                    },
                );
            }
            ShardRequest::Decide { txid, commit } => {
                if commit {
                    self.occ.commit(&txid);
                } else {
                    self.occ.abort(&txid);
                }
                ctx.send(client, BaselineMsg::DecideAck { txid });
            }
        }
    }

    fn handle_read(&mut self, ctx: &mut Context<BaselineMsg>, from: NodeId, req_id: u64, key: Key) {
        self.stats.reads_served += 1;
        let (version, value) = self.occ.read(&key);
        ctx.charge(self.sign_cost());
        ctx.send(
            from,
            BaselineMsg::ReadReply {
                req_id,
                key,
                version,
                value,
            },
        );
    }
}

impl Actor<BaselineMsg> for BaselineReplica {
    fn on_message(&mut self, ctx: &mut Context<BaselineMsg>, from: NodeId, msg: BaselineMsg) {
        match msg {
            BaselineMsg::Read { req_id, key } => self.handle_read(ctx, from, req_id, key),
            BaselineMsg::Submit { request } => self.handle_submit(ctx, from, request),
            BaselineMsg::OrderPhase { seq, phase, batch } => {
                self.handle_order_phase(ctx, seq, phase, batch)
            }
            BaselineMsg::OrderVote { seq, phase } => self.handle_order_vote(ctx, from, seq, phase),
            BaselineMsg::OrderCommit { seq } => self.handle_order_commit(ctx, seq),
            // Client-directed messages are ignored if misrouted. So are
            // timers, which fire through `on_timer` only: a `BatchTimer`
            // another node sends would seal a partial batch early.
            BaselineMsg::ReadReply { .. }
            | BaselineMsg::PrepareResult { .. }
            | BaselineMsg::DecideAck { .. }
            | BaselineMsg::BatchTimer
            | BaselineMsg::ClientTimer(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<BaselineMsg>, msg: BaselineMsg) {
        if let BaselineMsg::BatchTimer = msg {
            self.batch_timer_armed = false;
            if self.is_leader() {
                self.start_instance(ctx);
            }
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
    use basil_common::{ClientId, ShardId, SimTime, Timestamp};
    use basil_store::TransactionBuilder;

    fn client() -> NodeId {
        NodeId::Client(ClientId(7))
    }

    fn ctx(node: NodeId) -> Context<BaselineMsg> {
        Context::new(node, SimTime::from_millis(1), SimTime::from_millis(1))
    }

    fn tapir_replica(index: u32) -> BaselineReplica {
        BaselineReplica::new(
            ReplicaId::new(ShardId(0), index),
            BaselineConfig::new(SystemKind::Tapir),
            [(Key::new("x"), Value::from_u64(0))],
        )
    }

    fn write_tx(t: u64) -> std::sync::Arc<basil_store::Transaction> {
        let mut b = TransactionBuilder::new(Timestamp::from_nanos(t, ClientId(7)));
        b.record_write(Key::new("x"), Value::from_u64(t));
        b.build_shared()
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

    #[test]
    fn tapir_prepare_executes_immediately() {
        let mut r = tapir_replica(0);
        let mut c = ctx(NodeId::Replica(r.id()));
        let tx = write_tx(100);
        r.handle_submit(&mut c, client(), ShardRequest::Prepare { tx: tx.clone() });
        let out = sent(&c);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].1,
            BaselineMsg::PrepareResult { txid, vote } if txid == tx.id() && vote.is_commit()
        ));
        assert_eq!(r.stats().requests_executed, 1);
    }

    #[test]
    fn tapir_decide_applies_and_acks() {
        let mut r = tapir_replica(0);
        let tx = write_tx(100);
        let mut c1 = ctx(NodeId::Replica(r.id()));
        r.handle_submit(&mut c1, client(), ShardRequest::Prepare { tx: tx.clone() });
        let mut c2 = ctx(NodeId::Replica(r.id()));
        r.handle_submit(
            &mut c2,
            client(),
            ShardRequest::Decide {
                txid: tx.id(),
                commit: true,
            },
        );
        assert!(matches!(sent(&c2)[0].1, BaselineMsg::DecideAck { .. }));
        assert_eq!(
            r.store().committed_value(&Key::new("x")),
            Some(Value::from_u64(100))
        );
    }

    #[test]
    fn read_returns_current_value() {
        let mut r = tapir_replica(1);
        let mut c = ctx(NodeId::Replica(r.id()));
        r.handle_read(&mut c, client(), 9, Key::new("x"));
        match &sent(&c)[0].1 {
            BaselineMsg::ReadReply { req_id, value, .. } => {
                assert_eq!(*req_id, 9);
                assert_eq!(*value, Value::from_u64(0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Drives a full ordering round for a 4-replica PBFT-style shard by hand
    /// and checks that every replica executes the batch and replies.
    #[test]
    fn ordered_shard_executes_after_voting_rounds() {
        let cfg = BaselineConfig::new(SystemKind::TxBftSmart).with_batch_size(1);
        let mut replicas: Vec<BaselineReplica> = (0..4)
            .map(|i| {
                BaselineReplica::new(
                    ReplicaId::new(ShardId(0), i),
                    cfg.clone(),
                    [(Key::new("x"), Value::from_u64(0))],
                )
            })
            .collect();
        let tx = write_tx(50);

        // Client submits to the leader; batch size 1 starts an instance.
        let leader_id = NodeId::Replica(replicas[0].id());
        let mut c = ctx(leader_id);
        replicas[0].handle_submit(&mut c, client(), ShardRequest::Prepare { tx: tx.clone() });
        let mut inflight: Vec<(NodeId, NodeId, BaselineMsg)> = sent(&c)
            .into_iter()
            .map(|(to, msg)| (leader_id, to, msg))
            .collect();
        let mut client_msgs = Vec::new();

        // Deliver messages until quiescence, preserving sender identity.
        let mut steps = 0;
        while let Some((from, to, msg)) = inflight.pop() {
            steps += 1;
            assert!(steps < 200, "ordering should terminate");
            match to {
                NodeId::Replica(rid) => {
                    let replica = &mut replicas[rid.index as usize];
                    let mut c = ctx(to);
                    replica.on_message(&mut c, from, msg);
                    inflight.extend(sent(&c).into_iter().map(|(dest, m)| (to, dest, m)));
                }
                NodeId::Client(_) => client_msgs.push(msg),
            }
        }

        // Every replica executed the prepare and voted commit; the client got
        // one PrepareResult per replica.
        let results = client_msgs
            .iter()
            .filter(|m| matches!(m, BaselineMsg::PrepareResult { vote, .. } if vote.is_commit()))
            .count();
        assert_eq!(results, 4);
        for r in &replicas {
            assert_eq!(r.stats().requests_executed, 1);
            assert!(r.store().is_prepared(&tx.id()));
        }
    }

    #[test]
    fn batch_timer_flushes_partial_batches() {
        let cfg = BaselineConfig::new(SystemKind::TxHotstuff).with_batch_size(8);
        let mut leader = BaselineReplica::new(
            ReplicaId::new(ShardId(0), 0),
            cfg,
            [(Key::new("x"), Value::from_u64(0))],
        );
        let mut c = ctx(NodeId::Replica(leader.id()));
        leader.handle_submit(&mut c, client(), ShardRequest::Prepare { tx: write_tx(10) });
        // Not enough requests for a batch: only a timer was armed.
        assert!(sent(&c).is_empty());
        let proposals = |c: &Context<BaselineMsg>| {
            sent(c)
                .iter()
                .filter(|(_, m)| matches!(m, BaselineMsg::OrderPhase { phase: 0, .. }))
                .count()
        };
        // A `BatchTimer` another node sends is not the leader's own timer.
        let mut forged = ctx(NodeId::Replica(leader.id()));
        leader.on_message(&mut forged, client(), BaselineMsg::BatchTimer);
        assert_eq!(proposals(&forged), 0, "forged timer obeyed");
        let mut c2 = ctx(NodeId::Replica(leader.id()));
        leader.on_timer(&mut c2, BaselineMsg::BatchTimer);
        assert_eq!(proposals(&c2), 3, "phase-0 proposal to each follower");
    }
}
