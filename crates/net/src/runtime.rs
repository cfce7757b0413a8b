//! The single-node event loop: drives one unmodified [`Actor`] from real
//! time and real sockets.
//!
//! This is the real-IO counterpart of the simulator's scheduler. The actor
//! cannot tell the difference — it sees the same [`Context`] callbacks —
//! but here:
//!
//! * **Time** is the wall clock, expressed as nanoseconds since a
//!   deployment-wide epoch that the supervisor passes to every process.
//!   All processes on the host share one clock, so `Context::at(now, now)`
//!   is exact: there is no injected skew to model.
//! * **Sends** are encoded and handed to the [`ConnManager`]; self-sends
//!   loop back through an in-process queue (the simulator's loopback
//!   latency collapses to "immediately after the current handler").
//! * **Timers** go into a real binary heap keyed by due time; the loop
//!   sleeps on the inbound channel with a timeout equal to the next due
//!   timer.
//! * **CPU charges** are ignored: real execution takes however long it
//!   takes.
//!
//! After every handler the runtime runs a caller-provided *persistence
//! hook*; the replica role uses it to drain `take_wal_bytes()` to the WAL
//! file before any subsequent handler can observe the state the records
//! describe (write-ahead discipline across a real crash). The hook is
//! fallible: a replica that cannot write its log must not keep voting, so
//! the first failure discards the handler's outputs and ends the run.

use crate::conn::{ConnManager, NetStats};
use crate::wire::encode_msg;
use basil_common::{NodeId, SimTime};
use basil_core::messages::BasilMsg;
use basil_simnet::actor::Output;
use basil_simnet::{Actor, Context};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// A deployment-wide time base: wall-clock nanoseconds since a shared epoch.
///
/// The supervisor picks the epoch once (just before spawning) and passes it
/// to every process, so timestamps minted by different processes are
/// directly comparable — the same property the simulator gets from its
/// global clock.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    epoch_unix_nanos: u64,
}

impl Clock {
    /// A clock counting from `epoch_unix_nanos` (UNIX nanoseconds).
    pub fn new(epoch_unix_nanos: u64) -> Self {
        Clock { epoch_unix_nanos }
    }

    /// The current UNIX time in nanoseconds (for supervisors minting an
    /// epoch).
    pub fn unix_now_nanos() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0)
    }

    /// Now, as deployment time. Saturates at zero for processes started
    /// marginally before the epoch (the supervisor sets the epoch first,
    /// so in practice this is always positive).
    pub fn now(&self) -> SimTime {
        SimTime(Self::unix_now_nanos().saturating_sub(self.epoch_unix_nanos))
    }
}

/// A scheduled timer: ordered by due time, FIFO within a tick.
struct TimerEntry {
    due: SimTime,
    seq: u64,
    msg: BasilMsg,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// Runs after every handler with the actor, before the handler's outputs
/// take effect (used for WAL persistence; see module docs). An error stops
/// the runtime.
pub type PostEventHook = Box<dyn FnMut(&mut dyn Actor<BasilMsg>) -> std::io::Result<()>>;

/// The event loop for one node process.
pub struct NodeRuntime {
    self_id: NodeId,
    actor: Box<dyn Actor<BasilMsg>>,
    clock: Clock,
    conn: Arc<ConnManager>,
    inbound: Receiver<(NodeId, BasilMsg)>,
    timers: BinaryHeap<TimerEntry>,
    loopback: VecDeque<(NodeId, BasilMsg)>,
    timer_seq: u64,
    post_event: Option<PostEventHook>,
}

impl NodeRuntime {
    /// Wraps `actor` for execution. `inbound` is the event channel returned
    /// by [`ConnManager::start`].
    pub fn new(
        self_id: NodeId,
        actor: Box<dyn Actor<BasilMsg>>,
        clock: Clock,
        conn: Arc<ConnManager>,
        inbound: Receiver<(NodeId, BasilMsg)>,
    ) -> Self {
        NodeRuntime {
            self_id,
            actor,
            clock,
            conn,
            inbound,
            timers: BinaryHeap::new(),
            loopback: VecDeque::new(),
            timer_seq: 0,
            post_event: None,
        }
    }

    /// Installs the persistence hook run after every handler.
    pub fn set_post_event(&mut self, hook: PostEventHook) {
        self.post_event = Some(hook);
    }

    /// [`NodeRuntime::try_run_until`] for a runtime without a persistence
    /// hook, which has nothing that can fail.
    ///
    /// # Panics
    /// If a persistence hook was installed and failed.
    pub fn run_until(self, deadline: SimTime) -> Box<dyn Actor<BasilMsg>> {
        self.try_run_until(deadline)
            .expect("persistence hook failed; a caller that installs one uses try_run_until")
    }

    /// Drives the actor until deployment time reaches `deadline`, then
    /// returns it for harvesting (stats, store contents, WAL bytes). The
    /// persistence hook's first error ends the run early and is returned;
    /// nothing the failed handler produced leaves the node.
    ///
    /// The loop: fire due timers, then wait on the socket channel until the
    /// next timer is due (bounded by a short idle tick so the deadline is
    /// always observed promptly).
    pub fn try_run_until(mut self, deadline: SimTime) -> std::io::Result<Box<dyn Actor<BasilMsg>>> {
        // on_start, like the simulator, runs before any delivery. A replica
        // built through `BasilReplica::recover` broadcasts its real
        // CatchUpRequest traffic here.
        let mut ctx = Context::at(self.self_id, self.clock.now());
        self.actor.on_start(&mut ctx);
        self.apply(ctx)?;
        self.drain_loopback()?;

        loop {
            let now = self.clock.now();
            if now >= deadline {
                return Ok(self.actor);
            }
            self.fire_due_timers(now)?;
            self.drain_loopback()?;

            let wait = self.next_wait(deadline);
            match self.inbound.recv_timeout(wait) {
                Ok((from, msg)) => {
                    // Opportunistically drain whatever else arrived, so a
                    // burst does not pay one recv_timeout per message. The
                    // burst is fixed before its first dispatch, so due
                    // timers fire between bursts even under steady load.
                    let mut burst = vec![(from, msg)];
                    while let Ok(pair) = self.inbound.try_recv() {
                        burst.push(pair);
                    }
                    for (from, msg) in burst {
                        self.dispatch(from, msg)?;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Ok(self.actor),
            }
        }
    }

    /// How long to sleep on the inbound channel: until the next timer, the
    /// deadline, or a 10 ms idle tick, whichever is soonest.
    fn next_wait(&self, deadline: SimTime) -> Duration {
        let now = self.clock.now();
        let mut wait_nanos: u64 = 10_000_000;
        if let Some(t) = self.timers.peek() {
            wait_nanos = wait_nanos.min(t.due.0.saturating_sub(now.0));
        }
        wait_nanos = wait_nanos.min(deadline.0.saturating_sub(now.0));
        Duration::from_nanos(wait_nanos.max(100_000))
    }

    /// Fires every timer due at or before `now`.
    fn fire_due_timers(&mut self, now: SimTime) -> std::io::Result<()> {
        while self.timers.peek().is_some_and(|t| t.due <= now) {
            let entry = self.timers.pop().expect("peeked");
            let mut ctx = Context::at(self.self_id, self.clock.now());
            self.actor.on_timer(&mut ctx, entry.msg);
            self.apply(ctx)?;
        }
        Ok(())
    }

    /// Delivers one inbound (or loopback) message.
    fn dispatch(&mut self, from: NodeId, msg: BasilMsg) -> std::io::Result<()> {
        let mut ctx = Context::at(self.self_id, self.clock.now());
        self.actor.on_message(&mut ctx, from, msg);
        self.apply(ctx)?;
        self.drain_loopback()
    }

    /// Self-sends deliver in order, immediately after the handler that
    /// produced them (and any they produce in turn).
    fn drain_loopback(&mut self) -> std::io::Result<()> {
        while let Some((from, msg)) = self.loopback.pop_front() {
            let mut ctx = Context::at(self.self_id, self.clock.now());
            self.actor.on_message(&mut ctx, from, msg);
            self.apply(ctx)?;
        }
        Ok(())
    }

    /// Runs the persistence hook, then applies a finished handler's
    /// outputs — none of them if the hook failed.
    fn apply(&mut self, ctx: Context<BasilMsg>) -> std::io::Result<()> {
        let (outputs, _charged) = ctx.finish();
        // Persist (WAL) *before* acting on the outputs: a record must be
        // durable before any message built on it can leave the node.
        if let Some(hook) = self.post_event.as_mut() {
            hook(self.actor.as_mut())?;
        }
        for output in outputs {
            match output {
                Output::Send { to, msg } => {
                    if to == self.self_id {
                        self.loopback.push_back((to, msg));
                    } else {
                        // A message no receiver would accept (a frame above
                        // MAX_FRAME) is shed and counted, not sent; timer
                        // variants never reach here (they go through
                        // schedule_self).
                        match encode_msg(self.self_id, &msg) {
                            Ok(frame) => self.conn.send_frame(to, frame),
                            Err(_) => NetStats::bump(&self.conn.stats().frames_shed),
                        }
                    }
                }
                Output::Timer { delay, msg } => {
                    self.timer_seq += 1;
                    self.timers.push(TimerEntry {
                        due: SimTime(self.clock.now().0.saturating_add(delay.0)),
                        seq: self.timer_seq,
                        msg,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::ConnOptions;
    use basil_common::{ClientId, Key, ReplicaId, ShardId, Timestamp, Value};
    use basil_core::messages::St1;
    use basil_store::TransactionBuilder;
    use std::collections::HashMap;
    use std::net::{SocketAddr, TcpListener};
    use std::sync::atomic::Ordering;

    /// Sends one message to `peer` when started, then idles.
    struct Announcer {
        peer: NodeId,
        msg: BasilMsg,
    }

    impl Actor<BasilMsg> for Announcer {
        fn on_start(&mut self, ctx: &mut Context<BasilMsg>) {
            ctx.send(self.peer, self.msg.clone());
        }
        fn on_message(&mut self, _: &mut Context<BasilMsg>, _: NodeId, _: BasilMsg) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn free_addr() -> SocketAddr {
        let probe = TcpListener::bind("127.0.0.1:0").expect("an ephemeral port");
        probe.local_addr().expect("bound")
    }

    /// Runs an [`Announcer`] of `msg` under `hook` next to a listening peer;
    /// returns how the run ended, whether the peer received the message and
    /// how many frames the node shed.
    fn announce_msg(hook: PostEventHook, msg: BasilMsg) -> (std::io::Result<()>, bool, u64) {
        let me = ReplicaId::new(ShardId(0), 0);
        let peer = NodeId::Replica(ReplicaId::new(ShardId(0), 1));
        let peer_addr = free_addr();
        let opts = ConnOptions::default;
        let (peer_conn, peer_inbound) =
            ConnManager::start(peer_addr, HashMap::new(), opts(), 1).expect("peer listens");
        let book = HashMap::from([(peer, peer_addr)]);
        let (conn, inbound) = ConnManager::start(free_addr(), book, opts(), 2).expect("listens");
        let mut runtime = NodeRuntime::new(
            NodeId::Replica(me),
            Box::new(Announcer { peer, msg }),
            Clock::new(Clock::unix_now_nanos()),
            Arc::clone(&conn),
            inbound,
        );
        runtime.set_post_event(hook);
        let outcome = runtime.try_run_until(SimTime::from_millis(300)).map(drop);
        let delivered = peer_inbound
            .recv_timeout(Duration::from_millis(500))
            .is_ok();
        let shed = conn.stats().frames_shed.load(Ordering::Relaxed);
        conn.shutdown();
        peer_conn.shutdown();
        (outcome, delivered, shed)
    }

    /// [`announce_msg`] of a catch-up request.
    fn announce(hook: PostEventHook) -> (std::io::Result<()>, bool) {
        let (outcome, delivered, _) = announce_msg(hook, BasilMsg::CatchUpRequest);
        (outcome, delivered)
    }

    #[test]
    fn failed_persistence_hook_stops_the_node_before_anything_leaves_it() {
        let (outcome, delivered) = announce(Box::new(|_| Ok(())));
        assert!(outcome.is_ok());
        assert!(delivered, "control: under a working hook the peer hears us");

        let mut calls = 0;
        let (outcome, delivered) = announce(Box::new(move |_| {
            calls += 1;
            assert_eq!(calls, 1, "no handler runs after the first failure");
            Err(std::io::Error::other("disk full"))
        }));
        assert_eq!(outcome.expect_err("the run fails").to_string(), "disk full");
        assert!(!delivered, "the failed handler's send never left the node");
    }

    /// A message above every receiver's frame limit never leaves the node:
    /// the encoder refuses it and the runtime counts it as shed.
    #[test]
    fn a_message_no_receiver_accepts_is_shed_and_counted() {
        let mut b = TransactionBuilder::new(Timestamp::from_nanos(1, ClientId(7)));
        b.record_write(
            Key::new("big"),
            Value::new(vec![0u8; crate::wire::MAX_FRAME]),
        );
        let st1 = BasilMsg::St1(St1 {
            tx: b.build_shared(),
            auth: None,
            recovery: false,
        });
        let (outcome, delivered, shed) = announce_msg(Box::new(|_| Ok(())), st1);
        assert!(outcome.is_ok());
        assert!(!delivered, "the oversized message never left the node");
        assert_eq!(shed, 1);
    }
}
