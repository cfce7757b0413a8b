//! The discrete-event simulation engine.
//!
//! ## The indexed scheduler
//!
//! The hot loop of every experiment is: pop the earliest event, find the
//! destination actor, run its handler, enqueue its outputs. It is
//! index-addressed, and a message is written once and read once on its way
//! through it:
//!
//! * **Dense actor slots** — `add_node` assigns each node a slot in a
//!   `Vec`; destination `NodeId`s are resolved to slot indices once, when a
//!   message is *sent* (one `FastHashMap` probe), so a delivery is a
//!   bounds-checked array access. Per-node metrics live in the slot, so the
//!   per-delivery accounting touches no hash map either.
//! * **One heap of keys over a slab** — the queue is a single
//!   [`BinaryHeap`] of 24-byte `Copy` keys `(at, seq, idx)`. The payload
//!   (destination slot, sender, message, timer flag) is written once into a
//!   free-listed slab at push and taken out once at pop, so a heap sift
//!   moves keys only.
//! * **One handler path** — every actor callback (the first `on_start`, an
//!   amnesia replacement's `on_start`, and each message or timer delivery)
//!   runs through the private `Simulation::run_handler`: earliest free core,
//!   start time and local clock, the handler, core and metrics accounting,
//!   then the outputs. It also charges the simulated network stack's cost,
//!   [`MESSAGE_CPU`] per message received, timer fired and message sent, so
//!   an actor charges only its own work.
//! * **One output buffer** — every handler's [`Context`] records into the
//!   same `Vec`, handed in and given back by [`Context::finish`];
//!   `apply_outputs` drains it. A message's path is: `Context::send` →
//!   output buffer → slab → the receiving handler. Once the slab, the heap
//!   and the buffer have grown to the run's peak, the event plane allocates
//!   nothing (`tests/steady_state_alloc.rs`).
//!
//! ## Crashes and timers
//!
//! A message to a crashed node is dropped. A timer is the node's own and is
//! not: one that falls due while its node is crashed is parked in the slot
//! and re-queued, in order, at [`Simulation::restart`] — a warm restart
//! resumes as if the node had merely been paused. Each slot counts its
//! incarnations; [`Simulation::restart_amnesia`] starts a new one, and a
//! timer armed by an older incarnation (queued or parked) is discarded, so a
//! replacement actor never sees its predecessor's timers.
//!
//! ## Determinism contract
//!
//! Delivery order is the heap's, by construction: strict `(time, sequence
//! number)` order, where the sequence number is globally unique and
//! monotonically assigned, so events due at one instant deliver in the order
//! they were scheduled. All randomness (latency jitter, loss) is drawn from
//! one seeded RNG, in output order, so a fixed seed reproduces the exact
//! event trace — `tests/golden_trace.rs` pins this with a trace hash.

use crate::actor::{Actor, Context, Output};
use crate::metrics::{Metrics, NodeMetrics};
use crate::network::{LinkFault, LinkFaultKind, NetworkConfig};
use basil_common::{Duration, FastHashMap, NodeId, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated CPU the network stack spends on one message sent or received:
/// (de)serialization and socket work, the cost paper §6.2 finds left once
/// signatures are batched. `Simulation::run_handler` charges it per send,
/// and once more for the message or timer a callback handles.
pub const MESSAGE_CPU: Duration = Duration::from_micros(6);

/// Static properties of a simulated node.
#[derive(Clone, Copy, Debug)]
pub struct NodeProps {
    /// Number of CPU cores available for message processing.
    pub cores: u32,
    /// Offset of this node's local clock from global simulation time, in
    /// nanoseconds (positive = clock runs ahead). Models NTP skew.
    pub clock_skew_ns: i64,
}

impl NodeProps {
    /// A client node: clients in the paper's closed-loop benchmark drive a
    /// handful of outstanding requests, so a few cores suffice.
    pub fn client() -> Self {
        NodeProps {
            cores: 2,
            clock_skew_ns: 0,
        }
    }

    /// A replica node matching the paper's m510 servers (8 cores).
    pub fn replica() -> Self {
        NodeProps {
            cores: 8,
            clock_skew_ns: 0,
        }
    }

    /// Overrides the core count.
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.cores = cores.max(1);
        self
    }

    /// Overrides the clock skew.
    pub fn with_skew_ns(mut self, skew: i64) -> Self {
        self.clock_skew_ns = skew;
        self
    }
}

impl Default for NodeProps {
    fn default() -> Self {
        NodeProps {
            cores: 1,
            clock_skew_ns: 0,
        }
    }
}

struct NodeSlot<M> {
    id: NodeId,
    actor: Box<dyn Actor<M>>,
    props: NodeProps,
    core_free: Vec<SimTime>,
    crashed: bool,
    /// Bumped by every amnesia restart; a timer carries the value it was
    /// armed under and is discarded once the two differ.
    incarnation: u32,
    /// Timers that fell due while the node was crashed, in due order.
    parked: Vec<M>,
    metrics: NodeMetrics,
}

impl<M: 'static> NodeSlot<M> {
    fn local_clock(&self, now: SimTime) -> SimTime {
        let ns = now.as_nanos() as i64 + self.props.clock_skew_ns;
        SimTime::from_nanos(ns.max(0) as u64)
    }

    /// Index of the core that frees up earliest.
    fn earliest_core(&self) -> usize {
        self.core_free
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("nodes have at least one core")
    }
}

/// Slot index standing for a destination that was not registered when the
/// message was sent; the event is dropped at dispatch, as the heap
/// scheduler did for unknown `NodeId`s.
const UNKNOWN_SLOT: u32 = u32::MAX;

/// What an event delivers: written into the queue's slab once at push and
/// taken out once at pop.
struct Payload<M> {
    /// Destination, pre-resolved to a dense slot index at enqueue time.
    to_slot: u32,
    from: NodeId,
    /// For a timer, the incarnation of `to_slot` that armed it.
    incarnation: u32,
    is_timer: bool,
    msg: M,
}

impl<M> Payload<M> {
    fn message(to_slot: u32, from: NodeId, msg: M) -> Self {
        Payload {
            to_slot,
            from,
            incarnation: 0,
            is_timer: false,
            msg,
        }
    }

    fn timer(slot: u32, owner: NodeId, incarnation: u32, msg: M) -> Self {
        Payload {
            to_slot: slot,
            from: owner,
            incarnation,
            is_timer: true,
            msg,
        }
    }
}

/// The actor callback `Simulation::run_handler` runs.
enum Callback<M> {
    Start,
    Message(NodeId, M),
    Timer(M),
}

/// An event's place in the queue. `seq` is unique, so the derived order is
/// `(at, seq)` order; `idx` names the payload's slab entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    idx: u32,
}

/// The event queue: one min-heap of [`Key`]s over a slab of payloads `T`.
/// Pops are in strict `(at, seq)` order.
struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Key>>,
    /// Payloads by `Key::idx`; `None` is a free entry.
    slab: Vec<Option<T>>,
    /// Indices of the free slab entries.
    free: Vec<u32>,
}

impl<T> EventQueue<T> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    fn push(&mut self, at: SimTime, seq: u64, payload: T) {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize] = Some(payload);
                idx
            }
            None => {
                self.slab.push(Some(payload));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 queued events")
            }
        };
        self.heap.push(Reverse(Key { at, seq, idx }));
    }

    /// Timestamp of the earliest queued event.
    fn peek_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(k)| k.at)
    }

    /// Removes the earliest queued event, returning its time and payload.
    fn pop(&mut self) -> Option<(SimTime, T)> {
        let Reverse(key) = self.heap.pop()?;
        let payload = self.slab[key.idx as usize]
            .take()
            .expect("a queued key owns its slab entry");
        self.free.push(key.idx);
        Some((key.at, payload))
    }
}

/// The discrete-event simulator.
///
/// Generic over the message type `M` exchanged by the actors registered in
/// it. All randomness (latency jitter, message loss) flows from the seed
/// passed to [`Simulation::new`], so runs are reproducible; see the module
/// docs for the scheduler design and the determinism contract.
pub struct Simulation<M> {
    slots: Vec<NodeSlot<M>>,
    index: FastHashMap<NodeId, u32>,
    queue: EventQueue<Payload<M>>,
    /// The output buffer every handler's `Context` records into; empty
    /// between handlers, its capacity kept.
    outputs: Vec<Output<M>>,
    now: SimTime,
    seq: u64,
    network: NetworkConfig,
    /// Targeted, time-windowed link faults (see [`LinkFault`]); consulted in
    /// `apply_outputs` only.
    link_faults: Vec<LinkFault>,
    rng: SmallRng,
    /// Registered node ids in sorted order, maintained on `add_node` so
    /// `node_ids` is allocation-free and startup order is deterministic.
    node_order: Vec<NodeId>,
    /// Whole-simulation counters; the per-node breakdown lives in the
    /// slots and is assembled on demand by [`Simulation::metrics`].
    global: Metrics,
    started: bool,
}

impl<M: Clone + 'static> Simulation<M> {
    /// Creates an empty simulation.
    pub fn new(seed: u64, network: NetworkConfig) -> Self {
        Simulation {
            slots: Vec::new(),
            index: FastHashMap::default(),
            queue: EventQueue::new(),
            outputs: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            network,
            link_faults: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            node_order: Vec::new(),
            global: Metrics::default(),
            started: false,
        }
    }

    /// Registers an actor under `id`. Panics if the id is already taken.
    ///
    /// Destinations are resolved to dense slot indices when a message is
    /// sent, so nodes should be registered before the simulation runs;
    /// messages sent to an id that is unregistered at send time are
    /// dropped on delivery.
    pub fn add_node(&mut self, id: NodeId, props: NodeProps, actor: Box<dyn Actor<M>>) {
        assert!(
            !self.index.contains_key(&id),
            "node {id:?} registered twice"
        );
        let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 nodes");
        assert!(slot != UNKNOWN_SLOT, "node capacity exhausted");
        let cores = props.cores.max(1) as usize;
        self.index.insert(id, slot);
        let pos = self
            .node_order
            .binary_search(&id)
            .expect_err("id not yet registered");
        self.node_order.insert(pos, id);
        self.slots.push(NodeSlot {
            id,
            actor,
            props,
            core_free: vec![SimTime::ZERO; cores],
            crashed: false,
            incarnation: 0,
            parked: Vec::new(),
            metrics: NodeMetrics::default(),
        });
    }

    /// Rewrites a registered node's properties with `update` and resizes
    /// its cores to match: a scenario's clock skew and slow cores land here.
    /// An id with no node is a no-op. Panics once the run has started, when
    /// cores may be busy and clocks already read.
    pub fn update_node_props(&mut self, id: NodeId, update: impl FnOnce(NodeProps) -> NodeProps) {
        assert!(!self.started, "node properties are set before the run");
        if let Some(slot) = self.slot_mut(id) {
            slot.props = update(slot.props);
            slot.core_free = vec![SimTime::ZERO; slot.props.cores.max(1) as usize];
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Simulation-wide metrics collected so far: the global counters plus
    /// the per-node breakdown, assembled from the dense per-slot records.
    pub fn metrics(&self) -> Metrics {
        let mut m = self.global.clone();
        m.per_node = self
            .slots
            .iter()
            .map(|s| (s.id, s.metrics.clone()))
            .collect();
        m
    }

    fn slot_of(&self, id: NodeId) -> Option<usize> {
        self.index.get(&id).map(|i| *i as usize)
    }

    fn slot_ref(&self, id: NodeId) -> Option<&NodeSlot<M>> {
        self.slot_of(id).map(|i| &self.slots[i])
    }

    fn slot_mut(&mut self, id: NodeId) -> Option<&mut NodeSlot<M>> {
        self.slot_of(id).map(|i| &mut self.slots[i])
    }

    /// All registered node identifiers, in sorted order.
    ///
    /// Allocation-free: the sorted order is maintained incrementally by
    /// [`Simulation::add_node`]. Collect if you need to mutate the
    /// simulation while iterating.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_order.iter().copied()
    }

    /// Immutable access to a registered actor, downcast to its concrete type.
    pub fn actor<A: Actor<M>>(&self, id: NodeId) -> Option<&A> {
        self.slot_ref(id)
            .and_then(|s| s.actor.as_any().downcast_ref::<A>())
    }

    /// Mutable access to a registered actor, downcast to its concrete type.
    pub fn actor_mut<A: Actor<M>>(&mut self, id: NodeId) -> Option<&mut A> {
        self.slot_mut(id)
            .and_then(|s| s.actor.as_any_mut().downcast_mut::<A>())
    }

    /// Marks a node as crashed: all subsequent message deliveries to it are
    /// dropped, and its timers that fall due are parked until it restarts.
    pub fn crash(&mut self, id: NodeId) {
        if let Some(s) = self.slot_mut(id) {
            s.crashed = true;
        }
    }

    /// *Warm*-restarts a crashed node: deliveries resume and the actor wakes
    /// with its full pre-crash memory, as if it had merely been paused —
    /// timers that fell due meanwhile fire now, in their original order.
    /// This models a long GC stall or scheduling hiccup; a real process
    /// crash loses memory — model that with [`Simulation::restart_amnesia`].
    pub fn restart(&mut self, id: NodeId) {
        let Some(i) = self.slot_of(id) else { return };
        let slot = &mut self.slots[i];
        slot.crashed = false;
        let incarnation = slot.incarnation;
        let now = self.now;
        for msg in std::mem::take(&mut slot.parked) {
            let seq = self.next_seq();
            let payload = Payload::timer(i as u32, id, incarnation, msg);
            self.queue.push(now, seq, payload);
        }
    }

    /// *Amnesia*-restarts a crashed node: the registered actor is replaced
    /// by `actor` — typically rebuilt from whatever durable state the caller
    /// salvaged from the old one — and deliveries resume. Returns the old
    /// boxed actor (so the caller can drop or inspect it), or `None` if `id`
    /// is not registered.
    ///
    /// The replacement is a new incarnation: every timer the old actor
    /// armed, whether parked during the crash or still queued, is discarded
    /// (counted in `messages_dropped`).
    ///
    /// If the simulation has already started, the replacement's
    /// [`Actor::on_start`] runs at the current simulation time with the same
    /// core accounting as a message delivery, so anything it sends or
    /// schedules (catch-up requests, recovery deadlines) enters the timeline
    /// deterministically.
    pub fn restart_amnesia(
        &mut self,
        id: NodeId,
        actor: Box<dyn Actor<M>>,
    ) -> Option<Box<dyn Actor<M>>> {
        let i = self.slot_of(id)?;
        let slot = &mut self.slots[i];
        let old = std::mem::replace(&mut slot.actor, actor);
        slot.crashed = false;
        slot.incarnation = slot.incarnation.wrapping_add(1);
        self.global.messages_dropped += slot.parked.len() as u64;
        slot.parked.clear();
        if self.started {
            self.run_handler(i, self.now, Callback::Start);
        }
        Some(old)
    }

    /// Installs a targeted link fault (drop / delay / replay / corrupt on a
    /// matcher-selected set of links, active during a time window). Returns
    /// its index. Faults are evaluated in installation order per message.
    pub fn add_link_fault(&mut self, fault: LinkFault) -> usize {
        self.link_faults.push(fault);
        self.link_faults.len() - 1
    }

    /// Injects a message from the outside world (e.g. the benchmark harness)
    /// to be delivered to `to` at time `at`.
    ///
    /// Like actor sends, the destination is resolved when this call is
    /// made: `to` must already be registered via [`Simulation::add_node`],
    /// otherwise the message is dropped at delivery time (counted in
    /// `messages_dropped`).
    pub fn inject(&mut self, to: NodeId, from: NodeId, msg: M, at: SimTime) {
        let seq = self.next_seq();
        let to_slot = self.index.get(&to).copied().unwrap_or(UNKNOWN_SLOT);
        self.queue
            .push(at, seq, Payload::message(to_slot, from, msg));
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for pos in 0..self.node_order.len() {
            let i = self
                .slot_of(self.node_order[pos])
                .expect("listed node exists");
            self.run_handler(i, SimTime::ZERO, Callback::Start);
        }
    }

    /// Runs until the event queue is exhausted or `deadline` is reached.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        while let Some(at) = self.queue.peek_at() {
            if at > deadline {
                break;
            }
            let (at, ev) = self.queue.pop().expect("peeked event exists");
            self.now = at;
            self.dispatch(at, ev);
        }
        self.now = deadline.max(self.now);
    }

    /// Runs for `d` of simulated time past the current time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        match self.queue.pop() {
            Some((at, ev)) => {
                self.now = at;
                self.dispatch(at, ev);
                true
            }
            None => false,
        }
    }

    /// Delivers one event due at `at`, unless its destination was unknown
    /// at send time, it is a timer of a replaced incarnation, or its node is
    /// crashed.
    fn dispatch(&mut self, at: SimTime, ev: Payload<M>) {
        self.global.events_processed += 1;
        self.global.last_event_at = at;
        let Some(slot) = self.slots.get_mut(ev.to_slot as usize) else {
            // A node unknown at send time: drop.
            self.global.messages_dropped += 1;
            return;
        };
        if ev.is_timer && ev.incarnation != slot.incarnation {
            // Armed by an actor an amnesia restart replaced.
            self.global.messages_dropped += 1;
            return;
        }
        if slot.crashed {
            if ev.is_timer {
                slot.parked.push(ev.msg);
            } else {
                self.global.messages_dropped += 1;
            }
            return;
        }
        let callback = if ev.is_timer {
            Callback::Timer(ev.msg)
        } else {
            Callback::Message(ev.from, ev.msg)
        };
        self.run_handler(ev.to_slot as usize, at, callback);
    }

    /// Runs one callback of slot `i`'s actor, due at `at`, on the core that
    /// frees up earliest and once that core is free; then the per-slot and
    /// global accounting and the callback's outputs. Every handler runs here.
    fn run_handler(&mut self, i: usize, at: SimTime, callback: Callback<M>) {
        let slot = &mut self.slots[i];
        let core = slot.earliest_core();
        let start = slot.core_free[core].max(at);
        let wait = start - at;
        let local = slot.local_clock(start);
        let outputs = std::mem::take(&mut self.outputs);
        let mut ctx = Context::reusing(slot.id, start, local, outputs);
        // A message or a timer is one receipt; `on_start` handles none.
        let received = u64::from(!matches!(callback, Callback::Start));
        match callback {
            Callback::Start => slot.actor.on_start(&mut ctx),
            Callback::Message(from, msg) => {
                slot.actor.on_message(&mut ctx, from, msg);
                slot.metrics.messages_processed += 1;
                slot.metrics.queue_wait += wait;
                self.global.messages_delivered += 1;
            }
            Callback::Timer(msg) => {
                slot.actor.on_timer(&mut ctx, msg);
                slot.metrics.timers_fired += 1;
                slot.metrics.queue_wait += wait;
            }
        }
        let (outputs, charged) = ctx.finish();
        let sent = outputs
            .iter()
            .filter(|o| matches!(o, Output::Send { .. }))
            .count() as u64;
        let charged = charged + MESSAGE_CPU * (received + sent);
        let completion = start + charged;
        slot.core_free[core] = completion;
        slot.metrics.cpu_busy += charged;
        slot.metrics.messages_sent += sent;
        let id = slot.id;
        self.apply_outputs(i as u32, id, completion, outputs);
    }

    /// Applies a handler's recorded outputs: link faults, latency jitter
    /// and queue insertion, in output order. This is the *only* place
    /// randomness is consumed. The drained buffer becomes the next
    /// handler's.
    fn apply_outputs(
        &mut self,
        from_slot: u32,
        from: NodeId,
        completion: SimTime,
        mut outputs: Vec<Output<M>>,
    ) {
        let incarnation = self.slots[from_slot as usize].incarnation;
        for out in outputs.drain(..) {
            match out {
                Output::Send { to, msg } => {
                    self.global.messages_sent += 1;
                    // Link faults, in installation order. Matching is
                    // deterministic and only matching probabilistic faults
                    // draw from the RNG (a cut link does not), so with no
                    // faults installed the RNG stream — and every pinned
                    // golden trace — is untouched.
                    let mut extra_delay = Duration::ZERO;
                    let mut replay = false;
                    let mut fault_dropped = false;
                    if !self.link_faults.is_empty() {
                        for f in &self.link_faults {
                            if !f.applies(completion, from, to) {
                                continue;
                            }
                            match f.kind {
                                LinkFaultKind::Drop { probability } => {
                                    if probability >= 1.0 || self.rng.gen::<f64>() < probability {
                                        fault_dropped = true;
                                        break;
                                    }
                                }
                                LinkFaultKind::Delay { extra } => extra_delay += extra,
                                LinkFaultKind::Replay { probability } => {
                                    if self.rng.gen::<f64>() < probability {
                                        replay = true;
                                    }
                                }
                                // Detected garble on an authenticated
                                // channel: the receiver discards it.
                                LinkFaultKind::Corrupt { probability } => {
                                    if self.rng.gen::<f64>() < probability {
                                        self.global.messages_corrupted += 1;
                                        fault_dropped = true;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    if fault_dropped {
                        self.global.messages_dropped += 1;
                        continue;
                    }
                    let to_slot = self.index.get(&to).copied().unwrap_or(UNKNOWN_SLOT);
                    let dup = if replay {
                        self.global.messages_replayed += 1;
                        Some(msg.clone())
                    } else {
                        None
                    };
                    let latency =
                        self.network.sample_latency(from, to, &mut self.rng) + extra_delay;
                    let seq = self.next_seq();
                    let payload = Payload::message(to_slot, from, msg);
                    self.queue.push(completion + latency, seq, payload);
                    if let Some(msg) = dup {
                        let latency =
                            self.network.sample_latency(from, to, &mut self.rng) + extra_delay;
                        let seq = self.next_seq();
                        let payload = Payload::message(to_slot, from, msg);
                        self.queue.push(completion + latency, seq, payload);
                    }
                }
                Output::Timer { delay, msg } => {
                    let seq = self.next_seq();
                    let payload = Payload::timer(from_slot, from, incarnation, msg);
                    self.queue.push(completion + delay, seq, payload);
                }
            }
        }
        self.outputs = outputs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NodeMatcher;
    use basil_common::ClientId;
    use std::any::Any;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
        Tick,
    }

    /// Sends `count` pings to a peer on start, counts pongs.
    struct Pinger {
        peer: NodeId,
        count: u32,
        pongs_received: Vec<u32>,
        completion_times: Vec<SimTime>,
    }

    impl Actor<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            for i in 0..self.count {
                ctx.send(self.peer, Msg::Ping(i));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Pong(i) = msg {
                self.pongs_received.push(i);
                self.completion_times.push(ctx.now());
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Echoes pings as pongs, charging a fixed CPU cost per ping.
    struct Echoer {
        cpu_per_ping: Duration,
        handled: u32,
    }

    impl Actor<Msg> for Echoer {
        fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
            if let Msg::Ping(i) = msg {
                self.handled += 1;
                ctx.charge(self.cpu_per_ping);
                ctx.send(from, Msg::Pong(i));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn client(n: u64) -> NodeId {
        NodeId::Client(ClientId(n))
    }

    fn build_ping_pong(
        seed: u64,
        net: NetworkConfig,
        count: u32,
        cores: u32,
        cpu: Duration,
    ) -> Simulation<Msg> {
        let mut sim = Simulation::new(seed, net);
        sim.add_node(
            client(1),
            NodeProps::default(),
            Box::new(Pinger {
                peer: client(2),
                count,
                pongs_received: Vec::new(),
                completion_times: Vec::new(),
            }),
        );
        sim.add_node(
            client(2),
            NodeProps::default().with_cores(cores),
            Box::new(Echoer {
                cpu_per_ping: cpu,
                handled: 0,
            }),
        );
        sim
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = build_ping_pong(1, NetworkConfig::lan(), 5, 1, Duration::from_micros(10));
        sim.run_until(SimTime::from_millis(10));
        let pinger: &Pinger = sim.actor(client(1)).expect("pinger exists");
        assert_eq!(pinger.pongs_received.len(), 5);
        let echoer: &Echoer = sim.actor(client(2)).expect("echoer exists");
        assert_eq!(echoer.handled, 5);
        assert_eq!(sim.metrics().messages_delivered, 10);
    }

    #[test]
    fn single_core_serializes_processing() {
        // 10 pings arrive nearly simultaneously; with one core and 100us per
        // ping, the last pong must come back at least ~1ms after the first.
        // Each ping also costs the stack a receipt and a send.
        let mut sim = build_ping_pong(
            1,
            NetworkConfig::instant(),
            10,
            1,
            Duration::from_micros(100),
        );
        sim.run_until(SimTime::from_millis(50));
        let pinger: &Pinger = sim.actor(client(1)).expect("pinger");
        assert_eq!(pinger.pongs_received.len(), 10);
        let first = *pinger.completion_times.first().expect("non-empty");
        let last = *pinger.completion_times.last().expect("non-empty");
        assert!(
            last - first >= Duration::from_micros(850),
            "expected serialization, got spread {:?}",
            last - first
        );
        let metrics = sim.metrics();
        let m = metrics.node(client(2)).expect("metrics");
        // 10 x (100 us + a receipt and a send at 6 us each).
        assert_eq!(m.cpu_busy, Duration::from_micros(1_120));
        assert!(m.queue_wait > Duration::ZERO);
    }

    /// Sends a pong to each target from `on_start` and from each `Tick`, and
    /// arms one tick timer at start; it charges nothing itself.
    struct Fanout {
        targets: Vec<NodeId>,
    }

    impl Fanout {
        fn fan_out(&self, ctx: &mut Context<Msg>) {
            for &to in &self.targets {
                ctx.send(to, Msg::Pong(0));
            }
        }
    }

    impl Actor<Msg> for Fanout {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            self.fan_out(ctx);
            ctx.schedule_self(Duration::from_millis(2), Msg::Tick);
        }
        fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
            if msg == Msg::Tick {
                self.fan_out(ctx);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// `run_handler` charges `MESSAGE_CPU` per send, plus one for the
    /// message or timer a callback handles (none for `on_start`). A send is
    /// charged at the sender even when no one receives it: a crashed or
    /// unregistered destination, or a link fault's drop.
    #[test]
    fn run_handler_charges_message_cpu_per_receipt_and_send() {
        let (me, sink, crashed, cut) = (client(1), client(2), client(3), client(4));
        let unknown = client(99);
        let mut sim: Simulation<Msg> = Simulation::new(1, NetworkConfig::instant());
        sim.add_node(
            me,
            NodeProps::default(),
            Box::new(Fanout {
                targets: vec![sink, crashed, unknown, cut],
            }),
        );
        for node in [sink, crashed, cut] {
            let echoer = Echoer {
                cpu_per_ping: Duration::ZERO,
                handled: 0,
            };
            sim.add_node(node, NodeProps::default(), Box::new(echoer));
        }
        sim.crash(crashed);
        sim.add_link_fault(LinkFault::new(
            LinkFaultKind::Drop { probability: 1.0 },
            NodeMatcher::Node(me),
            NodeMatcher::Node(cut),
            SimTime::ZERO,
            SimTime::from_secs(1),
        ));
        let cpu = |sim: &Simulation<Msg>, node| sim.metrics().node(node).expect("node").cpu_busy;
        // Start: four sends, no receipt.
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(cpu(&sim, me), MESSAGE_CPU * 4);
        // A message: four sends and its receipt.
        sim.inject(me, client(98), Msg::Tick, SimTime::from_millis(1));
        sim.run_until(SimTime::from_millis(2));
        assert_eq!(cpu(&sim, me), MESSAGE_CPU * (4 + 5));
        // A timer: four sends and its firing.
        sim.run_until(SimTime::from_millis(3));
        assert_eq!(cpu(&sim, me), MESSAGE_CPU * (4 + 5 + 5));
        // Each pong that arrived cost its receiver one receipt.
        assert_eq!(cpu(&sim, sink), MESSAGE_CPU * 3);
        assert_eq!(cpu(&sim, cut), Duration::ZERO);
        assert_eq!(sim.metrics().messages_dropped, 9);
    }

    #[test]
    fn more_cores_reduce_latency() {
        let run = |cores: u32| {
            let mut sim = build_ping_pong(
                1,
                NetworkConfig::instant(),
                8,
                cores,
                Duration::from_micros(100),
            );
            sim.run_until(SimTime::from_millis(50));
            let pinger: &Pinger = sim.actor(client(1)).expect("pinger");
            *pinger.completion_times.last().expect("non-empty")
        };
        let serial = run(1);
        let parallel = run(8);
        assert!(
            parallel < serial,
            "8 cores {parallel:?} !< 1 core {serial:?}"
        );
    }

    #[test]
    fn deterministic_under_same_seed() {
        let trace = |seed| {
            let mut sim =
                build_ping_pong(seed, NetworkConfig::lan(), 20, 2, Duration::from_micros(30));
            sim.run_until(SimTime::from_millis(20));
            let pinger: &Pinger = sim.actor(client(1)).expect("pinger");
            pinger.completion_times.clone()
        };
        assert_eq!(trace(7), trace(7));
        assert_ne!(
            trace(7),
            trace(8),
            "different seeds should differ in jitter"
        );
    }

    #[test]
    fn crashed_node_drops_messages() {
        let mut sim = build_ping_pong(1, NetworkConfig::lan(), 5, 1, Duration::ZERO);
        sim.crash(client(2));
        sim.run_until(SimTime::from_millis(10));
        let pinger: &Pinger = sim.actor(client(1)).expect("pinger");
        assert!(pinger.pongs_received.is_empty());
        assert_eq!(sim.metrics().messages_dropped, 5);
    }

    #[test]
    fn partition_blocks_and_heals() {
        /// Every millisecond sends tick `i` to its peer and to itself, and
        /// records the ticks it hears from each.
        struct Chatter {
            peer: NodeId,
            tick: u32,
            from_peer: Vec<u32>,
            from_self: Vec<u32>,
        }
        impl Actor<Msg> for Chatter {
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                ctx.schedule_self(Duration::from_millis(1), Msg::Tick);
            }
            fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
                match msg {
                    Msg::Tick => {
                        self.tick += 1;
                        ctx.send(self.peer, Msg::Ping(self.tick));
                        ctx.send(ctx.self_id(), Msg::Ping(self.tick));
                        ctx.schedule_self(Duration::from_millis(1), Msg::Tick);
                    }
                    Msg::Ping(i) if from == self.peer => self.from_peer.push(i),
                    Msg::Ping(i) => self.from_self.push(i),
                    _ => {}
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut sim: Simulation<Msg> = Simulation::new(3, NetworkConfig::instant());
        for (me, peer) in [(client(1), client(2)), (client(2), client(1))] {
            sim.add_node(
                me,
                NodeProps::default(),
                Box::new(Chatter {
                    peer,
                    tick: 0,
                    from_peer: vec![],
                    from_self: vec![],
                }),
            );
        }
        // Ticks leave at 1, 2, ..., 9 ms; cutting client 2's links both ways
        // during [3, 7) drops the ones at 3, 4, 5 and 6 ms in both
        // directions. What a node sends itself crosses no link.
        for (from, to) in [
            (NodeMatcher::Node(client(2)), NodeMatcher::Any),
            (NodeMatcher::Any, NodeMatcher::Node(client(2))),
        ] {
            sim.add_link_fault(LinkFault::new(
                LinkFaultKind::Drop { probability: 1.0 },
                from,
                to,
                SimTime::from_millis(3),
                SimTime::from_millis(7),
            ));
        }
        sim.run_until(SimTime::from_micros(9_500));
        for node in [client(1), client(2)] {
            let chatter: &Chatter = sim.actor(node).expect("chatter");
            assert_eq!(chatter.from_peer, [1, 2, 7, 8, 9], "{node:?}");
            assert_eq!(chatter.from_self, (1..=9).collect::<Vec<_>>(), "{node:?}");
        }
        assert_eq!(sim.metrics().messages_dropped, 8);
    }

    #[test]
    fn clock_skew_shifts_local_clock() {
        struct ClockReader {
            readings: Vec<(SimTime, SimTime)>,
        }
        impl Actor<Msg> for ClockReader {
            fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, _msg: Msg) {
                self.readings.push((ctx.now(), ctx.local_clock()));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(3, NetworkConfig::instant());
        sim.add_node(
            client(1),
            NodeProps::default().with_skew_ns(2_000_000),
            Box::new(ClockReader { readings: vec![] }),
        );
        sim.inject(client(1), client(1), Msg::Tick, SimTime::from_millis(5));
        sim.run_until(SimTime::from_millis(10));
        let reader: &ClockReader = sim.actor(client(1)).expect("reader");
        let (global, local) = reader.readings[0];
        assert_eq!(local - global, Duration::from_millis(2));
    }

    #[test]
    fn node_props_are_rewritten_before_the_run() {
        let mut sim = build_ping_pong(1, NetworkConfig::instant(), 1, 8, Duration::ZERO);
        sim.update_node_props(client(2), |p| p.with_cores(2).with_skew_ns(-7));
        sim.update_node_props(client(9), |p| p.with_cores(3));
        let slot = sim.slot_ref(client(2)).expect("registered");
        assert_eq!((slot.props.cores, slot.props.clock_skew_ns), (2, -7));
        assert_eq!(slot.core_free.len(), 2, "cores resized with the props");
        assert!(sim.slot_ref(client(9)).is_none(), "unknown id is a no-op");
    }

    #[test]
    #[should_panic(expected = "before the run")]
    fn node_props_are_fixed_once_the_run_starts() {
        let mut sim = build_ping_pong(1, NetworkConfig::instant(), 1, 1, Duration::ZERO);
        sim.run_until(SimTime::from_millis(1));
        sim.update_node_props(client(2), |p| p.with_cores(2));
    }

    #[test]
    fn lossy_network_drops_some_messages() {
        let mut sim = build_ping_pong(11, NetworkConfig::lan(), 100, 4, Duration::ZERO);
        sim.add_link_fault(LinkFault::new(
            LinkFaultKind::Drop { probability: 0.5 },
            NodeMatcher::Any,
            NodeMatcher::Any,
            SimTime::ZERO,
            SimTime::from_secs(1),
        ));
        sim.run_until(SimTime::from_millis(100));
        let pinger: &Pinger = sim.actor(client(1)).expect("pinger");
        assert!(pinger.pongs_received.len() < 100);
        assert!(!pinger.pongs_received.is_empty());
        assert!(sim.metrics().messages_dropped > 0);
    }

    #[test]
    fn run_until_stops_at_deadline_and_resumes() {
        let mut sim = build_ping_pong(1, NetworkConfig::lan(), 3, 1, Duration::ZERO);
        sim.run_until(SimTime::from_micros(10)); // too early for round trips
        let before = sim
            .actor::<Pinger>(client(1))
            .expect("pinger")
            .pongs_received
            .len();
        assert_eq!(before, 0);
        assert_eq!(sim.now(), SimTime::from_micros(10));
        sim.run_until(SimTime::from_millis(5));
        let after = sim
            .actor::<Pinger>(client(1))
            .expect("pinger")
            .pongs_received
            .len();
        assert_eq!(after, 3);
    }

    #[test]
    fn inject_delivers_external_messages() {
        let mut sim: Simulation<Msg> = Simulation::new(1, NetworkConfig::instant());
        sim.add_node(
            client(2),
            NodeProps::default(),
            Box::new(Echoer {
                cpu_per_ping: Duration::ZERO,
                handled: 0,
            }),
        );
        sim.inject(client(2), client(99), Msg::Ping(1), SimTime::from_millis(1));
        sim.run_until(SimTime::from_millis(2));
        assert_eq!(sim.actor::<Echoer>(client(2)).expect("echoer").handled, 1);
    }

    /// Timers scheduled far ahead, out of order, fire at their own times
    /// and in time order.
    #[test]
    fn far_future_timers_survive_the_overflow_path() {
        struct LongTimer {
            fired_at: Vec<SimTime>,
        }
        impl Actor<Msg> for LongTimer {
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                ctx.schedule_self(Duration::from_millis(500), Msg::Tick);
                ctx.schedule_self(Duration::from_millis(250), Msg::Tick);
                ctx.schedule_self(Duration::from_micros(10), Msg::Tick);
            }
            fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, _msg: Msg) {
                self.fired_at.push(ctx.now());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(1, NetworkConfig::instant());
        sim.add_node(
            client(1),
            NodeProps::default(),
            Box::new(LongTimer { fired_at: vec![] }),
        );
        sim.run_until(SimTime::from_secs(1));
        let t: &LongTimer = sim.actor(client(1)).expect("timer actor");
        assert_eq!(
            t.fired_at,
            vec![
                SimTime::from_micros(10),
                SimTime::from_millis(250),
                SimTime::from_millis(500),
            ]
        );
    }

    #[test]
    fn link_fault_drop_blocks_only_inside_window() {
        struct PeriodicPinger {
            peer: NodeId,
        }
        impl Actor<Msg> for PeriodicPinger {
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                ctx.schedule_self(Duration::from_millis(1), Msg::Tick);
            }
            fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
                if msg == Msg::Tick {
                    ctx.send(self.peer, Msg::Ping(0));
                    ctx.schedule_self(Duration::from_millis(1), Msg::Tick);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(5, NetworkConfig::instant());
        sim.add_node(
            client(1),
            NodeProps::default(),
            Box::new(PeriodicPinger { peer: client(2) }),
        );
        sim.add_node(
            client(2),
            NodeProps::default(),
            Box::new(Echoer {
                cpu_per_ping: Duration::ZERO,
                handled: 0,
            }),
        );
        // Pings leave at 1, 2, ..., 9 ms; the window [2, 6) swallows the
        // ones at 2, 3, 4, 5 ms.
        sim.add_link_fault(LinkFault::new(
            LinkFaultKind::Drop { probability: 1.0 },
            NodeMatcher::Node(client(1)),
            NodeMatcher::Node(client(2)),
            SimTime::from_millis(2),
            SimTime::from_millis(6),
        ));
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.actor::<Echoer>(client(2)).expect("echoer").handled, 5);
        assert_eq!(sim.metrics().messages_dropped, 4);
    }

    #[test]
    fn link_fault_replay_duplicates_matching_messages() {
        let mut sim = build_ping_pong(1, NetworkConfig::lan(), 5, 2, Duration::ZERO);
        sim.add_link_fault(LinkFault::new(
            LinkFaultKind::Replay { probability: 1.0 },
            NodeMatcher::Node(client(1)),
            NodeMatcher::Node(client(2)),
            SimTime::ZERO,
            SimTime::from_secs(1),
        ));
        sim.run_until(SimTime::from_millis(10));
        // Every ping delivered twice; pongs are not matched by the fault.
        assert_eq!(sim.actor::<Echoer>(client(2)).expect("echoer").handled, 10);
        assert_eq!(sim.metrics().messages_replayed, 5);
        let pinger: &Pinger = sim.actor(client(1)).expect("pinger");
        assert_eq!(pinger.pongs_received.len(), 10);
    }

    #[test]
    fn link_fault_delay_adds_to_latency() {
        let mut sim = build_ping_pong(1, NetworkConfig::instant(), 1, 1, Duration::ZERO);
        sim.add_link_fault(LinkFault::new(
            LinkFaultKind::Delay {
                extra: Duration::from_millis(3),
            },
            NodeMatcher::Any,
            NodeMatcher::Node(client(2)),
            SimTime::ZERO,
            SimTime::from_secs(1),
        ));
        sim.run_until(SimTime::from_millis(10));
        let pinger: &Pinger = sim.actor(client(1)).expect("pinger");
        assert_eq!(pinger.pongs_received.len(), 1);
        assert!(
            pinger.completion_times[0] >= SimTime::from_millis(3),
            "ping delayed 3 ms: {:?}",
            pinger.completion_times[0]
        );
    }

    #[test]
    fn corrupt_without_corruptor_discards_as_detected_garble() {
        let mut sim = build_ping_pong(1, NetworkConfig::lan(), 5, 1, Duration::ZERO);
        sim.add_link_fault(LinkFault::new(
            LinkFaultKind::Corrupt { probability: 1.0 },
            NodeMatcher::Clients,
            NodeMatcher::Node(client(2)),
            SimTime::ZERO,
            SimTime::from_secs(1),
        ));
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.actor::<Echoer>(client(2)).expect("echoer").handled, 0);
        let m = sim.metrics();
        assert_eq!(m.messages_corrupted, 5);
        assert_eq!(m.messages_dropped, 5);
    }

    /// Injected messages pop in strict (time, sequence) order — the order
    /// the determinism contract promises.
    #[test]
    fn queue_pops_in_time_then_sequence_order() {
        struct Recorder {
            seen: Vec<(SimTime, u32)>,
        }
        impl Actor<Msg> for Recorder {
            fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
                if let Msg::Ping(i) = msg {
                    self.seen.push((ctx.now(), i));
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(1, NetworkConfig::instant());
        sim.add_node(
            client(1),
            NodeProps::default().with_cores(64),
            Box::new(Recorder { seen: vec![] }),
        );
        // Inject in scrambled time order, including same-time pairs (which
        // must deliver in injection order) and far-future outliers.
        let times: Vec<u64> = vec![900, 20, 20, 500_000_000, 100, 70_000_000, 100, 3];
        for (i, us) in times.iter().enumerate() {
            sim.inject(
                client(1),
                client(9),
                Msg::Ping(i as u32),
                SimTime::from_nanos(*us * 1_000),
            );
        }
        sim.run_until(SimTime::from_secs(600));
        let rec: &Recorder = sim.actor(client(1)).expect("recorder");
        let mut expected: Vec<(SimTime, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, us)| (SimTime::from_nanos(us * 1_000), i as u32))
            .collect();
        // Stable sort by time keeps same-time entries in injection
        // (sequence) order.
        expected.sort_by_key(|(at, _)| *at);
        assert_eq!(rec.seen, expected);
    }

    /// The slab queue pops exactly what one global min-heap of
    /// `(at, seq, payload)` pops, over random push/pop interleavings that
    /// hit same-time ties and pushes behind the clock; a full drain returns
    /// every slab entry to the free list, and the slab never outgrows the
    /// peak number of queued events.
    #[test]
    fn slab_queue_pops_like_a_global_min_heap() {
        const US: u64 = 1_000;
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let (mut ties, mut behind) = (0, 0);
        for _case in 0..200 {
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
            let (mut seq, mut now, mut peak) = (0u64, 0u64, 0usize);
            let ops = rng.gen_range(1..400);
            for _ in 0..ops {
                if rng.gen_bool(0.55) {
                    let at = match rng.gen_range(0..4) {
                        // A tie with the current time.
                        0 => now,
                        // Behind the clock (an `inject` in the past).
                        1 => {
                            behind += 1;
                            now.saturating_sub(rng.gen_range(0..200 * US))
                        }
                        // A few coarse steps ahead: more ties.
                        2 => now + rng.gen_range(0..4u64) * 16 * US,
                        // Anywhere up to a second ahead.
                        _ => now + rng.gen_range(0..1_000_000 * US),
                    };
                    seq += 1;
                    let payload = rng.gen::<u64>();
                    queue.push(SimTime::from_nanos(at), seq, payload);
                    reference.push(Reverse((SimTime::from_nanos(at), seq, payload)));
                    peak = peak.max(reference.len());
                } else {
                    let want = reference.pop().map(|Reverse((at, _, p))| (at, p));
                    let got = queue.pop();
                    assert_eq!(got, want);
                    if let Some((at, _)) = got {
                        if reference.peek().is_some_and(|Reverse(r)| r.0 == at) {
                            ties += 1;
                        }
                        now = now.max(at.as_nanos());
                    }
                }
                assert!(queue.slab.len() <= peak, "slab beyond the queued peak");
            }
            while let Some(Reverse((at, _, p))) = reference.pop() {
                assert_eq!(queue.pop(), Some((at, p)));
            }
            assert_eq!(queue.pop(), None);
            assert_eq!(queue.free.len(), queue.slab.len(), "every entry freed");
            assert!(queue.slab.iter().all(Option::is_none));
        }
        assert!(ties > 0 && behind > 0);
    }

    /// Ticks every millisecond, counting the ticks it saw.
    struct Ticker {
        ticks: Vec<SimTime>,
    }

    impl Actor<Msg> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            ctx.schedule_self(Duration::from_millis(1), Msg::Tick);
        }
        fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
            if msg == Msg::Tick {
                self.ticks.push(ctx.now());
                ctx.schedule_self(Duration::from_millis(1), Msg::Tick);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A warm restart is a pause: the tick that fell due during the crash
    /// fires at the restart, and the chain it re-arms keeps going.
    #[test]
    fn periodic_timer_chain_survives_crash_and_warm_restart() {
        let mut sim: Simulation<Msg> = Simulation::new(1, NetworkConfig::instant());
        sim.add_node(
            client(1),
            NodeProps::default(),
            Box::new(Ticker { ticks: vec![] }),
        );
        sim.run_until(SimTime::from_micros(2_500));
        sim.crash(client(1));
        sim.run_until(SimTime::from_micros(5_500));
        sim.restart(client(1));
        sim.run_until(SimTime::from_micros(9_000));
        let t: &Ticker = sim.actor(client(1)).expect("ticker");
        // Each tick re-arms 1 ms after it completes, and firing costs
        // `MESSAGE_CPU` (6 us).
        let us = |us: u64| SimTime::from_micros(us);
        assert_eq!(
            t.ticks,
            vec![
                us(1_000),
                us(2_006),
                us(5_500),
                us(6_506),
                us(7_512),
                us(8_518)
            ]
        );
        assert_eq!(sim.metrics().messages_dropped, 0);
    }

    /// An amnesia restart's replacement never sees a timer its predecessor
    /// armed — neither one parked during the crash nor one still queued.
    #[test]
    fn replacement_actor_never_sees_its_predecessors_timers() {
        struct Arms;
        impl Actor<Msg> for Arms {
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                ctx.schedule_self(Duration::from_millis(2), Msg::Tick);
                ctx.schedule_self(Duration::from_millis(10), Msg::Tick);
            }
            fn on_message(&mut self, _ctx: &mut Context<Msg>, _from: NodeId, _msg: Msg) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(1, NetworkConfig::instant());
        sim.add_node(client(1), NodeProps::default(), Box::new(Arms));
        sim.run_until(SimTime::from_millis(1));
        sim.crash(client(1));
        // The 2 ms timer falls due while crashed and is parked.
        sim.run_until(SimTime::from_millis(3));
        sim.restart_amnesia(client(1), Box::new(Ticker { ticks: vec![] }));
        sim.run_until(SimTime::from_micros(12_500));
        let t: &Ticker = sim.actor(client(1)).expect("replacement");
        // Only its own chain, armed at 3 ms: no tick at 3 ms (the parked
        // timer) and none at 10 ms (the queued one). Each tick re-arms 1 ms
        // after it completes, `MESSAGE_CPU` after it fires.
        let own: Vec<SimTime> = (0..9)
            .map(|k| SimTime::from_millis(4) + (Duration::from_millis(1) + MESSAGE_CPU) * k)
            .collect();
        assert_eq!(t.ticks, own);
        assert_eq!(sim.metrics().messages_dropped, 2);
    }
}
