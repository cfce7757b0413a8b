//! Golden-trace determinism test for the event scheduler.
//!
//! The scheduler contract is: with a fixed seed, the delivery sequence —
//! which event fires, at what simulated time, in what order — is bit-for-bit
//! reproducible, and rewrites of the queue implementation must not change
//! it. This test drives a deliberately messy topology (jittery LAN, message
//! loss, multi-core nodes, timers, a mid-run injection) and folds every
//! delivery into an FNV-1a hash. The expected value was captured from the
//! original `BinaryHeap`-of-events scheduler; every rewrite since (the
//! calendar queue, the key/slab split, and today's one heap of keys with a
//! single handler path) must reproduce it exactly. It moved once, when the
//! per-message CPU charge moved into the simulator (see `GOLDEN_HASH`).

use basil_common::{ClientId, Duration, NodeId, SimTime};
use basil_simnet::{
    Actor, Context, LinkFault, LinkFaultKind, NetworkConfig, NodeMatcher, NodeProps, Simulation,
};
use std::any::Any;

#[derive(Clone, Debug)]
enum Msg {
    Ping(u32),
    Pong(u32),
    Tick,
}

/// FNV-1a, folded over little-endian u64 words.
#[derive(Default)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn node_word(n: NodeId) -> u64 {
    match n {
        NodeId::Client(c) => c.0,
        NodeId::Replica(r) => (1 << 62) | (u64::from(r.shard.0) << 32) | u64::from(r.index),
    }
}

/// Records every delivery it sees into the trace, echoes pings, and keeps a
/// periodic timer running that re-pings a peer.
struct Tracer {
    peer: NodeId,
    trace: Vec<(u64, u64, u64, u64)>,
    sent: u32,
}

impl Actor<Msg> for Tracer {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        for i in 0..3 {
            ctx.send(self.peer, Msg::Ping(i));
        }
        ctx.schedule_self(Duration::from_micros(700), Msg::Tick);
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        let tag = match msg {
            Msg::Ping(i) => {
                ctx.charge(Duration::from_micros(15));
                ctx.send(from, Msg::Pong(i));
                u64::from(i)
            }
            Msg::Pong(i) => {
                if self.sent < 40 {
                    self.sent += 1;
                    ctx.send(from, Msg::Ping(i.wrapping_add(1)));
                }
                (1 << 32) | u64::from(i)
            }
            Msg::Tick => {
                ctx.send(self.peer, Msg::Ping(999));
                ctx.schedule_self(Duration::from_micros(700), Msg::Tick);
                2 << 32
            }
        };
        self.trace.push((
            ctx.now().as_nanos(),
            node_word(ctx.self_id()),
            node_word(from),
            tag,
        ));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn run_trace(seed: u64) -> (u64, u64) {
    let mut sim: Simulation<Msg> = Simulation::new(seed, NetworkConfig::lan());
    // Loss on every link, installed first so its draw leads each send's.
    sim.add_link_fault(LinkFault::new(
        LinkFaultKind::Drop { probability: 0.02 },
        NodeMatcher::Any,
        NodeMatcher::Any,
        SimTime::ZERO,
        SimTime::from_secs(1),
    ));
    let ids: Vec<NodeId> = (0..8).map(|i| NodeId::Client(ClientId(i))).collect();
    for (i, id) in ids.iter().enumerate() {
        let peer = ids[(i + 1) % ids.len()];
        sim.add_node(
            *id,
            NodeProps::default().with_cores(1 + (i as u32 % 3)),
            Box::new(Tracer {
                peer,
                trace: Vec::new(),
                sent: 0,
            }),
        );
    }
    // A mid-run injection from an unregistered outside node.
    sim.inject(
        ids[3],
        NodeId::Client(ClientId(99)),
        Msg::Ping(7),
        SimTime::from_millis(2),
    );
    sim.run_until(SimTime::from_millis(20));

    let mut hash = Fnv::new();
    for id in sim.node_ids() {
        let tracer: &Tracer = sim.actor(id).expect("tracer registered");
        for (at, me, from, tag) in &tracer.trace {
            hash.write_u64(*at);
            hash.write_u64(*me);
            hash.write_u64(*from);
            hash.write_u64(*tag);
        }
    }
    (hash.0, sim.metrics().events_processed)
}

/// The reference values. Every scheduler rewrite pops events in the
/// identical `(time, sequence-number)` order and draws network randomness at
/// the same points, so both the full delivery trace and the event count must
/// match bit-for-bit. The original global-`BinaryHeap` scheduler gave
/// `(1025214319698513995, 1325)` when handlers charged only their own CPU.
/// Since the simulator charges `MESSAGE_CPU` per message handled or sent,
/// the values are those the previous scheduler gave for a `Tracer` that
/// charged 6 us by hand at every receipt and send.
const GOLDEN_HASH: u64 = 14842581129668789036;
const GOLDEN_EVENTS: u64 = 1311;

#[test]
fn delivery_trace_matches_golden_reference() {
    let (hash, events) = run_trace(42);
    assert_eq!(
        (hash, events),
        (GOLDEN_HASH, GOLDEN_EVENTS),
        "scheduler delivery order diverged from the golden trace"
    );
}

#[test]
fn trace_is_stable_across_runs_and_seed_sensitive() {
    assert_eq!(run_trace(42), run_trace(42));
    assert_ne!(run_trace(42).0, run_trace(43).0);
}
