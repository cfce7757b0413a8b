//! Guard: the simulator's event plane allocates nothing in steady state.
//!
//! A message is written into the handler's output buffer, moved into the
//! event queue's slab, and moved out into the receiving handler; the key
//! that orders it lives in one heap that keeps its capacity. Once the
//! buffer, the slab and the heap have grown to the run's peak, delivering
//! an event must not touch the allocator. This binary installs a counting
//! global allocator (so it lives alone in its own test target), runs 256
//! ping-pong pairs carrying a 240-byte message for a 100 ms warm-up, then
//! counts the allocations the next 100,000 events make on this thread.

use basil_common::{ClientId, NodeId, SimTime};
use basil_simnet::{Actor, Context, NetworkConfig, NodeProps, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local `Cell`, which neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A 240-byte message, the size of `basil_core::BasilMsg`.
#[derive(Clone)]
struct Fat {
    hops: u64,
    body: [u64; 29],
}

/// Keeps `window` messages bouncing off its peer forever.
struct Bouncer {
    peer: NodeId,
    window: u64,
}

impl Actor<Fat> for Bouncer {
    fn on_start(&mut self, ctx: &mut Context<Fat>) {
        for i in 0..self.window {
            ctx.send(
                self.peer,
                Fat {
                    hops: 0,
                    body: [i; 29],
                },
            );
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Fat>, from: NodeId, mut msg: Fat) {
        msg.hops += 1;
        msg.body[0] = msg.body[0].wrapping_add(msg.hops);
        ctx.send(from, msg);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn steady_state_event_plane_makes_no_allocations() {
    assert_eq!(std::mem::size_of::<Fat>(), 240);
    let mut sim: Simulation<Fat> = Simulation::new(9, NetworkConfig::lan());
    for p in 0..256u64 {
        let (a, b) = (
            NodeId::Client(ClientId(2 * p)),
            NodeId::Client(ClientId(2 * p + 1)),
        );
        sim.add_node(
            a,
            NodeProps::default(),
            Box::new(Bouncer { peer: b, window: 4 }),
        );
        sim.add_node(
            b,
            NodeProps::default(),
            Box::new(Bouncer { peer: a, window: 0 }),
        );
    }
    // Warm-up: long enough that the heap, the slab and the output buffer
    // reached their peak.
    sim.run_until(SimTime::from_millis(100));
    let events_before = sim.metrics().events_processed;

    let before = allocations();
    for _ in 0..100_000 {
        assert!(sim.step(), "the bouncers never stop");
    }
    let made = allocations() - before;

    assert_eq!(sim.metrics().events_processed - events_before, 100_000);
    assert_eq!(
        made, 0,
        "100,000 steady-state events allocated {made} times"
    );
}
