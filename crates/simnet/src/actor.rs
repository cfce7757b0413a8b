//! The actor abstraction: sans-io protocol state machines driven by the
//! simulator.

use basil_common::{Duration, NodeId, SimTime};
use std::any::Any;

/// A protocol participant.
///
/// Implementations are pure state machines: all interaction with the outside
/// world goes through the [`Context`] passed to each callback. This keeps the
/// protocol logic deterministic, directly unit-testable (construct a
/// `Context`, feed messages, inspect the recorded outputs), and reusable by
/// both the discrete-event simulator and the threaded runtime.
///
/// `Send` is part of the contract: the TCP runtime (`basil-net`) and the
/// benchmark's client threads build an actor on one thread and run it on
/// another, so an actor may own no thread-affine state (`Rc`, un-`Send`
/// interior mutability). An actor is only ever *executed* by one thread at
/// a time — `Sync` is not required.
pub trait Actor<M>: Any + Send {
    /// Called once when the simulation starts, before any message delivery.
    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    /// Called when a message from `from` is delivered to this actor.
    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M);

    /// Called when a timer previously scheduled with
    /// [`Context::schedule_self`] fires. The timer payload is an ordinary
    /// message the actor sent to itself.
    fn on_timer(&mut self, ctx: &mut Context<M>, msg: M) {
        // By default treat timers as self-messages.
        let id = ctx.self_id();
        self.on_message(ctx, id, msg);
    }

    /// Upcast for harness-side inspection of concrete actor state.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for harness-side inspection of concrete actor state.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Everything an actor may do while handling an event.
///
/// The context records sends, timers, and CPU charges; the simulator applies
/// them when the handler returns (sends leave the node once the charged CPU
/// time has elapsed).
pub struct Context<M> {
    self_id: NodeId,
    now: SimTime,
    local_clock: SimTime,
    charged: Duration,
    outputs: Vec<Output<M>>,
}

/// An effect produced by an actor while handling an event.
#[derive(Debug)]
pub enum Output<M> {
    /// Send `msg` to `to` once the handler's charged CPU time has elapsed.
    Send {
        /// Destination node.
        to: NodeId,
        /// Message payload.
        msg: M,
    },
    /// Deliver `msg` back to the sending actor after `delay`.
    Timer {
        /// Delay from the end of the current handler.
        delay: Duration,
        /// Timer payload.
        msg: M,
    },
}

impl<M> Context<M> {
    /// Creates a context for one handler invocation. Used by the simulator
    /// and by unit tests that drive actors directly.
    pub fn new(self_id: NodeId, now: SimTime, local_clock: SimTime) -> Self {
        Context::reusing(self_id, now, local_clock, Vec::new())
    }

    /// A context that records into `outputs`, an empty buffer whose capacity
    /// the simulator hands from one handler to the next; [`Context::finish`]
    /// gives it back.
    pub(crate) fn reusing(
        self_id: NodeId,
        now: SimTime,
        local_clock: SimTime,
        outputs: Vec<Output<M>>,
    ) -> Self {
        debug_assert!(outputs.is_empty(), "a handler starts with no outputs");
        Context {
            self_id,
            now,
            local_clock,
            charged: Duration::ZERO,
            outputs,
        }
    }

    /// Creates a context whose local clock equals global time — the shape
    /// every non-simulated runtime wants. The real-IO runtime (`basil-net`)
    /// builds one of these per delivered event: real deployments have no
    /// injected skew (each process reads its actual clock), so the two
    /// times coincide by construction.
    pub fn at(self_id: NodeId, now: SimTime) -> Self {
        Context::new(self_id, now, now)
    }

    /// The identity of the actor handling the event.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Global simulation time at which the handler started.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's local clock reading (global time plus the node's skew).
    /// Protocol code that timestamps operations must use this, not
    /// [`Context::now`], so that clock-skew effects are modelled.
    pub fn local_clock(&self) -> SimTime {
        self.local_clock
    }

    /// Sends a message to another node (or to self, which loops back through
    /// the network with loopback latency).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outputs.push(Output::Send { to, msg });
    }

    /// Schedules `msg` to be delivered back to this actor after `delay`
    /// (measured from the end of the current handler).
    pub fn schedule_self(&mut self, delay: Duration, msg: M) {
        self.outputs.push(Output::Timer { delay, msg });
    }

    /// Charges `cpu` of processing time to this node. The charged time
    /// occupies a core, delays this handler's outputs, and pushes back the
    /// start of subsequently queued work on the same core. The simulator
    /// adds [`crate::MESSAGE_CPU`] per message handled or sent on top, so a
    /// handler charges only its own work.
    pub fn charge(&mut self, cpu: Duration) {
        self.charged += cpu;
    }

    /// Total CPU charged so far in this handler, without the simulator's
    /// per-message charge.
    pub fn charged(&self) -> Duration {
        self.charged
    }

    /// Consumes the context, returning the recorded outputs and CPU charge.
    /// (The simulator drains the outputs and reuses the buffer for the next
    /// handler.)
    pub fn finish(self) -> (Vec<Output<M>>, Duration) {
        (self.outputs, self.charged)
    }

    /// The recorded outputs (for tests that inspect without consuming).
    pub fn outputs(&self) -> &[Output<M>] {
        &self.outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::ClientId;

    #[derive(Clone, Debug, PartialEq)]
    enum TestMsg {
        Ping,
        Pong,
    }

    struct Echo {
        pongs: usize,
    }

    impl Actor<TestMsg> for Echo {
        fn on_message(&mut self, ctx: &mut Context<TestMsg>, from: NodeId, msg: TestMsg) {
            if msg == TestMsg::Ping {
                ctx.charge(Duration::from_micros(10));
                ctx.send(from, TestMsg::Pong);
            } else {
                self.pongs += 1;
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn context_records_outputs_and_charges() {
        let me = NodeId::Client(ClientId(1));
        let other = NodeId::Client(ClientId(2));
        let mut ctx = Context::new(me, SimTime::from_millis(1), SimTime::from_millis(1));
        let mut echo = Echo { pongs: 0 };
        echo.on_message(&mut ctx, other, TestMsg::Ping);
        assert_eq!(ctx.charged(), Duration::from_micros(10));
        let (outputs, charged) = ctx.finish();
        assert_eq!(charged, Duration::from_micros(10));
        assert_eq!(outputs.len(), 1);
        match &outputs[0] {
            Output::Send { to, msg } => {
                assert_eq!(*to, other);
                assert_eq!(*msg, TestMsg::Pong);
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn default_on_timer_loops_back_to_on_message() {
        let me = NodeId::Client(ClientId(1));
        let mut ctx = Context::new(me, SimTime::ZERO, SimTime::ZERO);
        let mut echo = Echo { pongs: 0 };
        echo.on_timer(&mut ctx, TestMsg::Pong);
        assert_eq!(echo.pongs, 1);
    }

    #[test]
    fn schedule_self_records_timer() {
        let me = NodeId::Client(ClientId(1));
        let mut ctx: Context<TestMsg> = Context::new(me, SimTime::ZERO, SimTime::ZERO);
        ctx.schedule_self(Duration::from_millis(5), TestMsg::Ping);
        let (outputs, _) = ctx.finish();
        assert!(
            matches!(outputs[0], Output::Timer { delay, .. } if delay == Duration::from_millis(5))
        );
    }
}
