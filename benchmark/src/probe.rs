//! The benchmark-owned wrapper around `BasilClient`, sitting on the `Actor`
//! seam both runtimes drive.
//!
//! Untraced, it only watches the client's own counters after each handler to
//! log commits (with their exact latency), aborts, path decisions and sheds
//! against the runtime's clock — the histogram `ClientStats` carries is
//! bucketed, and `basil-node`'s results file carries no latency at all.
//!
//! Traced, it additionally times every handler, follows each transaction
//! through its phases by the messages the handler emits, and captures the
//! traffic exchanged with replica 0 for the wire and replica-replay probes.
//! Tracing is on in only half of the window's slices, so one run yields
//! CPU-per-commit with and without it: the tracing overhead is measured, not
//! assumed.

use crate::procfs;
use basil_common::{ClientId, NodeId, ReplicaId, ShardId};
use basil_core::messages::ClientTimer;
use basil_core::{BasilClient, BasilMsg};
use basil_simnet::actor::Output;
use basil_simnet::{Actor, Context};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Equal slices the window is cut into (throughput median, tracing on/off).
pub const SLICES: usize = 10;

/// How long a transaction may stay undecided before the end of a run counts
/// it as never decided: several times the longest retry chain the contended
/// workloads showed (2.5 s), on the workload's clock. No simulator run lasts
/// that long; there a wedged client fails the scenario's liveness check.
pub const STUCK_AFTER_NS: u64 = 10_000_000_000;

/// Messages captured per traced run (replica-0 traffic, both directions).
const CAPTURE_BUDGET: i64 = 40_000;
/// Spans kept per traced run; aggregates keep counting past it.
const SPAN_BUDGET: i64 = 60_000;

/// The replica whose traffic is captured: a uniform one-in-n sample of what
/// clients send (broadcasts reach every replica, reads a rotating subset).
pub const CAPTURED_REPLICA: NodeId = NodeId::Replica(ReplicaId {
    shard: ShardId(0),
    index: 0,
});

/// Run-wide tracing control shared by every probe of a run.
pub struct TraceCtl {
    /// Whether this run traces at all (`--trace 1`).
    pub traced: bool,
    /// Window start on the runtime's clock, nanoseconds.
    pub window_start_ns: u64,
    /// Window length, nanoseconds.
    pub window_ns: u64,
    /// Commits by honest clients so far (first-commit detection).
    pub commits: AtomicU64,
    /// Simulator runs are single-threaded, so the probe that first crosses a
    /// slice boundary samples this process's CPU clock there. `u64::MAX`
    /// disables it (TCP runs: the main thread samples every process).
    next_boundary_ns: AtomicU64,
    boundary_cpu_ns: Mutex<Vec<u64>>,
    commit_clock: Mutex<CommitClock>,
    capture_left: AtomicI64,
    span_left: AtomicI64,
}

impl TraceCtl {
    /// Control block for a window `[start, start + len)`.
    pub fn new(traced: bool, window_start_ns: u64, window_ns: u64, self_sampling: bool) -> Self {
        TraceCtl {
            traced,
            window_start_ns,
            window_ns,
            commits: AtomicU64::new(0),
            next_boundary_ns: AtomicU64::new(if self_sampling {
                window_start_ns
            } else {
                u64::MAX
            }),
            boundary_cpu_ns: Mutex::new(Vec::with_capacity(SLICES + 1)),
            commit_clock: Mutex::new(CommitClock {
                enabled: self_sampling,
                ..CommitClock::default()
            }),
            capture_left: AtomicI64::new(CAPTURE_BUDGET),
            span_left: AtomicI64::new(SPAN_BUDGET),
        }
    }

    /// End of the window.
    pub fn window_end_ns(&self) -> u64 {
        self.window_start_ns + self.window_ns
    }

    /// Time of slice boundary `i` (`0..=SLICES`).
    pub fn boundary_ns(&self, i: usize) -> u64 {
        self.window_start_ns + (self.window_ns as u128 * i as u128 / SLICES as u128) as u64
    }

    /// The slice `now` falls in, if inside the window.
    pub fn slice_of(&self, now: u64) -> Option<usize> {
        if now < self.window_start_ns || now >= self.window_end_ns() {
            return None;
        }
        let i = ((now - self.window_start_ns) as u128 * SLICES as u128 / self.window_ns as u128)
            as usize;
        Some(i.min(SLICES - 1))
    }

    /// Whether slice `i` of a traced run is traced. The pattern is
    /// off-on-on-off-off-on-on-off-off-on: five slices each way with nearly
    /// the same mean position, so a cost that drifts over the window (the
    /// store grows; nothing collects it) does not pass for tracing overhead.
    pub fn traced_slice(i: usize) -> bool {
        i.div_ceil(2) % 2 == 1
    }

    /// Whether handlers starting at `now` are traced.
    pub fn tracing(&self, now: u64) -> bool {
        self.traced && self.slice_of(now).is_some_and(Self::traced_slice)
    }

    /// Self-sampling: records this process's on-CPU time for every slice
    /// boundary `now` has reached.
    fn tick(&self, now: u64) {
        if now < self.next_boundary_ns.load(Ordering::Relaxed) {
            return;
        }
        let mut samples = self.boundary_cpu_ns.lock().expect("sampler lock poisoned");
        while samples.len() <= SLICES && now >= self.boundary_ns(samples.len()) {
            samples.push(procfs::self_on_cpu_ns());
        }
        let next = if samples.len() <= SLICES {
            self.boundary_ns(samples.len())
        } else {
            u64::MAX
        };
        self.next_boundary_ns.store(next, Ordering::Relaxed);
    }

    /// The CPU samples taken at slice boundaries (self-sampling runs).
    pub fn boundary_cpu(&self) -> Vec<u64> {
        self.boundary_cpu_ns
            .lock()
            .expect("sampler lock poisoned")
            .clone()
    }

    /// Counts one commit by an honest client at `now` on the runtime's clock.
    fn committed(&self, now: u64) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.commit_clock
            .lock()
            .expect("commit clock poisoned")
            .commit(self.slice_of(now).is_some());
    }

    /// Simulator runs: the wall-clock nanoseconds between consecutive commits
    /// inside the window, and when the run's first commit happened.
    pub fn take_commit_gaps(&self) -> (Vec<u64>, Option<Instant>) {
        let mut clock = self.commit_clock.lock().expect("commit clock poisoned");
        (std::mem::take(&mut clock.gaps_ns), clock.first_commit)
    }

    fn take_budget(counter: &AtomicI64) -> bool {
        counter.load(Ordering::Relaxed) > 0 && counter.fetch_sub(1, Ordering::Relaxed) > 0
    }
}

/// The simulator's stopwatch. The simulator is single-threaded and, for a
/// seed, deterministic: the work between the `i`-th and the `i+1`-th commit
/// inside the window is the same instructions in every repetition of a run.
/// Timing each such gap lets the report keep, per gap, the repetition the host
/// disturbed least.
#[derive(Default)]
struct CommitClock {
    enabled: bool,
    /// When the first commit of the run happened (set-up timing).
    first_commit: Option<Instant>,
    /// When the latest commit inside the window happened.
    last_in_window: Option<Instant>,
    gaps_ns: Vec<u64>,
}

impl CommitClock {
    fn commit(&mut self, in_window: bool) {
        if !self.enabled || (!in_window && self.first_commit.is_some()) {
            return;
        }
        let now = Instant::now();
        self.first_commit.get_or_insert(now);
        if in_window {
            if let Some(previous) = self.last_in_window.replace(now) {
                self.gaps_ns
                    .push(now.duration_since(previous).as_nanos() as u64);
            }
        }
    }
}

/// What happened, by the runtime's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ev {
    /// A transaction committed this long after its start or arrival.
    Commit {
        /// Start/arrival to durable decision, nanoseconds.
        latency_ns: u64,
    },
    /// An attempt aborted (and will be retried).
    Abort,
    /// A decision was reached in one round trip.
    Fast,
    /// A decision needed the ST2 logging round.
    Slow,
    /// An open-loop arrival was dropped at the admission bound.
    Shed,
}

/// Client handler kinds timed separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `on_start`.
    Start,
    /// Read reply.
    ReadReply,
    /// ST1 vote.
    St1Reply,
    /// ST2 acknowledgement.
    St2Reply,
    /// Forwarded decision certificate.
    Writeback,
    /// Any client timer.
    Timer,
    /// Anything else (misrouted traffic).
    Other,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 7;

impl Kind {
    fn of(msg: &BasilMsg) -> Kind {
        match msg {
            BasilMsg::ReadReply(_) => Kind::ReadReply,
            BasilMsg::St1Reply(_) => Kind::St1Reply,
            BasilMsg::St2Reply(_) => Kind::St2Reply,
            BasilMsg::Writeback(_) => Kind::Writeback,
            BasilMsg::ClientTimer(_) => Kind::Timer,
            _ => Kind::Other,
        }
    }

    /// Span name of the handler.
    pub fn name(&self) -> &'static str {
        match self {
            Kind::Start => "client.on_start",
            Kind::ReadReply => "client.on_read_reply",
            Kind::St1Reply => "client.on_st1_reply",
            Kind::St2Reply => "client.on_st2_reply",
            Kind::Writeback => "client.on_writeback",
            Kind::Timer => "client.on_timer",
            Kind::Other => "client.on_other",
        }
    }
}

/// Count and total real time of one handler kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Invocations.
    pub count: u64,
    /// Summed real duration, nanoseconds.
    pub ns: u64,
}

impl Agg {
    /// Mean microseconds per invocation (0 when never invoked).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// One span of the trace file.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer/handler/phase name.
    pub name: &'static str,
    /// Client that recorded it.
    pub client: u64,
    /// Span id, unique within the client.
    pub id: u32,
    /// The span that caused it (the transaction), if any.
    pub parent: Option<u32>,
    /// Transaction id prefix shared by every span of one transaction.
    pub tx: String,
    /// Start on the runtime's clock, nanoseconds.
    pub start_ns: u64,
    /// End, nanoseconds. Handler spans end at start + real duration.
    pub end_ns: u64,
}

/// A message exchanged with [`CAPTURED_REPLICA`].
#[derive(Clone, Debug)]
pub struct Captured {
    /// When the handler that sent/received it started.
    pub at_ns: u64,
    /// Client → replica (true) or replica → client.
    pub outbound: bool,
    /// The client end.
    pub client: NodeId,
    /// The message.
    pub msg: BasilMsg,
}

/// The four client-side phases of a transaction.
pub const PHASES: [&str; 4] = [
    "phase.execute",
    "phase.prepare",
    "phase.st2",
    "phase.writeback",
];

/// Everything a probe recorded.
#[derive(Default)]
pub struct ClientLog {
    /// Timestamped events over the whole run (not just the window).
    pub events: Vec<(u64, Ev)>,
    /// Open loop: `(fired_at, lateness)` of every arrival timer.
    pub late_ns: Vec<(u64, u64)>,
    /// Transactions never decided: still undecided when the run ended and
    /// older than [`STUCK_AFTER_NS`].
    pub stuck: u64,
    /// Traced slices: per-kind handler time.
    pub handlers: [Agg; KINDS],
    /// Traced slices: messages delivered to the client.
    pub msgs_in: u64,
    /// Traced slices: messages the client sent.
    pub msgs_out: u64,
    /// Traced slices: commits.
    pub traced_commits: u64,
    /// Traced slices: phase durations (ms) of first-attempt commits.
    pub phases: [Vec<f64>; 4],
    /// Traced slices: spans, up to the run's budget.
    pub spans: Vec<Span>,
    /// Traced slices: replica-0 traffic, up to the run's budget.
    pub captured: Vec<Captured>,
}

/// The transaction the client is currently driving, as seen from outside.
struct TxTrace {
    span_id: u32,
    start_ns: u64,
    aborted: bool,
    tx: Option<String>,
    st1_ns: Option<u64>,
    st2_ns: Option<u64>,
}

#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    committed: u64,
    aborted: u64,
    fast: u64,
    slow: u64,
    shed: u64,
}

/// `BasilClient` plus the observer described in the module docs.
pub struct ClientProbe {
    inner: BasilClient,
    ctl: std::sync::Arc<TraceCtl>,
    /// Byzantine clients are forwarded to untouched and never logged (the
    /// paper's methodology: only correct clients count).
    honest: bool,
    log: ClientLog,
    last: Counters,
    open_loop: bool,
    /// Closed loop: when the current transaction started.
    tx_start_ns: u64,
    /// Open loop: arrival instants of admitted, undecided transactions.
    pending: VecDeque<u64>,
    /// Open loop: when the armed arrival timer is due.
    arrival_due_ns: Option<u64>,
    cur: Option<TxTrace>,
    next_span: u32,
}

impl ClientProbe {
    /// Wraps `inner`.
    pub fn new(inner: BasilClient, ctl: std::sync::Arc<TraceCtl>, honest: bool) -> Self {
        ClientProbe {
            inner,
            ctl,
            honest,
            log: ClientLog::default(),
            last: Counters::default(),
            open_loop: false,
            tx_start_ns: 0,
            pending: VecDeque::new(),
            arrival_due_ns: None,
            cur: None,
            next_span: 0,
        }
    }

    /// The wrapped client.
    pub fn inner(&self) -> &BasilClient {
        &self.inner
    }

    /// Whether this probe logs (honest client).
    pub fn is_honest(&self) -> bool {
        self.honest
    }

    /// Takes the log at the end of the run, `end_ns` on the runtime's clock.
    /// A transaction still undecided then and older than [`STUCK_AFTER_NS`]
    /// counts as stuck; a younger one is in flight (a closed-loop client
    /// always has one, and a contended one may have been retrying for a
    /// second or two).
    pub fn finish(&mut self, end_ns: u64) -> ClientLog {
        let mut log = std::mem::take(&mut self.log);
        if self.honest {
            let stuck = |started: u64| end_ns.saturating_sub(started) > STUCK_AFTER_NS;
            log.stuck = if self.open_loop {
                self.pending.iter().filter(|t| stuck(**t)).count() as u64
            } else {
                u64::from(stuck(self.tx_start_ns))
            };
        }
        log
    }

    fn counters(&self) -> Counters {
        let s = self.inner.stats();
        Counters {
            committed: s.committed,
            aborted: s.aborted_attempts,
            fast: s.fast_path_decisions,
            slow: s.slow_path_decisions,
            shed: s.shed,
        }
    }

    fn client_id(&self) -> ClientId {
        self.inner.id()
    }

    /// Runs one handler of the wrapped client with the observer around it.
    fn observe(
        &mut self,
        ctx: &mut Context<BasilMsg>,
        kind: Kind,
        arrival: bool,
        inbound: Option<Captured>,
        run: impl FnOnce(&mut BasilClient, &mut Context<BasilMsg>),
    ) {
        let now = ctx.now().as_nanos();
        self.ctl.tick(now);
        if !self.honest {
            run(&mut self.inner, ctx);
            return;
        }
        let tracing = self.ctl.tracing(now);
        if arrival {
            if let Some(due) = self.arrival_due_ns.take() {
                self.log.late_ns.push((now, now.saturating_sub(due)));
            }
        }
        let outputs_before = ctx.outputs().len();

        let started = tracing.then(Instant::now);
        run(&mut self.inner, ctx);
        let real_ns = started.map_or(0, |t| t.elapsed().as_nanos() as u64);

        let after = self.counters();
        let before = std::mem::replace(&mut self.last, after);
        self.log_counter_moves(now, arrival, before, after);
        let committed = after.committed > before.committed;
        self.scan_outputs(ctx, outputs_before, now, kind, tracing);

        if tracing {
            let agg = &mut self.log.handlers[kind as usize];
            agg.count += 1;
            agg.ns += real_ns;
            if !matches!(kind, Kind::Timer | Kind::Start) {
                self.log.msgs_in += 1;
            }
            if let Some(msg) = inbound {
                if TraceCtl::take_budget(&self.ctl.capture_left) {
                    self.log.captured.push(msg);
                }
            }
            if TraceCtl::take_budget(&self.ctl.span_left) {
                let id = self.fresh_span();
                let (parent, tx) = match &self.cur {
                    Some(c) => (Some(c.span_id), c.tx.clone().unwrap_or_default()),
                    None => (None, String::new()),
                };
                self.log.spans.push(Span {
                    name: kind.name(),
                    client: self.client_id().0,
                    id,
                    parent,
                    tx,
                    start_ns: now,
                    end_ns: now + real_ns,
                });
            }
        }
        if committed {
            self.close_transaction(now, real_ns, tracing);
        }
    }

    fn fresh_span(&mut self) -> u32 {
        self.next_span += 1;
        self.next_span
    }

    /// Turns counter increments of the handler that just ran into events.
    fn log_counter_moves(&mut self, now: u64, arrival: bool, before: Counters, after: Counters) {
        for _ in before.shed..after.shed {
            self.log.events.push((now, Ev::Shed));
        }
        if arrival && after.shed == before.shed {
            self.pending.push_back(now);
        }
        for _ in before.aborted..after.aborted {
            self.log.events.push((now, Ev::Abort));
            if let Some(cur) = self.cur.as_mut() {
                cur.aborted = true;
            }
        }
        for _ in before.fast..after.fast {
            self.log.events.push((now, Ev::Fast));
        }
        for _ in before.slow..after.slow {
            self.log.events.push((now, Ev::Slow));
        }
        for _ in before.committed..after.committed {
            let started = if self.open_loop {
                self.pending.pop_front().unwrap_or(now)
            } else {
                std::mem::replace(&mut self.tx_start_ns, now)
            };
            self.log.events.push((
                now,
                Ev::Commit {
                    latency_ns: now.saturating_sub(started),
                },
            ));
            self.ctl.committed(now);
        }
    }

    /// Reads what the handler emitted: arms the lateness clock on arrival
    /// timers, follows the transaction's phases, captures replica-0 traffic.
    fn scan_outputs(
        &mut self,
        ctx: &Context<BasilMsg>,
        from_index: usize,
        now: u64,
        kind: Kind,
        tracing: bool,
    ) {
        let me = NodeId::Client(self.client_id());
        for output in &ctx.outputs()[from_index..] {
            match output {
                Output::Timer {
                    delay,
                    msg: BasilMsg::ClientTimer(ClientTimer::OpenLoopArrival),
                } => {
                    if kind == Kind::Start {
                        self.open_loop = true;
                    }
                    self.arrival_due_ns = Some(now + delay.as_nanos());
                }
                Output::Timer { .. } => {}
                Output::Send { to, msg } => {
                    if *to == me {
                        continue;
                    }
                    let begins_attempt = match msg {
                        BasilMsg::Read(_) => true,
                        BasilMsg::St1(st1) => !st1.recovery,
                        _ => false,
                    };
                    if begins_attempt && self.cur.is_none() {
                        let span_id = self.fresh_span();
                        self.cur = Some(TxTrace {
                            span_id,
                            start_ns: now,
                            aborted: false,
                            tx: None,
                            st1_ns: None,
                            st2_ns: None,
                        });
                    }
                    if let Some(cur) = self.cur.as_mut() {
                        match msg {
                            BasilMsg::St1(st1) if !st1.recovery && cur.st1_ns.is_none() => {
                                cur.st1_ns = Some(now);
                                cur.tx = Some(st1.tx.id().short_hex());
                            }
                            BasilMsg::St2(_) if cur.st2_ns.is_none() => cur.st2_ns = Some(now),
                            _ => {}
                        }
                    }
                    if tracing {
                        self.log.msgs_out += 1;
                        if *to == CAPTURED_REPLICA && TraceCtl::take_budget(&self.ctl.capture_left)
                        {
                            self.log.captured.push(Captured {
                                at_ns: now,
                                outbound: true,
                                client: me,
                                msg: msg.clone(),
                            });
                        }
                    }
                }
            }
        }
    }

    /// A commit closes the current transaction: record its phases and spans
    /// when it committed on its first attempt inside a traced slice.
    fn close_transaction(&mut self, now: u64, handler_ns: u64, tracing: bool) {
        let Some(cur) = self.cur.take() else { return };
        if !tracing {
            return;
        }
        self.log.traced_commits += 1;
        let (Some(st1), false) = (cur.st1_ns, cur.aborted) else {
            return;
        };
        let decided = now;
        let bounds = [
            Some((cur.start_ns, st1)),
            Some((st1, cur.st2_ns.unwrap_or(decided))),
            cur.st2_ns.map(|st2| (st2, decided)),
            Some((decided, decided + handler_ns)),
        ];
        let client = self.client_id().0;
        let tx = cur.tx.unwrap_or_default();
        let keep_spans = TraceCtl::take_budget(&self.ctl.span_left);
        if keep_spans {
            self.log.spans.push(Span {
                name: "tx",
                client,
                id: cur.span_id,
                parent: None,
                tx: tx.clone(),
                start_ns: cur.start_ns,
                end_ns: decided + handler_ns,
            });
        }
        for (i, bound) in bounds.iter().enumerate() {
            let Some((start, end)) = *bound else { continue };
            self.log.phases[i].push(end.saturating_sub(start) as f64 / 1e6);
            if keep_spans {
                let id = self.fresh_span();
                self.log.spans.push(Span {
                    name: PHASES[i],
                    client,
                    id,
                    parent: Some(cur.span_id),
                    tx: tx.clone(),
                    start_ns: start,
                    end_ns: end,
                });
            }
        }
    }
}

impl Actor<BasilMsg> for ClientProbe {
    fn on_start(&mut self, ctx: &mut Context<BasilMsg>) {
        self.tx_start_ns = ctx.now().as_nanos();
        self.observe(ctx, Kind::Start, false, None, |c, ctx| c.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId, msg: BasilMsg) {
        let kind = Kind::of(&msg);
        let now = ctx.now().as_nanos();
        let inbound =
            (self.honest && from == CAPTURED_REPLICA && self.ctl.tracing(now)).then(|| Captured {
                at_ns: now,
                outbound: false,
                client: NodeId::Client(self.client_id()),
                msg: msg.clone(),
            });
        let arrival = matches!(msg, BasilMsg::ClientTimer(ClientTimer::OpenLoopArrival));
        self.observe(ctx, kind, arrival, inbound, |c, ctx| {
            c.on_message(ctx, from, msg)
        });
    }

    fn on_timer(&mut self, ctx: &mut Context<BasilMsg>, msg: BasilMsg) {
        let arrival = matches!(msg, BasilMsg::ClientTimer(ClientTimer::OpenLoopArrival));
        self.observe(ctx, Kind::Timer, arrival, None, |c, ctx| {
            c.on_timer(ctx, msg)
        });
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

    #[test]
    fn slices_partition_the_window_and_alternate_tracing() {
        let ctl = TraceCtl::new(true, 1_000, 10_000, false);
        assert_eq!(ctl.slice_of(999), None);
        assert_eq!(ctl.slice_of(1_000), Some(0));
        assert_eq!(ctl.slice_of(1_999), Some(0));
        assert_eq!(ctl.slice_of(2_000), Some(1));
        assert_eq!(ctl.slice_of(10_999), Some(9));
        assert_eq!(ctl.slice_of(11_000), None);
        assert!(!ctl.tracing(1_500), "slice 0 runs untraced");
        assert!(ctl.tracing(2_500), "slice 1 runs traced");
        let traced: Vec<usize> = (0..SLICES).filter(|i| TraceCtl::traced_slice(*i)).collect();
        assert_eq!(traced, [1, 2, 5, 6, 9], "balanced against a linear drift");
        assert!(!ctl.tracing(500), "outside the window nothing is traced");
        assert_eq!(ctl.boundary_ns(0), 1_000);
        assert_eq!(ctl.boundary_ns(SLICES), ctl.window_end_ns());
        let untraced = TraceCtl::new(false, 1_000, 10_000, false);
        assert!(!untraced.tracing(2_500));
    }

    #[test]
    fn self_sampling_takes_one_sample_per_boundary_reached() {
        let ctl = TraceCtl::new(false, 1_000, 10_000, true);
        ctl.tick(500);
        assert!(ctl.boundary_cpu().is_empty());
        ctl.tick(1_000);
        assert_eq!(ctl.boundary_cpu().len(), 1);
        ctl.tick(3_500); // crosses boundaries 1 and 2
        assert_eq!(ctl.boundary_cpu().len(), 3);
        ctl.tick(3_600);
        assert_eq!(ctl.boundary_cpu().len(), 3);
        ctl.tick(50_000);
        assert_eq!(ctl.boundary_cpu().len(), SLICES + 1);
        ctl.tick(60_000);
        assert_eq!(ctl.boundary_cpu().len(), SLICES + 1, "never past the end");
        let off = TraceCtl::new(false, 1_000, 10_000, false);
        off.tick(50_000);
        assert!(off.boundary_cpu().is_empty());
    }

    #[test]
    fn commit_clock_times_the_gaps_between_commits_inside_the_window() {
        let ctl = TraceCtl::new(false, 1_000, 10_000, true);
        ctl.committed(500); // warm-up: the set-up clock stops here
        let (gaps, first) = ctl.take_commit_gaps();
        assert!(gaps.is_empty() && first.is_some());
        for t in [1_000, 1_001, 5_000, 10_999] {
            ctl.committed(t);
        }
        ctl.committed(20_000); // past the window: not timed
        let (gaps, first_again) = ctl.take_commit_gaps();
        assert_eq!(gaps.len(), 3, "four commits in the window, three gaps");
        assert_eq!(first_again, first, "only the very first commit is kept");
        assert_eq!(ctl.commits.load(Ordering::Relaxed), 6);
        // TCP runs (no self-sampling) keep nothing.
        let tcp = TraceCtl::new(false, 1_000, 10_000, false);
        tcp.committed(2_000);
        assert_eq!(tcp.take_commit_gaps(), (Vec::new(), None));
    }

    #[test]
    fn budgets_run_out() {
        let counter = AtomicI64::new(2);
        assert!(TraceCtl::take_budget(&counter));
        assert!(TraceCtl::take_budget(&counter));
        assert!(!TraceCtl::take_budget(&counter));
        assert!(!TraceCtl::take_budget(&counter));
    }
}
