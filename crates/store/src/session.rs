//! The client's transaction session: everything about running a transaction
//! that is not the commit protocol.
//!
//! The Basil client and the three baseline clients drive the same client
//! discipline — interactive transactions in a closed loop, aborted ones
//! reissued with exponential backoff (the paper's evaluation methodology) —
//! over different commit protocols. A [`Session`] owns that discipline once:
//! pulling the next [`TxProfile`] and stopping when the generator runs dry,
//! the instant latency is measured from, the strictly monotonic timestamp,
//! the execution cursor over the profile's operations (read-your-writes from
//! the write buffer, [`Op::RmwAdd`] deltas, the one read in flight), the
//! commit/abort accounting in [`SessionStats`], and the abort backoff.
//!
//! What stays with the protocol client: whom to ask for a read and how many
//! replies to wait for, which reply wins, signatures and certificates, the
//! commit protocol itself and its timers. The session therefore knows no
//! message type, no simulator context, no signature engine and no PRNG: the
//! client feeds it clock readings and read results, and draws the backoff
//! jitter itself (each client's random stream is pinned by golden traces, so
//! the draws stay where they were).

use crate::tx::TransactionBuilder;
use basil_common::{
    ClientId, Duration, Key, LatencyHistogram, Op, SimTime, Timestamp, TxGenerator, TxId,
    TxProfile, Value,
};
use std::collections::HashMap;

/// The wait after a transaction's first aborted attempt (plus the caller's
/// jitter); each further abort of the same transaction waits twice as long.
const RETRY_BACKOFF: Duration = Duration::from_micros(500);

/// The cap on the doubling abort backoff. The Basil client's retry timers
/// back off to the same cap.
pub const MAX_BACKOFF: Duration = Duration::from_millis(50);

/// Protocol-independent statistics of one client's session.
#[derive(Clone, Debug, Default)]
pub struct SessionStats {
    /// Transactions that committed.
    pub committed: u64,
    /// Attempts that ended in an abort.
    pub aborted_attempts: u64,
    /// Streaming histogram of commit latencies (arrival of the transaction
    /// to its durable decision, retries included) in nanoseconds; updated in
    /// O(1) per commit.
    pub latency: LatencyHistogram,
    /// Committed transactions per workload label.
    pub per_label: HashMap<&'static str, u64>,
    /// Remote read operations issued.
    pub reads_issued: u64,
    /// Transactions the workload offered. Under closed-loop driving this
    /// equals the number of transactions started, and the session counts it;
    /// the client of a paced generator counts every arrival, including the
    /// ones it sheds.
    pub offered: u64,
}

impl SessionStats {
    /// Mean commit latency in milliseconds (exact: the histogram carries
    /// the exact sum of samples).
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency.mean_ms()
    }

    /// Commit rate: committed / (committed + aborted attempts).
    pub fn commit_rate(&self) -> f64 {
        let total = self.committed + self.aborted_attempts;
        if total == 0 {
            return 1.0;
        }
        self.committed as f64 / total as f64
    }
}

/// What the session's transaction needs next.
#[derive(Debug)]
pub enum Step {
    /// The value of `key`: fetch it however the protocol reads, then answer
    /// with [`Session::read_returned`] under the same `req_id`.
    Read {
        /// Identifies the read; unique per session.
        req_id: u64,
        /// The key to read.
        key: Key,
    },
    /// Execution finished: the transaction is ready for the commit protocol.
    Ready(TransactionBuilder),
}

/// The one read in flight.
#[derive(Debug)]
struct PendingRead {
    req_id: u64,
    key: Key,
    /// Delta to apply if the read is part of a read-modify-write op.
    rmw_delta: Option<i64>,
}

/// An attempt under execution: the transaction so far and the cursor over
/// the profile's operations.
#[derive(Debug)]
struct Executing {
    builder: TransactionBuilder,
    next_op: usize,
    pending: Option<PendingRead>,
}

#[derive(Debug)]
enum Stage {
    Executing(Executing),
    /// Handed to the commit protocol as [`Step::Ready`].
    Committing,
    /// Waiting out the backoff after an abort.
    WaitingRetry,
}

#[derive(Debug)]
struct InFlight {
    profile: TxProfile,
    arrived: SimTime,
    stage: Stage,
}

/// One client's transaction session (see the module docs).
pub struct Session {
    id: ClientId,
    generator: Box<dyn TxGenerator>,
    last_ts: u64,
    next_req_id: u64,
    current: Option<InFlight>,
    stopped: bool,
    paced: bool,
    backoff: Duration,
}

impl Session {
    /// A session of client `id` over `generator`. The first abort of a
    /// transaction waits `RETRY_BACKOFF` (plus the caller's jitter), each
    /// further one twice as long, up to [`MAX_BACKOFF`].
    pub fn new(id: ClientId, generator: Box<dyn TxGenerator>) -> Self {
        Session {
            id,
            generator,
            last_ts: 0,
            next_req_id: 0,
            current: None,
            stopped: false,
            paced: false,
            backoff: RETRY_BACKOFF,
        }
    }

    /// The client's identity.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Whether the generator is exhausted.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Whether no transaction is in flight.
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// The generator's [`TxGenerator::next_arrival_delay`]: `Some` for a
    /// paced (open-loop) generator, which the session remembers.
    pub fn next_arrival_delay(&mut self) -> Option<Duration> {
        let delay = self.generator.next_arrival_delay();
        self.paced |= delay.is_some();
        delay
    }

    /// Whether the generator paces arrivals (open loop): it answered
    /// [`Session::next_arrival_delay`] with a delay.
    pub fn is_paced(&self) -> bool {
        self.paced
    }

    /// A timestamp from the client's `clock`, strictly above every earlier
    /// one even if the clock stands still.
    pub fn fresh_timestamp(&mut self, clock: SimTime) -> Timestamp {
        self.last_ts = clock.as_nanos().max(self.last_ts + 1);
        Timestamp::from_nanos(self.last_ts, self.id)
    }

    /// Pulls the next transaction from the generator and begins its first
    /// attempt, timestamped from `clock`. Latency is measured from
    /// `arrived`: now for a closed loop — where starting a transaction is
    /// also what offers it — and the (possibly earlier) arrival instant for
    /// a paced one, so queueing delay counts. `false` once the generator is
    /// exhausted — the session is then stopped for good.
    pub fn start(&mut self, arrived: SimTime, clock: SimTime, stats: &mut SessionStats) -> bool {
        if self.stopped {
            return false;
        }
        let Some(profile) = self.generator.next_tx() else {
            self.stopped = true;
            return false;
        };
        self.current = Some(InFlight {
            profile,
            arrived,
            stage: Stage::WaitingRetry, // replaced at once by begin_attempt
        });
        if !self.paced {
            stats.offered += 1;
        }
        self.backoff = RETRY_BACKOFF;
        self.begin_attempt(clock);
        true
    }

    /// The backoff ran out: begins the next attempt of the aborted
    /// transaction. `false` (and nothing happens) unless one is waiting.
    pub fn retry(&mut self, clock: SimTime) -> bool {
        let waiting = matches!(&self.current, Some(c) if matches!(c.stage, Stage::WaitingRetry));
        if waiting {
            self.begin_attempt(clock);
        }
        waiting
    }

    fn begin_attempt(&mut self, clock: SimTime) {
        let ts = self.fresh_timestamp(clock);
        if let Some(current) = self.current.as_mut() {
            current.stage = Stage::Executing(Executing {
                builder: TransactionBuilder::new(ts),
                next_op: 0,
                pending: None,
            });
        }
    }

    /// Executes operations until the transaction needs something from the
    /// protocol: buffers writes, answers reads of keys it wrote from the
    /// buffer, and stops at the first remote read or at the end. `None`
    /// while a read is in flight or no attempt is executing.
    pub fn advance_execution(&mut self, stats: &mut SessionStats) -> Option<Step> {
        let current = self.current.as_mut()?;
        let Stage::Executing(exec) = &mut current.stage else {
            return None;
        };
        if exec.pending.is_some() {
            return None;
        }
        while let Some(op) = current.profile.ops.get(exec.next_op) {
            let rmw_delta = match op {
                Op::Write(key, value) => {
                    exec.builder.record_write(key.clone(), value.clone());
                    exec.next_op += 1;
                    continue;
                }
                Op::Read(_) => None,
                Op::RmwAdd { delta, .. } => Some(*delta),
            };
            let key = op.key().clone();
            // Read-your-writes: a buffered write satisfies the read locally.
            if let Some(buffered) = exec.builder.buffered_value(&key) {
                if let Some(delta) = rmw_delta {
                    let new = apply_delta(buffered, delta);
                    exec.builder.record_write(key, new);
                }
                exec.next_op += 1;
                continue;
            }
            self.next_req_id += 1;
            let req_id = self.next_req_id;
            exec.pending = Some(PendingRead {
                req_id,
                key: key.clone(),
                rmw_delta,
            });
            stats.reads_issued += 1;
            return Some(Step::Read { req_id, key });
        }
        match std::mem::replace(&mut current.stage, Stage::Committing) {
            Stage::Executing(exec) => Some(Step::Ready(exec.builder)),
            _ => None,
        }
    }

    /// The read in flight: its `req_id`, its key, and the timestamp of the
    /// attempt that reads.
    pub fn pending_read(&self) -> Option<(u64, &Key, Timestamp)> {
        match &self.current.as_ref()?.stage {
            Stage::Executing(exec) => {
                let read = exec.pending.as_ref()?;
                Some((read.req_id, &read.key, exec.builder.timestamp()))
            }
            _ => None,
        }
    }

    /// Read `req_id` returned `value` at `version` — written by the prepared
    /// but undecided transaction `dependency`, if any. Records the read (and
    /// the write of a read-modify-write) and moves to the next operation.
    /// `false`, and nothing is recorded, unless `req_id` is the read in
    /// flight.
    pub fn read_returned(
        &mut self,
        req_id: u64,
        version: Timestamp,
        value: Value,
        dependency: Option<TxId>,
    ) -> bool {
        let Some(Stage::Executing(exec)) = self.current.as_mut().map(|c| &mut c.stage) else {
            return false;
        };
        let Some(read) = exec.pending.take_if(|p| p.req_id == req_id) else {
            return false;
        };
        match dependency {
            Some(dep) => exec
                .builder
                .record_dependent_read(read.key.clone(), version, dep),
            None => exec.builder.record_read(read.key.clone(), version),
        };
        if let Some(delta) = read.rmw_delta {
            exec.builder
                .record_write(read.key, apply_delta(&value, delta));
        }
        exec.next_op += 1;
        true
    }

    /// The transaction committed at `now`: records its latency (from its
    /// arrival, whatever the number of attempts) and label, and ends it.
    pub fn committed(&mut self, now: SimTime, stats: &mut SessionStats) {
        stats.committed += 1;
        if let Some(current) = self.current.take() {
            stats.latency.record((now - current.arrived).as_nanos());
            *stats.per_label.entry(current.profile.label).or_insert(0) += 1;
        }
    }

    /// The attempt aborted. Returns the backoff to wait — plus a jitter of
    /// up to as much again, which the caller draws from its own PRNG —
    /// before calling [`Session::retry`]; the next abort of the same
    /// transaction waits twice as long, up to the cap.
    pub fn aborted(&mut self, stats: &mut SessionStats) -> Duration {
        stats.aborted_attempts += 1;
        if let Some(current) = self.current.as_mut() {
            current.stage = Stage::WaitingRetry;
        }
        let wait = self.backoff;
        self.backoff = Duration::from_nanos((wait.as_nanos() * 2).min(MAX_BACKOFF.as_nanos()));
        wait
    }

    /// Drops the transaction in flight without recording an outcome (a
    /// Byzantine client stalling it, or one that will not retry its abort).
    pub fn abandon(&mut self) {
        self.current = None;
    }
}

/// `value` read as a `u64` counter (0 if it is not one) plus `delta`,
/// saturating at both ends.
pub fn apply_delta(value: &Value, delta: i64) -> Value {
    let current = value.as_u64().unwrap_or(0);
    let new = if delta >= 0 {
        current.saturating_add(delta as u64)
    } else {
        current.saturating_sub(delta.unsigned_abs())
    };
    Value::from_u64(new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::ScriptedGenerator;

    const MS: fn(u64) -> SimTime = SimTime::from_millis;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn v(n: u64) -> Value {
        Value::from_u64(n)
    }

    fn rmw(key: &str, delta: i64) -> Op {
        Op::RmwAdd { key: k(key), delta }
    }

    /// A session over `scripts` (one transaction each), with its first
    /// transaction started at 10 ms.
    fn started(scripts: Vec<Vec<Op>>) -> (Session, SessionStats) {
        let profiles = scripts.into_iter().map(|ops| TxProfile::new("t", ops));
        let mut session = Session::new(ClientId(3), Box::new(ScriptedGenerator::new(profiles)));
        let mut stats = SessionStats::default();
        session.start(MS(10), MS(10), &mut stats);
        (session, stats)
    }

    fn expect_read(step: Option<Step>, key: &str) -> u64 {
        match step {
            Some(Step::Read { req_id, key: got }) if got == k(key) => req_id,
            other => panic!("expected a read of {key}, got {other:?}"),
        }
    }

    fn expect_ready(step: Option<Step>) -> crate::Transaction {
        match step {
            Some(Step::Ready(builder)) => builder.build(),
            other => panic!("expected a finished execution, got {other:?}"),
        }
    }

    #[test]
    fn write_only_profile_is_ready_at_once() {
        let ops = vec![Op::Write(k("a"), v(1)), Op::Write(k("b"), v(2))];
        let (mut session, mut stats) = started(vec![ops]);
        let tx = expect_ready(session.advance_execution(&mut stats));
        assert_eq!(tx.written_value(&k("a")), Some(&v(1)));
        assert_eq!(tx.written_value(&k("b")), Some(&v(2)));
        assert!(tx.read_set().is_empty());
        assert_eq!(tx.timestamp(), Timestamp::new(MS(10), ClientId(3)));
        assert_eq!((stats.offered, stats.reads_issued), (1, 0));
        // The builder is with the commit protocol now.
        assert!(session.advance_execution(&mut stats).is_none());
    }

    #[test]
    fn a_read_is_yielded_and_execution_resumes_when_it_is_answered() {
        let ops = vec![Op::Read(k("a")), Op::Write(k("b"), v(2)), Op::Read(k("c"))];
        let (mut session, mut stats) = started(vec![ops]);
        let first = expect_read(session.advance_execution(&mut stats), "a");
        let attempt_ts = Timestamp::new(MS(10), ClientId(3));
        assert_eq!(session.pending_read(), Some((first, &k("a"), attempt_ts)));
        assert!(
            session.advance_execution(&mut stats).is_none(),
            "one read in flight at a time"
        );
        let dep = TxId::from_bytes([7; 32]);
        assert!(session.read_returned(
            first,
            Timestamp::from_nanos(5, ClientId(9)),
            v(1),
            Some(dep)
        ));
        let second = expect_read(session.advance_execution(&mut stats), "c");
        assert!(second > first);
        assert!(session.read_returned(second, Timestamp::ZERO, Value::empty(), None));
        let tx = expect_ready(session.advance_execution(&mut stats));
        let reads: Vec<_> = tx
            .read_set()
            .iter()
            .map(|r| (r.key.clone(), r.version))
            .collect();
        assert_eq!(
            reads,
            vec![
                (k("a"), Timestamp::from_nanos(5, ClientId(9))),
                (k("c"), Timestamp::ZERO)
            ]
        );
        assert_eq!(tx.deps().len(), 1);
        assert_eq!(tx.deps()[0].txid, dep);
        assert_eq!(tx.written_value(&k("b")), Some(&v(2)));
        assert_eq!(stats.reads_issued, 2);
    }

    #[test]
    fn a_written_key_is_read_from_the_buffer() {
        let ops = vec![Op::Write(k("a"), v(3)), Op::Read(k("a")), rmw("a", 4)];
        let (mut session, mut stats) = started(vec![ops]);
        let tx = expect_ready(session.advance_execution(&mut stats));
        assert!(tx.read_set().is_empty(), "no version was observed");
        assert_eq!(tx.written_value(&k("a")), Some(&v(7)));
        assert_eq!(stats.reads_issued, 0);
    }

    #[test]
    fn rmw_adds_to_a_fetched_value_and_saturates() {
        let ops = vec![rmw("a", 5), rmw("b", -10), rmw("b", 2), rmw("c", 1)];
        let (mut session, mut stats) = started(vec![ops]);
        let a = expect_read(session.advance_execution(&mut stats), "a");
        session.read_returned(a, Timestamp::ZERO, v(10), None);
        let b = expect_read(session.advance_execution(&mut stats), "b");
        session.read_returned(b, Timestamp::ZERO, v(3), None);
        // The second RMW of `b` runs over the buffered 0; `c` holds no
        // counter and counts from 0.
        let c = expect_read(session.advance_execution(&mut stats), "c");
        session.read_returned(c, Timestamp::ZERO, Value::empty(), None);
        let tx = expect_ready(session.advance_execution(&mut stats));
        assert_eq!(tx.written_value(&k("a")), Some(&v(15)));
        assert_eq!(
            tx.written_value(&k("b")),
            Some(&v(2)),
            "3 - 10 saturates at 0"
        );
        assert_eq!(tx.written_value(&k("c")), Some(&v(1)));
        assert_eq!(tx.read_set().len(), 3);
        assert_eq!(apply_delta(&v(u64::MAX), 1), v(u64::MAX));
    }

    #[test]
    fn a_stale_read_answer_is_ignored() {
        let (mut session, mut stats) = started(vec![vec![Op::Read(k("a"))]]);
        let req_id = expect_read(session.advance_execution(&mut stats), "a");
        assert!(!session.read_returned(req_id + 1, Timestamp::ZERO, v(1), None));
        assert!(matches!(session.pending_read(), Some((id, ..)) if id == req_id));
        assert!(session.read_returned(req_id, Timestamp::ZERO, v(1), None));
        assert!(
            !session.read_returned(req_id, Timestamp::ZERO, v(2), None),
            "answered once"
        );
        assert_eq!(
            expect_ready(session.advance_execution(&mut stats))
                .read_set()
                .len(),
            1
        );
    }

    #[test]
    fn timestamps_increase_while_the_clock_stands_still() {
        let (mut session, _) = started(vec![]);
        let a = session.fresh_timestamp(MS(5));
        let b = session.fresh_timestamp(MS(5));
        let c = session.fresh_timestamp(MS(4));
        let d = session.fresh_timestamp(MS(6));
        assert!(a < b && b < c && c < d);
        assert_eq!(a, Timestamp::new(MS(5), ClientId(3)));
        assert_eq!(d, Timestamp::new(MS(6), ClientId(3)));
    }

    #[test]
    fn abort_backoff_doubles_to_the_cap_and_resets_per_transaction() {
        let write = vec![Op::Write(k("a"), v(1))];
        let (mut session, mut stats) = started(vec![write.clone(), write]);
        let mut waits = Vec::new();
        for _ in 0..9 {
            expect_ready(session.advance_execution(&mut stats));
            assert!(!session.retry(MS(11)), "nothing to retry while committing");
            waits.push(session.aborted(&mut stats).as_micros());
            assert!(session.advance_execution(&mut stats).is_none());
            assert!(session.retry(MS(11)));
        }
        assert_eq!(
            waits,
            vec![500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 50_000, 50_000]
        );
        assert_eq!(stats.aborted_attempts, 9);
        expect_ready(session.advance_execution(&mut stats));
        session.committed(MS(20), &mut stats);
        assert!(session.is_idle());
        // The next transaction starts over at the base.
        session.start(MS(20), MS(20), &mut stats);
        expect_ready(session.advance_execution(&mut stats));
        assert_eq!(session.aborted(&mut stats), RETRY_BACKOFF);
    }

    #[test]
    fn latency_runs_from_the_arrival_not_from_the_retry() {
        let (mut session, mut stats) = started(vec![vec![Op::Write(k("a"), v(1))]]);
        let first = expect_ready(session.advance_execution(&mut stats));
        session.aborted(&mut stats);
        assert!(session.retry(MS(30)));
        let second = expect_ready(session.advance_execution(&mut stats));
        assert!(
            second.timestamp() > first.timestamp(),
            "a retry is re-timestamped"
        );
        session.committed(MS(50), &mut stats);
        assert_eq!((stats.committed, stats.aborted_attempts), (1, 1));
        assert_eq!(stats.per_label.get("t"), Some(&1));
        assert_eq!(
            stats.mean_latency_ms(),
            40.0,
            "50 ms - the arrival at 10 ms"
        );
        assert_eq!(stats.commit_rate(), 0.5);
    }

    #[test]
    fn an_abandoned_transaction_records_nothing() {
        let (mut session, mut stats) = started(vec![vec![Op::Read(k("a"))]]);
        expect_read(session.advance_execution(&mut stats), "a");
        session.abandon();
        assert!(session.is_idle() && !session.is_stopped());
        assert_eq!(session.pending_read(), None);
        assert_eq!((stats.committed, stats.aborted_attempts), (0, 0));
    }

    #[test]
    fn generator_exhaustion_stops_the_session() {
        let (mut session, mut stats) = started(vec![vec![]]);
        assert!(expect_ready(session.advance_execution(&mut stats)).is_empty());
        session.committed(MS(10), &mut stats);
        assert!(!session.is_stopped());
        assert!(!session.start(MS(11), MS(11), &mut stats));
        assert!(session.is_stopped() && session.is_idle());
        assert_eq!(stats.offered, 1, "only what was started was offered");
        assert!(!session.start(MS(12), MS(12), &mut stats));
        assert!(session.advance_execution(&mut stats).is_none());
    }
}
